"""Euler-Maruyama simulation of controlled goodwill paths and Monte Carlo
evaluation of discounted performance functionals.

Randomness contract: every path owns a counter-based substream keyed by
(seed, path index), so results are bit-identical no matter how paths are
blocked or ordered. Normals come from inverse-CDF applied to 53-bit
uniforms of a keyed Philox generator. Philox is counter-based and the
inverse CDF acts element by element, so the normals of steps k0..k1-1 of
any set of paths, drawn after moving each substream's counter to k0, are
bit for bit that slice of the full block.

A large draw splits its rows (paths) into contiguous runs of whole
_ROW_CHUNK-row chunks, one per thread, up to the number of CPUs in the
process's affinity mask; Philox and ndtri release the GIL, so the
threads draw in parallel. Each thread has its own generator and buffer
and writes only its own columns of the one output array, so the bits
depend on neither the thread count nor the scheduling. There is no
setting; a draw of fewer than 2*_THREAD_NORMALS normals stays on the
calling thread.

Both estimators cut their paths into blocks of
min(DEFAULT_BLOCK, max(1, 2^23 // n_steps)) paths; the grid sets the
width and there is no option. Blocks are stored time-major:
block_normals returns its (paths, steps) matrix z as the transpose of a
C-ordered (steps, paths) array, so z[:, k], the normals of step k across
the block, is one contiguous row. The step kernels read it that way and
update their state vectors in place. evaluate_policy's kernel reads a
block in windows of at most 2^22 normals (32 MiB), max(1, 2^22 // paths)
steps each: a block that fits in one window is block_normals' cached
block, and a longer one is drawn a window at a time into one buffer that
each window overwrites, so it holds 32 MiB of normals however long the
grid is, and is never cached. A stopped path reads its normals only
until it stops, so the stopping kernel draws them a window of _WINDOW
steps at a time, for the paths still running. simulate_path and
simulate_stopped run the same kernels on the one-path block [0], with a
control that records the state and control of every step; they draw its
normals outside the cache below, so a single path never evicts a block.

The normals cache has two independent residents, so paired comparisons
on common random numbers that alternate between policy evaluations and
stopping evaluations draw each block once. Each is replaced only by a
new key of its own kind, the old one let go before the new one is drawn:
- the whole block last asked of block_normals, keyed by (seed, indices,
  n, antithetic), read-only and returned again without drawing when the
  same block is asked for;
- the windowed block last run by stopping_cost_report, keyed by (seed,
  indices, n), a store with one entry per window that some path reached:
  the window's normals for just the paths drawn in it, one column each,
  and a map from block position to column. A later stopping run on the
  same key draws only the paths and windows that earlier runs did not
  reach.
So at most one whole block (8 bytes per normal) and one windowed block
are held. The windowed block is about as large as the normals its paths
read: about 2.2 MB on criterion 11's 2,000 stopped paths x 4,000 steps.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._scipy import ndtri
from .errors import ParamError, PolicyError, SolverError
from .model import (MEMBERSHIP_TOL, ModelParams, Policy, as_count, as_real, as_seed, check_fields,
                    interval)

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)
DEFAULT_BLOCK = 4096
# most normals in a block of more than one path: 2^23, 64 MiB
_BLOCK_NORMALS = 1 << 23
# most normals evaluate_policy's kernel holds of a block: 2^22, 32 MiB.
# Shorter windows cost time: each starts every row's Philox substream
# again, and those restarts hold the GIL.
_WINDOW_NORMALS = 1 << 22
# paths drawn row by row into one buffer before it is transposed into the
# block; small enough to stay in cache at a few thousand steps
_ROW_CHUNK = 64
# fewest normals a draw gives each thread: about 5 ms of Philox and
# ndtri, against 0.1 ms to start and join a thread
_THREAD_NORMALS = 1 << 17
# steps of normals the stopping kernel draws at a time for its running paths
_WINDOW = 64


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, so taskset and cgroup cpusets limit the draw's threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw(seed: int, indices: np.ndarray, k0: int, k1: int,
          antithetic: bool = False, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Time-major (k1 - k0, len(indices)) array of normals k0..k1-1 of
    each path's substream: out, a C-ordered array of that shape, filled
    in, or a new array.

    The rows are cut into contiguous slices of whole _ROW_CHUNK-row
    chunks, one per thread, at most one thread per _THREAD_NORMALS
    normals and per CPU. The calling thread draws the first slice and
    worker threads the others; each writes only its own columns of out.
    Every worker is joined before the exception of the first failed
    slice is raised.
    """
    if out is None:
        out = np.empty((k1 - k0, indices.size))
    chunks = -(-indices.size // _ROW_CHUNK)
    parts = max(1, min(_cpus(), chunks, out.size // _THREAD_NORMALS))
    cuts = [min(chunks * i // parts * _ROW_CHUNK, indices.size) for i in range(parts + 1)]
    errors = [None] * parts

    def work(i):
        try:
            _draw_rows(seed, indices[cuts[i] : cuts[i + 1]], k0, antithetic,
                       out[:, cuts[i] : cuts[i + 1]])
        except BaseException as e:  # raised by the caller once all are joined
            errors[i] = e

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, parts)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    for e in errors:
        if e is not None:
            raise e
    return out


def _draw_rows(seed: int, indices: np.ndarray, k0: int, antithetic: bool,
               out: np.ndarray) -> None:
    """Fill the time-major out with normals k0.. of each path's substream.

    Draw k of a substream is word k % 4 of the Philox block at counter
    k // 4 + 1, so each row starts from counter k0 // 4 and drops its
    first k0 % 4 draws. antithetic pairs the paths as block_normals does.
    """
    # one generator whose key word 1 is reset per row: setting a state of
    # Python ints is cheaper than building a Philox or a uint64 key array
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    key = [int(seed) & _MASK64, 0]
    state = bg.state
    state["state"] = {"counter": [k0 >> 2, 0, 0, 0], "key": key}
    state["buffer"] = [0, 0, 0, 0]
    skip = k0 & 3
    buf = np.empty((min(_ROW_CHUNK, indices.size), out.shape[0] + skip))
    for r0 in range(0, indices.size, _ROW_CHUNK):
        rows = indices[r0 : r0 + _ROW_CHUNK]
        for row, idx in enumerate(rows):
            base = int(idx) >> 1 if antithetic else int(idx)
            key[1] = base & _MASK64
            bg.state = state
            # random() is (raw >> 11) * 2^-53, so this is (k + 0.5) / 2^53
            # for the 53-bit integer k that integers(0, 2^53) would draw
            gen.random(out=buf[row])
        chunk = buf[: rows.size, skip:]
        chunk += 0.5 / _TWO53
        ndtri(chunk, out=chunk)
        if antithetic:
            chunk[(rows & 1) == 1] *= -1.0
        out[:, r0 : r0 + rows.size] = chunk.T


# The two residents of the normals cache. _whole is (key, z) of the last
# whole block, z the (paths, steps) matrix; only block_normals reads and
# writes it. _windowed is (key, store) of the last windowed block of
# stopping_cost_report; only _resident_store swaps it. store[w] is None
# until a path reaches the _WINDOW-step window w, then (z, col), z the
# time-major normals of the paths drawn so far in the window and col the
# (paths,) map from block position to column of z, -1 where the path is
# not drawn. Each is swapped as one tuple, so a key is never seen with
# another key's block.
_whole = None
_windowed = None


def block_normals(seed: int, indices, n: int, antithetic: bool = False) -> np.ndarray:
    """Read-only (len(indices), n) matrix of normals, one keyed substream per row.

    The matrix is the transpose of a C-ordered (n, len(indices)) array, so
    each column z[:, k] is contiguous. With antithetic=True, paths 2j and
    2j+1 share the substream keyed by j and the odd path gets the
    sign-flipped draws. A call with the same arguments as the last one
    returns that call's array without drawing.
    """
    global _whole
    indices = np.asarray(indices, dtype=np.int64)
    key = (int(seed), indices.tobytes(), int(n), bool(antithetic))
    whole = _whole
    if whole is not None and whole[0] == key:
        return whole[1]
    _whole = whole = None  # let the previous block go before the next is drawn
    zt = _draw(seed, indices, 0, int(n), antithetic)
    zt.flags.writeable = False
    z = zt.T
    _whole = (key, z)
    return z


def _block_windows(seed: int, indices: np.ndarray, n: int, antithetic: bool):
    """The normals of block (seed, indices, n) for _euler_block: time-major
    windows of max(1, _WINDOW_NORMALS // len(indices)) steps, in order.

    A block of one window is block_normals' block, cached. A longer one is
    drawn a window at a time into one buffer, which the next window
    overwrites, and is not cached. The buffer is always _WINDOW_NORMALS
    normals: with its header that is past glibc malloc's largest dynamic
    mmap threshold (32 MiB), so it is always mapped and its free leaves the
    threshold alone. Freeing a mapped chunk of at most 32 MiB raises the
    threshold to its size, and later arrays of that size then stay on the
    heap, which grows.
    """
    steps = max(1, _WINDOW_NORMALS // indices.size)
    if n <= steps:
        yield block_normals(seed, indices, n, antithetic).T
        return
    buf = np.empty(_WINDOW_NORMALS)[: steps * indices.size].reshape(steps, indices.size)
    for k0 in range(0, n, steps):
        k1 = min(k0 + steps, n)
        yield _draw(seed, indices, k0, k1, antithetic, out=buf[: k1 - k0])


def _new_store(n: int) -> list:
    """An empty window store for a block of n steps."""
    return [None] * -(-n // _WINDOW)


def _resident_store(seed: int, indices, n: int) -> list:
    """The windowed resident's store when its key is (seed, indices, n),
    else a new one that replaces it."""
    global _windowed
    key = (int(seed), np.asarray(indices, dtype=np.int64).tobytes(), int(n))
    res = _windowed
    if res is None or res[0] != key:
        _windowed = res = None  # let the old store go before the new one is made
        _windowed = res = (key, _new_store(n))
    return res[1]


class _Windows:
    """Normals of the block (seed, indices, n) for the stopping kernel,
    drawn _WINDOW steps at a time for the paths that reach the window,
    into the caller's store (_new_store or _resident_store).

    The store holds each window's normals only for the paths drawn in it,
    one column each, so it is about as large as the normals its paths
    read: about 2.2 MB on 2,000 paths that stop within 4,000 steps.
    """

    def __init__(self, seed: int, indices, n: int, store: list):
        self.seed, self.indices, self.n = seed, np.asarray(indices, dtype=np.int64), int(n)
        self.store = store

    def window(self, k0: int, act: np.ndarray):
        """(zw, col): the time-major normals zw of steps k0..k0+_WINDOW-1
        (cut at n) and, for each block position in act, its column of zw.
        Only the paths of act not drawn in the window before are drawn."""
        k1 = min(k0 + _WINDOW, self.n)
        w = k0 // _WINDOW
        entry = self.store[w]
        if entry is None:
            entry = (np.empty((k1 - k0, 0)), np.full(self.indices.size, -1, dtype=np.intp))
        z, col = entry
        need = act[col[act] < 0]
        if need.size:
            new = _draw(self.seed, self.indices[need], k0, k1)
            col = col.copy()
            col[need] = np.arange(z.shape[1], z.shape[1] + need.size)
            z = np.concatenate((z, new), axis=1) if z.shape[1] else new
            self.store[w] = (z, col)  # only once the normals are in place
        return z, col[act]


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid; node k is t0 + k*dt computed from integers.
    t0 < t_end are finite floats, n_steps a count in [1, MAX_SIZE] and
    dt = (t_end - t0)/n_steps finite and > 0 (ParamError otherwise)."""

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        check_fields(self, ("t0", "t_end"), interval("t0", "t_end"), [("n_steps", 1)])
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ParamError("dt finite and > 0")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    def nodes(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class EvalReport:
    mean: float
    std_error: float
    n_paths: int
    seed: int
    min_state: float
    bias_bound: Optional[float] = None
    truncated_fraction: Optional[float] = None
    samples: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class StoppedPathResult:
    """One stopped path. cost = y(tau)^2 + gamma1*int u^2 dt + gamma2*tau,
    with tau the first grid time where y <= x0 (t_end if never, truncated set).
    """

    t_path: np.ndarray
    y_path: np.ndarray
    u_path: np.ndarray
    tau: float
    cost: float
    truncated: bool


def _check_controls(pol: Policy, u: np.ndarray) -> None:
    if not pol.control_set.contains(u):
        raise PolicyError(
            "policy %r emitted a control outside [%g, %g]"
            % (pol.kind, pol.control_set.lower, pol.control_set.upper)
        )


def _block_width(n_steps: int) -> int:
    """Paths per block: DEFAULT_BLOCK, cut so that a block holds at most
    _BLOCK_NORMALS normals, and at least one path."""
    return min(DEFAULT_BLOCK, max(1, _BLOCK_NORMALS // n_steps))


def _run_blocks(what: str, kernel: Callable, n_paths: int, seed: int, n_steps: int,
                start: float, keep_samples: bool, bias_bound: Optional[float] = None
                ) -> EvalReport:
    """Estimate from n_paths samples drawn in blocks of _block_width(n_steps)
    paths: kernel(idx) gives the samples, the smallest state and the number
    of truncated paths of the block of path indices idx. A stopping run,
    the one with a bias_bound, also reports its truncated fraction.

    SolverError unless the mean and standard error are finite, which they
    are exactly when every sample is (and no sum overflows)."""
    samples = np.empty(n_paths)
    min_state = start
    truncated = 0
    width = _block_width(n_steps)
    for done in range(0, n_paths, width):
        idx = np.arange(done, min(done + width, n_paths))
        out, mn, trunc = kernel(idx)
        samples[done : done + idx.size] = out
        min_state = min(min_state, mn)
        truncated += trunc
    # a non-finite sample makes mean or se non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise SolverError(
            "%s: non-finite Monte Carlo estimate (mean %r, std_error %r)" % (what, mean, se))
    return EvalReport(
        mean=mean, std_error=se, n_paths=n_paths, seed=seed, min_state=min_state,
        bias_bound=bias_bound,
        truncated_fraction=None if bias_bound is None else truncated / n_paths,
        samples=samples.copy() if keep_samples else None)


class _Recorder:
    """A control for a one-path block over n steps that records call k in
    x[k] and u[k]: the state it is given and a copy of the control it
    returns, which may be the state array itself that the kernel then
    moves. k counts the calls."""

    def __init__(self, control: Callable, n: int):
        self.control, self.k = control, 0
        self.x, self.u = np.empty(n + 1), np.empty(n + 1)

    def __call__(self, *args):
        u = self.control(*args)
        state = args[-1]
        self.x[self.k] = state[0]
        self.u[self.k] = np.broadcast_to(np.asarray(u, dtype=float), state.shape)[0]
        self.k += 1
        return u


def _euler_block(p: ModelParams, pol: Policy, loss: Callable, g: PathGrid, x: float,
                 windows):
    """Step the paths of a normal block from x over g, reading its normals
    from windows: time-major (steps, paths) arrays that hold the block's
    g.n_steps steps in order (_block_windows).

    Returns (state, j, min_state): the states at t_end, minus the
    discounted left-endpoint integrals of loss(u), and the smallest state
    seen (x included).

    The update is model.drift and model.diffusion evaluated in place with
    the same association order, so the result is bit-identical to
    state + drift*dt + diffusion*sqrt(dt)*z_k. With additive noise
    (sigma1 = sigma2 = 0, sigma0 != 0) the diffusion at a finite state
    and control is exactly sigma0, so the increment is one product
    (sigma0*sqrt(dt))*z_k. With sigma0 = -0.0 the general form's zero
    takes its sign from u, which reaches a state left at -0.0.
    """
    dt = g.dt
    sq = math.sqrt(dt)
    t_nodes = g.nodes()
    disc = np.exp(-p.c * t_nodes[:-1])
    rho_n, sigma0, sigma1, sigma2 = -p.rho, p.sigma0, p.sigma1, p.sigma2
    additive = sigma1 == 0 and sigma2 == 0 and sigma0 != 0
    sigma0_sq = sigma0 * sq
    # ControlSet.contains as two reductions: NaN propagates through min
    # and max, and an infinite upper bound admits every finite control
    lower = pol.control_set.lower - MEMBERSHIP_TOL
    upper = pol.control_set.upper + MEMBERSHIP_TOL
    windows = iter(windows)
    zw = next(windows)
    nb = zw.shape[1]
    state = np.full(nb, float(x))
    j = np.zeros(nb)
    a = np.empty(nb)
    b = np.empty(nb)
    min_state = float(x)
    i = 0  # step k's row of the window zw
    for k in range(g.n_steps):
        if i == zw.shape[0]:
            zw, i = next(windows), 0
        u = np.asarray(pol(t_nodes[k], state), dtype=float)
        if u.shape != state.shape:
            u = np.broadcast_to(u, state.shape)
        umin, umax = u.min(), u.max()
        if not (math.isfinite(umin) and math.isfinite(umax)
                and umin >= lower and umax <= upper):
            _check_controls(pol, u)
        lo = np.asarray(loss(u), dtype=float)
        if not lo.min() >= -1e-12:
            raise ParamError("loss >= 0")
        np.multiply(lo, disc[k], out=a)
        a *= dt
        j -= a
        # diffusion before drift and both before state moves: u may be
        # the state array itself
        if additive:
            np.multiply(zw[i], sigma0_sq, out=b)
        else:
            np.abs(state, out=b)
            b *= sigma1
            b += sigma0
            np.multiply(u, sigma2, out=a)
            b += a
            b *= sq
            b *= zw[i]
        np.multiply(state, rho_n, out=a)
        a += u
        a *= dt
        state += a
        state += b
        mn = state.min()
        if mn < min_state:
            min_state = float(mn)
        i += 1
    return state, j, min_state


def simulate_path(
    p: ModelParams, pol: Policy, g: PathGrid, x_start: float, seed: int
) -> Trajectory:
    """One Euler-Maruyama path with left-endpoint control evaluation.
    x_start is a finite real number and seed an integer in [0, 2**64)
    (ParamError otherwise)."""
    x_start = as_real(x_start, "x_start")
    seed = as_seed(seed)
    t = g.nodes()
    rec = _Recorder(pol.fn, g.n_steps)
    pol = dataclasses.replace(pol, fn=rec)
    # a trajectory carries no running cost: step it with a zero loss
    # drawn outside the normals cache, so one path does not evict a block
    state, _, _ = _euler_block(p, pol, np.zeros_like, g, x_start,
                               [_draw(seed, np.zeros(1, dtype=np.int64), 0, g.n_steps)])
    _check_controls(pol, np.asarray(pol(t[-1], state), dtype=float).reshape(1))
    return Trajectory(t=t, x=rec.x, u=rec.u)


def evaluate_policy(
    p: ModelParams,
    pol: Policy,
    reward: Callable,
    loss: Callable,
    s: float,
    x: float,
    g: PathGrid,
    n_paths: int,
    seed: int,
    *,
    antithetic: bool = False,
    keep_samples: bool = False,
) -> EvalReport:
    """Monte Carlo estimate of E[e^{-cT} reward(x_T) - int_s^T e^{-ct} loss(u) dt].

    The cost integral is left-endpoint quadrature on g with exact
    e^{-c t_k} weights. Loss values must be nonnegative. A non-finite
    sample raises SolverError. s and x are finite real numbers, n_paths
    a count in [1, MAX_SIZE] and seed an integer in [0, 2**64), the
    Philox key word's range; anything else raises ParamError.
    """
    n_paths = as_count(n_paths, "n_paths", 1)
    seed = as_seed(seed)
    s, x = as_real(s, "s"), as_real(x, "x")
    if abs(g.t0 - s) > 1e-12 or abs(g.t_end - p.T) > 1e-12:
        raise ParamError("grid must span [s, T]")
    disc_T = math.exp(-p.c * p.T)

    def kernel(idx):
        # no local keeps a window, so the memo lets its block go before the next is drawn
        state, j, mn = _euler_block(
            p, pol, loss, g, x, _block_windows(seed, idx, g.n_steps, antithetic))
        j += disc_T * np.asarray(reward(state), dtype=float)
        return j, mn, 0

    return _run_blocks("evaluate_policy", kernel, n_paths, seed, g.n_steps, float(x),
                       keep_samples)


# the stopping estimators' model constants, by argument name
_STOPPING_CONSTANTS = ("mu", "rho", "gamma1", "gamma2")


def _stopping_bias_bound(gamma1: float, gamma2: float, x0: float, dt: float) -> float:
    # grid-crossing overshoot is O(sqrt(dt)); the terminal cost is locally
    # Lipschitz with constant ~2|x0| and the running rate near the boundary
    # is gamma1*u*(x0)^2 + gamma2
    u_b = x0 / gamma1
    return (gamma2 + gamma1 * u_b * u_b + 2.0 * abs(x0)) * math.sqrt(dt)


def _stopped_block(mu: float, rho: float, gamma1: float, gamma2: float, x0: float,
                   feedback: Callable, dt: float, y_start: float, normals: _Windows):
    """Step the paths of a normal block from y_start until each first
    ends a step at or below x0, fetching the block's normals a window at
    a time for the paths still running.

    Returns (cost, end, min_state, truncated): per-path costs and end
    states, the smallest y seen and the number of paths still running at
    the last node. Only running paths are kept, in compacted arrays that
    shrink on the steps where some path stops.
    """
    sq = math.sqrt(dt)
    n, nb = normals.n, normals.indices.size
    y0 = float(y_start)
    end = np.full(nb, y0)
    if not y0 > x0:
        return np.full(nb, y0 * y0), end, y0, 0
    act = np.arange(nb)  # block positions of the running paths
    y = np.full(nb, y0)
    acc = np.zeros(nb)
    run = np.empty(nb)  # running cost of each path, set when it stops
    a = np.empty(nb)
    b = np.empty(nb)
    min_state = y0
    for k in range(n):
        i = k % _WINDOW
        if i == 0:
            zw, col = normals.window(k, act)
        u = np.asarray(feedback(y), dtype=float)
        if not (u.min() >= -1e-12 and math.isfinite(u.max())):
            raise PolicyError("stopping control must be nonnegative and finite")
        np.multiply(u, gamma1, out=a)
        a *= u
        a += gamma2
        a *= dt
        acc += a
        zw[i].take(col, out=b)
        b *= sq
        np.multiply(y, rho, out=a)
        np.subtract(mu, a, out=a)
        a -= u
        a *= dt
        y += a
        y += b
        mn = y.min()
        if mn < min_state:
            min_state = float(mn)
        # some path stopped exactly when the minimum is not above x0 (a
        # NaN minimum included), so steps where none did skip the mask
        if not mn > x0:
            keep = y > x0
            stop = ~keep
            gone = act[stop]
            end[gone] = y[stop]
            run[gone] = acc[stop]
            act, col, y, acc = act[keep], col[keep], y[keep], acc[keep]
            a, b = a[: act.size], b[: act.size]
            if act.size == 0:
                break
    end[act] = y
    run[act] = acc
    return run + end ** 2, end, min_state, act.size


def simulate_stopped(
    mu: float,
    rho: float,
    gamma1: float,
    gamma2: float,
    sol,
    g: PathGrid,
    y_start: float,
    seed: int,
) -> StoppedPathResult:
    """One path of dy = (mu - rho*y - u) dt + dw under sol's feedback,
    stopped at the first grid node with y <= sol.x0. mu, rho, gamma1,
    gamma2 and y_start are finite real numbers and seed an integer in
    [0, 2**64) (ParamError otherwise)."""
    mu, rho, gamma1, gamma2 = map(as_real, (mu, rho, gamma1, gamma2), _STOPPING_CONSTANTS)
    y_start = as_real(y_start, "y_start")
    seed = as_seed(seed)
    x0 = float(sol.x0)
    if y_start <= x0:
        return StoppedPathResult(t_path=np.array([g.t0]), y_path=np.array([y_start]),
                                 u_path=np.array([0.0]), tau=g.t0, cost=y_start * y_start,
                                 truncated=False)
    t = g.nodes()
    rec = _Recorder(sol.policy, g.n_steps)
    cost, end, _, truncated = _stopped_block(
        mu, rho, gamma1, gamma2, x0, rec, g.dt, y_start,
        _Windows(seed, [0], g.n_steps, _new_store(g.n_steps)))
    steps = rec.k
    rec.x[steps] = end[0]
    rec.u[steps] = float(sol.policy(end[0]))
    return StoppedPathResult(
        t_path=t[: steps + 1],
        y_path=rec.x[: steps + 1],
        u_path=rec.u[: steps + 1],
        tau=g.t_end if truncated else t[steps],
        cost=cost[0],
        truncated=bool(truncated),
    )


def stopping_cost_report(
    mu: float,
    rho: float,
    gamma1: float,
    gamma2: float,
    sol,
    g: PathGrid,
    y_start: float,
    n_paths: int,
    seed: int,
    *,
    control: Optional[Callable] = None,
    keep_samples: bool = False,
) -> EvalReport:
    """Monte Carlo mean cost of the stopped problem started at y_start.

    control defaults to sol.policy; pass another feedback y -> u to probe
    suboptimal controls against the same stopping rule. A control that is
    negative or non-finite raises PolicyError, a non-finite sample
    SolverError. The report's bias_bound documents the O(sqrt(dt))
    grid-crossing bias. mu, rho, gamma1, gamma2 and y_start are finite
    real numbers, n_paths a count in [1, MAX_SIZE] and seed an integer in
    [0, 2**64); anything else raises ParamError.

    A path's normals are drawn a window at a time, only for the windows
    it reaches, and held in the windowed resident one column per (path,
    window), so a later run on the same key, under another control,
    draws only the pairs no earlier run reached. On 2,000 paths x 4,000
    steps started at x0 + 1 the optimal control's paths reach 10 of the
    63 windows and the resident holds about 2.2 MB.
    """
    mu, rho, gamma1, gamma2 = map(as_real, (mu, rho, gamma1, gamma2), _STOPPING_CONSTANTS)
    n_paths = as_count(n_paths, "n_paths", 1)
    seed = as_seed(seed)
    y_start = as_real(y_start, "y_start")
    x0 = float(sol.x0)
    feedback = sol.policy if control is None else control

    def kernel(idx):
        normals = _Windows(seed, idx, g.n_steps, _resident_store(seed, idx, g.n_steps))
        cost, _, mn, trunc = _stopped_block(mu, rho, gamma1, gamma2, x0, feedback, g.dt,
                                            y_start, normals)
        return cost, mn, trunc

    # a product that overflows makes its sample non-finite, and the
    # estimate raises on it; what the feedback computes out of range is a
    # non-finite control, which the kernel rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_blocks("stopping_cost_report", kernel, n_paths, seed, g.n_steps,
                           float(y_start), keep_samples,
                           bias_bound=_stopping_bias_bound(gamma1, gamma2, x0, g.dt))
