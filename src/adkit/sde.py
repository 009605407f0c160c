"""Euler-Maruyama simulation of controlled goodwill paths and Monte Carlo
evaluation of discounted performance functionals.

Randomness contract: every path owns a counter-based substream keyed by
(seed, path index), so results are bit-identical no matter how paths are
blocked or ordered. Normals come from inverse-CDF applied to 53-bit
uniforms of a keyed Philox generator. Philox is counter-based and the
inverse CDF acts element by element, so the normals of steps k0..k1-1 of
any set of paths, drawn after moving each substream's counter to k0, are
bit for bit that slice of the full block.

Blocks are stored time-major: block_normals returns its (paths, steps)
matrix z as the transpose of a C-ordered (steps, paths) array, so z[:, k],
the normals of step k across the block, is one contiguous row. The step
kernels read it that way and update their state vectors in place;
simulate_path and simulate_stopped are their one-path case. A stopped
path reads its normals only until it stops, so the stopping kernel draws
them a window of _WINDOW steps at a time, for the paths still running.

The normals cache has two residents, so paired comparisons on common
random numbers that alternate between policy evaluations and stopping
evaluations draw each block once. Each is keyed by (seed, indices, n,
antithetic) and replaced only by a new key of its own kind, the old one
let go before the new one is drawn:
- the whole block last asked of block_normals, read-only and returned
  again without drawing when the same block is asked for;
- the windowed block of the last stopping run, with a per-window mask
  of the paths drawn: a later stopping run on the same key draws only
  the paths and windows that earlier runs did not reach. A stopping run
  whose key is the whole resident's reads that block instead.
So at most one whole block (8 bytes per normal) and one windowed block
are held. The windowed block's buffer is allocated empty and only the
pages of the windows its paths reached are ever touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._scipy import ndtri
from .errors import ParamError, PolicyError, SolverError
from .model import MEMBERSHIP_TOL, ModelParams, Policy, require

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)
DEFAULT_BLOCK = 4096
# paths drawn row by row into one buffer before it is transposed into the
# block; small enough to stay in cache at a few thousand steps
_ROW_CHUNK = 64
# steps of normals the stopping kernel draws at a time for its running paths
_WINDOW = 64


def path_normals(seed: int, index: int, n: int) -> np.ndarray:
    """Standard normals of path `index` under `seed`, independent across indices."""
    return block_normals(seed, [index], n)[0]


def _draw(seed: int, indices: np.ndarray, k0: int, k1: int,
          antithetic: bool = False) -> np.ndarray:
    """Time-major (k1 - k0, len(indices)) array of normals k0..k1-1 of
    each path's substream.

    Draw k of a substream is word k % 4 of the Philox block at counter
    k // 4 + 1, so each row starts from counter k0 // 4 and drops its
    first k0 % 4 draws. antithetic pairs the paths as block_normals does.
    """
    # one generator whose key is reset per row: resetting the state is
    # cheaper than building a Philox
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    state = bg.state
    state["state"]["counter"][0] = k0 >> 2
    seed_word = int(seed) & _MASK64
    skip = k0 & 3
    out = np.empty((k1 - k0, indices.size))
    buf = np.empty((min(_ROW_CHUNK, indices.size), k1 - k0 + skip))
    for r0 in range(0, indices.size, _ROW_CHUNK):
        rows = indices[r0 : r0 + _ROW_CHUNK]
        for row, idx in enumerate(rows):
            base = int(idx) >> 1 if antithetic else int(idx)
            state["state"]["key"] = np.array([seed_word, base & _MASK64], dtype=np.uint64)
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
    return out


# The two residents of the normals cache. _whole is (key, z) of the last
# whole block, z the (paths, steps) matrix. _windowed is (key, z, drawn)
# of the last windowed block, drawn a (windows, paths) mask of the
# _WINDOW-step windows of z drawn so far for each path. Each is swapped
# as one tuple, so a key is never seen with another key's block.
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


class _Windows:
    """Normals of the block (seed, indices, n) for the stopping kernel,
    drawn _WINDOW steps at a time for the paths that reach the window.

    The block is the whole resident when its key matches, else the
    windowed resident when its key matches, else a new windowed block
    that replaces the windowed resident. Its (n, paths) buffer is
    allocated empty, so the pages of windows never drawn are never
    touched.
    """

    def __init__(self, seed: int, indices, n: int):
        global _windowed
        indices = np.asarray(indices, dtype=np.int64)
        n = int(n)
        key = (int(seed), indices.tobytes(), n, False)
        self.seed, self.indices, self.n = seed, indices, n
        whole = _whole
        if whole is not None and whole[0] == key:
            self.zt, self.drawn = whole[1].T, None
            return
        res = _windowed
        if res is None or res[0] != key:
            _windowed = res = None
            z = np.empty((n, indices.size)).T
            res = (key, z, np.zeros((-(-n // _WINDOW), indices.size), dtype=bool))
            _windowed = res
        self.zt, self.drawn = res[1].T, res[2]

    def window(self, k0: int, act: np.ndarray) -> np.ndarray:
        """Time-major window of steps k0..k0+_WINDOW-1 (cut at n) across
        the block; the columns act, block positions, hold their normals."""
        k1 = min(k0 + _WINDOW, self.n)
        if self.drawn is not None:
            mask = self.drawn[k0 // _WINDOW]
            need = act[~mask[act]]
            if need.size:
                self.zt[k0:k1, need] = _draw(self.seed, self.indices[need], k0, k1)
                mask[need] = True  # only once the normals are in place
        return self.zt[k0:k1]


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid; node k is t0 + k*dt computed from integers."""

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        bad = []
        if not self.t0 < self.t_end:
            bad.append("t0 < t_end")
        if self.n_steps < 1:
            bad.append("n_steps >= 1")
        if bad:
            raise ParamError(bad)

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


def _estimate(samples: np.ndarray, what: str):
    """(mean, standard error) of the samples; SolverError unless both are
    finite, which they are exactly when every sample is (and no sum
    overflows)."""
    n = samples.size
    # a non-finite sample makes mean or se non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise SolverError(
            "%s: non-finite Monte Carlo estimate (mean %r, std_error %r)" % (what, mean, se)
        )
    return mean, se


def _euler_block(p: ModelParams, pol: Policy, loss: Callable, g: PathGrid, x: float,
                 z: np.ndarray, path=None):
    """Step the paths of normal block z (paths, steps) from x over g.

    Returns (state, j, min_state): the states at t_end, minus the
    discounted left-endpoint integrals of loss(u), and the smallest state
    seen (x included). path, for a one-path block, is a pair of arrays of
    length n_steps + 1 that receive x_{k+1} and u_k at every step.

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
    zt = z.T
    nb = zt.shape[1]
    state = np.full(nb, float(x))
    j = np.zeros(nb)
    a = np.empty(nb)
    b = np.empty(nb)
    min_state = float(x)
    for k in range(g.n_steps):
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
        if path is not None:
            path[1][k : k + 1] = u
        np.multiply(lo, disc[k], out=a)
        a *= dt
        j -= a
        # diffusion before drift and both before state moves: u may be
        # the state array itself
        if additive:
            np.multiply(zt[k], sigma0_sq, out=b)
        else:
            np.abs(state, out=b)
            b *= sigma1
            b += sigma0
            np.multiply(u, sigma2, out=a)
            b += a
            b *= sq
            b *= zt[k]
        np.multiply(state, rho_n, out=a)
        a += u
        a *= dt
        state += a
        state += b
        mn = state.min()
        if mn < min_state:
            min_state = float(mn)
        if path is not None:
            path[0][k + 1 : k + 2] = state
    return state, j, min_state


def simulate_path(
    p: ModelParams, pol: Policy, g: PathGrid, x_start: float, seed: int
) -> Trajectory:
    """One Euler-Maruyama path with left-endpoint control evaluation."""
    require(p)
    if not math.isfinite(x_start):
        raise ParamError("x_start finite")
    t = g.nodes()
    x = np.empty(g.n_steps + 1)
    u = np.empty(g.n_steps + 1)
    x[0] = x_start
    z = block_normals(seed, [0], g.n_steps)
    # a trajectory carries no running cost: step it with a zero loss
    state, _, _ = _euler_block(p, pol, np.zeros_like, g, x_start, z, path=(x, u))
    u_end = np.asarray(pol(t[-1], state), dtype=float).reshape(1)
    _check_controls(pol, u_end)
    u[-1] = u_end[0]
    return Trajectory(t=t, x=x, u=u)


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
    block_size: int = DEFAULT_BLOCK,
) -> EvalReport:
    """Monte Carlo estimate of E[e^{-cT} reward(x_T) - int_s^T e^{-ct} loss(u) dt].

    The cost integral is left-endpoint quadrature on g with exact
    e^{-c t_k} weights. Loss values must be nonnegative. A non-finite
    sample raises SolverError.
    """
    require(p)
    if n_paths < 1:
        raise ParamError("n_paths >= 1")
    if block_size < 1:
        raise ParamError("block_size >= 1")
    if not math.isfinite(x):
        raise ParamError("x finite")
    if abs(g.t0 - s) > 1e-12 or abs(g.t_end - p.T) > 1e-12:
        raise ParamError("grid must span [s, T]")

    disc_T = math.exp(-p.c * p.T)
    samples = np.empty(n_paths)
    min_state = float(x)
    done = 0
    while done < n_paths:
        nb = min(block_size, n_paths - done)
        idx = np.arange(done, done + nb)
        # no local keeps the block, so the memo lets it go before the next is drawn
        state, j, mn = _euler_block(
            p, pol, loss, g, x, block_normals(seed, idx, g.n_steps, antithetic=antithetic))
        min_state = min(min_state, mn)
        j += disc_T * np.asarray(reward(state), dtype=float)
        samples[done : done + nb] = j
        done += nb

    mean, se = _estimate(samples, "evaluate_policy")
    return EvalReport(
        mean=mean,
        std_error=se,
        n_paths=n_paths,
        seed=seed,
        min_state=min_state,
        samples=samples.copy() if keep_samples else None,
    )


def _stopping_bias_bound(gamma1: float, gamma2: float, x0: float, dt: float) -> float:
    # grid-crossing overshoot is O(sqrt(dt)); the terminal cost is locally
    # Lipschitz with constant ~2|x0| and the running rate near the boundary
    # is gamma1*u*(x0)^2 + gamma2
    u_b = x0 / gamma1
    return (gamma2 + gamma1 * u_b * u_b + 2.0 * abs(x0)) * math.sqrt(dt)


def _stopped_block(mu: float, rho: float, gamma1: float, gamma2: float, x0: float,
                   feedback: Callable, dt: float, y_start: float, normals: _Windows,
                   path=None):
    """Step the paths of a normal block from y_start until each first
    ends a step at or below x0, fetching the block's normals a window at
    a time for the paths still running.

    Returns (cost, truncated, min_state, steps): per-path costs, the
    number of paths still running at the last node, the smallest y seen
    and the number of steps taken. Only running paths are kept, in
    compacted arrays that shrink on the steps where some path stops.
    path, for a one-path block, is a pair of arrays of length
    n_steps + 1 that receive y_{k+1} and u_k at every step.
    """
    sq = math.sqrt(dt)
    n, nb = normals.n, normals.indices.size
    y0 = float(y_start)
    cost = np.empty(nb)
    if not y0 > x0:
        cost.fill(y0 * y0)
        return cost, 0, y0, 0
    act = np.arange(nb)  # block positions of the running paths
    y = np.full(nb, y0)
    acc = np.zeros(nb)
    a = np.empty(nb)
    b = np.empty(nb)
    min_state = y0
    steps = n
    for k in range(n):
        i = k % _WINDOW
        if i == 0:
            zw = normals.window(k, act)
        u = np.asarray(feedback(y), dtype=float)
        if not (u.min() >= -1e-12 and math.isfinite(u.max())):
            raise PolicyError("stopping control must be nonnegative and finite")
        if path is not None:
            path[1][k : k + 1] = u
        np.multiply(u, gamma1, out=a)
        a *= u
        a += gamma2
        a *= dt
        acc += a
        if act.size == nb:
            np.multiply(zw[i], sq, out=b)
        else:
            zw[i].take(act, out=b)
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
        if path is not None:
            path[0][k + 1 : k + 2] = y
        keep = y > x0
        if not keep.all():
            stop = ~keep
            cost[act[stop]] = acc[stop] + y[stop] ** 2
            act, y, acc = act[keep], y[keep], acc[keep]
            a, b = a[: act.size], b[: act.size]
            if act.size == 0:
                steps = k + 1
                break
    cost[act] = acc + y ** 2
    return cost, act.size, min_state, steps


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
    stopped at the first grid node with y <= sol.x0."""
    if not math.isfinite(y_start):
        raise ParamError("y_start finite")
    x0 = float(sol.x0)
    if y_start <= x0:
        arr = np.array([y_start])
        return StoppedPathResult(
            t_path=np.array([g.t0]),
            y_path=arr,
            u_path=np.array([0.0]),
            tau=g.t0,
            cost=y_start * y_start,
            truncated=False,
        )
    t = g.nodes()
    y = np.empty(g.n_steps + 1)
    u = np.empty(g.n_steps + 1)
    y[0] = y_start
    normals = _Windows(seed, [0], g.n_steps)
    cost, truncated, _, steps = _stopped_block(
        mu, rho, gamma1, gamma2, x0, sol.policy, g.dt, y_start, normals, path=(y, u))
    u[steps] = float(sol.policy(y[steps]))
    return StoppedPathResult(
        t_path=t[: steps + 1],
        y_path=y[: steps + 1],
        u_path=u[: steps + 1],
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
    block_size: int = DEFAULT_BLOCK,
) -> EvalReport:
    """Monte Carlo mean cost of the stopped problem started at y_start.

    control defaults to sol.policy; pass another feedback y -> u to probe
    suboptimal controls against the same stopping rule. A control that is
    negative or non-finite raises PolicyError, a non-finite sample
    SolverError. The report's bias_bound documents the O(sqrt(dt))
    grid-crossing bias.
    """
    if n_paths < 1:
        raise ParamError("n_paths >= 1")
    if block_size < 1:
        raise ParamError("block_size >= 1")
    if not math.isfinite(y_start):
        raise ParamError("y_start finite")
    x0 = float(sol.x0)
    feedback = sol.policy if control is None else control

    samples = np.empty(n_paths)
    truncated = 0
    min_state = float(y_start)
    done = 0
    # a product that overflows makes its sample non-finite, and _estimate
    # raises on it; what the feedback computes out of range is a
    # non-finite control, which the kernel rejects
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_paths:
            nb = min(block_size, n_paths - done)
            idx = np.arange(done, done + nb)
            cost, trunc, mn, _ = _stopped_block(
                mu, rho, gamma1, gamma2, x0, feedback, g.dt, y_start,
                _Windows(seed, idx, g.n_steps))
            samples[done : done + nb] = cost
            truncated += trunc
            min_state = min(min_state, mn)
            done += nb

    mean, se = _estimate(samples, "stopping_cost_report")
    return EvalReport(
        mean=mean,
        std_error=se,
        n_paths=n_paths,
        seed=seed,
        min_state=min_state,
        bias_bound=_stopping_bias_bound(gamma1, gamma2, x0, g.dt),
        truncated_fraction=truncated / n_paths,
        samples=samples.copy() if keep_samples else None,
    )
