"""Euler-Maruyama simulation of controlled goodwill paths and Monte Carlo
evaluation of discounted performance functionals.

Randomness contract: every path owns a counter-based substream keyed by
(seed, path index), so results are bit-identical no matter how paths are
blocked or ordered. Normals come from inverse-CDF applied to 53-bit
uniforms of a keyed Philox generator. Normal blocks are read-only, and
the latest one is kept: asking again for the same (seed, indices, n,
antithetic) block, as paired comparisons on common random numbers do,
returns it without drawing. Only one block is held at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .errors import ParamError, PolicyError
from .model import ModelParams, Policy, diffusion, drift, require

_MASK64 = (1 << 64) - 1
_TWO53 = float(1 << 53)
DEFAULT_BLOCK = 4096


def path_normals(seed: int, index: int, n: int) -> np.ndarray:
    """Standard normals of path `index` under `seed`, independent across indices."""
    return block_normals(seed, [index], n)[0]


# (key, z) of the latest block_normals call, swapped as one tuple so a key
# is never seen with another key's block
_last = None


def block_normals(seed: int, indices, n: int, antithetic: bool = False) -> np.ndarray:
    """Read-only (len(indices), n) matrix of normals, one keyed substream per row.

    With antithetic=True, paths 2j and 2j+1 share the substream keyed by j
    and the odd path gets the sign-flipped draws. A call with the same
    arguments as the one before returns that call's array without drawing.
    """
    global _last
    indices = np.asarray(indices, dtype=np.int64)
    key = (int(seed), indices.tobytes(), int(n), bool(antithetic))
    last = _last
    if last is not None and last[0] == key:
        return last[1]
    _last = None  # let the previous block go before the next is drawn
    # one generator whose key is reset per row: resetting the state is
    # cheaper than building a Philox, and the counter restarts at zero
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    state = bg.state
    seed_word = int(seed) & _MASK64
    z = np.empty((indices.size, n))
    for row, idx in enumerate(indices):
        base = int(idx) >> 1 if antithetic else int(idx)
        state["state"]["key"] = np.array([seed_word, base & _MASK64], dtype=np.uint64)
        bg.state = state
        # random() is (raw >> 11) * 2^-53, so this is (k + 0.5) / 2^53 for
        # the 53-bit integer k that integers(0, 2^53) would draw
        gen.random(out=z[row])
    z += 0.5 / _TWO53
    ndtri(z, out=z)
    if antithetic:
        z[(indices & 1) == 1] *= -1.0
    z.flags.writeable = False
    _last = (key, z)
    return z


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


def simulate_path(
    p: ModelParams, pol: Policy, g: PathGrid, x_start: float, seed: int
) -> Trajectory:
    """One Euler-Maruyama path with left-endpoint control evaluation."""
    require(p)
    dt = g.dt
    sq = math.sqrt(dt)
    z = path_normals(seed, 0, g.n_steps)
    t = g.nodes()
    x = np.empty(g.n_steps + 1)
    u = np.empty(g.n_steps + 1)
    x[0] = x_start
    state = np.array([float(x_start)])
    for k in range(g.n_steps):
        uk = np.asarray(pol(t[k], state), dtype=float).reshape(1)
        _check_controls(pol, uk)
        u[k] = uk[0]
        state = state + drift(state, uk, p) * dt + diffusion(state, uk, p) * sq * z[k]
        x[k + 1] = state[0]
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
    assume_polynomial_growth: bool = True,
) -> EvalReport:
    """Monte Carlo estimate of E[e^{-cT} reward(x_T) - int_s^T e^{-ct} loss(u) dt].

    The cost integral is left-endpoint quadrature on g with exact
    e^{-c t_k} weights. reward must have polynomial growth (caller's
    assertion via the flag); loss values must be nonnegative.
    """
    require(p)
    if n_paths < 1:
        raise ParamError("n_paths >= 1")
    if not math.isfinite(x):
        raise ParamError("x finite")
    if not assume_polynomial_growth:
        raise ParamError("reward must be declared of polynomial growth")
    if abs(g.t0 - s) > 1e-12 or abs(g.t_end - p.T) > 1e-12:
        raise ParamError("grid must span [s, T]")

    dt = g.dt
    sq = math.sqrt(dt)
    t_nodes = g.nodes()
    disc = np.exp(-p.c * t_nodes[:-1])
    disc_T = math.exp(-p.c * p.T)

    samples = np.empty(n_paths)
    min_state = float(x)
    done = 0
    while done < n_paths:
        nb = min(block_size, n_paths - done)
        idx = np.arange(done, done + nb)
        z = block_normals(seed, idx, g.n_steps, antithetic=antithetic)
        state = np.full(nb, float(x))
        j = np.zeros(nb)
        for k in range(g.n_steps):
            u = np.asarray(pol(t_nodes[k], state), dtype=float)
            if u.shape != state.shape:
                u = np.broadcast_to(u, state.shape)
            _check_controls(pol, u)
            lo = np.asarray(loss(u), dtype=float)
            if np.any(lo < -1e-12):
                raise ParamError("loss >= 0")
            j -= disc[k] * lo * dt
            state = state + drift(state, u, p) * dt + diffusion(state, u, p) * sq * z[:, k]
            mn = float(state.min())
            if mn < min_state:
                min_state = mn
        j += disc_T * np.asarray(reward(state), dtype=float)
        samples[done : done + nb] = j
        done += nb

    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
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
    dt = g.dt
    sq = math.sqrt(dt)
    z = path_normals(seed, 0, g.n_steps)
    t = g.nodes()
    y_list = [float(y_start)]
    u_list = []
    cost = 0.0
    y = float(y_start)
    tau = g.t_end
    truncated = True
    for k in range(g.n_steps):
        u = float(sol.policy(y))
        u_list.append(u)
        cost += (gamma1 * u * u + gamma2) * dt
        y = y + (mu - rho * y - u) * dt + sq * z[k]
        y_list.append(y)
        if y <= x0:
            tau = t[k + 1]
            truncated = False
            break
    u_list.append(float(sol.policy(y)))
    cost += y * y
    n = len(y_list)
    return StoppedPathResult(
        t_path=t[:n],
        y_path=np.asarray(y_list),
        u_path=np.asarray(u_list),
        tau=tau,
        cost=cost,
        truncated=truncated,
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
    suboptimal controls against the same stopping rule. The report's
    bias_bound documents the O(sqrt(dt)) grid-crossing bias.
    """
    if n_paths < 1:
        raise ParamError("n_paths >= 1")
    if not math.isfinite(y_start):
        raise ParamError("y_start finite")
    x0 = float(sol.x0)
    feedback = sol.policy if control is None else control
    dt = g.dt
    sq = math.sqrt(dt)

    samples = np.empty(n_paths)
    truncated = 0
    min_state = float(y_start)
    done = 0
    while done < n_paths:
        nb = min(block_size, n_paths - done)
        idx = np.arange(done, done + nb)
        z = block_normals(seed, idx, g.n_steps)
        y = np.full(nb, float(y_start))
        cost = np.zeros(nb)
        alive = y > x0
        cost[~alive] = y[~alive] ** 2
        for k in range(g.n_steps):
            if not alive.any():
                break
            ya = y[alive]
            u = np.asarray(feedback(ya), dtype=float)
            if np.any(u < -1e-12):
                raise PolicyError("stopping control must be nonnegative")
            cost[alive] += (gamma1 * u * u + gamma2) * dt
            ya = ya + (mu - rho * ya - u) * dt + sq * z[alive, k]
            y[alive] = ya
            mn = float(ya.min())
            if mn < min_state:
                min_state = mn
            crossed = alive & (y <= x0)
            cost[crossed] += y[crossed] ** 2
            alive &= y > x0
        if alive.any():
            cost[alive] += y[alive] ** 2
            truncated += int(alive.sum())
        samples[done : done + nb] = cost
        done += nb

    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return EvalReport(
        mean=mean,
        std_error=se,
        n_paths=n_paths,
        seed=seed,
        min_state=min_state,
        bias_bound=_stopping_bias_bound(gamma1, gamma2, x0, dt),
        truncated_fraction=truncated / n_paths,
        samples=samples.copy() if keep_samples else None,
    )
