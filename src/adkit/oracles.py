"""Brute-force reference solvers.

Nothing here shares code with the closed forms it checks: a switching
grid search for the linear problem, an implicit (backward-Euler)
upwind scheme with a lagged brute-force control for the LQ Bellman
PDE, one banded solve per time step, and a Markov-chain obstacle
iteration for the stopping problem. All three are deterministic, so
comparisons against them reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .errors import ParamError, SolverError, StableRangeError
from .model import ModelParams, require
from .stopping import StoppingParams


@dataclass(frozen=True)
class Grid2D:
    """Space-time box for the finite-difference solvers."""

    x_lo: float
    x_hi: float
    n_x: int
    n_t: int
    boundary_mode: str = "extrapolating"

    def __post_init__(self):
        bad = []
        if not self.x_lo < self.x_hi:
            bad.append("x_lo < x_hi")
        if self.n_x < 16:
            bad.append("n_x >= 16")
        if self.n_t < 16:
            bad.append("n_t >= 16")
        if self.boundary_mode not in ("reflecting", "extrapolating"):
            bad.append("boundary_mode in {reflecting, extrapolating}")
        if bad:
            raise ParamError(bad)

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n_x - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_x)


@dataclass(frozen=True)
class DpLinearResult:
    t_star_hat: float
    value_hat: float
    s_grid: np.ndarray
    values: np.ndarray


def dp_linear(p: ModelParams, n: int) -> DpLinearResult:
    """Exhaustive search over bang-bang switch times on an (n+1)-node
    grid. The objective for a given switch s is evaluated in closed
    form from the mean dynamics, so the only error is the grid spacing.
    """
    require(p)
    if n < 100:
        raise ParamError("n >= 100")
    s = np.linspace(0.0, p.T, n + 1)
    x_T = p.x_init * math.exp(-p.rho * p.T) + (p.m / p.rho) * (
        1.0 - np.exp(-p.rho * (p.T - s))
    )
    if p.c != 0:
        spend = (p.m / p.c) * (np.exp(-p.c * s) - math.exp(-p.c * p.T))
    else:
        spend = p.m * (p.T - s)
    values = p.gamma * x_T - spend
    for name, arr in (("terminal mean state", x_T), ("discounted spend", spend),
                      ("objective", values)):
        if not np.isfinite(arr).all():
            raise StableRangeError("dp_linear: %s leaves the floating-point range" % name)
    j = int(np.argmax(values))
    return DpLinearResult(
        t_star_hat=float(s[j]),
        value_hat=float(values[j]),
        s_grid=s,
        values=values,
    )


@dataclass(frozen=True)
class FdHjbResult:
    x: np.ndarray
    v0: np.ndarray
    cfl_ratio: float
    substeps: int
    cap_hit: bool

    def value_at(self, x_query) -> float:
        return float(np.interp(x_query, self.x, self.v0))


def u_max_oracle(p: ModelParams, riccati_sol) -> float:
    """Documented control cap for the LQ grid search: five times the
    peak feedback rate at x_init. Validated post hoc via cap_hit."""
    g_peak = float(np.max(riccati_sol.gain_at(riccati_sol.t)))
    return 5.0 * g_peak * p.x_init


def fd_hjb_lq(
    p: ModelParams,
    g: Grid2D,
    u_grid,
    terminal: Optional[Callable] = None,
) -> FdHjbResult:
    """Backward-Euler upwind scheme for the Bellman PDE, marched from
    the terminal payoff gamma*x^2 (absolute-discount convention: the
    terminal weight is already inside gamma, the running cost carries
    exp(-c*t)) to t = 0, one implicit step per reporting interval of g.

    Step k (from n_t-2 down to 0) first picks each node's control as
    the argmax over u_grid of the discrete Hamiltonian
    A^u v - exp(-c*t_k)*u^2 evaluated at v^{k+1}, then solves
    (I - dt*A^u) v^k = v^{k+1} - dt*exp(-c*t_k)*u^2 as one (2,2)-banded
    system, the boundary ghosts folded into the band. The control is
    lagged rather than re-optimized against v^k: with the cubic ghost
    rows the matrix is not an M-matrix, and policy iteration can cycle
    between two controls near the right edge.

    substeps counts the implicit solves (n_t - 1). cfl_ratio is the
    explicit monotonicity ratio dt*max(sigma^2/dx^2 + |b|/dx) of the grid;
    the implicit step does not need it below 1, so it is reported as
    information only. cap_hit is True when any step's argmax lands on
    the largest control.
    """
    require(p)
    u = np.asarray(u_grid, dtype=float).reshape(-1)
    if u.size < 1 or np.any(u < 0):
        raise ParamError("u_grid nonempty, nonnegative")
    x = g.x_nodes()
    n = g.n_x
    dx = g.dx
    dt = p.T / (g.n_t - 1)

    b = u[:, None] - p.rho * x[None, :]
    sig = p.sigma0 + p.sigma1 * np.abs(x)[None, :] + p.sigma2 * u[:, None]
    s2h = 0.5 * sig * sig
    usq = u * u
    ratio = float(dt * np.max(2.0 * s2h / dx ** 2 + np.abs(b) / dx))

    # A^u v_i = up_i (v_{i+1} - v_i) + lo_i (v_{i-1} - v_i)
    up = np.maximum(b, 0.0) / dx + s2h / (dx * dx)
    lo = np.maximum(-b, 0.0) / dx + s2h / (dx * dx)

    if terminal is None:
        v = p.gamma * x * x
    else:
        v = np.asarray(terminal(x), dtype=float).copy()

    ham = np.empty_like(b)
    tmp = np.empty_like(b)
    ab = np.zeros((5, n))
    nodes = np.arange(n)
    cap_hit = False
    reflect = g.boundary_mode == "reflecting"

    for k in range(g.n_t - 2, -1, -1):
        w = math.exp(-p.c * k * dt)
        if reflect:
            lo_ghost = v[1]
            hi_ghost = v[-2]
        else:
            lo_ghost = 3.0 * v[0] - 3.0 * v[1] + v[2]
            hi_ghost = 3.0 * v[-1] - 3.0 * v[-2] + v[-3]
        ve = np.concatenate(([lo_ghost], v, [hi_ghost]))
        np.multiply(up, ve[2:] - v, out=ham)
        np.multiply(lo, ve[:-2] - v, out=tmp)
        ham += tmp
        ham -= (w * usq)[:, None]
        pick = np.argmax(ham, axis=0)
        if u.size > 1 and not cap_hit:
            cap_hit = bool(np.any(pick == u.size - 1))

        # band of I - dt*A^u: ab[2 + i - j, j] holds entry (i, j)
        a_up = dt * up[pick, nodes]
        a_lo = dt * lo[pick, nodes]
        ab[2] = 1.0 + a_up + a_lo
        ab[1, 1:] = -a_up[:-1]
        ab[3, :-1] = -a_lo[1:]
        if reflect:
            # mirror ghosts v_{-1} = v_1, v_n = v_{n-2}
            ab[1, 1] -= a_lo[0]
            ab[3, n - 2] -= a_up[-1]
        else:
            # cubic ghosts v_{-1} = 3v_0 - 3v_1 + v_2, and mirrored at n
            ab[2, 0] -= 3.0 * a_lo[0]
            ab[1, 1] += 3.0 * a_lo[0]
            ab[0, 2] = -a_lo[0]
            ab[2, -1] -= 3.0 * a_up[-1]
            ab[3, n - 2] += 3.0 * a_up[-1]
            ab[4, n - 3] = -a_up[-1]
        v = solve_banded((2, 2), ab, v - dt * w * usq[pick], check_finite=False)

    return FdHjbResult(
        x=x, v0=v, cfl_ratio=ratio, substeps=g.n_t - 1, cap_hit=cap_hit
    )


@dataclass(frozen=True)
class DpQviResult:
    x: np.ndarray
    v: np.ndarray
    boundary_hat: float
    iterations: int
    converged: bool

    def value_at(self, x_query) -> float:
        return float(np.interp(x_query, self.x, self.v))


def dp_qvi_stopping(
    sp: StoppingParams,
    g: Grid2D,
    u_grid,
    tol: float = 1e-10,
    max_iter: int = 300,
    obstacle: Optional[Callable] = None,
) -> DpQviResult:
    """Stationary obstacle problem on a Markov-chain discretization,
    iterated to a fixed point of the coupled value/control/stop-set
    system to tolerance `tol`.

    Each sweep freezes the control at every node and solves the
    obstacle-constrained tridiagonal system exactly: reverse
    elimination, then forward substitution that projects each value
    onto the obstacle as it goes. The projection resolves the whole
    stop set in a single pass, which is valid because the stop region
    here is an interval at the left end of the grid. (Deciding stop
    nodes from one-step lookahead instead would free at most one node
    per sweep, since interior stop nodes only ever see
    obstacle-valued neighbors.) The outer loop re-optimizes the
    control from the solved value and repeats until nothing moves.

    The left edge is pinned to the obstacle. That is exact here: the
    value is nonnegative, the running cost is positive, and the
    obstacle takes its minimum at x_lo, so stopping there is (weakly)
    optimal. The right edge uses a linearly extrapolated ghost.

    boundary_hat is the first grid point whose value sits detectably
    below the obstacle.
    """
    if tol <= 0:
        raise ParamError("tol > 0")
    u = np.asarray(u_grid, dtype=float).reshape(-1)
    if u.size < 1 or np.any(u < 0):
        raise ParamError("u_grid nonempty, nonnegative")
    x = g.x_nodes()
    dx = g.dx
    n = g.n_x

    obs = x * x if obstacle is None else np.asarray(obstacle(x), dtype=float)

    b = sp.mu - sp.rho * x[None, :] - u[:, None]
    norm = 1.0 + dx * np.abs(b)
    p_up = (0.5 + dx * np.maximum(b, 0.0)) / norm
    p_dn = (0.5 + dx * np.maximum(-b, 0.0)) / norm
    dtau = dx * dx / norm
    cost = dtau * (sp.gamma1 * (u * u)[:, None] + sp.gamma2)

    v = obs.copy()
    all_i = np.arange(n)
    # warm-start controls from a one-step test at the obstacle
    ve = np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))
    u_idx = np.argmin(p_up * ve[2:][None, :] + p_dn * ve[:-2][None, :] + cost, axis=0)
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        pu = p_up[u_idx, all_i]
        pd = p_dn[u_idx, all_i]
        rhs = cost[u_idx, all_i]

        # interior row i: v_i - pu_i v_{i+1} - pd_i v_{i-1} = rhs_i;
        # last row substitutes the ghost v_n = 2 v_{n-1} - v_{n-2}
        diag = np.ones(n)
        upper = -pu
        lower = -pd
        diag[-1] = 1.0 - 2.0 * pu[-1]
        lower[-1] = pu[-1] - pd[-1]

        # reverse elimination of the upper diagonal
        dtil = np.empty(n)
        rtil = np.empty(n)
        dtil[-1] = diag[-1]
        rtil[-1] = rhs[-1]
        for i in range(n - 2, 0, -1):
            f = upper[i] / dtil[i + 1]
            dtil[i] = diag[i] - f * lower[i + 1]
            rtil[i] = rhs[i] - f * rtil[i + 1]
        if not np.all(np.isfinite(dtil[1:])) or np.any(dtil[1:] <= 0):
            raise SolverError("obstacle elimination lost positivity")

        # forward substitution with projection onto the obstacle
        v_new = np.empty(n)
        v_new[0] = obs[0]
        for i in range(1, n):
            v_new[i] = min((rtil[i] - lower[i] * v_new[i - 1]) / dtil[i], obs[i])
        if not np.all(np.isfinite(v_new)):
            raise SolverError("obstacle iteration produced non-finite values")

        delta = float(np.max(np.abs(v_new - v)))
        v = v_new

        ve = np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))
        u_new = np.argmin(
            p_up * ve[2:][None, :] + p_dn * ve[:-2][None, :] + cost, axis=0
        )
        stable = bool(np.array_equal(u_new, u_idx))
        u_idx = u_new
        if stable and delta <= tol:
            converged = True
            break

    if not converged:
        raise SolverError("obstacle iteration did not converge in %d sweeps" % max_iter)

    below = np.nonzero(obs - v > 1e-8)[0]
    boundary_hat = float(x[below[0]]) if below.size else float(x[-1])
    return DpQviResult(
        x=x, v=v, boundary_hat=boundary_hat, iterations=iterations, converged=converged
    )
