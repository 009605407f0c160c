"""Brute-force reference solvers.

Nothing here shares code with the closed forms it checks: a switching
grid search for the linear problem, an implicit (backward-Euler)
upwind scheme with a lagged brute-force control for the LQ Bellman
PDE, one banded LAPACK solve per time step, and a Markov-chain obstacle
iteration for the stopping problem. All three are deterministic, so
comparisons against them reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._scipy import get_lapack_funcs
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
    # products that leave the floating-point range are caught by the
    # finite checks below
    with np.errstate(over="ignore", invalid="ignore"):
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


def _controls(u_grid) -> np.ndarray:
    """u_grid as a flat float array; ParamError unless it is nonempty,
    finite and nonnegative."""
    try:
        u = np.asarray(u_grid, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise ParamError("u_grid numeric") from None
    if u.size < 1 or not np.all(np.isfinite(u)) or np.any(u < 0):
        raise ParamError("u_grid nonempty, finite, nonnegative")
    return u


def _node_values(fn: Callable, x: np.ndarray, name: str) -> np.ndarray:
    """fn(x) as a fresh float array; ParamError unless it is finite with
    the shape of x."""
    out = fn(x)
    try:
        vals = np.array(out, dtype=float)
    except (TypeError, ValueError):
        vals = None
    if vals is None or vals.shape != x.shape or not np.all(np.isfinite(vals)):
        raise ParamError("%s(x) finite, shape (n_x,)" % name)
    return vals


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

    The coefficients are stored node-major, (n_x, len(u_grid)), so each
    node's argmax reads contiguous memory. Every work array is allocated
    once per call, and each step calls LAPACK gbsv directly on a
    7-row band (two rows of LU fill-in above the five diagonals), the
    layout and routine scipy's solve_banded uses, without its per-call
    validation and copies. gbsv overwrites the band with its LU factors,
    so each step rewrites all seven rows.

    substeps counts the implicit solves (n_t - 1). cfl_ratio is the
    explicit monotonicity ratio dt*max(sigma^2/dx^2 + |b|/dx) of the grid;
    the implicit step does not need it below 1, so it is reported as
    information only. cap_hit is True when any step's argmax lands on
    the largest control.

    A u_grid that is not finite and nonnegative, or a terminal that is
    not a finite array shaped like the nodes, raises ParamError.
    Coefficients or a value that leave the floating-point range raise
    StableRangeError, and a singular band raises SolverError.
    """
    require(p)
    u = _controls(u_grid)
    x = g.x_nodes()
    v = p.gamma * x * x if terminal is None else _node_values(terminal, x, "terminal")
    n = g.n_x
    n_u = u.size
    dx = g.dx
    dt = p.T / (g.n_t - 1)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # node-major: row i holds node i's coefficients for every control
        b = u[None, :] - (p.rho * x)[:, None]
        sig = (p.sigma0 + p.sigma1 * np.abs(x))[:, None] + (p.sigma2 * u)[None, :]
        s2h = 0.5 * sig * sig
        usq = u * u
        ratio = float(dt * np.max(2.0 * s2h / dx ** 2 + np.abs(b) / dx))
        if not (math.isfinite(ratio) and math.isfinite(float(np.max(usq)))):
            raise StableRangeError(
                "fd_hjb_lq: drift, noise or control cost leaves the floating-point range"
            )

        # A^u v_i = up_i (v_{i+1} - v_i) + lo_i (v_{i-1} - v_i)
        up = np.maximum(b, 0.0) / dx + s2h / (dx * dx)
        lo = np.maximum(-b, 0.0) / dx + s2h / (dx * dx)

        ve = np.empty(n + 2)
        dp = np.empty(n)
        dm = np.empty(n)
        rhs = np.empty(n)
        spend = np.empty(n)
        a_up = np.empty(n)
        a_lo = np.empty(n)
        wu = np.empty(n_u)
        ham = np.empty((n, n_u))
        tmp = np.empty((n, n_u))
        pick = np.empty(n, dtype=np.intp)
        flat = np.empty(n, dtype=np.intp)
        row_start = np.arange(n) * n_u
        # (2,2) band of I - dt*A^u: band[4 + i - j, j] holds entry (i, j);
        # rows 0-1 are gbsv's fill-in space
        band = np.empty((7, n))
        gbsv, = get_lapack_funcs(("gbsv",), (band,))
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
            ve[0] = lo_ghost
            ve[1:-1] = v
            ve[-1] = hi_ghost
            np.subtract(ve[2:], v, out=dp)
            np.subtract(ve[:-2], v, out=dm)
            np.multiply(up, dp[:, None], out=ham)
            np.multiply(lo, dm[:, None], out=tmp)
            ham += tmp
            np.multiply(usq, w, out=wu)
            ham -= wu
            ham.argmax(axis=1, out=pick)
            if n_u > 1 and not cap_hit:
                cap_hit = bool(pick.max() == n_u - 1)

            np.add(row_start, pick, out=flat)
            up.take(flat, out=a_up)
            lo.take(flat, out=a_lo)
            a_up *= dt
            a_lo *= dt
            band[:3] = 0.0
            band[3, 0] = 0.0
            np.negative(a_up[:-1], out=band[3, 1:])
            np.add(a_up, 1.0, out=band[4])
            band[4] += a_lo
            np.negative(a_lo[1:], out=band[5, :-1])
            band[5, -1] = 0.0
            band[6] = 0.0
            lo_0 = float(a_lo[0])
            up_n = float(a_up[-1])
            if reflect:
                # mirror ghosts v_{-1} = v_1, v_n = v_{n-2}
                band[3, 1] -= lo_0
                band[5, n - 2] -= up_n
            else:
                # cubic ghosts v_{-1} = 3v_0 - 3v_1 + v_2, and mirrored at n
                band[4, 0] -= 3.0 * lo_0
                band[3, 1] += 3.0 * lo_0
                band[2, 2] = -lo_0
                band[4, -1] -= 3.0 * up_n
                band[5, n - 2] += 3.0 * up_n
                band[6, n - 3] = -up_n
            usq.take(pick, out=spend)
            spend *= dt * w
            np.subtract(v, spend, out=rhs)
            _, _, v, info = gbsv(2, 2, band, rhs, overwrite_ab=True, overwrite_b=True)
            if info != 0:
                raise SolverError(
                    "fd_hjb_lq: banded solve failed at step %d (LAPACK info %d)" % (k, info)
                )

    if not np.all(np.isfinite(v)):
        raise StableRangeError("fd_hjb_lq: the value leaves the floating-point range")
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

    The elimination and the projected substitution run on Python floats
    (tolist() of the frozen rows), which round exactly as float64 does
    but skip numpy's per-element scalar boxing. Each pivot is checked
    before it divides: one that is not positive and finite raises
    SolverError. A tol that is not positive, max_iter < 1, a u_grid
    that is not finite and nonnegative, or an obstacle that is not a
    finite array shaped like the nodes raises ParamError.
    """
    if not tol > 0:
        raise ParamError("tol > 0")
    if not max_iter >= 1:
        raise ParamError("max_iter >= 1")
    u = _controls(u_grid)
    x = g.x_nodes()
    dx = g.dx
    n = g.n_x

    obs = x * x if obstacle is None else _node_values(obstacle, x, "obstacle")
    obs_l = obs.tolist()

    b = sp.mu - sp.rho * x[None, :] - u[:, None]
    norm = 1.0 + dx * np.abs(b)
    p_up = (0.5 + dx * np.maximum(b, 0.0)) / norm
    p_dn = (0.5 + dx * np.maximum(-b, 0.0)) / norm
    dtau = dx * dx / norm
    cost = dtau * (sp.gamma1 * (u * u)[:, None] + sp.gamma2)
    del b, norm, dtau
    q = np.empty_like(cost)
    q_dn = np.empty_like(cost)

    def best_controls(v):
        # argmin over u of the one-step expected value plus running cost
        ve = np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))
        np.multiply(p_up, ve[2:], out=q)
        np.multiply(p_dn, ve[:-2], out=q_dn)
        np.add(q, q_dn, out=q)
        np.add(q, cost, out=q)
        return np.argmin(q, axis=0)

    v = obs.copy()
    all_i = np.arange(n)
    # warm-start controls from a one-step test at the obstacle
    u_idx = best_controls(v)
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        pu = p_up[u_idx, all_i]
        pd = p_dn[u_idx, all_i]

        # interior row i: v_i - pu_i v_{i+1} - pd_i v_{i-1} = rhs_i;
        # last row (diagonal 1 - 2 pu) substitutes the ghost
        # v_n = 2 v_{n-1} - v_{n-2}
        upper = (-pu).tolist()
        lower = (-pd).tolist()
        lower[-1] = float(pu[-1] - pd[-1])
        rhs = cost[u_idx, all_i].tolist()

        # reverse elimination of the upper diagonal, pivots dtil from
        # row n-1 down to row 1
        d = 1.0 - 2.0 * float(pu[-1])
        r = rhs[-1]
        dtil = [d]
        rtil = [r]
        for up_i, lo_next, rhs_i in zip(upper[n - 2:0:-1], lower[n - 1:1:-1],
                                        rhs[n - 2:0:-1]):
            if not 0.0 < d < math.inf:
                raise SolverError("obstacle elimination lost positivity")
            f = up_i / d
            d = 1.0 - f * lo_next
            r = rhs_i - f * r
            dtil.append(d)
            rtil.append(r)
        if not 0.0 < d < math.inf:
            raise SolverError("obstacle elimination lost positivity")
        dtil.reverse()
        rtil.reverse()

        # forward substitution with projection onto the obstacle
        prev = obs_l[0]
        v_l = [prev]
        for r, lo_i, d, ob in zip(rtil, lower[1:], dtil, obs_l[1:]):
            val = (r - lo_i * prev) / d
            prev = ob if ob < val else val  # min(val, ob)
            v_l.append(prev)
        v_new = np.array(v_l)
        if not np.all(np.isfinite(v_new)):
            raise SolverError("obstacle iteration produced non-finite values")

        delta = float(np.max(np.abs(v_new - v)))
        v = v_new

        u_new = best_controls(v)
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
