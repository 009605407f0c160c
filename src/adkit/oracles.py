"""Brute-force reference solvers.

Nothing here shares code with the closed forms it checks: a switching
grid search for the linear problem, an adaptive Runge-Kutta integration
of the Riccati equation, an implicit (backward-Euler) upwind scheme
with a lagged brute-force control for the LQ Bellman PDE, one banded
LAPACK solve per time step, and a Markov-chain obstacle iteration for
the stopping problem. All are deterministic, so comparisons against
them reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._scipy import get_lapack_funcs, solve_ivp
from .errors import ParamError, SolverError, StableRangeError
from .lq import GUARD_FRAC, P_CAP, _riccati_input, midpoint_residual
from .model import ModelParams, require
from .stopping import StoppingParams

# right-hand-side evaluations one Riccati integration may make; the
# criterion-8 instance and every cli_sweep instance take 308. Stiff or
# non-finite integrations stop here after about 1 s instead of running
# for minutes
MAX_NFEV = 100_000
# dp_qvi_stopping stops once a sweep leaves the control unchanged and
# moves the value by at most QVI_TOL in sup norm; SolverError if that
# takes more than QVI_MAX_SWEEPS sweeps
QVI_TOL = 1e-10
QVI_MAX_SWEEPS = 300
# nodes per block of dp_qvi_stopping's control search: its work arrays
# hold len(u_grid) x QVI_CHUNK coefficients, not len(u_grid) x n_x
QVI_CHUNK = 256


@dataclass(frozen=True)
class Grid2D:
    """Space-time box for the finite-difference solvers."""

    x_lo: float
    x_hi: float
    n_x: int
    n_t: int

    def __post_init__(self):
        bad = []
        if not self.x_lo < self.x_hi:
            bad.append("x_lo < x_hi")
        if self.n_x < 16:
            bad.append("n_x >= 16")
        if self.n_t < 16:
            bad.append("n_t >= 16")
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
            spend = p.m * np.exp(-p.c * s) * (-np.expm1(-p.c * (p.T - s)) / p.c)
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
class RiccatiOracle:
    """Grid solution of the Riccati equation on [t_lo, T], or on
    [t_blow, T] where a constraint event stopped the integration."""

    t: np.ndarray
    P: np.ndarray
    dPdt: np.ndarray
    well_posed: bool
    t_blow: Optional[float]
    max_midpoint_residual: float


def _riccati_rhs(p: ModelParams, guard_stage: float):
    """Right-hand side that raises SolverError on evaluation MAX_NFEV + 1."""
    try:
        a, q = 2.0 * p.rho - p.sigma1 ** 2, (1.0 + p.sigma1 * p.sigma2) ** 2
    except OverflowError:
        raise StableRangeError("Riccati right-hand side overflows (sigma1=%g, sigma2=%g)"
                               % (p.sigma1, p.sigma2)) from None
    s2 = p.sigma2 ** 2
    c = p.c
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_NFEV:
            raise SolverError("Riccati integration needs more than %d right-hand-side "
                              "evaluations (stiff or not finite)" % MAX_NFEV)
        P = y[0]
        D = math.exp(-c * t) + s2 * P
        if D < guard_stage:  # keep stage evaluations finite near blow-down
            D = guard_stage
        return [a * P + q * P * P / D]

    return rhs, a, q


def riccati_oracle(
    p: ModelParams, t_lo: float = 0.0, tol: float = 1e-8, n_nodes: int = 2001
) -> RiccatiOracle:
    """Integrate the Riccati equation backward from T by RK45 with
    adaptive error control and constraint monitoring; halts and records
    t_blow if D <= GUARD_FRAC*D(T), P >= 0 or P <= -P_CAP is about to
    occur. well_posed means t_lo was reached. The stored grid is the
    dense output on n_nodes equally spaced nodes."""
    s2 = _riccati_input(p, t_lo, tol, n_nodes)
    gamma = p.gamma
    D_T = math.exp(-p.c * p.T) - s2 * gamma

    guard = GUARD_FRAC * D_T
    rhs, a, q = _riccati_rhs(p, guard / 10.0)

    def ev_pzero(t, y):
        return y[0]

    ev_pzero.terminal = True
    ev_pzero.direction = 1

    def ev_cap(t, y):
        return P_CAP + y[0]

    ev_cap.terminal = True
    ev_cap.direction = -1

    events = [ev_pzero, ev_cap]
    if s2 > 0:

        def ev_denom(t, y):
            return math.exp(-p.c * t) + s2 * y[0] - guard

        ev_denom.terminal = True
        ev_denom.direction = -1
        events.append(ev_denom)

    # a stage that overflows for extreme parameters fails its step's error
    # test; an integration that cannot go on ends with status -1 below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            r = solve_ivp(
                rhs,
                (p.T, t_lo),
                [-gamma],
                method="RK45",
                rtol=tol,
                atol=tol,
                max_step=(p.T - t_lo) / 50.0,
                events=events,
                dense_output=True,
            )
        except ValueError as e:
            # solve_ivp times a fired event by brentq on the step's dense
            # output. Where sigma2^2 is large against 1 - gamma0*sigma2^2,
            # the denominator event magnifies rounding in P, so the dense
            # output can put both ends of a step on one side of the event
            # although the step's own end value crossed it; brentq then
            # raises ValueError
            raise SolverError("Riccati integration failed: %s" % e) from None
    if r.status == -1:
        raise SolverError("Riccati integration failed: %s" % r.message)

    fired = [te[0] for te in r.t_events if te.size]
    well_posed = r.status == 0 and not fired
    t_blow = max(fired) if fired else None
    t_stop = t_lo if well_posed else float(t_blow)
    if not t_stop < p.T:
        raise SolverError("Riccati constraint fails at T itself; no retained interval")

    t_grid = np.linspace(t_stop, p.T, n_nodes)
    P_grid = r.sol(t_grid)[0]
    P_grid[-1] = -gamma  # terminal condition stored exactly
    D_grid = np.maximum(np.exp(-p.c * t_grid) + s2 * P_grid, guard / 10.0)
    f_grid = a * P_grid + q * P_grid ** 2 / D_grid

    return RiccatiOracle(
        t=t_grid,
        P=P_grid,
        dPdt=f_grid,
        well_posed=well_posed,
        t_blow=t_blow,
        max_midpoint_residual=midpoint_residual(p, t_grid, P_grid, f_grid, guard / 10.0),
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
    peak feedback rate at x_init. p must be riccati_sol.params
    (ParamError otherwise). Validated post hoc via cap_hit."""
    if p != riccati_sol.params:
        raise ParamError("p == sol.params")
    g_peak = float(np.max(riccati_sol.gain_at(riccati_sol.t)))
    return 5.0 * g_peak * riccati_sol.params.x_init


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


def fd_hjb_lq(p: ModelParams, g: Grid2D, u_grid) -> FdHjbResult:
    """Backward-Euler upwind scheme for the Bellman PDE, marched from
    the terminal payoff gamma*x^2 (absolute-discount convention: the
    terminal weight is already inside gamma, the running cost carries
    exp(-c*t)) to t = 0, one implicit step per reporting interval of g.

    Step k (from n_t-2 down to 0) first picks each node's control as
    the argmax over u_grid of the discrete Hamiltonian
    A^u v - exp(-c*t_k)*u^2 evaluated at v^{k+1}, then solves
    (I - dt*A^u) v^k = v^{k+1} - dt*exp(-c*t_k)*u^2 as one (2,2)-banded
    system. Both edges use cubic-extrapolation ghosts,
    v_{-1} = 3v_0 - 3v_1 + v_2 and its mirror at n, folded into the band.
    The control is lagged rather than re-optimized against v^k: with the
    cubic ghost rows the matrix is not an M-matrix, and policy iteration
    can cycle between two controls near the right edge.

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
    the largest control, wherever it sits in u_grid.

    A u_grid that is not finite and nonnegative raises ParamError.
    Coefficients or a value that leave the floating-point range raise
    StableRangeError, and a singular band raises SolverError.
    """
    require(p)
    u = _controls(u_grid)
    x = g.x_nodes()
    n = g.n_x
    n_u = u.size
    dx = g.dx
    dt = p.T / (g.n_t - 1)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = p.gamma * x * x
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
        # the first index of the largest control, which the argmax picks
        # among equal controls
        top = int(np.argmax(u))

        for k in range(g.n_t - 2, -1, -1):
            w = math.exp(-p.c * k * dt)
            ve[0] = 3.0 * v[0] - 3.0 * v[1] + v[2]
            ve[1:-1] = v
            ve[-1] = 3.0 * v[-1] - 3.0 * v[-2] + v[-3]
            np.subtract(ve[2:], v, out=dp)
            np.subtract(ve[:-2], v, out=dm)
            np.multiply(up, dp[:, None], out=ham)
            np.multiply(lo, dm[:, None], out=tmp)
            ham += tmp
            np.multiply(usq, w, out=wu)
            ham -= wu
            ham.argmax(axis=1, out=pick)
            if n_u > 1 and not cap_hit:
                cap_hit = bool((pick == top).any())

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
            # the cubic ghosts' weights on v_0, v_1, v_2 and their mirror
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
    """Value of dp_qvi_stopping on its grid. converged is True on every
    returned result, since a run that does not converge raises
    SolverError instead; it carries no information and stays because
    perfbench/workloads.py reads it."""

    x: np.ndarray
    v: np.ndarray
    boundary_hat: float
    iterations: int
    converged: bool

    def value_at(self, x_query) -> float:
        return float(np.interp(x_query, self.x, self.v))


def dp_qvi_stopping(sp: StoppingParams, g: Grid2D, u_grid) -> DpQviResult:
    """Stationary obstacle problem with obstacle x^2 on a Markov-chain
    discretization of [g.x_lo, g.x_hi] with g.n_x nodes (g.n_t is not
    read), iterated to a fixed point of the coupled
    value/control/stop-set system.

    Each sweep freezes the control at every node and solves the
    obstacle-constrained tridiagonal system exactly: reverse
    elimination, then forward substitution that projects each value
    onto the obstacle as it goes. The projection resolves the whole
    stop set in a single pass, which is valid because the stop region
    here is an interval at the left end of the grid. (Deciding stop
    nodes from one-step lookahead instead would free at most one node
    per sweep, since interior stop nodes only ever see
    obstacle-valued neighbors.) The outer loop re-optimizes the
    control from the solved value and repeats until the control is
    unchanged and the value moved by at most QVI_TOL, within
    QVI_MAX_SWEEPS sweeps.

    The left edge is pinned to the obstacle. That is exact here: the
    value is nonnegative, the running cost is positive, and the
    obstacle takes its minimum at x_lo, so stopping there is (weakly)
    optimal. The right edge uses a linearly extrapolated ghost.

    boundary_hat is the first grid point whose value sits detectably
    below the obstacle.

    Working memory is O(len(u_grid)*QVI_CHUNK + n_x); no
    (len(u_grid), n_x) array is formed. Each control search walks the
    nodes in chunks of QVI_CHUNK (256) and forms the chunk's transition
    probabilities and running costs into five node-major
    (QVI_CHUNK, len(u_grid)) arrays allocated once per call, re-forming
    them on every search instead of keeping them for the whole grid.
    Each sweep forms its tridiagonal rows from the same formulas on the
    chosen controls. On the criterion-9 grid (5,401 nodes, 101
    controls) the call's tracemalloc peak is about 3 MB.

    The elimination and the projected substitution run on Python floats
    (tolist() of the frozen rows), which round exactly as float64 does
    but skip numpy's per-element scalar boxing. Each pivot is checked
    before it divides: one that is not positive and finite raises
    SolverError, and so does a run past QVI_MAX_SWEEPS. A u_grid that
    is not finite and nonnegative raises ParamError.
    """
    u = _controls(u_grid)
    x = g.x_nodes()
    dx = g.dx
    n = g.n_x
    n_u = u.size

    obs = x * x
    obs_l = obs.tolist()
    drift = sp.mu - sp.rho * x
    # running cost per unit time of each control
    rate = sp.gamma1 * (u * u) + sp.gamma2

    def coefficients(b, w, norm, p_up, p_dn, cost):
        # into the last four arrays, from the drift b and the cost rate w:
        # norm = 1 + dx*|b|, p_up = (0.5 + dx*max(b, 0))/norm,
        # p_dn = (0.5 + dx*max(-b, 0))/norm, cost = dx*dx/norm*w; each
        # in-place step rounds as the same step of the formula does
        np.abs(b, out=norm)
        norm *= dx
        norm += 1.0
        np.maximum(b, 0.0, out=p_up)
        p_up *= dx
        p_up += 0.5
        p_up /= norm
        np.negative(b, out=p_dn)
        np.maximum(p_dn, 0.0, out=p_dn)
        p_dn *= dx
        p_dn += 0.5
        p_dn /= norm
        np.divide(dx * dx, norm, out=cost)
        cost *= w

    # node-major (QVI_CHUNK, n_u) work arrays for best_controls, so each
    # node's argmin reads contiguous memory; (n,) ones for a sweep's rows
    width = min(QVI_CHUNK, n)
    c_b, c_norm, c_up, c_dn, c_cost = (np.empty((width, n_u)) for _ in range(5))
    b, norm, pu, pd, cost = (np.empty(n) for _ in range(5))
    ve = np.empty(n + 2)

    def best_controls(v):
        # argmin over u of the one-step expected value plus running cost,
        # q = (p_up*v_{i+1} + p_dn*v_{i-1}) + cost, a chunk of nodes at a time
        ve[0] = 2.0 * v[0] - v[1]
        ve[1:-1] = v
        ve[-1] = 2.0 * v[-1] - v[-2]
        pick = np.empty(n, dtype=np.intp)
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            m = hi - lo
            # p_up and p_dn become q and its down term in place
            q, q_dn = c_up[:m], c_dn[:m]
            np.subtract(drift[lo:hi, None], u, out=c_b[:m])
            coefficients(c_b[:m], rate, c_norm[:m], q, q_dn, c_cost[:m])
            q *= ve[lo + 2:hi + 2, None]
            q_dn *= ve[lo:hi, None]
            q += q_dn
            q += c_cost[:m]
            np.argmin(q, axis=1, out=pick[lo:hi])
        return pick

    v = obs.copy()
    # warm-start controls from a one-step test at the obstacle
    u_idx = best_controls(v)
    iterations = 0
    converged = False

    for iterations in range(1, QVI_MAX_SWEEPS + 1):
        np.subtract(drift, u[u_idx], out=b)
        coefficients(b, rate[u_idx], norm, pu, pd, cost)

        # interior row i: v_i - pu_i v_{i+1} - pd_i v_{i-1} = rhs_i;
        # last row (diagonal 1 - 2 pu) substitutes the ghost
        # v_n = 2 v_{n-1} - v_{n-2}
        upper = (-pu).tolist()
        lower = (-pd).tolist()
        lower[-1] = float(pu[-1] - pd[-1])
        rhs = cost.tolist()

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
        if stable and delta <= QVI_TOL:
            converged = True
            break

    if not converged:
        raise SolverError("obstacle iteration did not converge in %d sweeps" % QVI_MAX_SWEEPS)

    below = np.nonzero(obs - v > 1e-8)[0]
    boundary_hat = float(x[below[0]]) if below.size else float(x[-1])
    return DpQviResult(
        x=x, v=v, boundary_hat=boundary_hat, iterations=iterations, converged=converged
    )
