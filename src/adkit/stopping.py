"""Mixed control/stopping solver for the launch-timing problem.

State y follows dy = (mu - rho*y - u) dt + dw; the controller pays
gamma1*u^2 + gamma2 per unit time until it stops and collects y_tau^2.
Stopping is optimal at or below the free boundary x0. gamma2 = 2*rho*gamma1
is enforced exactly; it makes the exponential transform linearize the
continuation PDE. Everything comes from the rescaled inverse Mills ratio

    h(w) = 1/(sqrt(pi)*erfcx(w)) - w,  h' = 2*(h + w)*h - 1 in (-1, 0),

w = sqrt(rho)*(x - mu/rho); h is convex (Sampford 1953, Ann. Math.
Stat. 24:130). The control is u* = 2*sqrt(rho)*h(w); x0 is the unique
root of the concave fit function f(x) = x/gamma1 - u*(x), f' > 1/gamma1;
and on the continuation side the value has the log-of-Gaussian-tail form

    v(x) = x0^2 - 2*gamma1*(L(w) - L(w0)),  L(w) = log(erfcx(w)),

with w0 = w(x0), and L(w) = w^2 + log(erfc(w)) for w < 0.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._scipy import erfc, erfcx
from .errors import ParamError, SolverError, StableRangeError

SQRT_PI = math.sqrt(math.pi)
# h takes Laplace's continued fraction from CF_FROM on, where its erfcx
# form cancels; at w = CF_FROM, 40 terms reach rounding level (32: 4e-16)
CF_FROM = 3.0
CF_TERMS = 40
# the largest |x| whose obstacle x^2 is finite
X_MAX = math.sqrt(sys.float_info.max)
GAMMA2_RATIO_TOL = 1e-12
# step cap of the free boundary's Newton iteration
NEWTON_MAXITER = 100


@dataclass(frozen=True)
class StoppingParams:
    """Launch-timing problem data; mu = rho*k is derived.

    gamma2 must equal 2*rho*gamma1 (checked to 1e-12 relative); the
    general-ratio problem needs a different special-function basis and
    is not handled here.
    """

    k: float
    rho: float
    gamma1: float
    gamma2: float
    mu: float = field(init=False)

    def __post_init__(self):
        bad = []
        for name in ("k", "rho", "gamma1", "gamma2"):
            if not math.isfinite(getattr(self, name)):
                bad.append("%s finite" % name)
        if not bad:
            if self.rho <= 0:
                bad.append("rho > 0")
            if self.gamma1 <= 1:
                bad.append("gamma1 > 1")
            if self.k < 0:
                bad.append("k >= 0")
            target = 2.0 * self.rho * self.gamma1
            if abs(self.gamma2 - target) > GAMMA2_RATIO_TOL * max(1.0, abs(self.gamma2)):
                bad.append("gamma2 = 2*rho*gamma1")
        if bad:
            raise ParamError(bad)
        object.__setattr__(self, "mu", self.rho * self.k)


def _like(x, out):
    """out as a float for a scalar query x, as an array otherwise."""
    return float(out) if np.ndim(x) == 0 else out


def _scaled_arg(x, sp: StoppingParams):
    """w = sqrt(rho)*(x - mu/rho) for a float or a float array x."""
    return math.sqrt(sp.rho) * (x - sp.mu / sp.rho)


def u2(x, sp: StoppingParams):
    """Decaying solution of the homogeneous continuation ODE,
    exp(w^2) * integral_x^inf exp(-rho*(s - mu/rho)^2) ds, through erfcx;
    StableRangeError where it overflows, as it does for w below about -26."""
    w = _scaled_arg(np.asarray(x, dtype=float), sp)
    with np.errstate(over="ignore"):
        out = (SQRT_PI / (2.0 * math.sqrt(sp.rho))) * erfcx(w)
    if np.isinf(out).any():
        raise StableRangeError("u2 overflows: some w = sqrt(rho)*(x - mu/rho) is as low as %g"
                               % np.nanmin(w))
    return _like(x, out)


def _h_fraction(w):
    """h and h' on w >= CF_FROM from Laplace's continued fraction
    (Abramowitz and Stegun 7.1.14): h = (1/2)/(w + t), with
    t = 1/(w + (3/2)/(w + 2/(w + ...))) summed from its CF_TERMS-th term
    back, and h' = 2*(h + w)*h - 1 = 2*h*(h - t), since 2*w*h - 1 = -2*h*t,
    free of the cancellation of the first form; both are 0 at w = +inf."""
    t = np.zeros_like(w)
    for n in range(CF_TERMS, 1, -1):
        t += w
        np.divide(0.5 * n, t, out=t)
    h = 0.5 / (w + t)
    return h, 2.0 * h * (h - t)


def _control(d, sp: StoppingParams, derivative: bool = False):
    """u* = 2*sqrt(rho)*h(w), w = sqrt(rho)*d, for a 1-d float array
    d = x - mu/rho (overwritten); with derivative also
    du*/dx = 2*rho*h' = r*u* - 2*rho, r = 1/u2 = 2*sqrt(rho)*(h + w).
    The erfcx form u* = r - 2*rho*d covers w < CF_FROM: on w < 0 both its
    terms are positive, and where u2 overflows (w below about -26.6, or
    sooner for tiny rho) r = 0 leaves -2*rho*d, which is u* to rounding.
    The continued fraction takes the lanes w >= CF_FROM, found by one max
    reduce; they pass the erfcx pass at w = CF_FROM and are replaced."""
    sqrho = math.sqrt(sp.rho)
    w = d * sqrho
    far = None
    if np.fmax.reduce(w, axis=None, initial=-math.inf) >= CF_FROM:
        far = np.flatnonzero(w >= CF_FROM)
        h, h_prime = _h_fraction(w[far])
        w[far] = CF_FROM
    erfcx(w, out=w)
    with np.errstate(over="ignore"):
        w *= SQRT_PI / (2.0 * sqrho)  # u2
    r = np.divide(1.0, w, out=w)
    d *= 2.0 * sp.rho
    u = np.subtract(r, d, out=d)
    if far is not None:
        u[far] = (2.0 * sqrho) * h
    if not derivative:
        return u
    du = r * u - 2.0 * sp.rho
    if far is not None:
        du[far] = (2.0 * sp.rho) * h_prime
    return u, du


def _log_erfcx(w: float) -> float:
    """L(w) = log(erfcx(w)), as w^2 + log(erfc(w)) for w < 0, where
    erfcx overflows."""
    if w < 0:
        return w * w + math.log(float(erfc(w)))
    return math.log(float(erfcx(w)))


def _fit(x: float, sp: StoppingParams):
    """f(x) = x/gamma1 - u*(x), whose root is the free boundary, and
    f'(x) = 1/gamma1 - 2*rho*h'(w) > 1/gamma1."""
    u, du = _control(np.array([x - sp.mu / sp.rho]), sp, derivative=True)
    return x / sp.gamma1 - float(u[0]), 1.0 / sp.gamma1 - float(du[0])


def free_boundary(sp: StoppingParams):
    """(x0, alpha2): the root of the fit function f, and the constant of
    the log form v = -2*gamma1*log(alpha2*u2).

    f is concave and increasing, so Newton's method from a point where
    f <= 0 climbs to the root from the left. The start is x1, one float
    left of the tangent step from xa, the root of the large-w asymptote
    x*(x - mu/rho) = gamma1 (right of x0, since h(w) < 1/(2w)), where
    x1 > lo and f(x1) <= 0, as it is where rho*gamma1 is large; otherwise it
    is lo = 2*mu/(2*rho + 1/gamma1), where f(lo) = -1/u2(lo) < 0. Past a
    point where rounding made f > 0, steps that reach it bisect instead;
    a step that rounds to no move goes one float up. It ends at f == 0,
    or at adjacent floats around the sign change of the computed f with
    the smaller |f|, or at lo itself where rounding makes f(lo) >= 0 (the
    root is then within a few ulps of lo). StableRangeError on a
    non-finite lo or f; SolverError past NEWTON_MAXITER steps.

    alpha2 = exp(-x0^2/(2*gamma1))*g(x0), g = 1/u2 = 2*sqrt(rho)*(w + h),
    is taken through log(g) so that no factor overflows; nothing reads
    it, and it may round to 0.
    """
    lo = 2.0 * sp.mu / (2.0 * sp.rho + 1.0 / sp.gamma1)
    if not math.isfinite(lo):
        raise StableRangeError("free boundary: the start point 2*mu/(2*rho + 1/gamma1) = %r "
                               "is not finite (mu = rho*k = %r)" % (lo, sp.mu))
    a, b, fb = None, math.inf, math.inf
    half = 0.5 * sp.mu / sp.rho
    xa = half + math.hypot(half, math.sqrt(sp.gamma1))
    fxa, dfxa = _fit(xa, sp)
    # one float left, so that a step that rounds to 0 still lands left of x0
    x = math.nextafter(xa - fxa / dfxa, -math.inf)
    fit = _fit(x, sp) if x > lo else (math.nan, math.nan)
    if not fit[0] <= 0:
        x, fit = lo, _fit(lo, sp)
    for _ in range(NEWTON_MAXITER):
        fx, dfx = fit
        if not math.isfinite(fx):
            raise StableRangeError("free boundary: the fit function is not finite at x = %r"
                                   % x)
        if fx >= 0:
            if fx == 0 or a is None:
                break
            b, fb = x, fx
        else:
            a, fa, dfa = x, fx, dfx
        if math.nextafter(a, b) == b:
            x = a if -fa <= fb else b
            break
        x = a - fa / dfa
        if not x > a:
            x = math.nextafter(a, b)
        elif not x < b:
            x = a + 0.5 * (b - a)
        fit = _fit(x, sp)
    else:
        raise SolverError("free boundary: Newton's method did not converge in %d steps"
                          % NEWTON_MAXITER)
    log_g = math.log(2.0 * math.sqrt(sp.rho) / SQRT_PI) - _log_erfcx(_scaled_arg(x, sp))
    return float(x), math.exp(log_g - x * x / (2.0 * sp.gamma1))


def _require_square_finite(x):
    """StableRangeError where some |x| > X_MAX, whose x^2 overflows."""
    if np.any(np.abs(x) > X_MAX):
        raise StableRangeError("stopping: some |x| > %g, where the obstacle x^2 overflows"
                               % X_MAX)


@dataclass(frozen=True)
class QviReport:
    """Residuals of the variational characterization on a verification
    grid. residual holds, per node of x_grid, the stop-region expression
    at and below x0 and the continuation PDE residual above it; the
    scalars are its worst cases. stop_side_max should be <= 0,
    pde_residual_max near zero, obstacle_gap_min >= 0, u_clamp_hits == 0.

    pde_residual_max checks arithmetic only: v' and v'' both come from
    u* (v'' through the ODE identity du*/dx = r*u* - 2*rho), so it is
    zero to rounding whatever the Mills ratio. On the criterion instance
    (k=1, rho=0.5, gamma1=gamma2=2), scaling erfcx by 1.01 moves x0 from
    1.3604 to 1.3475 and leaves pde_residual_max at 8.9e-16. It does
    not check that v is the launch problem's value."""

    stop_side_max: float
    pde_residual_max: float
    obstacle_gap_min: float
    u_clamp_hits: int
    x_grid: np.ndarray
    residual: np.ndarray


@dataclass(frozen=True)
class StoppingSolution:
    """v, u* and the QVI residual of params, whose free boundary is x0."""

    params: StoppingParams
    x0: float
    alpha2: float
    residual_report: Optional[QviReport] = None

    def value(self, x):
        """x^2 at and below the boundary, x0^2 - 2*gamma1*(L(w) - L(w0))
        above it; on w < 0 the difference is (w - w0)*(w + w0) +
        log(erfc(w)/erfc(w0)), where w^2 and w0^2 may overflow."""
        sp, x0 = self.params, self.x0
        x_arr = np.asarray(x, dtype=float)
        _require_square_finite(x_arr)
        # stop-region queries are clamped to x0, where the where() discards them
        xc = np.maximum(x_arr, x0).reshape(-1)
        w = _scaled_arg(xc, sp)
        w0 = _scaled_arg(x0, sp)
        lanes = np.flatnonzero(w < 0)  # none unless w0 < 0
        neg = w[lanes]
        diff = (math.sqrt(sp.rho) * (xc[lanes] - x0)) * (neg + w0) + np.log(erfc(neg) / erfc(w0))
        w[lanes] = 0.0  # keeps erfcx finite there
        log_ratio = np.log(erfcx(w)) - _log_erfcx(w0)
        log_ratio[lanes] = diff
        cont = x0 * x0 - 2.0 * sp.gamma1 * log_ratio.reshape(x_arr.shape)
        out = np.where(x_arr <= x0, x_arr * x_arr, cont)
        return _like(x, out)

    def policy(self, y):
        """Feedback control: u* = 2*sqrt(rho)*h(w) on the continuation side
        (boundary included, where it equals x0/gamma1), zero below (and for
        NaN); 0 at y = +inf. The max with 0 is defensive; it provably never
        binds. Every lane is evaluated at max(y, x0)."""
        sp = self.params
        y_arr = np.asarray(y, dtype=float)
        lanes = y_arr if y_arr.ndim == 1 else y_arr.reshape(-1)
        d = np.maximum(lanes, self.x0)
        d -= sp.mu / sp.rho
        u = _control(d, sp)
        out = np.zeros(lanes.shape)
        np.maximum(u, 0.0, out=out, where=lanes >= self.x0)
        if y_arr.ndim == 1:
            return out
        return float(out[0]) if y_arr.ndim == 0 else out.reshape(y_arr.shape)


def qvi_residual(sol: StoppingSolution, grid) -> QviReport:
    """Checks the three pieces of the variational problem on a grid:
    the stop-region inequality, the continuation HJB residual
    v''/2 + (mu - rho*x)*v' - v'^2/(4*gamma1) + gamma2, and the obstacle
    bound. Violations are reported, not raised; StableRangeError where
    the residual leaves the floating-point range. The HJB residual takes
    v' and v'' from u* and its ODE identity, so it checks arithmetic,
    not the solution (see QviReport)."""
    sp = sol.params
    x = np.asarray(grid, dtype=float)
    _require_square_finite(x)
    is_stop = x <= sol.x0
    is_cont = x > sol.x0
    stop = x[is_stop]
    cont = x[is_cont]
    d = cont - sp.mu / sp.rho
    u, du = _control(d.copy(), sp, derivative=True)
    v1 = 2.0 * sp.gamma1 * u  # v' = 4*gamma1*sqrt(rho)*h
    v2 = 2.0 * sp.gamma1 * du  # v'' = 4*gamma1*rho*h'
    residual = np.full_like(x, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        residual[is_stop] = ((2.0 * sp.rho + 1.0 / sp.gamma1) * stop * stop
                             - 2.0 * sp.mu * stop - (1.0 + sp.gamma2))
        residual[is_cont] = (0.5 * v2 - sp.rho * d * v1 - v1 * v1 / (4.0 * sp.gamma1)
                             + sp.gamma2)
    if not np.isfinite(residual[is_stop | is_cont]).all():
        raise StableRangeError("qvi_residual: the residual leaves the floating-point range")

    gap = x * x - sol.value(x)
    return QviReport(
        stop_side_max=float(np.max(residual[is_stop], initial=-math.inf)),
        pde_residual_max=float(np.max(np.abs(residual[is_cont]), initial=0.0)),
        obstacle_gap_min=float(np.min(gap, initial=math.inf)),
        u_clamp_hits=int(np.count_nonzero(u < 0)),
        x_grid=x,
        residual=residual,
    )


def solve_stopping(sp: StoppingParams, n_grid: int = 2001) -> StoppingSolution:
    """Free boundary, value, and policy, with the QVI report evaluated
    on n_grid points from 0 to x0 + 10/sqrt(rho); qvi_residual checks
    any other grid."""
    if n_grid < 2:
        raise ParamError("n_grid >= 2")
    x0, alpha2 = free_boundary(sp)
    sol = StoppingSolution(params=sp, x0=x0, alpha2=alpha2)
    grid = np.linspace(0.0, x0 + 10.0 / math.sqrt(sp.rho), n_grid)
    return dataclasses.replace(sol, residual_report=qvi_residual(sol, grid))
