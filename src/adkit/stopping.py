"""Mixed control/stopping solver for the launch-timing problem.

State y follows dy = (mu - rho*y - u) dt + dw; the controller pays
gamma1*u^2 + gamma2 per unit time until it stops and collects y_tau^2.
Stopping is optimal at or below the free boundary x0. On the
continuation side the value function has the log-of-Gaussian-tail form

    v(x) = -2*gamma1*log(alpha2 * u2(x)),

where u2 solves 0.5*u2'' + (mu - rho*x)*u2' - rho*u2 = 0 and decays at
+infinity. The ratio gamma2/(2*gamma1) = rho is enforced exactly; it is
what makes the exponential transform linearize the continuation PDE.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._scipy import erfcx
from .errors import ParamError, SolverError, StableRangeError

SQRT_PI = math.sqrt(math.pi)
# |sqrt(rho)*(x - mu/rho)| <= W_STABLE keeps erfcx within 1e-12 relative
# error; below -W_STABLE the underlying exp(w^2) overflows
W_STABLE = 26.0
# log of the largest float (709.7827...), rounded down
LOG_FLOAT_MAX = 709.78
# the largest |x| whose obstacle x^2 is finite
X_MAX = math.sqrt(sys.float_info.max)
GAMMA2_RATIO_TOL = 1e-12
# step cap of the free boundary's Newton iteration
NEWTON_MAXITER = 100


@dataclass(frozen=True)
class StoppingParams:
    """Launch-timing problem data; mu = rho*k is derived, and so is
    w_floor, the lowest scaled argument w = sqrt(rho)*(x - mu/rho) that u2
    accepts: -W_STABLE, or higher for rho below about 1.4e-29, where u2's
    scale sqrt(pi)/(2*sqrt(rho)) times erfcx(w) < 2*exp(w^2) could
    overflow first.

    gamma2 must equal 2*rho*gamma1 (checked to 1e-12 relative); the
    general-ratio problem needs a different special-function basis and
    is not handled here.
    """

    k: float
    rho: float
    gamma1: float
    gamma2: float
    mu: float = field(init=False)
    w_floor: float = field(init=False)

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
        room = LOG_FLOAT_MAX - 0.5 * (math.log(math.pi) - math.log(self.rho))
        object.__setattr__(self, "w_floor", -min(W_STABLE, math.sqrt(room)))


def _like(x, out):
    """out as a float for a scalar query x, as an array otherwise."""
    return float(out) if np.ndim(x) == 0 else out


def _scaled_arg(x, sp: StoppingParams):
    return math.sqrt(sp.rho) * (np.asarray(x, dtype=float) - sp.mu / sp.rho)


def _require_stable(w, sp: StoppingParams):
    """StableRangeError where some scaled argument w < sp.w_floor; NaN
    lanes pass (their results are NaN)."""
    floor = sp.w_floor
    lowest = np.minimum.reduce(w, axis=None, initial=math.inf)
    if not lowest >= floor and np.any(w < floor):
        raise StableRangeError(
            "u2 out of stable range: need sqrt(rho)*(x - mu/rho) >= %g, got %g"
            % (floor, float(lowest))
        )


def u2(x, sp: StoppingParams):
    """Decaying solution of the homogeneous continuation ODE,
    normalized as exp(w^2) * integral_x^inf exp(-rho*(s - mu/rho)^2) ds
    with w = sqrt(rho)*(x - mu/rho); evaluated through the scaled
    complementary error function, so no overlarge intermediate appears.
    """
    w = _scaled_arg(x, sp)
    _require_stable(w, sp)
    out = (SQRT_PI / (2.0 * math.sqrt(sp.rho))) * erfcx(w)
    return _like(x, out)


def u2_prime(x, sp: StoppingParams):
    # differentiating the defining integral: u2' = 2*rho*(x - mu/rho)*u2 - 1
    x_arr = np.asarray(x, dtype=float)
    out = 2.0 * sp.rho * (x_arr - sp.mu / sp.rho) * u2(x_arr, sp) - 1.0
    return _like(x, out)


def u2_second(x, sp: StoppingParams):
    x_arr = np.asarray(x, dtype=float)
    out = 2.0 * sp.rho * u2(x_arr, sp) + 2.0 * sp.rho * (
        x_arr - sp.mu / sp.rho
    ) * u2_prime(x_arr, sp)
    return _like(x, out)


def _fit_lhs(x, sp: StoppingParams):
    """Smooth-fit equation LHS minus one, whose root is the free boundary,
    and its derivative in x, both from one u2 value."""
    slope = 2.0 * sp.rho + 1.0 / sp.gamma1
    u = u2(x, sp)
    lin = slope * x - 2.0 * sp.mu
    u_prime = 2.0 * sp.rho * (x - sp.mu / sp.rho) * u - 1.0
    return lin * u - 1.0, slope * u + lin * u_prime


def _newton_root(f, a, b):
    """Root of f on [a, b], a < b, where f(a) <= 0 <= f(b); f(x) returns
    the value and the derivative at x.

    Newton's method from the end with the smaller |f|, each point found
    replacing the bracket end of its sign; a step that leaves the bracket
    is replaced by bisection, and one that rounds to no move goes one
    float toward the root. Ends at f == 0 or when the bracket ends are
    adjacent floats, a sign change of the computed f that no float can
    narrow, and returns the end with the smaller |f|.
    StableRangeError on a non-finite f; SolverError when f does not go
    from negative to positive or NEWTON_MAXITER steps do not converge.
    """

    def at(x):
        fx, dfx = f(x)
        if not math.isfinite(fx):
            raise StableRangeError("free boundary: the fit function is not finite at x = %r"
                                   % x)
        return fx, dfx

    end_a, end_b = at(a), at(b)
    fa, fb = end_a[0], end_b[0]
    if not fa <= 0.0 <= fb:
        raise SolverError("free boundary: the fit function does not go from negative "
                          "to positive on [%r, %r]" % (a, b))
    x, (fx, dfx) = (a, end_a) if -fa < fb else (b, end_b)
    for _ in range(NEWTON_MAXITER):
        if fx == 0:
            return x
        if fx < 0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        if math.nextafter(a, b) == b:
            return a if -fa <= fb else b
        step = x - fx / dfx if dfx else math.nan
        if step == x:
            step = math.nextafter(x, a if fx > 0 else b)
        x = step if a < step < b else a + 0.5 * (b - a)
        fx, dfx = at(x)
    raise SolverError("free boundary: Newton's method did not converge in %d steps "
                      "(bracket [%r, %r])" % (NEWTON_MAXITER, a, b))


def free_boundary(sp: StoppingParams):
    """Bracket and solve the fit equation; returns (x0, alpha2).

    The point where the linear factor vanishes gives a guaranteed
    negative end, raised to the lower end of u2's stable range where
    that lies higher; a fit still >= 0 there puts the root at or past
    the edge where u2 overflows (StableRangeError). The positive end is
    found by doubling the distance from mu/rho: the fit tends to
    1/(2*rho*gamma1) > 0, so the doubling ends at a sign change or at a
    non-finite sample. Samples that increase up to the first positive
    one and stay positive after it (the fit function may overshoot and
    fall back toward its limit) back the uniqueness assumption before
    the root is accepted. _newton_root then solves to adjacent floats
    around the sign change.
    """
    center = sp.mu / sp.rho
    sqrho = math.sqrt(sp.rho)
    slope = 2.0 * sp.rho + 1.0 / sp.gamma1
    lo = max(2.0 * sp.mu / slope, center - (-sp.w_floor - 0.1) / sqrho)
    if not math.isfinite(lo):
        raise StableRangeError("free boundary bracket: lower end %r is not finite "
                               "(mu = rho*k = %r)" % (lo, sp.mu))
    # fit values past the float range (u2 near its largest value for tiny
    # rho, or the doubling reaching infinity) are caught by the finite
    # check on the samples, lo and hi included
    with np.errstate(over="ignore", invalid="ignore"):
        if _fit_lhs(lo, sp)[0] >= 0:
            raise StableRangeError("free boundary bracket: the fit function is still >= 0 "
                                   "at the lower end of u2's stable range, x = %r" % lo)
        b = 1.0 / sqrho
        hi = center + b
        while _fit_lhs(hi, sp)[0] <= 0:
            b *= 2.0
            hi = center + b
        samples = _fit_lhs(np.linspace(lo, hi, 64), sp)[0]
    if not np.isfinite(samples).all():
        raise StableRangeError("free boundary bracket: the fit function on [%r, %r] "
                               "is not finite" % (lo, hi))
    first = int(np.argmax(samples > 0))
    if np.any(np.diff(samples[: first + 1]) <= 0) or np.any(samples[first:] <= 0):
        raise SolverError("fit equation not increasing up to its sign change on the "
                          "bracket; root may not be unique")

    x0 = _newton_root(lambda x: _fit_lhs(x, sp), lo, hi)
    alpha2 = math.exp(-x0 * x0 / (2.0 * sp.gamma1)) / u2(x0, sp)
    if not 0.0 < alpha2 < math.inf:
        # v = -2*gamma1*log(alpha2*u2) would be infinite everywhere
        raise StableRangeError("free boundary: alpha2 = exp(-x0^2/(2*gamma1))/u2(x0) = %r "
                               "leaves the floating-point range (x0 = %r, gamma1 = %r)"
                               % (alpha2, x0, sp.gamma1))
    return float(x0), float(alpha2)


@dataclass(frozen=True)
class QviReport:
    """Residuals of the variational characterization on a verification
    grid. residual holds, per node of x_grid, the stop-region expression
    at and below x0 and the continuation PDE residual above it; the
    scalars are its worst cases. stop_side_max should be <= 0,
    pde_residual_max near zero, obstacle_gap_min >= 0, u_clamp_hits == 0."""

    stop_side_max: float
    pde_residual_max: float
    obstacle_gap_min: float
    u_clamp_hits: int
    x_grid: np.ndarray
    residual: np.ndarray


@dataclass(frozen=True)
class StoppingSolution:
    params: StoppingParams
    x0: float
    alpha2: float
    residual_report: Optional[QviReport] = None

    def value(self, x):
        return stopping_value(self, self.params, x)

    def policy(self, y):
        return stopping_policy(self, self.params, y)


def _require_square_finite(x):
    """StableRangeError where some |x| > X_MAX, whose x^2 overflows."""
    if np.any(np.abs(x) > X_MAX):
        raise StableRangeError("stopping: some |x| > %g, where the obstacle x^2 overflows"
                               % X_MAX)


def stopping_value(sol: StoppingSolution, sp: StoppingParams, x):
    """x^2 at and below the boundary, the log form above it."""
    x_arr = np.asarray(x, dtype=float)
    _require_square_finite(x_arr)
    # clamp the u2 argument so stop-region queries never leave the
    # stable range; the where() discards those lanes anyway
    cont = -2.0 * sp.gamma1 * np.log(sol.alpha2 * u2(np.maximum(x_arr, sol.x0), sp))
    out = np.where(x_arr <= sol.x0, x_arr * x_arr, cont)
    return _like(x, out)


def stopping_policy(sol: StoppingSolution, sp: StoppingParams, y):
    """Feedback control: 1/u2(y) - 2*rho*(y - mu/rho) on the
    continuation side (boundary included, where it equals x0/gamma1),
    zero below (and for NaN). The max with 0 is defensive; it provably
    never binds. u2 is evaluated at max(y, x0) in place, in one erfcx pass."""
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    if scalar:
        y_arr = y_arr.reshape(1)
    d = np.maximum(y_arr, sol.x0)
    d -= sp.mu / sp.rho
    w = d * math.sqrt(sp.rho)
    _require_stable(w, sp)
    erfcx(w, out=w)
    w *= SQRT_PI / (2.0 * math.sqrt(sp.rho))  # u2(max(y, x0))
    np.divide(1.0, w, out=w)
    d *= 2.0 * sp.rho
    w -= d
    out = np.zeros(y_arr.shape)
    np.maximum(w, 0.0, out=out, where=y_arr >= sol.x0)
    return float(out[0]) if scalar else out


def qvi_residual(sol: StoppingSolution, sp: StoppingParams, grid) -> QviReport:
    """Checks the three pieces of the variational problem on a grid:
    the stop-region inequality, the continuation PDE residual, and the
    obstacle bound. Violations are reported, not raised."""
    x = np.asarray(grid, dtype=float)
    _require_square_finite(x)
    is_stop = x <= sol.x0
    is_cont = x > sol.x0
    stop = x[is_stop]
    cont = x[is_cont]
    residual = np.full_like(x, np.nan)
    residual[is_stop] = (
        (2.0 * sp.rho + 1.0 / sp.gamma1) * stop * stop
        - 2.0 * sp.mu * stop
        - (1.0 + sp.gamma2)
    )
    lin = 0.5 * u2_second(cont, sp) + (sp.mu - sp.rho * cont) * u2_prime(cont, sp)
    residual[is_cont] = -(2.0 * sp.gamma1 / u2(cont, sp)) * lin + sp.gamma2
    raw = 1.0 / u2(cont, sp) - 2.0 * sp.rho * (cont - sp.mu / sp.rho)

    gap = x * x - stopping_value(sol, sp, x)
    return QviReport(
        stop_side_max=float(np.max(residual[is_stop], initial=-math.inf)),
        pde_residual_max=float(np.max(np.abs(residual[is_cont]), initial=0.0)),
        obstacle_gap_min=float(np.min(gap, initial=math.inf)),
        u_clamp_hits=int(np.count_nonzero(raw < 0)),
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
    return dataclasses.replace(sol, residual_report=qvi_residual(sol, sp, grid))
