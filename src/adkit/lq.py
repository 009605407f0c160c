"""Indefinite linear-quadratic solver: well-posedness classification,
the closed-form solution of the generalized Riccati equation, the
feedback law, and closed-loop coefficients.

The scalar Riccati equation is

    dP/dt = (2*rho - sigma1^2)*P + (1 + sigma1*sigma2)^2 * P^2 / D(t, P),
    D(t, P) = exp(-c*t) + sigma2^2 * P,    P(T) = -gamma,

solved backward from T under the running constraints P < 0 and D > 0.
P parametrizes the minimization-form value P(t)*x^2; the supremum-form
objective of the control problem equals -P(t)*x^2.

Closed form. The scaled variable pi = exp(c*t)*P solves the autonomous
equation pi' = pi*(alpha + beta*pi)/(1 + s2*pi), pi(T) = -gamma0, with
alpha = 2*rho + c - sigma1^2, q = (1 + sigma1*sigma2)^2, s2 = sigma2^2
and beta = alpha*s2 + q >= 1. The solver works in w = -pi/(1 + s2*pi) > 0,
which solves

    w' = w*(alpha - q*w)*(1 + s2*w),    w(T) = gamma0/a4,

with a4 = 1 - gamma0*s2, the paper's reduced coefficient. Then

    P = -exp(-c*t)*w/(1 + s2*w),   D = exp(-c*t)/(1 + s2*w),
    gain = (1 + sigma1*sigma2)*w,

and none of these cancels, not even where sigma2^2*P nearly cancels
exp(-c*t). Partial fractions give the time at which the flow reaches w,

    t(w) = T + X*h(alpha*X) + s2*Y*h(beta*Y),    h(z) = log1p(z)/z,
    X = (w - w_T)/(w_T*(alpha - q*w)),  Y = (w_T - w)/((alpha - q*w_T)*(1 + s2*w)),

which is T + log(pi/pi_T)/alpha - q/(alpha*beta)*log((alpha + beta*pi)/(alpha + beta*pi_T))
written so that the limits alpha = 0 and beta = 0 are the plain terms X
and s2*Y. riccati_integrate inverts t(w) on its nodes by a safeguarded
Newton iteration in u = log(w). Backward in time w decays to 0 when
w_T < alpha/q, stays at a start on that fixed point, and otherwise
blows up at t_blow = lim t(w), w -> inf, which is D -> 0 for
sigma2 > 0 and P -> -inf for sigma2 = 0.

riccati_integrate classifies the phase line of this flow, so its verdict
and T_max are exact for every c >= 0: case i where A_T = alpha - q*w_T
>= 0, case ii where A_T < 0, and case iii at alpha = 0, with
T_max = T - t_blow. The paper's reduced coefficients a1..a4 (kept in
tests/paper_forms.py) of the scaled problem, rho + c/2 in place of rho and
c = 0, give the same cases: their quadratic -(x - 1)*(beta*x - q)/s2
has the roots 1 and q/beta, its discriminant zeta is alpha^2, and case i
is a4 >= q/beta. Since a4 < 1 <= max(1, q/beta), the paper's printed
condition holds on every admissible instance, and its cases iv and v
cannot be reached. oracles.riccati_oracle integrates the equation
numerically as an independent check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ParamError, PolicyError, SolverError, StableRangeError
from .model import ControlSet, ModelParams, Policy, as_array, as_count, as_real, float_like

# the retained interval of a blow-down instance ends where D has fallen
# to this fraction of D(T)
GUARD_FRAC = 1e-6
# |exp(c*t)*P| cap that stands in for blow-down when sigma2 = 0 (D stays positive)
P_CAP = 1e12
# Newton iterations one inversion may take; the nodes of the criterion-8
# instance need 6, those of blow-down instances about 30
MAX_NEWTON = 100
_EPS = float(np.finfo(float).eps)
# below this log, exp() is 0 even as a subnormal
_LOG_TINY = math.log(5e-324) - 1.0


def _sigma2_sq(p: ModelParams) -> float:
    try:
        return p.sigma2 ** 2
    except OverflowError:
        raise StableRangeError("sigma2^2 overflows (sigma2=%g)" % p.sigma2) from None


@dataclass(frozen=True)
class WellPosednessReport:
    """Phase-line verdict of the scaled flow over the horizon T - t_lo.

    case_label is "i" where w decays or stays put backward in time
    (A_T >= 0, which is a4 >= q/beta), "ii" where it blows down
    (A_T < 0) with alpha != 0, and "iii" at alpha = 0, the double root. T_max = T - t_blow, inf in case i, and the verdict is
    horizon < T_max. zeta = alpha^2 is the paper's discriminant.
    """

    case_label: str
    well_posed_closed_form: bool
    T_max: float
    zeta: float


def _h(z):
    """log1p(z)/z elementwise, 1 where z = 0."""
    return np.divide(np.log1p(z), z, out=np.ones_like(z), where=z != 0)


def _h1(z: float) -> float:
    return math.log1p(z) / z if z else 1.0


@dataclass(frozen=True)
class _Flow:
    """The scaled flow w' = w*(alpha - q*w)*(1 + s2*w), w(T) = w_T, in
    u = log(w). A_T = alpha - q*w_T: w decays backward in time where it
    is positive, blows up where it is negative, and stays put where it
    is 0."""

    T: float
    alpha: float
    q: float
    s2: float
    beta: float
    w_T: float
    u_T: float
    A_T: float

    def offset(self, u):
        """t(u) - T and du/dt on an array of u inside the flow's range."""
        w = np.exp(u)
        e1 = np.expm1(u - self.u_T)
        a_w = self.alpha - self.q * w
        r = 1.0 + self.s2 * w
        X = e1 / a_w
        z = self.alpha * X
        # log1p(z) loses digits as z -> -1, where w has decayed far below
        # w_T; there log(1 + z) = u - u_T + log(A_T/a_w) instead
        deep = z < -0.5
        off = X * _h(np.where(deep, 0.0, z))
        if deep.any():
            off[deep] = (u[deep] - self.u_T + np.log(self.A_T / a_w[deep])) / self.alpha
        if self.s2:
            Y = -self.w_T * e1 / (self.A_T * r)
            off += self.s2 * Y * _h(self.beta * Y)
        return off, a_w * r

    def offset1(self, u: float):
        """offset() on one float, with the math module."""
        w = math.exp(u)
        e1 = math.expm1(u - self.u_T)
        a_w = self.alpha - self.q * w
        r = 1.0 + self.s2 * w
        X = e1 / a_w
        z = self.alpha * X
        if z < -0.5:
            off = (u - self.u_T + math.log(self.A_T / a_w)) / self.alpha
        else:
            off = X * _h1(z)
        if self.s2:
            Y = -self.w_T * e1 / (self.A_T * r)
            off += self.s2 * Y * _h1(self.beta * Y)
        return off, a_w * r

    def du_dt(self, u):
        w = np.exp(u)
        return (self.alpha - self.q * w) * (1.0 + self.s2 * w)

    def blow_offset(self) -> float:
        """t_blow - T, the limit of t(u) - T as u -> inf (A_T < 0)."""
        with np.errstate(all="ignore"):
            X = -1.0 / np.float64(self.q * self.w_T)
            z = self.alpha * X
            if z < -0.5:
                off = np.log(self.A_T * X) / self.alpha  # log(1 + z)
            else:
                off = X * _h(np.array([z]))[0]
            if self.s2:
                Y = -1.0 / np.float64(self.A_T * self.s2)
                off += self.s2 * Y * _h(np.array([self.beta * Y]))[0]
        return float(off)

    def invert(self, tau, lo, hi, u, tol: float):
        """u with t(u) = T - tau on every entry, by Newton's method on
        g(u) = tau + t(u) - T, kept inside the bracket [lo, hi] by
        bisection. g is increasing in u where w decays, decreasing where
        it blows up. An iteration that stops short of rounding level is
        accepted where |g| <= tol*(|T| + |T - tau|)."""
        increasing = self.A_T > 0
        scale = np.abs(self.T) + np.abs(self.T - tau)
        for _ in range(MAX_NEWTON):
            off, dudt = self.offset(u)
            g = tau + off
            left = (g > 0) if increasing else (g < 0)
            hi = np.where(left, u, hi)
            lo = np.where(left, lo, u)
            new = u - g * dudt
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            done = (np.abs(new - u) <= 4.0 * _EPS * (1.0 + np.abs(new))) | (
                np.abs(g) <= 4.0 * _EPS * (scale + np.abs(off)))
            u = new
            if done.all():
                return u
        if not np.all(np.abs(tau + self.offset(u)[0]) <= tol * scale):
            raise SolverError(_no_convergence(tol))
        return u

    def invert1(self, tau: float, lo: float, hi: float, u: float, tol: float) -> float:
        """invert() on one float."""
        increasing = self.A_T > 0
        scale = abs(self.T) + abs(self.T - tau)
        for _ in range(MAX_NEWTON):
            off, dudt = self.offset1(u)
            g = tau + off
            if (g > 0) == increasing:
                hi = u
            else:
                lo = u
            new = u - g * dudt
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            if (abs(new - u) <= 4.0 * _EPS * (1.0 + abs(new))
                    or abs(g) <= 4.0 * _EPS * (scale + abs(off))):
                return new
            u = new
        if not abs(tau + self.offset1(u)[0]) <= tol * scale:
            raise SolverError(_no_convergence(tol))
        return u


def _no_convergence(tol: float) -> str:
    return ("closed-form Riccati inversion did not converge in %d Newton steps "
            "to tol = %g" % (MAX_NEWTON, tol))


def _scaled_flow(p: ModelParams) -> _Flow:
    """The scaled flow of p, which has passed _riccati_input;
    StableRangeError where its constants leave the float range."""
    s2 = _sigma2_sq(p)
    a4 = 1.0 - p.gamma0 * s2
    overflow = StableRangeError(
        "Riccati right-hand side overflows (rho=%g, c=%g, sigma1=%g, sigma2=%g)"
        % (p.rho, p.c, p.sigma1, p.sigma2))
    try:
        q = (1.0 + p.sigma1 * p.sigma2) ** 2
        alpha = 2.0 * p.rho + p.c - p.sigma1 ** 2
    except OverflowError:
        raise overflow from None
    w_T = p.gamma0 / a4
    # = alpha*s2 + q >= 1, summed without the cancelling sigma1^2*s2 terms
    beta = (2.0 * p.rho + p.c) * s2 + 1.0 + 2.0 * p.sigma1 * p.sigma2
    A_T = alpha - q * w_T
    if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(A_T)
            and 0 < w_T < math.inf):
        raise overflow
    return _Flow(p.T, alpha, q, s2, beta, w_T, math.log(w_T), A_T)


def _underflow(fl: _Flow, horizon: float) -> str:
    return ("P underflows to 0: exp(c*t)*P decays like exp(-alpha*(T - t)), "
            "alpha = %g, over a horizon of %g" % (fl.alpha, horizon))


def _riccati_input(p: ModelParams, t_lo, tol, n_nodes):
    """The input checks that riccati_integrate and oracles.riccati_oracle
    share, in this order; returns t_lo, tol, n_nodes and sigma2^2."""
    tol = as_real(tol, "tol")
    if not tol > 0:
        raise ParamError("tol > 0 and finite")
    n_nodes = as_count(n_nodes, "n_nodes", 2)
    t_lo = as_real(t_lo, "t_lo")
    if not t_lo < p.T:
        raise ParamError("t_lo < T")
    try:
        math.exp(-p.c * t_lo)  # exp(-c*t) is largest at t_lo
    except OverflowError:
        raise StableRangeError("exp(-c*t_lo) overflows (c=%g, t_lo=%g)" % (p.c, t_lo)) from None
    s2 = _sigma2_sq(p)
    # a4 = 1 - gamma0*sigma2^2 > 0 is D(T) > 0
    if not 1.0 - p.gamma0 * s2 > 0:
        raise ParamError("1 - gamma0*sigma2^2 > 0")
    return t_lo, tol, n_nodes, s2


def _rhs_coeffs(p: ModelParams):
    """a = 2*rho - sigma1^2 and q = (1 + sigma1*sigma2)^2 of the right-hand side."""
    try:
        return 2.0 * p.rho - p.sigma1 ** 2, (1.0 + p.sigma1 * p.sigma2) ** 2
    except OverflowError:
        raise StableRangeError("Riccati right-hand side overflows (sigma1=%g, sigma2=%g)"
                               % (p.sigma1, p.sigma2)) from None


def midpoint_residual(p: ModelParams, t, P, f, d_floor: float) -> float:
    """Audit of a stored grid: the largest |dP/dt - f(t, P)|, f the
    right-hand side, at the interval midpoints of the cubic Hermite
    interpolant through the nodes t, values P and slopes f, with D held
    at or above d_floor."""
    a, q = _rhs_coeffs(p)
    h = np.diff(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tm = t[:-1] + h / 2.0
        Pm = 0.5 * (P[:-1] + P[1:]) + h * (f[:-1] - f[1:]) / 8.0
        dPm = 3.0 * (P[1:] - P[:-1]) / (2.0 * h) - (f[:-1] + f[1:]) / 4.0
        Dm = np.maximum(np.exp(-p.c * tm) + p.sigma2 ** 2 * Pm, d_floor)
        return float(np.abs(dPm - (a * Pm + q * Pm ** 2 / Dm)).max())


def _hermite(t, t0, t1, u0, u1, m0, m1):
    """Cubic Hermite interpolant through (t0, u0, m0) and (t1, u1, m1) at
    t, on floats or arrays."""
    h = t1 - t0
    s = (t - t0) / h
    r = 1.0 - s
    return r * r * ((1.0 + 2.0 * s) * u0 + s * h * m0) + s * s * ((3.0 - 2.0 * s) * u1 - r * h * m1)


@dataclass(frozen=True)
class RiccatiSolution:
    """Grid solution of the Riccati equation on [t_lo, T] (or on the
    retained interval (t_blow, T] when the constraint fails). P_at,
    D_at and gain_at evaluate the closed form anywhere on the grid's
    span; a time outside the span takes the value at its nearer end,
    which on an ill-posed instance is all the solution holds before the
    retained interval. log_w holds the solved variable on the nodes."""

    params: ModelParams
    t: np.ndarray
    P: np.ndarray
    dPdt: np.ndarray
    well_posed: bool
    t_blow: Optional[float]
    case_label: str
    classification: Optional[WellPosednessReport]
    t_lo: float
    tol: float
    max_midpoint_residual: float
    log_w: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def _flow(self) -> _Flow:
        return _scaled_flow(self.params)

    @cached_property
    def _slopes(self) -> np.ndarray:
        """du/dt on the nodes."""
        return self._flow.du_dt(self.log_w)

    @cached_property
    def _nodes(self):
        return self.t.tolist(), self.log_w.tolist(), self._slopes.tolist()

    def _u1(self, t: float) -> float:
        """log w at one time inside the node span, by Newton's method
        from the cubic Hermite seed, bracketed by the two nodes around it."""
        tl, ul, ml = self._nodes
        k = min(max(bisect_right(tl, t) - 1, 0), len(tl) - 2)
        t0, t1, u0, u1 = tl[k], tl[k + 1], ul[k], ul[k + 1]
        if t <= t0 or u0 == u1:
            return u0
        if t >= t1:
            return u1
        lo, hi = (u0, u1) if u0 < u1 else (u1, u0)
        seed = _hermite(t, t0, t1, u0, u1, ml[k], ml[k + 1])
        return self._flow.invert1(self.params.T - t, lo, hi, min(max(seed, lo), hi),
                                  self.tol)

    def _u(self, t):
        """log w at an array of times inside the node span."""
        tn, un = self.t, self.log_w
        k = np.clip(np.searchsorted(tn, t, side="right") - 1, 0, tn.size - 2)
        t0, t1, u0, u1 = tn[k], tn[k + 1], un[k], un[k + 1]
        u = np.where(t >= t1, u1, u0)
        inner = (t > t0) & (t < t1) & (u0 != u1)
        if inner.any():
            k, t0, t1, u0, u1, ti = k[inner], t0[inner], t1[inner], u0[inner], u1[inner], t[inner]
            lo, hi = np.minimum(u0, u1), np.maximum(u0, u1)
            seed = _hermite(ti, t0, t1, u0, u1, self._slopes[k], self._slopes[k + 1])
            u[inner] = self._flow.invert(self.params.T - ti, lo, hi,
                                         np.clip(seed, lo, hi), self.tol)
        return u

    def _PD1(self, t: float):
        """P and D at one time, both from one log w."""
        if math.isnan(t):
            raise PolicyError("Riccati solution queried at t = nan")
        tl = self._nodes[0]
        t = min(max(t, tl[0]), tl[-1])
        u = self._u1(t)
        try:
            r = 1.0 + self._flow.s2 * math.exp(u)
            return -math.exp(u - self.params.c * t) / r, math.exp(-self.params.c * t) / r
        except OverflowError:
            raise StableRangeError("P(%g) overflows" % t) from None

    def _PD(self, t):
        """P and D at a float array of times, both from one log w."""
        if np.isnan(t).any():
            raise PolicyError("Riccati solution queried at t = nan")
        t = np.clip(t, self.t[0], self.t[-1])
        u = self._u(t)
        with np.errstate(over="ignore", invalid="ignore"):
            r = 1.0 + self._flow.s2 * np.exp(u)
            P = -np.exp(u - self.params.c * t) / r
            D = np.exp(-self.params.c * t) / r
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(D))):
            raise StableRangeError("P overflows on the queried times")
        return P, D

    def _at(self, t):
        """(t, P, D) at a query time t: t a float where it is a scalar,
        else a float array (model.as_array)."""
        if not isinstance(t, float):
            t = as_array(t, "t")
            if t.ndim:
                return (t,) + self._PD(t)
        t = float(t)
        return (t,) + self._PD1(t)

    def P_at(self, t):
        return self._at(t)[1]

    def D_at(self, t):
        """exp(-c*t) + sigma2^2*P, as exp(-c*t)/(1 + sigma2^2*w) > 0."""
        return self._at(t)[2]

    def gain_at(self, t):
        """-(1 + sigma1*sigma2) P / D from the P and D that P_at and D_at
        return; (1 + sigma1*sigma2)*w to rounding."""
        t, P, D = self._at(t)
        if isinstance(t, float):
            if not D > 0:
                raise StableRangeError("D(%g) underflows to 0" % t)
        elif not np.all(D > 0):
            raise StableRangeError("D underflows to 0 on the queried times")
        return -(1.0 + self.params.sigma1 * self.params.sigma2) * P / D

    def closed_loop(self, t):
        """Gain G and closed-loop coefficients a = -rho + G and
        c_coef = sigma1 + sigma2*G at t, from substituting u = G x into
        the dynamics. Defined wherever P is stored, so also on the
        retained grid of an ill-posed instance."""
        p = self.params
        G = np.asarray(self.gain_at(t))
        return G, -p.rho + G, p.sigma1 + p.sigma2 * G


def riccati_integrate(
    p: ModelParams, t_lo: float = 0.0, tol: float = 1e-8, n_nodes: int = 2001
) -> RiccatiSolution:
    """The closed-form solution on n_nodes (a count in [2, MAX_SIZE], t_lo
    and tol finite reals, ParamError otherwise) equally spaced nodes of
    [t_lo, T], or of the retained interval where D has fallen to
    GUARD_FRAC*D(T) (|exp(c*t)*P| has reached P_CAP for sigma2 = 0) when
    that happens after t_lo.
    well_posed means t_lo was reached; otherwise t_blow is the exact
    blow-down time. For sigma2 > 0, classification is the phase-line
    verdict of the same flow over the horizon T - t_lo (see
    WellPosednessReport); for sigma2 = 0 it is None and case_label is
    "degenerate-sigma2".

    max_midpoint_residual audits the stored P and dPdt as the oracle
    audits its grid (see midpoint_residual): it measures how well the
    equally spaced nodes resolve P, and near the guard of a blow-down
    instance it is large whatever the accuracy of the node values. The
    closed form solves to rounding level whatever tol is; tol bounds the
    inversion residual in t, relative to |T| + |t|, accepted from a
    Newton iteration that stops short of that (on the nodes and in
    P_at, D_at and gain_at alike). A P that underflows to 0 or
    overflows raises StableRangeError, since P < 0 must hold on every
    node."""
    t_lo, tol, n_nodes, _ = _riccati_input(p, t_lo, tol, n_nodes)
    fl = _scaled_flow(p)
    a4 = 1.0 - p.gamma0 * fl.s2

    t_stop, t_blow, T_max = t_lo, None, math.inf
    if fl.A_T < 0:
        if fl.s2:
            d_g = GUARD_FRAC * a4  # D/exp(-c*t) at the guard
            u_g = math.log1p(-d_g) - math.log(d_g) - math.log(fl.s2)
        else:
            u_g = math.log(P_CAP)
        if not u_g > fl.u_T:
            raise SolverError("Riccati constraint fails at T itself; no retained interval")
        # w and its rate are largest at the guard, so where they are floats
        # there they are floats on every node
        with np.errstate(all="ignore"):
            off_g, rate_g = fl.offset(np.array([u_g]))
        if not (np.isfinite(off_g[0]) and np.isfinite(rate_g[0])):
            raise StableRangeError("Riccati flow leaves the float range before its guard "
                                   "(sigma1=%g, sigma2=%g, gamma0=%g)"
                                   % (p.sigma1, p.sigma2, p.gamma0))
        T_max = -fl.blow_offset()
        t_g = p.T + float(off_g[0])
        if t_g >= t_lo:
            t_stop, t_blow = t_g, p.T - T_max
        if (t_blow is not None or p.sigma2 > 0) and not math.isfinite(T_max):
            raise StableRangeError("Riccati blow-down time leaves the float range")
    classification, case_label = None, "degenerate-sigma2"
    if p.sigma2 > 0:
        case_label = "iii" if fl.alpha == 0 else "i" if fl.A_T >= 0 else "ii"
        zeta = fl.alpha * fl.alpha
        if zeta == math.inf:
            raise StableRangeError("zeta = alpha^2 overflows (alpha=%g)" % fl.alpha)
        classification = WellPosednessReport(case_label, p.T - t_lo < T_max, T_max, zeta)
    if not t_stop < p.T:
        raise SolverError("Riccati constraint fails at T itself; no retained interval")

    t = np.linspace(t_stop, p.T, n_nodes)
    if not np.all(np.diff(t) > 0):
        raise SolverError("interval [%.17g, %.17g] holds fewer than %d floats"
                          % (t_stop, p.T, n_nodes))
    tau = p.T - t
    if fl.A_T == 0:
        u = np.full(n_nodes, fl.u_T)
    elif fl.A_T > 0:
        # du/dtau = -(alpha - q*w)*(1 + s2*w) lies in [-alpha*(1 + s2*w_T), -A_T]
        # while w decays; below c*t + _LOG_TINY, |P| = exp(u - c*t)*D/exp(-c*t) is 0
        with np.errstate(over="ignore", invalid="ignore"):
            hi = fl.u_T - tau * fl.A_T
            lo = fl.u_T - tau * (fl.alpha * (1.0 + fl.s2 * fl.w_T))
            floor = p.c * t + _LOG_TINY
        clipped = lo < floor
        lo[clipped] = floor[clipped]
        if not (np.all(hi >= lo) and np.all(fl.offset(lo[clipped])[0] + tau[clipped] <= 0)):
            raise StableRangeError(_underflow(fl, p.T - t_stop))
        u = fl.invert(tau, lo, hi, hi.copy(), tol)
    else:
        # du/dtau >= (q*w_T - alpha)*(1 + s2*w_T) while w grows, up to u_g
        with np.errstate(over="ignore", invalid="ignore"):
            lo = np.minimum(fl.u_T + tau * (-fl.A_T * (1.0 + fl.s2 * fl.w_T)), u_g)
        hi = np.full(n_nodes, u_g)
        u = fl.invert(tau, lo, hi, lo.copy(), tol)
    u[-1] = fl.u_T

    a, _ = _rhs_coeffs(p)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(u)
        P = -np.exp(u - p.c * t) / (1.0 + fl.s2 * w)
        P[-1] = -p.gamma  # terminal condition stored exactly
        f = P * (a - fl.q * w)
    if not (np.all(np.isfinite(P)) and np.all(np.isfinite(f))):
        raise StableRangeError("P leaves the float range on [%g, %g]" % (t_stop, p.T))
    if not np.all(P < 0):
        raise StableRangeError(_underflow(fl, p.T - t_stop))
    # D(T) = exp(-c*T)*a4; the oracle holds D at or above a tenth of its guard too
    audit = midpoint_residual(p, t, P, f, GUARD_FRAC * math.exp(-p.c * p.T) * a4 / 10.0)
    if not math.isfinite(audit):
        raise StableRangeError("Riccati grid audit overflows (|dP/dt| up to %g)"
                               % float(np.max(np.abs(f))))

    return RiccatiSolution(
        params=p,
        t=t,
        P=P,
        dPdt=f,
        well_posed=t_blow is None,
        t_blow=t_blow,
        case_label=case_label,
        classification=classification,
        t_lo=t_lo,
        tol=tol,
        max_midpoint_residual=audit,
        log_w=u,
    )


def riccati_sigma2_zero(p: ModelParams, t):
    """Closed-form P(t) for sigma2 = 0 via the reciprocal substitution
    Q = 1/P, which turns the equation linear:

        Q' = -(2*rho - sigma1^2)*Q - exp(c*t),    Q(T) = -1/gamma.

    StableRangeError where a term of the formula leaves the float range.
    """
    if p.sigma2 != 0:
        raise ParamError("sigma2 = 0")
    t = as_array(t, "t")
    if not np.all(np.isfinite(t)):
        raise ParamError("t finite")
    if p.gamma == 0:
        raise StableRangeError("gamma0*exp(-c*T) underflows to 0 (c=%g, T=%g)" % (p.c, p.T))
    a, _ = _rhs_coeffs(p)
    k = a + p.c
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if k != 0:
            accum = (np.exp(k * p.T) - np.exp(k * t)) / k
        else:
            accum = p.T - t
        Q = np.exp(-a * t) * (-np.exp(a * p.T) / p.gamma + accum)
        out = 1.0 / Q
    if not (math.isfinite(k) and np.all(np.isfinite(accum)) and np.all(np.isfinite(Q))
            and np.all(np.isfinite(out))):
        raise StableRangeError(
            "sigma2 = 0 closed form leaves the float range (rho=%g, c=%g, T=%g, sigma1=%g)"
            % (p.rho, p.c, p.T, p.sigma1))
    return float_like(t, out)


def lq_feedback(sol: RiccatiSolution, p: ModelParams) -> Policy:
    """Markov policy u(t, x) = max(G(t) x, 0) with the closed-form gain
    G = -(1 + sigma1*sigma2) P / D >= 0 of sol. p must be sol.params
    (ParamError otherwise). Queries outside [t_lo, T] fault."""
    if p != sol.params:
        raise ParamError("p == sol.params")
    if not sol.well_posed:
        raise SolverError("Riccati solution not well posed; no feedback law")
    return Policy.linear_feedback(
        sol.gain_at, float(sol.t[0]), float(sol.params.T), ControlSet(0.0, math.inf)
    )


def closed_loop_mean(sol: RiccatiSolution, t_eval=None, x_start=None):
    """E[x_t] of the closed loop dx = a(t) x dt + c_coef(t) x dw
    (RiccatiSolution.closed_loop) via exp of the integrated drift
    coefficient; trapezoid accumulation on the stored grid. sol must be
    well posed (SolverError otherwise), and t_eval, the grid by default,
    within [t_lo, T] (PolicyError outside it and at NaN). x_start, a
    finite real number, defaults to sol.params.x_init."""
    t_eval = sol.t if t_eval is None else as_array(t_eval, "t_eval")
    x_start = sol.params.x_init if x_start is None else as_real(x_start, "x_start")
    if not sol.well_posed:
        raise SolverError("Riccati solution not well posed")
    lo, hi = float(sol.t[0]), float(sol.params.T)
    if not np.all((t_eval >= lo - 1e-12) & (t_eval <= hi + 1e-12)):
        raise PolicyError("closed-loop mean queried outside [%g, %g] or at t = nan" % (lo, hi))
    _, a_grid, _ = sol.closed_loop(sol.t)
    integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * (a_grid[1:] + a_grid[:-1]) * np.diff(sol.t)))
    )
    return x_start * np.exp(np.interp(t_eval, sol.t, integral))
