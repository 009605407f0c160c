"""Indefinite linear-quadratic solver: well-posedness classification,
backward integration of the generalized Riccati equation, the feedback
law, and closed-loop coefficients.

The scalar Riccati equation is

    dP/dt = (2*rho - sigma1^2)*P + (1 + sigma1*sigma2)^2 * P^2 / D(t, P),
    D(t, P) = exp(-c*t) + sigma2^2 * P,    P(T) = -gamma,

integrated backward from T under the running constraints P < 0 and
D > 0. P parametrizes the minimization-form value P(t)*x^2; the
supremum-form objective of the control problem equals -P(t)*x^2.

The closed-form classification works on the reduced autonomous
coefficients a1..a4, which drop the discount rate; it is exact for c = 0
and advisory otherwise. The integrator's constraint monitoring is the
authoritative well-posedness verdict in all cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import ParamError, PolicyError, SolverError, StableRangeError
from .model import ControlSet, ModelParams, Policy, require

# relative slack under which zeta is treated as exactly zero
ZETA_SNAP_REL = 1e-9
# the denominator event fires at this fraction of D(T)
GUARD_FRAC = 1e-6
# |P| cap that stands in for blow-down when sigma2 = 0 (D stays positive)
P_CAP = 1e12


@dataclass(frozen=True)
class RiccatiCoeffs:
    a1: float
    a2: float
    a3: float
    a4: float
    zeta: float
    xi_small: float
    xi_large: float


def riccati_coeffs(p: ModelParams) -> RiccatiCoeffs:
    """Reduced coefficients with quadratic roots computed stably.

    The larger-magnitude root comes from the non-cancelling half of the
    quadratic formula, the other from the product a3/a1.
    """
    require(p)
    if p.sigma2 <= 0:
        raise ParamError("sigma2 > 0")
    try:
        a4 = 1.0 - p.gamma0 * p.sigma2 ** 2
    except OverflowError:
        raise StableRangeError("sigma2^2 overflows (sigma2=%g)" % p.sigma2) from None
    if not a4 > 0:
        raise ParamError("1 - gamma0*sigma2^2 > 0")
    inv = 1.0 / p.sigma2
    try:
        a1 = -2.0 * p.rho - 2.0 * p.sigma1 * inv - inv * inv
        a2 = 2.0 * p.rho + p.sigma1 ** 2 + 2.0 * inv * inv + 4.0 * p.sigma1 * inv
        a3 = -((p.sigma1 + inv) ** 2)
        zeta = a2 * a2 - 4.0 * a1 * a3
    except OverflowError:
        zeta = math.inf
    if not math.isfinite(zeta):
        raise StableRangeError(
            "Riccati coefficients overflow (rho=%g, sigma1=%g, sigma2=%g)"
            % (p.rho, p.sigma1, p.sigma2)
        )
    s = math.sqrt(max(zeta, 0.0))
    qq = -(a2 + s) / 2.0  # a2 > 0, so this half never cancels
    xi_large = qq / a1
    xi_small = a3 / qq
    return RiccatiCoeffs(a1, a2, a3, a4, zeta, xi_small, xi_large)


@dataclass(frozen=True)
class WellPosednessReport:
    """Closed-form classification verdict; advisory only.

    printed_well_posed evaluates alternative textbook-style case
    conditions literally; None marks parameter regions where their
    horizon-bound formula has no real value. printed_form_agrees
    compares that literal reading with the phase-line verdict.
    """

    case_label: str
    well_posed_closed_form: bool
    T_max: float
    unreachable: bool
    printed_well_posed: Optional[bool]
    printed_form_agrees: bool
    zeta: float


def _blow_horizon_simple_roots(co: RiccatiCoeffs, s: float) -> float:
    xs, xl = co.xi_small, co.xi_large
    return (
        xs * math.log(xs / (xs - co.a4)) - xl * math.log(xl / (xl - co.a4))
    ) / s


def classify_wellposedness(co: RiccatiCoeffs, T: float) -> WellPosednessReport:
    """Phase-line classification of the reduced Riccati flow.

    Blow-down happens iff the start value a4 sits below the smallest
    positive root of a1*pi^2 + a2*pi + a3 (double root at zeta = 0, no
    real root at zeta < 0, in which case every start value blows down).
    zeta < 0 cannot arise from model parameters and is flagged
    unreachable; its horizon bound is still evaluated for completeness.
    """
    z = co.zeta
    z_eff = 0.0 if abs(z) <= ZETA_SNAP_REL * co.a2 * co.a2 else z
    absa1 = abs(co.a1)
    printed: Optional[bool]

    if z_eff > 0:
        s = math.sqrt(z)
        if co.a4 >= co.xi_small:
            label, t_max = "i", math.inf
        else:
            label = "ii"
            t_max = _blow_horizon_simple_roots(co, s)
        wp = T < t_max
        if co.a2 > max(2.0 * absa1 * co.a4 - s, 0.0):
            printed = True
        else:
            # the companion bound needs xi - a4 > 0 for both roots, which
            # fails exactly where this branch is selected
            if co.xi_small > co.a4 and co.xi_large > co.a4:
                printed = T <= _blow_horizon_simple_roots(co, s)
            else:
                printed = None
    elif z_eff == 0:
        if co.a2 > 2.0 * absa1 * co.a4:
            label = "iii"
            den = 2.0 * co.a1 * co.a4 + co.a2  # = a2 - 2|a1|a4 > 0 here
            t_max = (math.log(co.a2 / den) + 2.0 * co.a1 * co.a4 / den) / co.a1
            printed = True
        else:
            label, t_max = "iv", math.inf
            printed = None  # companion log argument is nonpositive here
        wp = T < t_max
    else:
        label = "v"
        s = math.sqrt(-z)
        num = co.a3 / (co.a1 * co.a4 ** 2 + co.a2 * co.a4 + co.a3)
        t_max = (
            math.log(num)
            - 2.0
            * co.a2
            / s
            * (math.atan(co.a2 / s) - math.atan((2.0 * co.a1 * co.a4 + co.a2) / s))
        ) / (2.0 * co.a1)
        wp = T < t_max
        printed = T <= t_max

    agrees = printed is not None and printed == wp
    return WellPosednessReport(
        case_label=label,
        well_posed_closed_form=wp,
        T_max=t_max,
        unreachable=z_eff < 0,
        printed_well_posed=printed,
        printed_form_agrees=agrees,
        zeta=z,
    )


@dataclass(frozen=True)
class RiccatiSolution:
    """Grid solution of the Riccati equation on [t_lo, T] (or on the
    retained interval (t_blow, T] when the constraint fails)."""

    params: ModelParams
    t: np.ndarray
    P: np.ndarray
    dPdt: np.ndarray
    well_posed: bool
    t_blow: Optional[float]
    case_label: str
    coeffs: Optional[RiccatiCoeffs]
    classification: Optional[WellPosednessReport]
    t_lo: float
    tol: float
    max_midpoint_residual: float

    @cached_property
    def _interp(self) -> PchipInterpolator:
        return PchipInterpolator(self.t, self.P)

    def P_at(self, t):
        return self._interp(t)

    def D_at(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-self.params.c * t) + self.params.sigma2 ** 2 * self.P_at(t)

    def gain_at(self, t):
        """-(1 + sigma1*sigma2) P / D at t, with P interpolated once."""
        p = self.params
        P = self.P_at(t)
        D = np.exp(-p.c * np.asarray(t, dtype=float)) + p.sigma2 ** 2 * P
        return -(1.0 + p.sigma1 * p.sigma2) * P / D

    def closed_loop(self, t):
        """Gain G and closed-loop coefficients a = -rho + G and
        c_coef = sigma1 + sigma2*G at t, from substituting u = G x into
        the dynamics. Defined wherever P is stored, so also on the
        retained grid of an ill-posed instance."""
        p = self.params
        G = np.asarray(self.gain_at(t))
        return G, -p.rho + G, p.sigma1 + p.sigma2 * G


def _riccati_rhs(p: ModelParams, guard_stage: float):
    a = 2.0 * p.rho - p.sigma1 ** 2
    q = (1.0 + p.sigma1 * p.sigma2) ** 2
    s2 = p.sigma2 ** 2
    c = p.c

    def rhs(t, y):
        P = y[0]
        D = math.exp(-c * t) + s2 * P
        if D < guard_stage:  # keep stage evaluations finite near blow-down
            D = guard_stage
        return [a * P + q * P * P / D]

    return rhs


def riccati_integrate(
    p: ModelParams, t_lo: float = 0.0, tol: float = 1e-8, n_nodes: int = 2001
) -> RiccatiSolution:
    """Integrate backward from T with adaptive error control and
    constraint monitoring; halts and records t_blow if D <= guard or
    P >= 0 is about to occur. well_posed means t_lo was reached."""
    require(p)
    if not (math.isfinite(tol) and tol > 0):
        raise ParamError("tol > 0 and finite")
    if n_nodes < 2:
        raise ParamError("n_nodes >= 2")
    if not t_lo < p.T:
        raise ParamError("t_lo < T")

    coeffs = None
    classification = None
    if p.sigma2 > 0:
        # raises if sigma2^2 overflows, or if a4 <= 0, which is D_T <= 0
        coeffs = riccati_coeffs(p)
        classification = classify_wellposedness(coeffs, p.T - t_lo)
        case_label = classification.case_label
    else:
        case_label = "degenerate-sigma2"
    s2 = p.sigma2 ** 2
    gamma = p.gamma
    D_T = math.exp(-p.c * p.T) - s2 * gamma

    guard = GUARD_FRAC * D_T
    rhs = _riccati_rhs(p, guard / 10.0)

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
    with np.errstate(over="ignore", invalid="ignore"):
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
    if r.status == -1:
        raise SolverError("Riccati integration failed: %s" % r.message)

    fired = [te[0] for te in r.t_events if te.size]
    well_posed = r.status == 0 and not fired
    t_blow = max(fired) if fired else None
    t_stop = t_lo if well_posed else float(t_blow)

    t_grid = np.linspace(t_stop, p.T, n_nodes)
    P_grid = r.sol(t_grid)[0]
    P_grid[-1] = -gamma  # terminal condition stored exactly

    a = 2.0 * p.rho - p.sigma1 ** 2
    q = (1.0 + p.sigma1 * p.sigma2) ** 2
    D_grid = np.maximum(np.exp(-p.c * t_grid) + s2 * P_grid, guard / 10.0)
    f_grid = a * P_grid + q * P_grid ** 2 / D_grid

    # cubic-Hermite midpoint audit of the stored grid
    h = np.diff(t_grid)
    tm = t_grid[:-1] + h / 2.0
    Pm = 0.5 * (P_grid[:-1] + P_grid[1:]) + h * (f_grid[:-1] - f_grid[1:]) / 8.0
    dPm = 3.0 * (P_grid[1:] - P_grid[:-1]) / (2.0 * h) - (f_grid[:-1] + f_grid[1:]) / 4.0
    Dm = np.maximum(np.exp(-p.c * tm) + s2 * Pm, guard / 10.0)
    resid = np.abs(dPm - (a * Pm + q * Pm ** 2 / Dm))
    max_resid = float(resid.max())

    return RiccatiSolution(
        params=p,
        t=t_grid,
        P=P_grid,
        dPdt=f_grid,
        well_posed=well_posed,
        t_blow=t_blow,
        case_label=case_label,
        coeffs=coeffs,
        classification=classification,
        t_lo=t_lo,
        tol=tol,
        max_midpoint_residual=max_resid,
    )


def riccati_sigma2_zero(p: ModelParams, t):
    """Closed-form P(t) for sigma2 = 0 via the reciprocal substitution
    Q = 1/P, which turns the equation linear:

        Q' = -(2*rho - sigma1^2)*Q - exp(c*t),    Q(T) = -1/gamma.
    """
    require(p)
    if p.sigma2 != 0:
        raise ParamError("sigma2 = 0")
    a = 2.0 * p.rho - p.sigma1 ** 2
    k = a + p.c
    t = np.asarray(t, dtype=float)
    if k != 0:
        accum = (np.exp(k * p.T) - np.exp(k * t)) / k
    else:
        accum = p.T - t
    Q = np.exp(-a * t) * (-math.exp(a * p.T) / p.gamma + accum)
    out = 1.0 / Q
    if np.ndim(t) == 0:
        return float(out)
    return out


def riccati_sigma2_zero_blow(p: ModelParams) -> Optional[float]:
    """Time where the sigma2 = 0 closed form diverges (Q crosses 0),
    or None if P stays finite on all of (-inf, T). Raises
    StableRangeError when that time leaves the float range."""
    require(p)
    if p.sigma2 != 0:
        raise ParamError("sigma2 = 0")
    a = 2.0 * p.rho - p.sigma1 ** 2
    k = a + p.c
    try:
        if k == 0:
            t_blow = p.T - math.exp(a * p.T) / p.gamma
        else:
            val = math.exp(k * p.T) - k * math.exp(a * p.T) / p.gamma
            # k > 0: exp(k t) is increasing, so a root below T needs 0 < val;
            # k < 0: val > exp(k T) always holds, so the root always sits below T
            if k > 0 and val <= 0:
                return None
            t_blow = math.log(val) / k
    except (OverflowError, ZeroDivisionError, ValueError):
        t_blow = math.nan
    if not math.isfinite(t_blow):
        raise StableRangeError(
            "sigma2 = 0 blow-up time out of float range (rho=%g, c=%g, T=%g, sigma1=%g)"
            % (p.rho, p.c, p.T, p.sigma1))
    return t_blow


def lq_feedback(sol: RiccatiSolution, p: ModelParams) -> Policy:
    """Markov policy u(t, x) = max(G(t) x, 0) with
    G = -(1 + sigma1*sigma2) P / D >= 0; P is interpolated
    monotone-cubically between stored nodes. Queries outside
    [t_lo, T] fault."""
    if not sol.well_posed:
        raise SolverError("Riccati solution not well posed; no feedback law")
    one = 1.0 + p.sigma1 * p.sigma2
    s2 = p.sigma2 ** 2

    def gain(t):
        P = float(sol.P_at(t))
        D = math.exp(-p.c * t) + s2 * P
        return -one * P / D

    return Policy.linear_feedback(
        gain, float(sol.t[0]), float(p.T), ControlSet(0.0, math.inf)
    )


def closed_loop_coeffs(sol: RiccatiSolution, p: ModelParams, t):
    """Drift and diffusion coefficients of the optimally controlled state:
    dx = a(t) x dt + c_coef(t) x dw (sigma0 = 0 closed loop), from
    RiccatiSolution.closed_loop on a well-posed solution within
    [t_lo, T]. The coefficients use sol.params; p stays for the call
    signature."""
    if not sol.well_posed:
        raise SolverError("Riccati solution not well posed")
    t_arr = np.asarray(t, dtype=float)
    lo, hi = float(sol.t[0]), float(sol.params.T)
    if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
        raise PolicyError("closed-loop coefficients queried outside [%g, %g]" % (lo, hi))
    _, a_t, c_t = sol.closed_loop(t_arr)
    if np.ndim(t) == 0:
        return float(a_t), float(c_t)
    return a_t, c_t


def closed_loop_mean(sol: RiccatiSolution, p: ModelParams, t_eval=None, x_start=None):
    """E[x_t] of the closed loop via exp of the integrated drift
    coefficient; trapezoid accumulation on the stored grid."""
    if t_eval is None:
        t_eval = sol.t
    if x_start is None:
        x_start = p.x_init
    a_grid, _ = closed_loop_coeffs(sol, p, sol.t)
    integral = np.concatenate(
        ([0.0], np.cumsum(0.5 * (a_grid[1:] + a_grid[:-1]) * np.diff(sol.t)))
    )
    t_eval = np.asarray(t_eval, dtype=float)
    return float(x_start) * np.exp(np.interp(t_eval, sol.t, integral))
