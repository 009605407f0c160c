"""Closed-form bang-bang solution of the linear-reward problem and its
budget-constrained variant.

Value function: value(t, x) = gamma_fn(t)*x + b_fn(t) with
gamma_fn(t) = gamma*exp(-rho*(T-t)). The optimal control is off until the
switch time t_star solving gamma_fn(t) = exp(-c*t), then runs at the cap m.
Noise intensities never enter: the value is affine in x, so sigma only
contributes a vanishing Ito term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError, SolverError, StableRangeError
from .model import ModelParams, Policy, require

# tolerance on the budget-binding and multiplier fixed-point identities
IDENTITY_TOL = 1e-12


def _as_float(t, val):
    if np.ndim(t) == 0:
        return float(val)
    return val


def switch_time(p: ModelParams) -> float:
    """t_star = (rho*T - log gamma)/(rho + c), not clamped into [0, T].

    Evaluated as T - log(gamma0)/(rho + c), which is the same quantity
    with gamma = gamma0*exp(-c*T) substituted in; this form keeps
    t_star == T exact when gamma0 == 1.
    """
    require(p)
    return p.T - math.log(p.gamma0) / (p.rho + p.c)


@dataclass(frozen=True)
class LinearSolution:
    params: ModelParams
    t_star: float

    @property
    def t_split(self) -> float:
        # piecewise split of b_fn lives inside the horizon
        return min(max(self.t_star, 0.0), self.params.T)

    def gamma_fn(self, t):
        p = self.params
        t = np.asarray(t, dtype=float)
        return _as_float(t, p.gamma * np.exp(-p.rho * (p.T - t)))

    def _b1(self, t):
        # solves b1' = m*(exp(-c*t) - gamma_fn(t)) with b1(T) = 0,
        # i.e. b1(t) = m * int_t^T (gamma_fn(s) - exp(-c*s)) ds
        p = self.params
        return (p.m * p.gamma / p.rho) * (1.0 - np.exp(-p.rho * (p.T - t))) + (
            p.m / p.c
        ) * (np.exp(-p.c * p.T) - np.exp(-p.c * t))

    def _b(self, t):
        return np.where(t <= self.t_split, self._b1(self.t_split), self._b1(t))

    def _require_finite(self, name, out):
        if not np.all(np.isfinite(out)):
            p = self.params
            raise StableRangeError("linear %s leaves the floating-point range "
                                   "(rho=%g, c=%g, T=%g, m=%g, gamma0=%g)"
                                   % (name, p.rho, p.c, p.T, p.m, p.gamma0))

    def b1_fn(self, t):
        """b1(t); StableRangeError where it is not finite."""
        t = np.asarray(t, dtype=float)
        # terms that leave the floating-point range are caught below
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._b1(t)
        self._require_finite("b1_fn", out)
        return _as_float(t, out)

    def b1_prime(self, t):
        """m*(exp(-c*t) - gamma_fn(t)); StableRangeError where it is not finite."""
        p = self.params
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = p.m * (np.exp(-p.c * t) - np.asarray(self.gamma_fn(t)))
        self._require_finite("b1_prime", out)
        return _as_float(t, out)

    def b_fn(self, t):
        """b1(max(t, t_split)); StableRangeError where it is not finite."""
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._b(t)
        self._require_finite("b_fn", out)
        return _as_float(t, out)

    def value(self, t, x):
        """gamma_fn(t)*x + b_fn(t); StableRangeError where it is not finite."""
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(self.gamma_fn(t)) * np.asarray(x, dtype=float) + self._b(t)
        self._require_finite("value", out)
        if np.ndim(t) == 0 and np.ndim(x) == 0:
            return float(out)
        return out


def solve_linear(p: ModelParams) -> LinearSolution:
    require(p)
    if p.c == 0:
        # b1 carries a 1/c term; the undiscounted limit is not taken here
        raise ParamError("c > 0")
    return LinearSolution(params=p, t_star=switch_time(p))


def linear_policy(sol: LinearSolution) -> Policy:
    """Bang-bang in t only: 0 for t <= t_star, m for t > t_star."""
    return Policy.bang_bang(sol.t_star, sol.params.m)


@dataclass(frozen=True)
class BudgetSolution:
    params: ModelParams
    M: float
    t_star: float
    lambda_star: float
    policy: Policy
    discounted_spend: float
    # alternative closed forms that fail the defining identities, kept
    # for the comparison report; values are never used by the solver
    discrepancy: dict


def spend_bound(p: ModelParams) -> float:
    """Largest discounted spend any admissible control can reach,
    (m/c)*(1 - exp(-c*T)), and its limit m*T at c = 0.

    1 - exp(-c*T) is taken as -expm1(-c*T), which keeps its digits at
    small c*T. Where m/c overflows, the bound is m*T*(-expm1(-c*T))/(c*T)
    instead, with its limit m*T where c*T underflows to 0.
    StableRangeError where the bound itself overflows.
    """
    require(p)
    bound = _spend_bound(p)
    if not math.isfinite(bound):
        raise StableRangeError("spend bound overflows (m=%g, c=%g, T=%g)" % (p.m, p.c, p.T))
    return bound


def _spend_bound(p: ModelParams) -> float:
    """spend_bound without its checks; inf where it overflows."""
    ratio = p.m / p.c if p.c else math.inf
    if math.isfinite(ratio):
        return ratio * -math.expm1(-p.c * p.T)
    cT = p.c * p.T
    return p.m * (p.T if cT == 0 else p.T * (-math.expm1(-cT) / cT))


def _multiplier(name: str, log_scale: float, z: float, p: ModelParams) -> float:
    """exp(log_scale) * z**(-(rho+c)/c), the budget multiplier whose log
    gives the switch time; StableRangeError unless it is finite and
    positive."""
    try:
        lam = math.exp(log_scale) * z ** (-(p.rho + p.c) / p.c)
    except (OverflowError, ZeroDivisionError):
        lam = math.inf
    if not (math.isfinite(lam) and lam > 0):
        raise StableRangeError("budget multiplier %s = %r leaves the floating-point range "
                               "(rho=%g, c=%g, T=%g)" % (name, lam, p.rho, p.c, p.T))
    return lam


def solve_budget(p: ModelParams, M: float) -> BudgetSolution:
    """Bang-bang policy whose discounted spend exactly exhausts M.

    t_star comes from the binding-budget equation
    int_{t*}^T m e^{-ct} dt = M; the multiplier lambda_star is whatever
    makes t_star = (rho*T + log lambda)/(rho+c) hold. Both identities are
    asserted to IDENTITY_TOL after construction.
    """
    require(p)
    if p.c == 0:
        raise ParamError("c > 0")
    # a bound past the float range admits every finite M
    bound = _spend_bound(p)
    if not math.isfinite(M):
        raise ParamError("M finite")
    if M <= 0:
        raise ParamError("M > 0")
    if not M <= bound:
        raise ParamError("M <= (m/c)*(1 - exp(-c*T))")

    z = p.c * M / p.m + math.exp(-p.c * p.T)
    if not z > 0:
        raise StableRangeError("budget: e^{-c*t*} = c*M/m + e^{-c*T} underflows to 0 "
                               "(c=%g, T=%g, M=%g, m=%g)" % (p.c, p.T, M, p.m))
    t_star = -math.log(z) / p.c
    lambda_star = _multiplier("lambda_star", -p.rho * p.T, z, p)

    spend = (p.m / p.c) * (math.exp(-p.c * t_star) - math.exp(-p.c * p.T))
    gap_spend = abs(spend - M)
    t_from_lambda = (p.rho * p.T + math.log(lambda_star)) / (p.rho + p.c)
    gap_fixed_point = abs(t_from_lambda - t_star)
    if not gap_spend <= IDENTITY_TOL * max(1.0, abs(M)):
        raise SolverError("budget identity failed: |spend - M| = %.3e" % gap_spend)
    if not gap_fixed_point <= IDENTITY_TOL * max(1.0, abs(t_star)):
        raise SolverError(
            "multiplier identity failed: |t* - (rho*T + log lambda*)/(rho+c)| = %.3e"
            % gap_fixed_point
        )

    t_alt = 2.0 * p.rho * p.T / (p.rho + p.c) - (math.exp(-p.c * p.T) + p.c * M / p.m) / p.c
    lambda_alt = _multiplier("lambda_star_alt", p.rho * p.T, z, p)
    spend_alt = (p.m / p.c) * (math.exp(-p.c * t_alt) - math.exp(-p.c * p.T))
    t_from_lambda_alt = (p.rho * p.T + math.log(lambda_alt)) / (p.rho + p.c)
    discrepancy = {
        "t_star_alt": t_alt,
        "lambda_star_alt": lambda_alt,
        "spend_gap": gap_spend,
        "spend_gap_alt": abs(spend_alt - M),
        "switch_identity_gap": gap_fixed_point,
        "switch_identity_gap_alt": abs(t_from_lambda_alt - t_alt),
    }

    return BudgetSolution(
        params=p,
        M=M,
        t_star=t_star,
        lambda_star=lambda_star,
        policy=Policy.bang_bang(t_star, p.m),
        discounted_spend=spend,
        discrepancy=discrepancy,
    )
