"""Closed-form bang-bang solution of the linear-reward problem and its
budget-constrained variant.

Value function: value(t, x) = gamma_fn(t)*x + b_fn(t) with
gamma_fn(t) = gamma*exp(-rho*(T-t)). The optimal control is off until the
switch time t_star solving gamma_fn(t) = exp(-c*t), then runs at the cap m.
Noise intensities never enter: the value is affine in x, so sigma only
contributes a vanishing Ito term.

Each quantity is one form for every c >= 0: the discount enters through
int_0^s exp(-c*u) du = s*E(c*s), E(x) = -expm1(-x)/x, which keeps its
digits as c*s -> 0 and is s, the undiscounted limit, at c = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamError, SolverError, StableRangeError
from .lq import _h1
from .model import ModelParams, Policy, as_array, as_real

# tolerance on the budget-binding and multiplier fixed-point identities
IDENTITY_TOL = 1e-12


def _span(c: float, s):
    """int_0^s exp(-c*u) du = s*E(c*s) (E = 1 at 0) for c >= 0 and a float
    or array s; from c*s = 1 on as -expm1(-c*s)/c, which stays right where
    c*s overflows and E rounds to 0. Callers check finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.multiply(c, s)
        big = x > 1.0
        e1 = -np.expm1(-x)
        return np.where(big, e1 / np.where(big, c, 1.0),
                        s * np.divide(e1, x, out=np.ones_like(x), where=x != 0))


@dataclass(frozen=True)
class LinearSolution:
    params: ModelParams
    t_star: float

    @property
    def t_split(self) -> float:
        # piecewise split of b_fn lives inside the horizon
        return min(max(self.t_star, 0.0), self.params.T)

    def _gamma(self, t):
        p = self.params
        return p.gamma * np.exp(-p.rho * (p.T - t))

    def gamma_fn(self, t):
        """gamma*exp(-rho*(T - t)); StableRangeError where it is not finite."""
        return self._finite("gamma_fn", self._gamma, t)

    def _b1(self, t):
        # solves b1' = m*(exp(-c*t) - gamma_fn(t)) with b1(T) = 0,
        # i.e. b1(t) = m * int_t^T (gamma_fn(u) - exp(-c*u)) du
        p = self.params
        s = p.T - t
        return ((p.m * p.gamma / p.rho) * -np.expm1(-p.rho * s)
                - p.m * np.exp(-p.c * t) * _span(p.c, s))

    def _b(self, t):
        return np.where(t <= self.t_split, self._b1(self.t_split), self._b1(t))

    def _finite(self, name, f, *args):
        """f(t) or f(t, x) on float arrays (model.as_array); ParamError "t
        finite" or "x finite" where an argument is not, StableRangeError
        where the result is not, a float where every argument is a scalar."""
        args = [as_array(a, n) for a, n in zip(args, ("t", "x"))]
        for a, n in zip(args, ("t", "x")):
            if not np.all(np.isfinite(a)):
                raise ParamError("%s finite" % n)
        # terms that leave the floating-point range are caught below
        with np.errstate(over="ignore", invalid="ignore"):
            out = f(*args)
        if not np.all(np.isfinite(out)):
            p = self.params
            raise StableRangeError("linear %s leaves the floating-point range "
                                   "(rho=%g, c=%g, T=%g, m=%g, gamma0=%g)"
                                   % (name, p.rho, p.c, p.T, p.m, p.gamma0))
        return float(out) if all(a.ndim == 0 for a in args) else out

    def b1_fn(self, t):
        """b1(t); StableRangeError where it is not finite."""
        return self._finite("b1_fn", self._b1, t)

    def b1_prime(self, t):
        """m*(exp(-c*t) - gamma_fn(t)); StableRangeError where it is not finite."""
        p = self.params
        return self._finite("b1_prime", lambda t: p.m * (np.exp(-p.c * t) - self._gamma(t)), t)

    def b_fn(self, t):
        """b1(max(t, t_split)); StableRangeError where it is not finite."""
        return self._finite("b_fn", self._b, t)

    def value(self, t, x):
        """gamma_fn(t)*x + b_fn(t); StableRangeError where it is not finite."""
        return self._finite("value", lambda t, x: self._gamma(t) * x + self._b(t), t, x)


def solve_linear(p: ModelParams) -> LinearSolution:
    """The bang-bang solution for any c >= 0; c = 0 is the undiscounted
    problem, where b1(t) = (m*gamma/rho)*(1 - exp(-rho*(T - t))) - m*(T - t).

    t_star = (rho*T - log gamma)/(rho + c), not clamped into [0, T], is
    evaluated as T - log(gamma0)/(rho + c), which is the same quantity
    with gamma = gamma0*exp(-c*T) substituted in; this form keeps
    t_star == T exact when gamma0 == 1.
    """
    return LinearSolution(params=p, t_star=p.T - math.log(p.gamma0) / (p.rho + p.c))


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
    """Largest discounted spend any admissible control can reach, m*T*E(c*T):
    (m/c)*(1 - exp(-c*T)) for c > 0 without its cancellation at small c*T,
    and m*T at c = 0. StableRangeError where the bound overflows."""
    bound = p.m * float(_span(p.c, p.T))
    if not math.isfinite(bound):
        raise StableRangeError("spend bound overflows (m=%g, c=%g, T=%g)" % (p.m, p.c, p.T))
    return bound


def solve_budget(p: ModelParams, M: float) -> BudgetSolution:
    """Bang-bang policy whose discounted spend exactly exhausts M; c > 0.

    t_star solves int_{t*}^T m e^{-ct} dt = M: with x = c*M/m + expm1(-c*T)
    it is -log1p(x)/c = (T*E(c*T) - M/m)*log1p(x)/x, or -log(c*M/m +
    exp(-c*T))/c where x < -0.5. lambda_star = exp((rho + c)*t_star - rho*T)
    makes t_star = (rho*T + log lambda)/(rho + c). Both identities are
    asserted to IDENTITY_TOL; the second, with lambda_star built from
    t_star, only checks rounding. t_star tends to T - M/m as c -> 0, but
    the comparison forms in discrepancy divide by c (t_star_alt -> -inf),
    so c = 0 is a ParamError. StableRangeError where a multiplier or a
    comparison value leaves the floating-point range.
    """
    if p.c == 0:
        raise ParamError("c > 0")
    M = as_real(M, "M")
    if M <= 0:
        raise ParamError("M > 0")
    if not M <= p.m * float(_span(p.c, p.T)):  # an overflowing bound admits any M
        raise ParamError("M <= (m/c)*(1 - exp(-c*T))")

    x = p.c * M / p.m + math.expm1(-p.c * p.T)
    if x < -0.5:
        z = p.c * M / p.m + math.exp(-p.c * p.T)
        if not z > 0:
            raise StableRangeError("budget: e^{-c*t*} = c*M/m + e^{-c*T} underflows to 0 "
                                   "(c=%g, T=%g, M=%g, m=%g)" % (p.c, p.T, M, p.m))
        t_star = -math.log(z) / p.c
    else:
        t_star = (float(_span(p.c, p.T)) - M / p.m) * _h1(x)
    with np.errstate(over="ignore"):
        lambda_star = float(np.exp((p.rho + p.c) * t_star - p.rho * p.T))
        lambda_alt = float(np.exp((p.rho + p.c) * t_star + p.rho * p.T))
    if not 0 < lambda_star < math.inf:
        raise StableRangeError("budget multiplier lambda_star = %r leaves the floating-point "
                               "range (rho=%g, c=%g, T=%g)" % (lambda_star, p.rho, p.c, p.T))

    def spend_from(t):  # m*int_t^T exp(-c*u) du
        return p.m * math.exp(-p.c * t) * float(_span(p.c, p.T - t))

    spend = spend_from(t_star)
    gap_spend = abs(spend - M)
    gap_fixed_point = abs((p.rho * p.T + math.log(lambda_star)) / (p.rho + p.c) - t_star)
    if not gap_spend <= IDENTITY_TOL * max(1.0, abs(M)):
        raise SolverError("budget identity failed: |spend - M| = %.3e" % gap_spend)
    if not gap_fixed_point <= IDENTITY_TOL * max(1.0, abs(t_star)):
        raise SolverError("multiplier identity failed: |t* - (rho*T + log lambda*)/(rho+c)| "
                          "= %.3e" % gap_fixed_point)

    t_alt = 2.0 * p.rho * p.T / (p.rho + p.c) - (math.exp(-p.c * p.T) + p.c * M / p.m) / p.c
    discrepancy = {
        "t_star_alt": t_alt,
        "lambda_star_alt": lambda_alt,
        "spend_gap": gap_spend,
        "spend_gap_alt": abs(spend_from(t_alt) - M),
        "switch_identity_gap": gap_fixed_point,
        "switch_identity_gap_alt": abs((p.rho * p.T + math.log(lambda_alt)) / (p.rho + p.c)
                                       - t_alt),
    }
    bad = [name for name, value in discrepancy.items() if not math.isfinite(value)]
    if bad:
        raise StableRangeError("budget comparison values leave the floating-point range: "
                               + ", ".join(bad))

    return BudgetSolution(params=p, M=M, t_star=t_star, lambda_star=lambda_star,
                          policy=Policy.bang_bang(t_star, p.m), discounted_spend=spend,
                          discrepancy=discrepancy)
