"""Shared model primitives: parameters, dynamics, control sets, policies.

Goodwill follows dx = (-rho*x + u) dt + sigma(x, u) dw with
sigma(x, u) = sigma0 + sigma1*|x| + sigma2*u. Payoffs are discounted at
rate c in absolute time, so the terminal reward weight seen from time 0
is gamma = gamma0 * exp(-c*T); it is computed once and shared by every
solver. ModelParams checks its constants when it is built, so the
solvers take any ModelParams as valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParamError, PolicyError

# slack used when checking control-set membership of simulated policies
MEMBERSHIP_TOL = 1e-9
_FIELDS = ("rho", "c", "T", "sigma0", "sigma1", "sigma2", "m", "gamma0", "x_init")
# the fields that must be > 0; the others must be >= 0
_POSITIVE = ("rho", "T", "m", "gamma0")


def _as_real(v):
    """v as a float, None unless it is a Python or numpy int or float (a
    bool is not); an int beyond the float range becomes +-inf."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _violations(values: dict) -> list[str]:
    """Every violated constraint of the fields in values (name -> float,
    None where the field is not a real number), as plain constraint
    strings ("rho > 0") that callers can surface verbatim."""
    real = {name: v for name, v in values.items() if v is not None}
    out = ["%s must be a real number" % name for name in values if name not in real]
    for name, v in real.items():
        strict = name in _POSITIVE
        if not (v > 0 if strict else v >= 0):
            out.append("%s %s 0" % (name, ">" if strict else ">="))
    out += ["%s finite" % name for name, v in real.items() if not math.isfinite(v)]
    return out


@dataclass(frozen=True)
class ModelParams:
    """All model constants, each a Python or numpy int or float, stored as
    a float. Construction raises ParamError listing every violated
    constraint (a field that is not a real number, a sign, a non-finite
    value), so a ModelParams that exists is valid."""

    rho: float
    c: float
    T: float
    sigma0: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    m: float = 1.0
    gamma0: float = 1.0
    x_init: float = 1.0
    gamma: float = field(init=False)

    def __post_init__(self):
        values = {name: _as_real(getattr(self, name)) for name in _FIELDS}
        bad = _violations(values)
        if bad:
            raise ParamError(bad)
        for name, v in values.items():
            object.__setattr__(self, name, v)
        object.__setattr__(self, "gamma", self.gamma0 * math.exp(-self.c * self.T))


def as_int(v, name: str) -> int:
    """v as a Python int. ParamError unless v is a Python or numpy
    integer; a bool is not a count, nor is a float with an integral value."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ParamError("%s must be an integer" % name)
    return int(v)


def as_seed(v, name: str = "seed") -> int:
    """A Monte Carlo seed: an integer (as_int) in [0, 2**64), the range of
    the Philox key word it becomes, so no two seeds draw the same normals."""
    v = as_int(v, name)
    if not 0 <= v < 1 << 64:
        raise ParamError("%s in [0, 2**64)" % name)
    return v


def float_like(x, out):
    """out as a float for a scalar query x, as an array otherwise."""
    return float(out) if np.ndim(x) == 0 else out


def drift(x, u, p: ModelParams):
    return -p.rho * x + u


def diffusion(x, u, p: ModelParams):
    return p.sigma0 + p.sigma1 * np.abs(x) + p.sigma2 * u


@dataclass(frozen=True)
class ControlSet:
    lower: float = 0.0
    upper: float = math.inf

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ParamError("lower <= upper")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.upper)

    def contains(self, u) -> bool:
        """Every entry of u finite and within MEMBERSHIP_TOL of the set."""
        u = np.asarray(u, dtype=float)
        if not np.all(np.isfinite(u)):
            return False
        lo_ok = bool(np.all(u >= self.lower - MEMBERSHIP_TOL))
        hi_ok = True if not self.bounded else bool(np.all(u <= self.upper + MEMBERSHIP_TOL))
        return lo_ok and hi_ok

    def clip(self, u):
        return np.clip(u, self.lower, self.upper)


@dataclass(frozen=True)
class Policy:
    """Feedback rule (t, x) -> control value in the declared control set.

    fn must broadcast over x (the simulation engine evaluates whole
    blocks of paths at once). Policies with a finite validity window in
    t raise PolicyError when queried outside it.
    """

    kind: str
    fn: Callable
    control_set: ControlSet
    t_lo: Optional[float] = None
    t_hi: Optional[float] = None

    def __call__(self, t: float, x):
        if self.t_lo is not None:
            if t < self.t_lo - 1e-12 or t > self.t_hi + 1e-12:
                raise PolicyError(
                    "policy %r queried at t=%g outside [%g, %g]"
                    % (self.kind, t, self.t_lo, self.t_hi)
                )
        return self.fn(t, x)

    @staticmethod
    def constant(level: float, control_set: Optional[ControlSet] = None) -> "Policy":
        cs = control_set if control_set is not None else ControlSet(0.0, math.inf)
        lv = float(level)

        def fn(t, x):
            return np.full(np.shape(x), lv, dtype=float)

        return Policy("constant", fn, cs)

    @staticmethod
    def bang_bang(t_star: float, m: float, control_set: Optional[ControlSet] = None) -> "Policy":
        # off up to and including t_star, full rate strictly after
        cs = control_set if control_set is not None else ControlSet(0.0, m)
        ts, mm = float(t_star), float(m)

        def fn(t, x):
            level = mm if t > ts else 0.0
            return np.full(np.shape(x), level, dtype=float)

        return Policy("bang-bang", fn, cs)

    @staticmethod
    def linear_feedback(
        gain: Callable[[float], float],
        t_lo: float,
        t_hi: float,
        control_set: Optional[ControlSet] = None,
    ) -> "Policy":
        """u(t, x) = clip(gain(t) * x into the control set)."""
        cs = control_set if control_set is not None else ControlSet(0.0, math.inf)
        lower, upper, bounded = cs.lower, cs.upper, cs.bounded

        def fn(t, x):
            v = float(gain(t)) * np.asarray(x, dtype=float)
            if not isinstance(v, np.ndarray):  # a scalar x: out= needs an array
                return cs.clip(v)
            # np.clip in place: this argument order keeps its NaN, signed
            # zeros and infinities bit for bit
            np.maximum(lower, v, out=v)
            if bounded:
                np.minimum(upper, v, out=v)
            return v

        return Policy("linear-feedback", fn, cs, t_lo, t_hi)
