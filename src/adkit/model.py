"""Shared model primitives: parameters, dynamics, control sets, policies.

Goodwill follows dx = (-rho*x + u) dt + sigma(x, u) dw with
sigma(x, u) = sigma0 + sigma1*|x| + sigma2*u. Payoffs are discounted at
rate c in absolute time, so the terminal reward weight seen from time 0
is gamma = gamma0 * exp(-c*T); it is computed once and shared by every
solver. ModelParams checks its constants when it is built, so the
solvers take any ModelParams as valid. This module is the one place
where an outside number becomes a checked value: as_real, as_count,
as_int, as_seed, as_array, and check_fields for the dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParamError, PolicyError

# slack used when checking control-set membership of simulated policies
MEMBERSHIP_TOL = 1e-9
# largest count (grid size, path count, step count) any entry point takes:
# numpy cannot allocate arrays near 2^63 elements, and far below that they
# no longer fit in memory
MAX_SIZE = 10 ** 7
_FIELDS = ("rho", "c", "T", "sigma0", "sigma1", "sigma2", "m", "gamma0", "x_init")
# the fields that must be > 0; the others must be >= 0
_POSITIVE = ("rho", "T", "m", "gamma0")


def _real(v):
    """v as a float, None unless it is a Python or numpy int or float (a
    bool is not); an int beyond the float range becomes +-inf."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def as_real(v, name: str) -> float:
    """v as a finite float. ParamError "<name> must be a real number" unless
    v is a Python or numpy int or float (a bool is not), "<name> finite"
    unless it is finite (an int beyond the float range is not)."""
    x = _real(v)
    if x is None:
        raise ParamError("%s must be a real number" % name)
    if not math.isfinite(x):
        raise ParamError("%s finite" % name)
    return x


def as_int(v, name: str) -> int:
    """v as a Python int. ParamError unless v is a Python or numpy
    integer; a bool is not a count, nor is a float with an integral value."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ParamError("%s must be an integer" % name)
    return int(v)


def as_count(v, name: str, lo: int) -> int:
    """An integer (as_int) in [lo, MAX_SIZE]; ParamError "<name> >= lo"
    or "<name> <= MAX_SIZE", naming the bound it breaks."""
    v = as_int(v, name)
    if v < lo:
        raise ParamError("%s >= %d" % (name, lo))
    if v > MAX_SIZE:
        raise ParamError("%s <= %d" % (name, MAX_SIZE))
    return v


def as_seed(v, name: str = "seed") -> int:
    """A Monte Carlo seed: an integer (as_int) in [0, 2**64), the range of
    the Philox key word it becomes, so no two seeds draw the same normals."""
    v = as_int(v, name)
    if not 0 <= v < 1 << 64:
        raise ParamError("%s in [0, 2**64)" % name)
    return v


def as_array(x, name: str) -> np.ndarray:
    """x as a float array, 0-d for a scalar; ParamError unless its dtype is
    an integer or floating one (not bool, complex, string or object). Its
    entries may be non-finite: each query says what it does with them."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting of lists
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise ParamError("%s must hold real numbers" % name)
    return a.astype(float, copy=False)


def check_fields(obj, reals, rules, counts=()):
    """Collect-then-raise for a frozen dataclass: store each field named in
    reals as a float (as_real's type rule, not its finite one) and each
    (name, lo) of counts as an as_count int. ParamError listing, in order,
    "<name> must be a real number" for each real field that is not, then
    rules(values) on the others' floats by name, then as_count's violations."""
    bad, values = [], {}
    for name in reals:
        v = _real(getattr(obj, name))
        if v is None:
            bad.append("%s must be a real number" % name)
        else:
            values[name] = v
            object.__setattr__(obj, name, v)
    bad += rules(values)
    for name, lo in counts:
        try:
            object.__setattr__(obj, name, as_count(getattr(obj, name), name, lo))
        except ParamError as e:
            bad += e.violations
    if bad:
        raise ParamError(bad)


def interval(lo: str, hi: str):
    """The check_fields rule "<lo>, <hi> finite", else "<lo> < <hi>", of
    the fields that end an interval, once both are real numbers."""
    def rule(values):
        if lo not in values or hi not in values:
            return []
        if not (math.isfinite(values[lo]) and math.isfinite(values[hi])):
            return ["%s, %s finite" % (lo, hi)]
        return [] if values[lo] < values[hi] else ["%s < %s" % (lo, hi)]
    return rule


def _model_rules(values: dict) -> list[str]:
    """The sign of each field ("rho > 0"), then "<name> finite" for each
    field that is not finite."""
    signs = ["%s %s 0" % (name, ">" if name in _POSITIVE else ">=")
             for name, v in values.items() if not (v > 0 if name in _POSITIVE else v >= 0)]
    return signs + ["%s finite" % name for name, v in values.items() if not math.isfinite(v)]


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
        check_fields(self, _FIELDS, _model_rules)
        object.__setattr__(self, "gamma", self.gamma0 * math.exp(-self.c * self.T))


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
        # infinite ends are allowed: the default upper is inf
        check_fields(self, ("lower", "upper"), lambda v: [] if len(v) < 2
                     or v["lower"] <= v["upper"] else ["lower <= upper"])

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


def _window_rule(values: dict) -> list[str]:
    """Policy's window: "<name> finite" for each end that is not, else
    "t_lo <= t_hi" once both are real numbers."""
    bad = ["%s finite" % name for name, v in values.items() if not math.isfinite(v)]
    if not bad and len(values) == 2 and values["t_lo"] > values["t_hi"]:
        bad.append("t_lo <= t_hi")
    return bad


@dataclass(frozen=True)
class Policy:
    """Feedback rule (t, x) -> control value in the declared control set.

    fn must broadcast over x (the simulation engine evaluates whole
    blocks of paths at once). Policies with a finite validity window in
    t raise PolicyError when queried outside it, and every policy at a
    NaN time. The window [t_lo, t_hi] is both ends, finite real numbers
    stored as floats with t_lo <= t_hi, or neither (ParamError otherwise).
    """

    kind: str
    fn: Callable
    control_set: ControlSet
    t_lo: Optional[float] = None
    t_hi: Optional[float] = None

    def __post_init__(self):
        if self.t_lo is not None or self.t_hi is not None:
            check_fields(self, ("t_lo", "t_hi"), _window_rule)

    def __call__(self, t: float, x):
        if self.t_lo is None:
            if t != t:
                raise PolicyError("policy %r queried at t=nan" % self.kind)
        elif not self.t_lo - 1e-12 <= t <= self.t_hi + 1e-12:  # False at nan
            raise PolicyError(
                "policy %r queried at t=%g outside [%g, %g]"
                % (self.kind, t, self.t_lo, self.t_hi)
            )
        return self.fn(t, x)

    @staticmethod
    def constant(level: float, control_set: Optional[ControlSet] = None) -> "Policy":
        cs = control_set if control_set is not None else ControlSet(0.0, math.inf)
        lv = as_real(level, "level")

        def fn(t, x):
            return np.full(np.shape(x), lv, dtype=float)

        return Policy("constant", fn, cs)

    @staticmethod
    def bang_bang(t_star: float, m: float, control_set: Optional[ControlSet] = None) -> "Policy":
        # off up to and including t_star, full rate strictly after
        ts, mm = as_real(t_star, "t_star"), as_real(m, "m")
        cs = control_set if control_set is not None else ControlSet(0.0, mm)

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
        """u(t, x) = clip(gain(t) * x into the control set), on [t_lo, t_hi]."""
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
