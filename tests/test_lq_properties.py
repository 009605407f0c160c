"""Property test of the LQ entry points: every input ends in a finite
result or an AdkitError, never a raw exception, a NaN or an infinity."""

import math
from datetime import timedelta

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from adkit import (
    AdkitError,
    ModelParams,
    riccati_integrate,
    riccati_sigma2_zero,
    spend_bound,
)

FIELDS = ("rho", "c", "T", "sigma1", "sigma2", "m", "gamma0", "x_init")

# exact 0 and 1, and magnitudes log-uniform over 1e-300..1e300
MAGNITUDES = st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


@st.composite
def near_cancelling(draw):
    """sigma2 = 10**U(-3, 150) with 1 - gamma0*sigma2^2 a few rounding
    units: sigma2^2*P nearly cancels exp(-c*t) in D."""
    s = 10.0 ** draw(st.floats(-3.0, 150.0))
    k = draw(st.integers(1, 2 ** 39))
    return {"sigma2": s, "gamma0": (1.0 - k * 2.0 ** -53) / s ** 2,
            "rho": 10.0 ** draw(st.floats(-2.0, 1.0)),
            "c": draw(st.sampled_from([0.0, 1e-300, 0.1, 1.0])),
            "T": 10.0 ** draw(st.floats(-2.0, 1.0)),
            "sigma1": draw(st.floats(0.0, 2.0))}


# keyword dicts for ModelParams, which rejects some of them
PARAMS = st.one_of(st.fixed_dictionaries({k: MAGNITUDES for k in FIELDS}), near_cancelling())


def _finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


def _check_integrate(p):
    sol = riccati_integrate(p)
    assert _finite(sol.t, sol.P, sol.dPdt, sol.max_midpoint_residual)
    assert sol.t_blow is None or math.isfinite(sol.t_blow)
    assert np.all(sol.P < 0)
    D = sol.D_at(sol.t)
    assert _finite(D) and np.all(D > 0)
    assert _finite(sol.gain_at(sol.t))
    t_mid = 0.5 * (float(sol.t[0]) + float(sol.t[1]))
    assert _finite(sol.P_at(t_mid), sol.gain_at(t_mid), sol.D_at(t_mid))
    rep = sol.classification
    if rep is not None:
        assert _finite(rep.zeta) and rep.case_label in ("i", "ii", "iii")
        # T_max = inf is the verdict "never blows down"
        assert (rep.T_max == math.inf) == (rep.case_label == "i")
        assert rep.well_posed_closed_form or not sol.well_posed


def _check_sigma2_zero(p):
    p0 = ModelParams(**{k: getattr(p, k) for k in FIELDS if k != "sigma2"})
    assert _finite(riccati_sigma2_zero(p0, 0.0))
    assert _finite(riccati_sigma2_zero(p0, np.array([0.0, p0.T / 2.0, p0.T])))


def _check_spend_bound(p):
    assert _finite(spend_bound(p))


# No shrink (or explain) phase, as in the CLI property test: the first
# failing input, reported as drawn, is small enough to read, and
# derandomize reproduces it.
@settings(max_examples=400, deadline=timedelta(seconds=2), derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(PARAMS)
def test_lq_entry_points_end_cleanly(kwargs):
    try:
        p = ModelParams(**kwargs)
    except AdkitError:
        return
    for check in (_check_integrate, _check_sigma2_zero, _check_spend_bound):
        try:
            check(p)
        except AdkitError:
            pass
