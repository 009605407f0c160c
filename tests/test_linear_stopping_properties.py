"""Property test of the linear, budget and launch-stopping entry points:
every input ends in a finite result or an AdkitError, never a raw
exception, a NaN or an infinity."""

from datetime import timedelta

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from adkit import (
    AdkitError,
    ModelParams,
    StoppingParams,
    solve_budget,
    solve_linear,
    solve_stopping,
    spend_bound,
)
from adkit.oracles import dp_linear

FIELDS = ("rho", "c", "T", "m", "gamma0", "x_init")

# exact 0 and 1, and magnitudes log-uniform over 1e-300..1e300
MAGNITUDES = st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
# the budget as a fraction of the spend bound: exact 0 and 1, and 1e-300..1
FRACTIONS = st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e))
# gamma1 > 1 is required; half the draws are shifted past 1 so that most
# launch problems get to the solver
GAMMA1 = st.one_of(MAGNITUDES, MAGNITUDES.map(lambda v: 1.0 + v))


@st.composite
def tiny_rho(draw):
    """rho = 10**U(-323.3, -29), subnormals included, where x0 shrinks
    with sqrt(rho), the root can sit far below w = 0, and the verification
    grid x0 + 10/sqrt(rho) can pass sqrt(largest float)."""
    return {"k": 10.0 ** draw(st.floats(-3.0, 200.0)),
            "rho": 10.0 ** draw(st.floats(-323.3, -29.0)),
            "gamma1": 1.0 + 10.0 ** draw(st.floats(-3.0, 3.0))}


STOPPING = st.one_of(st.fixed_dictionaries({"k": MAGNITUDES, "rho": MAGNITUDES,
                                            "gamma1": GAMMA1}),
                     tiny_rho())


def _ends_cleanly(fn, *args):
    """fn(*args) raises an AdkitError or returns finite values only."""
    try:
        out = fn(*args)
    except AdkitError:
        return
    values = out if isinstance(out, tuple) else (out,)
    assert all(np.all(np.isfinite(v)) for v in values), (fn, args, out)


def _budget(p, f):
    sol = solve_budget(p, f * spend_bound(p))
    return (sol.t_star, sol.lambda_star, sol.discounted_spend, *sol.discrepancy.values())


def _dp_linear(p):
    res = dp_linear(p, 100)
    return res.t_star_hat, res.value_hat, res.values


def _stopping(sp_kwargs):
    sp = StoppingParams(**sp_kwargs)
    sol = solve_stopping(sp, n_grid=65)
    rep = sol.residual_report
    return (sol.x0, rep.stop_side_max, rep.pde_residual_max,
            rep.obstacle_gap_min, rep.residual)


# No shrink (or explain) phase, as in the CLI property test: the first
# failing input, reported as drawn, is small enough to read, and
# derandomize reproduces it.
PROPERTY = settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow],
                    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


@PROPERTY
@given(st.fixed_dictionaries({k: MAGNITUDES for k in FIELDS}), FRACTIONS)
def test_linear_and_budget_entry_points_end_cleanly(kwargs, f):
    try:
        p = ModelParams(**kwargs)
    except AdkitError:
        return
    _ends_cleanly(lambda q: solve_linear(q).t_star, p)
    _ends_cleanly(spend_bound, p)
    _ends_cleanly(_budget, p, f)
    _ends_cleanly(_dp_linear, p)
    try:
        sol = solve_linear(p)
    except AdkitError:
        return
    ts = np.array([0.0, p.T / 2.0, p.T])
    for t in (*ts, ts):
        _ends_cleanly(sol.value, t, p.x_init)
        for method in (sol.b_fn, sol.b1_fn, sol.b1_prime):
            _ends_cleanly(method, t)


@PROPERTY
@given(STOPPING)
def test_stopping_entry_point_ends_cleanly(kwargs):
    # gamma2 = 2*rho*gamma1 may overflow; StoppingParams rejects that
    kwargs["gamma2"] = 2.0 * kwargs["rho"] * kwargs["gamma1"]
    _ends_cleanly(_stopping, kwargs)
