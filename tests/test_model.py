import math

import numpy as np
import pytest

from adkit import (
    AdkitError,
    ControlSet,
    Grid2D,
    ModelParams,
    ParamError,
    PathGrid,
    Policy,
    PolicyError,
    StoppingParams,
    closed_loop_coeffs,
    closed_loop_mean,
    diffusion,
    dp_linear,
    drift,
    evaluate_policy,
    riccati_integrate,
    riccati_oracle,
    simulate_path,
    simulate_stopped,
    solve_budget,
    solve_linear,
    solve_stopping,
    stopping_cost_report,
)
from adkit.model import MAX_SIZE, MEMBERSHIP_TOL


def test_gamma_is_derived():
    p = ModelParams(rho=0.5, c=0.1, T=2.0, gamma0=1.2)
    assert p.gamma == pytest.approx(1.2 * math.exp(-0.2), rel=0, abs=0)
    # init=False field: not settable at construction
    with pytest.raises(TypeError):
        ModelParams(rho=0.5, c=0.1, T=2.0, gamma=3.0)


def test_gamma_undiscounted():
    p = ModelParams(rho=1.0, c=0.0, T=5.0, gamma0=0.7)
    assert p.gamma == 0.7


def test_construction_collects_all_violations():
    with pytest.raises(ParamError) as err:
        ModelParams(rho=-1.0, c=-0.5, T=0.0, sigma0=-1.0, m=0.0)
    assert err.value.violations == ["rho > 0", "c >= 0", "T > 0", "sigma0 >= 0", "m > 0"]


def test_construction_rejects_nonfinite():
    with pytest.raises(ParamError) as err:
        ModelParams(rho=0.5, c=0.0, T=math.inf)
    assert err.value.violations == ["T finite"]


def test_construction_raises_with_joined_message():
    with pytest.raises(ParamError) as err:
        ModelParams(rho=0.0, c=0.0, T=1.0, gamma0=-1.0)
    assert str(err.value) == "rho > 0; gamma0 > 0"


def test_construction_passes_valid():
    p = ModelParams(rho=0.5, c=0.1, T=1.0)
    assert (p.rho, p.c, p.T) == (0.5, 0.1, 1.0)


def test_discounted_horizon_checked_before_gamma():
    # c < 0 with a long horizon would overflow exp(-c*T) in forming gamma
    with pytest.raises(ParamError) as err:
        ModelParams(rho=1.0, c=-1.0, T=1000.0)
    assert err.value.violations == ["c >= 0"]


@pytest.mark.parametrize("value, violation", [
    ("a", "rho must be a real number"),
    (None, "rho must be a real number"),
    (1j, "rho must be a real number"),
    (True, "rho must be a real number"),
    (10**400, "rho finite"),
], ids=["str", "None", "complex", "bool", "int-beyond-float"])
def test_construction_rejects_non_real(value, violation):
    with pytest.raises(ParamError) as err:
        ModelParams(rho=value, c=0.0, T=1.0)
    assert err.value.violations == [violation]


def test_construction_stores_ints_as_floats():
    p = ModelParams(rho=np.int64(2), c=0, T=np.float32(0.5), m=3)
    for name in ("rho", "c", "T", "m"):
        assert type(getattr(p, name)) is float
    assert (p.rho, p.c, p.T, p.m) == (2.0, 0.0, 0.5, 3.0)
    with pytest.raises(ParamError) as err:
        ModelParams(rho=1.0, c=-10**400, T=1.0)
    assert err.value.violations == ["c >= 0", "c finite"]


def test_drift_and_diffusion_shapes():
    p = ModelParams(rho=0.5, c=0.0, T=1.0, sigma0=0.1, sigma1=0.2, sigma2=0.3)
    x = np.array([-1.0, 0.0, 2.0])
    u = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(drift(x, u, p), -0.5 * x + u)
    np.testing.assert_allclose(diffusion(x, u, p), 0.1 + 0.2 * np.abs(x) + 0.3 * u)


def test_control_set_membership():
    cs = ControlSet(0.0, 1.0)
    assert cs.bounded
    assert cs.contains(np.array([0.0, 0.5, 1.0]))
    assert cs.contains(1.0 + 1e-10)  # inside tolerance
    assert not cs.contains(1.1)
    assert not cs.contains(np.nan)
    assert not ControlSet(0.0, math.inf).bounded
    with pytest.raises(ParamError):
        ControlSet(2.0, 1.0)


def test_control_set_clip():
    cs = ControlSet(0.0, 2.0)
    np.testing.assert_allclose(cs.clip(np.array([-1.0, 1.0, 5.0])), [0.0, 1.0, 2.0])


def test_constant_policy_broadcasts():
    pol = Policy.constant(0.7)
    out = pol(0.3, np.zeros(5))
    assert out.shape == (5,)
    assert np.all(out == 0.7)
    assert float(pol(0.3, 1.0)) == 0.7


def test_bang_bang_boundary_semantics():
    pol = Policy.bang_bang(0.5, 2.0)
    # off up to and including t_star, on strictly after
    assert float(pol(0.0, 0.0)) == 0.0
    assert float(pol(0.5, 0.0)) == 0.0
    assert float(pol(0.5 + 1e-12, 0.0)) == 2.0
    assert float(pol(1.0, 0.0)) == 2.0
    assert pol.control_set.upper == 2.0


def test_linear_feedback_clips_and_windows():
    pol = Policy.linear_feedback(lambda t: 1.0 + t, 0.0, 1.0, ControlSet(0.0, 3.0))
    np.testing.assert_allclose(pol(1.0, np.array([0.5, 2.0])), [1.0, 3.0])
    with pytest.raises(PolicyError):
        pol(1.5, 0.0)
    with pytest.raises(PolicyError):
        pol(-0.5, 0.0)
    # tolerance at the window edge
    pol(1.0 + 1e-13, 0.0)


@pytest.mark.parametrize("cs", [ControlSet(0.0, math.inf), ControlSet(0.0, 1.0),
                                ControlSet(-0.0, 2.0), ControlSet(0.25, 0.25),
                                ControlSet(-1.0, 0.0), ControlSet(-0.0, -0.0)])
@pytest.mark.parametrize("g", [1.0, -1.0, 2.5, 0.0, -0.0])
def test_linear_feedback_clip_matches_np_clip(cs, g):
    # the in-place clip against np.clip on the gain times x, bit for bit
    edge = np.array([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf,
                     5e-324, -5e-324, 0.25, 0.5, 3.0, -2.0, 1e308, -1e308])
    pol = Policy.linear_feedback(lambda t: g, 0.0, 1.0, cs)
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, 2.5 * 1e308
        got = pol(0.5, edge)
        want = np.clip(g * edge, cs.lower, cs.upper)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for x in edge:  # a scalar x returns np.clip's scalar
            got = pol(0.5, float(x))
            want = np.clip(g * np.asarray(float(x)), cs.lower, cs.upper)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got = pol(0.5, edge.reshape(2, 7))
        assert got.shape == (2, 7) and got.tobytes() == np.clip(
            g * edge, cs.lower, cs.upper).tobytes()


@pytest.mark.parametrize("u, inside", [
    (0.0 - MEMBERSHIP_TOL, True),
    (0.0 - 2.0 * MEMBERSHIP_TOL, False),
    (1.0 + MEMBERSHIP_TOL, True),
    (1.0 + 2.0 * MEMBERSHIP_TOL, False),
])
def test_membership_tolerance_is_the_module_constant(u, inside):
    assert ControlSet(0.0, 1.0).contains(u) is inside
    assert ControlSet(0.0, 1.0).contains(np.array([0.5, u])) is inside


def test_policy_window_check_applies_to_any_fn():
    # the window belongs to Policy, not to its constructors
    pol = Policy("custom", lambda t, x: np.full(np.shape(x), t), ControlSet(0.0, 1.0),
                 0.2, 0.8)
    assert float(pol(0.2, 0.0)) == 0.2
    assert float(pol(0.8 + 1e-13, 0.0)) == pytest.approx(0.8)
    for t in (0.0, 0.2 - 1e-9, 0.8 + 1e-9, 1.0):
        with pytest.raises(PolicyError):
            pol(t, 0.0)


def test_membership_random_draws():
    rng = np.random.default_rng(42)
    cs = ControlSet(0.0, 1.0)
    for _ in range(200):
        u = rng.uniform(-0.5, 1.5)
        assert cs.contains(u) == (0.0 - 1e-9 <= u <= 1.0 + 1e-9)


_LQ = ModelParams(rho=0.5, c=0.1, T=1.0, sigma2=0.3)
_STOP = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
_STOP_KW = dict(mu=0.5, rho=0.5, gamma1=2.0, gamma2=2.0)
_GRID = PathGrid(0.0, 1.0, 10)


def _evaluate(n_paths=10, seed=1):
    return evaluate_policy(_LQ, Policy.constant(0.5), lambda x: x, lambda u: u, 0.0, 1.0,
                           _GRID, n_paths, seed)


def _stopping_report(n_paths=10, seed=1):
    sol = solve_stopping(_STOP)
    return stopping_cost_report(sol=sol, g=_GRID, y_start=sol.x0 + 1.0, n_paths=n_paths,
                                seed=seed, **_STOP_KW)


def _simulate_stopped(seed):
    sol = solve_stopping(_STOP)
    return simulate_stopped(sol=sol, g=_GRID, y_start=sol.x0 + 1.0, seed=seed, **_STOP_KW)


_COUNTS = {
    "PathGrid.n_steps": lambda v: PathGrid(0.0, 1.0, v),
    "Grid2D.n_x": lambda v: Grid2D(0.0, 1.0, v, 20),
    "Grid2D.n_t": lambda v: Grid2D(0.0, 1.0, 20, v),
    "dp_linear.n": lambda v: dp_linear(_LQ, v),
    "riccati_integrate.n_nodes": lambda v: riccati_integrate(_LQ, n_nodes=v),
    "riccati_oracle.n_nodes": lambda v: riccati_oracle(_LQ, n_nodes=v),
    "solve_stopping.n_grid": lambda v: solve_stopping(_STOP, n_grid=v),
    "evaluate_policy.n_paths": lambda v: _evaluate(n_paths=v),
    "stopping_cost_report.n_paths": lambda v: _stopping_report(n_paths=v),
}
_SEEDS = {
    "evaluate_policy.seed": lambda v: _evaluate(seed=v),
    "stopping_cost_report.seed": lambda v: _stopping_report(seed=v),
    "simulate_path.seed": lambda v: simulate_path(_LQ, Policy.constant(0.5), _GRID, 1.0, v),
    "simulate_stopped.seed": _simulate_stopped,
}


@pytest.mark.parametrize("value", [101.0, True, "101", None])
@pytest.mark.parametrize("entry", sorted(_COUNTS))
def test_counts_must_be_integers(entry, value):
    name = entry.split(".")[1]
    with pytest.raises(ParamError, match="^%s must be an integer$" % name):
        _COUNTS[entry](value)


@pytest.mark.parametrize("value, message", [
    (1.5, "seed must be an integer"), (True, "seed must be an integer"),
    ("a", "seed must be an integer"), (np.float64(3.0), "seed must be an integer"),
    (2 ** 64, r"seed in \[0, 2\*\*64\)"), (-1, r"seed in \[0, 2\*\*64\)"),
])
@pytest.mark.parametrize("entry", sorted(_SEEDS))
def test_seeds_must_be_integers_in_the_philox_key_range(entry, value, message):
    with pytest.raises(ParamError, match="^%s$" % message):
        _SEEDS[entry](value)


@pytest.mark.parametrize("value", [10 ** 400, 2 ** 63, MAX_SIZE + 1],
                         ids=["10**400", "2**63", "MAX_SIZE+1"])
@pytest.mark.parametrize("entry", sorted(_COUNTS))
def test_counts_are_capped_at_max_size(entry, value):
    # each of these once raised a raw error or was taken (then allocated)
    name = entry.split(".")[1]
    with pytest.raises(ParamError, match="^%s <= %d$" % (name, MAX_SIZE)):
        _COUNTS[entry](value)


def test_count_of_max_size_is_accepted():
    assert PathGrid(0.0, 1.0, MAX_SIZE).n_steps == MAX_SIZE
    assert Grid2D(0.0, 1.0, MAX_SIZE, MAX_SIZE).n_x == MAX_SIZE


_LIN = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)
_LQ_SOL = riccati_integrate(_LQ, n_nodes=101)
_STOP_SOL = solve_stopping(_STOP, n_grid=11)

# every public scalar argument (ModelParams's fields have their own test
# above), and the queries that take a scalar or an array, by name -> call
# with the value in that place
_SCALARS = {
    "StoppingParams.k": lambda v: StoppingParams(k=v, rho=0.5, gamma1=2.0, gamma2=2.0),
    "PathGrid.t_end": lambda v: PathGrid(0.0, v, 10),
    "Grid2D.x_lo": lambda v: Grid2D(v, 1.0, 16, 16),
    "ControlSet.upper": lambda v: ControlSet(0.0, v),
    "Policy.constant.level": lambda v: Policy.constant(v),
    "Policy.bang_bang.t_star": lambda v: Policy.bang_bang(v, 1.0),
    "Policy.bang_bang.m": lambda v: Policy.bang_bang(0.5, v),
    "Policy.linear_feedback.t_lo": lambda v: Policy.linear_feedback(lambda t: 1.0, v, 1.0),
    "solve_budget.M": lambda v: solve_budget(_LIN, v),
    "riccati_integrate.tol": lambda v: riccati_integrate(_LQ, tol=v),
    "riccati_integrate.t_lo": lambda v: riccati_integrate(_LQ, t_lo=v),
    "riccati_oracle.t_lo": lambda v: riccati_oracle(_LQ, t_lo=v),
    "evaluate_policy.s": lambda v: evaluate_policy(
        _LQ, Policy.constant(0.5), lambda x: x, lambda u: u, v, 1.0, _GRID, 10, 1),
    "evaluate_policy.x": lambda v: evaluate_policy(
        _LQ, Policy.constant(0.5), lambda x: x, lambda u: u, 0.0, v, _GRID, 10, 1),
    "simulate_path.x_start": lambda v: simulate_path(_LQ, Policy.constant(0.5), _GRID, v, 1),
    "simulate_stopped.y_start": lambda v: simulate_stopped(
        sol=_STOP_SOL, g=_GRID, y_start=v, seed=1, **_STOP_KW),
    "stopping_cost_report.y_start": lambda v: stopping_cost_report(
        sol=_STOP_SOL, g=_GRID, y_start=v, n_paths=10, seed=1, **_STOP_KW),
    **{"simulate_stopped.%s" % k: (lambda v, k=k: simulate_stopped(
        sol=_STOP_SOL, g=_GRID, y_start=_STOP_SOL.x0 + 1.0, seed=1, **{**_STOP_KW, k: v}))
       for k in _STOP_KW},
    **{"stopping_cost_report.%s" % k: (lambda v, k=k: stopping_cost_report(
        sol=_STOP_SOL, g=_GRID, y_start=_STOP_SOL.x0 + 1.0, n_paths=10, seed=1,
        **{**_STOP_KW, k: v})) for k in _STOP_KW},
    "Policy.t_lo": lambda v: Policy("k", lambda t, x: x, ControlSet(), t_lo=v, t_hi=1.0),
    "Policy.t_hi": lambda v: Policy("k", lambda t, x: x, ControlSet(), t_lo=0.0, t_hi=v),
    "closed_loop_mean.x_start": lambda v: closed_loop_mean(_LQ_SOL, None, v),
}
# nan is a query's own business: P_at, D_at and gain_at raise PolicyError
_QUERIES = {
    "RiccatiSolution.P_at": _LQ_SOL.P_at,
    "RiccatiSolution.D_at": _LQ_SOL.D_at,
    "RiccatiSolution.gain_at": _LQ_SOL.gain_at,
    "closed_loop_coeffs.t": lambda v: closed_loop_coeffs(_LQ_SOL, v),
    "closed_loop_mean.t_eval": lambda v: closed_loop_mean(_LQ_SOL, v),
    "StoppingSolution.value": _STOP_SOL.value,
    "StoppingSolution.policy": _STOP_SOL.policy,
    "LinearSolution.value.t": lambda v: solve_linear(_LIN).value(v, 1.0),
}
_NOT_REAL = ["a", None, 1j, True, 10 ** 400]
# valid cells: None asks closed_loop_mean for its default, and every float
# is below 10**400, so it is the upper end of an unbounded ControlSet
_VALID = [("ControlSet.upper", 10 ** 400), ("closed_loop_mean.t_eval", None),
          ("closed_loop_mean.x_start", None)]
_CELLS = [(e, v) for e in sorted({**_SCALARS, **_QUERIES})
          for v in _NOT_REAL + ([math.nan] if e in _SCALARS or e.startswith("Riccati") else [])
          if (e, v) not in _VALID]


@pytest.mark.parametrize("entry, value", _CELLS, ids=[
    "%s-%s" % (e, "10**400" if v == 10 ** 400 else v) for e, v in _CELLS])
def test_inputs_that_are_not_real_numbers_end_in_adkit_errors(entry, value):
    # a raw TypeError, ValueError or OverflowError, or a bool taken as 1,
    # was the answer of most of these cells
    with pytest.raises(AdkitError):
        {**_SCALARS, **_QUERIES}[entry](value)


def test_scalar_messages_name_the_argument():
    for v, message in (("a", "x must be a real number"), (True, "x must be a real number"),
                       (10 ** 400, "x finite"), (math.nan, "x finite")):
        with pytest.raises(ParamError, match="^%s$" % message):
            _SCALARS["evaluate_policy.x"](v)
    with pytest.raises(ParamError, match="^t must hold real numbers$"):
        _LQ_SOL.gain_at(np.array(["0.5"]))
    with pytest.raises(ParamError) as err:
        Grid2D("a", math.inf, 16, 8)
    assert err.value.violations == ["x_lo must be a real number", "n_t >= 16"]
    with pytest.raises(PolicyError, match="nan"):
        _LQ_SOL.gain_at(math.nan)


def test_policy_window_is_both_ends_or_neither():
    fn = lambda t, x: x
    assert Policy("k", fn, ControlSet()).t_lo is None
    pol = Policy("k", fn, ControlSet(), np.int64(0), 1)
    assert (type(pol.t_lo), type(pol.t_hi)) == (float, float)
    assert Policy("k", fn, ControlSet(), 0.5, 0.5).t_hi == 0.5
    with pytest.raises(ParamError, match="^t_lo <= t_hi$"):
        Policy("k", fn, ControlSet(), 1.0, 0.0)
    with pytest.raises(ParamError) as err:
        Policy("k", fn, ControlSet(), "a", None)
    assert err.value.violations == ["t_lo must be a real number", "t_hi must be a real number"]


def test_fields_are_stored_as_floats():
    g, sp, cs = PathGrid(0, 1, np.int64(4)), StoppingParams(1, 1, 2, 4), ControlSet(0, 1)
    assert (type(g.t0), type(g.n_steps), type(sp.k), type(cs.upper)) == (float, int, float, float)
    assert ControlSet(0.0, 10 ** 400).upper == math.inf


# the largest seed is a Philox key word of its own, not seed 0's
@pytest.mark.parametrize("entry, value",
                         [(e, np.int64(101)) for e in sorted(_COUNTS)]
                         + [(e, np.uint64(2 ** 64 - 1)) for e in sorted(_SEEDS)])
def test_numpy_integers_are_accepted(entry, value):
    {**_COUNTS, **_SEEDS}[entry](value)
