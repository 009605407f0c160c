import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from adkit import stopping
from adkit import (
    Grid2D,
    ParamError,
    SolverError,
    StableRangeError,
    StoppingParams,
    StoppingSolution,
    dp_qvi_stopping,
    free_boundary,
    qvi_residual,
    solve_stopping,
    u2,
)

SP = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)

X0 = 1.3603866416114931
ALPHA2 = 0.6551541419723372


def test_params_derive_mu():
    assert SP.mu == 0.5
    sp = StoppingParams(k=3.0, rho=0.25, gamma1=1.5, gamma2=0.75)
    assert sp.mu == 0.75


def test_params_validation():
    with pytest.raises(ParamError):
        StoppingParams(k=1.0, rho=0.0, gamma1=2.0, gamma2=2.0)
    with pytest.raises(ParamError):
        StoppingParams(k=1.0, rho=0.5, gamma1=1.0, gamma2=2.0)
    with pytest.raises(ParamError):
        StoppingParams(k=-1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
    # gamma2 tied to 2*rho*gamma1 by the scaling that removes the clock
    with pytest.raises(ParamError):
        StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0001)


def test_u2_against_quadrature():
    # independent representation: u2(x) = integral_0^inf e^{-r^2 - 2 w r} dr / sqrt(rho)
    for x in (0.3, 1.0, 1.7, 4.0):
        w = math.sqrt(SP.rho) * (x - SP.mu / SP.rho)
        ref, err = quad(lambda r: math.exp(-r * r - 2.0 * w * r), 0.0, np.inf)
        ref /= math.sqrt(SP.rho)
        assert u2(x, SP) == pytest.approx(ref, rel=1e-12), x


def test_u2_reference_values():
    assert u2(SP.mu / SP.rho, SP) == pytest.approx(1.2533141373155001, abs=1e-14)
    assert u2(1.7, SP) == pytest.approx(0.7748938487793906, abs=1e-14)


def test_u2_large_argument_asymptotics():
    # u2 ~ 1/(2 rho (x - mu/rho)) far to the right
    x = SP.mu / SP.rho + 10.0 / math.sqrt(SP.rho)
    ratio = u2(x, SP) * 2.0 * SP.rho * (x - SP.mu / SP.rho)
    assert 0.99 < ratio < 1.0


def _control(x, sp=SP, derivative=False):
    """u* = 2*sqrt(rho)*h(w) (and du*/dx) at the points x."""
    d = np.asarray(x, dtype=float) - sp.mu / sp.rho
    return stopping._control(d.copy(), sp, derivative=derivative)


def test_control_is_one_over_u2_minus_drift_term():
    # u* = 1/u2 - 2*rho*(x - mu/rho), the form of the erfcx branch
    x = np.linspace(SP.mu / SP.rho - 20.0, SP.mu / SP.rho + 40.0, 601)
    d = x - SP.mu / SP.rho
    np.testing.assert_allclose(_control(x), 1.0 / u2(x, SP) - 2.0 * SP.rho * d,
                               rtol=1e-12, atol=1e-13)


def test_h_positive_and_decreasing():
    # h lies above 0 and falls, with slope in (-1, 0), on both branches and
    # below w = -26.6, where u2 overflows
    sp = StoppingParams(k=0.0, rho=0.25, gamma1=2.0, gamma2=1.0)
    w = np.linspace(-40.0, 60.0, 20001)
    u, du = _control(w / math.sqrt(sp.rho), sp, derivative=True)
    h, h_prime = u / (2.0 * math.sqrt(sp.rho)), du / (2.0 * sp.rho)
    assert np.all(h > 0) and np.all(np.diff(h) < 0)
    assert np.all((-1.0 <= h_prime) & (h_prime < 0))
    # h' = 2*(h + w)*h - 1 where that form does not cancel
    near = np.abs(w) < 2.0
    np.testing.assert_allclose(h_prime[near], (2.0 * (h + w) * h - 1.0)[near],
                               rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("sp", [SP, StoppingParams(k=0.5, rho=2.0, gamma1=3.0, gamma2=12.0)])
def test_control_derivative_finite_difference(sp):
    # du*/dx on the erfcx form (w = -30 where u2 overflows, w < 0 and
    # 0 <= w < 3), on the continued fraction (w >= 3), and on both sides of
    # w = 0 and of the cutover. qvi_residual forms v'' from u* by the ODE
    # identity, so it cannot see a wrong control; this test can: scaling
    # erfcx by 1.01 moves du* by about 1% on the erfcx lanes
    w = np.array([-30.0, -5.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 2.5, 2.9, 2.99, 2.999, 3.0, 3.001,
                  3.01, 3.1, 3.5, 5.0, 40.0, 1e4])
    x = sp.mu / sp.rho + w / math.sqrt(sp.rho)
    step = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (_control(x + step, sp) - _control(x - step, sp)) / (2.0 * step)
    np.testing.assert_allclose(_control(x, sp, derivative=True)[1], fd, rtol=1e-6, atol=1e-9)


def test_u2_vectorized():
    x = np.array([0.5, 1.0, 2.0])
    v = u2(x, SP)
    assert v.shape == (3,)
    assert v[0] == u2(0.5, SP)
    assert isinstance(u2(1.0, SP), float)


def test_u2_overflow_is_stable_range_error():
    with pytest.raises(StableRangeError, match="u2 overflows"):
        u2(SP.mu / SP.rho - 40.0, SP)
    with pytest.raises(StableRangeError, match="u2 overflows"):
        u2(np.array([1.0, SP.mu / SP.rho - 40.0, math.nan]), SP)


def test_free_boundary_reference():
    x0, alpha2 = free_boundary(SP)
    assert x0 == pytest.approx(X0, abs=1e-13)
    assert alpha2 == pytest.approx(ALPHA2, abs=1e-13)


def test_free_boundary_fit_residual():
    x0, _ = free_boundary(SP)
    slope = 2.0 * SP.rho + 1.0 / SP.gamma1
    assert abs((slope * x0 - 2.0 * SP.mu) * u2(x0, SP) - 1.0) <= 1e-12


def test_free_boundary_above_drift_rest_point():
    # boundary sits to the right of mu/rho for a range of instances
    rng = np.random.default_rng(5)
    for _ in range(25):
        rho = rng.uniform(0.2, 2.0)
        gamma1 = rng.uniform(1.1, 4.0)
        sp = StoppingParams(k=rng.uniform(0.0, 2.0), rho=rho, gamma1=gamma1,
                            gamma2=2.0 * rho * gamma1)
        x0, alpha2 = free_boundary(sp)
        assert x0 > sp.mu / sp.rho
        assert alpha2 > 0


def test_value_matches_obstacle_below_boundary():
    sol = solve_stopping(SP)
    x = np.array([0.0, 0.5, X0 - 1e-9])
    np.testing.assert_allclose(sol.value(x), x * x, rtol=0, atol=1e-12)


def test_value_continuity_and_smoothness_at_boundary():
    sol = solve_stopping(SP)
    h = 1e-7
    below = sol.value(sol.x0 - h)
    above = sol.value(sol.x0 + h)
    assert above == pytest.approx(below, abs=1e-6)
    # C1 fit: one-sided slopes agree to O(h)
    s_below = (sol.value(sol.x0) - sol.value(sol.x0 - h)) / h
    s_above = (sol.value(sol.x0 + h) - sol.value(sol.x0)) / h
    assert s_above == pytest.approx(s_below, abs=1e-5)


def test_value_reference_point():
    sol = solve_stopping(SP)
    assert float(sol.value(sol.x0 + 1.0)) == pytest.approx(4.088597251325633, abs=1e-12)


def test_value_dominated_by_obstacle():
    sol = solve_stopping(SP)
    x = np.linspace(0.0, 8.0, 2001)
    assert np.all(sol.value(x) <= x * x + 1e-12)


def test_policy_boundary_and_zero_region():
    sol = solve_stopping(SP)
    assert float(sol.policy(sol.x0)) == pytest.approx(sol.x0 / SP.gamma1, abs=1e-12)
    assert float(sol.policy(0.5)) == 0.0
    assert float(sol.policy(sol.x0 - 1e-6)) == 0.0


def test_policy_decreases_to_zero_far_right():
    sol = solve_stopping(SP)
    u_near = float(sol.policy(sol.x0 + 0.1))
    u_far = float(sol.policy(sol.x0 + 20.0))
    assert u_near > u_far
    assert u_far >= 0.0


def test_policy_vectorized_clamp_count():
    sol = solve_stopping(SP)
    x = np.linspace(0.0, 10.0, 501)
    u = sol.policy(x)
    assert u.shape == x.shape
    assert np.all(u >= 0.0)


def test_qvi_report_clean():
    sol = solve_stopping(SP)
    rep = sol.residual_report
    assert rep.stop_side_max <= 1e-12
    assert rep.pde_residual_max <= 1e-8
    assert rep.obstacle_gap_min >= -1e-12
    assert rep.u_clamp_hits == 0


def test_qvi_residual_custom_grid():
    sol = solve_stopping(SP)
    rep = qvi_residual(sol, np.linspace(0.0, 4.0, 101))
    assert rep.x_grid.shape == (101,)
    assert rep.pde_residual_max <= 1e-8


def test_solve_stopping_custom_grid():
    sol = solve_stopping(SP, n_grid=301)
    assert sol.residual_report.x_grid.shape == (301,)
    assert sol.residual_report.x_grid[-1] == sol.x0 + 10.0 / math.sqrt(SP.rho)
    assert sol.x0 == pytest.approx(X0, abs=1e-13)


@pytest.mark.parametrize("n_grid", [1, 0, -3])
def test_solve_stopping_rejects_short_grid(n_grid):
    with pytest.raises(ParamError, match="n_grid"):
        solve_stopping(SP, n_grid=n_grid)


@pytest.mark.parametrize("n_grid", [2001, 301, 2])
def test_qvi_report_residual_per_node(n_grid):
    rep = solve_stopping(SP, n_grid=n_grid).residual_report
    x, r = rep.x_grid, rep.residual
    assert r.shape == x.shape
    stop = x <= X0
    assert stop.any() and (~stop).any()
    assert np.max(r[stop]) == rep.stop_side_max
    assert np.max(np.abs(r[~stop])) == rep.pde_residual_max
    # aligned with x_grid: a one-node grid reports that node's residual
    sol = solve_stopping(SP)
    last_stop = int(np.argmax(~stop)) - 1
    for i in (0, last_stop, last_stop + 1, x.size - 1):
        one = qvi_residual(sol, x[i : i + 1])
        if stop[i]:
            assert r[i] == one.stop_side_max
        else:
            assert abs(r[i]) == one.pde_residual_max


def test_qvi_report_residual_empty_sides():
    sol = solve_stopping(SP)
    below = qvi_residual(sol, np.linspace(0.0, 1.0, 11))
    assert below.pde_residual_max == 0.0 and below.u_clamp_hits == 0
    assert below.stop_side_max == np.max(below.residual)
    above = qvi_residual(sol, np.linspace(2.0, 3.0, 11))
    assert above.stop_side_max == -math.inf
    assert above.pde_residual_max == np.max(np.abs(above.residual))
    empty = qvi_residual(sol, np.empty(0))
    assert empty.residual.shape == (0,)
    assert empty.obstacle_gap_min == math.inf


# k = 3 with gamma2 = 2*rho*gamma1: the boundary lies right of the drift
# rest point mu/rho
K3_PAIRS = [(rho, g1) for rho in (0.1, 0.5, 2.0) for g1 in (1.1, 2.0, 4.0)]


@pytest.mark.parametrize("rho,gamma1", K3_PAIRS)
def test_free_boundary_overshooting_fit(rho, gamma1):
    sp = StoppingParams(k=3.0, rho=rho, gamma1=gamma1, gamma2=2.0 * rho * gamma1)
    sol = solve_stopping(sp)
    slope = 2.0 * sp.rho + 1.0 / sp.gamma1
    assert abs((slope * sol.x0 - 2.0 * sp.mu) * u2(sol.x0, sp) - 1.0) <= 1e-14
    rep = sol.residual_report
    assert rep.stop_side_max < 0
    assert rep.pde_residual_max <= 1e-14
    assert rep.obstacle_gap_min >= 0
    assert rep.u_clamp_hits == 0
    assert float(sol.policy(sol.x0)) == pytest.approx(sol.x0 / gamma1, abs=1e-14)


def test_free_boundary_overshooting_fit_against_dp():
    # u(x0) = x0/gamma1 ~ 0.77 lies inside the oracle's control grid
    sp = StoppingParams(k=3.0, rho=0.5, gamma1=4.0, gamma2=4.0)
    sol = solve_stopping(sp)
    res = dp_qvi_stopping(sp, Grid2D(0.0, 5.4, 1081, 16), np.linspace(0.0, 1.0, 101))
    assert res.converged
    assert abs(res.boundary_hat - sol.x0) <= 1e-2
    y = sol.x0 + 0.5
    assert res.value_at(y) == pytest.approx(float(sol.value(y)), rel=2e-3)


@pytest.mark.parametrize("k, rho", [(1e12, 1e300), (1e300, 1e12), (1e150, 1e300)])
def test_free_boundary_overflowing_drift_is_stable_range_error(k, rho):
    # mu = rho*k overflows, so Newton's method has no finite start point
    sp = StoppingParams(k=k, rho=rho, gamma1=1.5, gamma2=2.0 * rho * 1.5)
    with pytest.raises(StableRangeError, match="not finite"):
        solve_stopping(sp)


def _params(triples):
    """StoppingParams from (k, rho, gamma1 - 1) triples, gamma2 = 2*rho*gamma1."""
    for k, rho, g in triples:
        k, rho, gamma1 = float(k), float(rho), 1.0 + float(g)
        yield StoppingParams(k=k, rho=rho, gamma1=gamma1, gamma2=2.0 * rho * gamma1)


def _assert_certified(sp, x0):
    """The fit function is 0 at x0, or changes sign between x0 and its
    neighbouring float toward the root, with the smaller |f| at x0; or x0
    is Newton's start point lo, where rounding already makes f >= 0."""
    f0 = stopping._fit(x0, sp)[0]
    if f0 > 0 and x0 == 2.0 * sp.mu / (2.0 * sp.rho + 1.0 / sp.gamma1):
        return
    if f0 != 0:
        f1 = stopping._fit(math.nextafter(x0, -math.inf if f0 > 0 else math.inf), sp)[0]
        assert (f0 < 0 < f1 or f1 < 0 < f0) and abs(f0) <= abs(f1), (sp, x0, f0, f1)


def _fit_visits(sp, monkeypatch):
    """(the points free_boundary evaluates the fit at, in order, x0)."""
    xs = []
    fit = stopping._fit

    def recording_fit(x, sp):
        xs.append(x)
        return fit(x, sp)

    with monkeypatch.context() as m:
        m.setattr(stopping, "_fit", recording_fit)
        x0, _ = free_boundary(sp)
    return xs, x0


def test_free_boundary_root_is_best_float():
    # every one of these draws solves
    rng = np.random.default_rng(20)
    for sp in _params(np.exp(rng.uniform(-4.0, 3.0, 3)) for _ in range(1003)):
        _assert_certified(sp, free_boundary(sp)[0])


def test_free_boundary_log_uniform_sweep():
    # k, rho and gamma1 - 1 log-uniform over 1e-3..1e3: every draw solves,
    # and the value is finite to the right of the boundary
    rng = np.random.default_rng(1)
    for sp in _params(10.0 ** rng.uniform(-3.0, 3.0, 3) for _ in range(1500)):
        x0, _ = free_boundary(sp)
        _assert_certified(sp, x0)
        sol = StoppingSolution(params=sp, x0=x0, alpha2=math.nan)
        x = x0 + np.array([0.0, 0.1, 1.0, 10.0]) / math.sqrt(sp.rho)
        assert np.isfinite(sol.value(x)).all(), sp


ROOTS = json.loads(Path(__file__).with_name("launch_roots.json").read_text())["roots"]
# the largest distance of free_boundary's x0 from a table root, in units
# of the root's last place: 22.9 on the 1,500 sweep draws, near w0 = 2
# to 3, where the erfcx form of h cancels
ROOT_ULPS = 32


@pytest.mark.parametrize("row", ROOTS, ids=[r["note"] for r in ROOTS])
def test_free_boundary_against_reference_roots(row):
    # 50-digit roots of the exact problem, from tests/make_refs.py
    rho, gamma1 = row["rho"], row["gamma1"]
    sp = StoppingParams(k=row["k"], rho=rho, gamma1=gamma1, gamma2=2.0 * rho * gamma1)
    x0, alpha2 = free_boundary(sp)
    ref = Fraction(row["x0"])
    ulps = abs(Fraction(x0) - ref) / Fraction(math.ulp(float(ref)))
    assert ulps <= ROOT_ULPS, (row, x0, float(ulps))
    assert 0.0 <= alpha2 < math.inf


def _asymptote_root(sp):
    """xa with xa*(xa - mu/rho) = gamma1."""
    half = 0.5 * sp.mu / sp.rho
    return half + math.hypot(half, math.sqrt(sp.gamma1))


def test_free_boundary_climbs_from_the_left(monkeypatch):
    # the fit at xa, then once at x1, one float left of xa's tangent step,
    # where f < 0; Newton's method from x1 climbs: the points with f < 0
    # rise, those past a root rounding made f > 0 at fall
    xs, x0 = _fit_visits(SP, monkeypatch)
    xa = _asymptote_root(SP)
    assert xs[0] == xa and xs[1] < x0 < xa and xs.count(xs[1]) == 1
    lo = 2.0 * SP.mu / (2.0 * SP.rho + 1.0 / SP.gamma1)
    steps = xs[1:]
    assert steps[0] > lo and len(steps) <= 6
    below = [x for x in steps if stopping._fit(x, SP)[0] < 0]
    above = [x for x in steps if x not in below]
    assert below == sorted(below) and above == sorted(above, reverse=True)
    assert max(below) < min(above) and x0 in (max(below), min(above))


def test_free_boundary_starts_at_lo_where_the_tangent_step_overshoots(monkeypatch):
    # large k, small rho: the root is at w = -31.5, far from the w > 0
    # asymptote, and xa's tangent step does not pass lo = 2*mu/slope, where
    # the fit rounds to 0 (u2 overflows there) and the iteration ends
    sp = StoppingParams(k=1e3, rho=1e-3, gamma1=2.0, gamma2=4e-3)
    xs, x0 = _fit_visits(sp, monkeypatch)
    lo = 2.0 * sp.mu / (2.0 * sp.rho + 1.0 / sp.gamma1)
    assert xs == [_asymptote_root(sp), lo] and x0 == lo


@pytest.mark.parametrize("k, rho, gamma1", [(1.0, 1.0, 1e60), (0.5, 2.0, 1e70),
                                            (1.0, 1.0, 1e200)])
def test_free_boundary_near_the_asymptote_solves(k, rho, gamma1, monkeypatch):
    # rho*gamma1 past about 1e55: the root lies near xa, far right of lo,
    # where Newton's method from lo only doubled its step and stopped at
    # its 100-step cap with a SolverError
    sp = StoppingParams(k=k, rho=rho, gamma1=gamma1, gamma2=2.0 * rho * gamma1)
    xs, x0 = _fit_visits(sp, monkeypatch)
    assert len(xs) <= 6
    _assert_certified(sp, x0)
    xa = _asymptote_root(sp)
    assert xa * (1.0 - 1e-15) <= x0 <= xa


def test_free_boundary_non_finite_fit_value_is_stable_range_error(monkeypatch):
    # a NaN on a Newton step past the start
    xs, _ = _fit_visits(SP, monkeypatch)
    bad = xs[3]
    assert bad not in xs[:3]
    fit = stopping._fit
    monkeypatch.setattr(stopping, "_fit",
                        lambda x, sp: (math.nan, 1.0) if x == bad else fit(x, sp))
    with pytest.raises(StableRangeError, match="not finite at x"):
        free_boundary(SP)


def test_free_boundary_past_iteration_cap_is_solver_error(monkeypatch):
    monkeypatch.setattr(stopping, "NEWTON_MAXITER", 1)
    with pytest.raises(SolverError, match="did not converge in 1 steps"):
        free_boundary(SP)


@pytest.mark.parametrize("rho", [1e-100, 2e-193, 5e-324])
def test_tiny_rho_solves_where_u2_overflows(rho):
    # u2's scale sqrt(pi)/(2*sqrt(rho)) ~ 1e161 times erfcx(-26) ~ 1e294
    # overflows; the solver never forms it
    sp = StoppingParams(k=1.0, rho=rho, gamma1=2.0, gamma2=4.0 * rho)
    x0, alpha2 = free_boundary(sp)
    # x0 ~ 2*gamma1*sqrt(rho)/sqrt(pi) with w0 ~ -sqrt(rho)*k ~ 0
    assert x0 == pytest.approx(4.0 * math.sqrt(rho) / math.sqrt(math.pi), rel=1e-9)
    sol = StoppingSolution(params=sp, x0=x0, alpha2=alpha2)
    assert float(sol.policy(x0)) == pytest.approx(x0 / 2.0, rel=1e-12)
    assert np.isfinite(sol.value(np.array([2.0 * x0, 1.0, 1e100]))).all()
    with pytest.raises(StableRangeError, match="u2 overflows"):
        u2(sp.mu / sp.rho - 27.0 / math.sqrt(rho), sp)


@pytest.mark.parametrize("k, rho, gamma1", [(3.2e53, 9.224e-321, 2.04),
                                            (0.0264, 3.57e-310, 8.15)])
def test_tiny_rho_verification_grid_is_stable_range_error(k, rho, gamma1):
    # the boundary solves, but the verification grid reaches
    # x0 + 10/sqrt(rho) > 1e155, whose x^2 overflows
    sp = StoppingParams(k=k, rho=rho, gamma1=gamma1, gamma2=2.0 * rho * gamma1)
    assert 0.0 < free_boundary(sp)[0] < 1e-150
    with pytest.raises(StableRangeError, match="x\\^2 overflows"):
        solve_stopping(sp, n_grid=65)


def test_obstacle_overflow_is_stable_range_error():
    sol = solve_stopping(SP)
    for x in (1e200, np.array([0.0, -1e200])):
        with pytest.raises(StableRangeError, match="x\\^2 overflows"):
            sol.value(x)
        with pytest.raises(StableRangeError, match="x\\^2 overflows"):
            qvi_residual(sol, np.atleast_1d(x))
    assert math.isfinite(sol.value(stopping.X_MAX))


def test_qvi_residual_overflow_is_stable_range_error():
    # the stop-side expression (2*rho + 1/gamma1)*x^2 overflows at x ~ 1e121
    g = 1.942396122047502e123
    sp = StoppingParams(k=g, rho=g, gamma1=g, gamma2=2.0 * g * g)
    with pytest.raises(StableRangeError, match="qvi_residual"):
        solve_stopping(sp, n_grid=65)


def test_alpha2_underflow_solves():
    # exp(-x0^2/(2*gamma1)) underflows to 0 with x0 ~ 770 and gamma1 = 8:
    # alpha2 rounds to 0, and the value, which no longer reads it, is finite
    sp = StoppingParams(k=770.0, rho=5e4, gamma1=8.0, gamma2=2.0 * 5e4 * 8.0)
    sol = solve_stopping(sp, n_grid=65)
    assert sol.alpha2 == 0.0
    rep = sol.residual_report
    assert rep.u_clamp_hits == 0 and rep.obstacle_gap_min >= 0
    assert rep.pde_residual_max <= 1e-9 * sp.gamma2
    assert np.isfinite(sol.value(sol.x0 + np.array([0.0, 0.01, 1.0]))).all()


def test_root_where_erfcx_overflows():
    # w0 = -30: erfcx(w0) overflows, and h = -w0 to rounding
    sp = StoppingParams(k=120.0, rho=1.0, gamma1=1.5, gamma2=3.0)
    sol = solve_stopping(sp, n_grid=65)
    w0 = sol.x0 - 120.0
    assert w0 == pytest.approx(-30.0, abs=1e-12)
    assert float(sol.policy(sol.x0)) == pytest.approx(-2.0 * w0, rel=1e-15)
    assert float(sol.policy(sol.x0)) == pytest.approx(sol.x0 / sp.gamma1, rel=1e-15)
    assert sol.residual_report.obstacle_gap_min >= 0


def test_policy_at_plus_infinity_is_zero():
    # h(+inf) = 0: no inf - inf, no warning
    sol = solve_stopping(SP)
    assert sol.policy(math.inf) == 0.0
    y = np.array([sol.x0 + 1.0, math.inf, 2.0, math.inf, 0.0])
    u = sol.policy(y)
    assert u[1] == 0.0 and u[3] == 0.0
    assert u[0] > 0 and u[2] > 0 and u[4] == 0.0
    assert u[0] == sol.policy(sol.x0 + 1.0) and u[2] == sol.policy(2.0)
