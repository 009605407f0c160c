import math

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
    dp_qvi_stopping,
    free_boundary,
    qvi_residual,
    solve_stopping,
    stopping_policy,
    stopping_value,
    u2,
    u2_prime,
    u2_second,
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


def test_u2_derivative_identities():
    # u2' = 2 rho (x - mu/rho) u2 - 1 and the second derivative recursion
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = rng.uniform(-2.0, 6.0)
        w2 = 2.0 * SP.rho * (x - SP.mu / SP.rho)
        assert u2_prime(x, SP) == pytest.approx(w2 * u2(x, SP) - 1.0, rel=1e-11, abs=1e-11)
        assert u2_second(x, SP) == pytest.approx(
            2.0 * SP.rho * u2(x, SP) + w2 * u2_prime(x, SP), rel=1e-11, abs=1e-11
        )


def test_u2_finite_difference():
    h = 1e-6
    for x in (0.5, 1.36, 3.0):
        fd = (u2(x + h, SP) - u2(x - h, SP)) / (2 * h)
        assert u2_prime(x, SP) == pytest.approx(fd, abs=1e-8)


def test_u2_vectorized():
    x = np.array([0.5, 1.0, 2.0])
    v = u2(x, SP)
    assert v.shape == (3,)
    assert v[0] == u2(0.5, SP)
    assert isinstance(u2(1.0, SP), float)


def test_u2_stable_range_guard():
    with pytest.raises(StableRangeError, match="-26"):
        u2(SP.mu / SP.rho - 40.0, SP)


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
    rep = qvi_residual(sol, SP, np.linspace(0.0, 4.0, 101))
    assert rep.x_grid.shape == (101,)
    assert rep.pde_residual_max <= 1e-8


def test_standalone_value_policy_wrappers():
    sol = solve_stopping(SP)
    assert stopping_value(sol, SP, 2.0) == float(sol.value(2.0))
    assert stopping_policy(sol, SP, 2.0) == float(sol.policy(2.0))


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
        one = qvi_residual(sol, SP, x[i : i + 1])
        if stop[i]:
            assert r[i] == one.stop_side_max
        else:
            assert abs(r[i]) == one.pde_residual_max


def test_qvi_report_residual_empty_sides():
    sol = solve_stopping(SP)
    below = qvi_residual(sol, SP, np.linspace(0.0, 1.0, 11))
    assert below.pde_residual_max == 0.0 and below.u_clamp_hits == 0
    assert below.stop_side_max == np.max(below.residual)
    above = qvi_residual(sol, SP, np.linspace(2.0, 3.0, 11))
    assert above.stop_side_max == -math.inf
    assert above.pde_residual_max == np.max(np.abs(above.residual))
    empty = qvi_residual(sol, SP, np.empty(0))
    assert empty.residual.shape == (0,)
    assert empty.obstacle_gap_min == math.inf


# k = 3 with gamma2 = 2*rho*gamma1: the fit function changes sign once,
# overshoots, and falls back toward its positive asymptote
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
    # mu = rho*k overflows, so the bracket has no finite end; the bracket
    # check rejects it before any root step sees a NaN fit value
    sp = StoppingParams(k=k, rho=rho, gamma1=1.5, gamma2=2.0 * rho * 1.5)
    with pytest.raises(StableRangeError, match="not finite"):
        solve_stopping(sp)


def _patch_fit_value(monkeypatch, change):
    """Replace the fit value f at x by change(x, f), keeping its derivative."""
    fit = stopping._fit_lhs

    def patched(x, sp):
        f, df = fit(x, sp)
        return change(np.asarray(x), f), df

    monkeypatch.setattr(stopping, "_fit_lhs", patched)


def test_free_boundary_rejects_non_finite_fit_samples(monkeypatch):
    _patch_fit_value(monkeypatch, lambda x, f: np.where(x > 2.0, np.nan, f))
    with pytest.raises(StableRangeError, match="not finite"):
        free_boundary(SP)


def test_free_boundary_rejects_second_sign_change(monkeypatch):
    # a dip below zero between the root and the bracket's right end
    _patch_fit_value(monkeypatch, lambda x, f: f - 5.0 * np.exp(-(((x - 2.0) / 0.1) ** 2)))
    with pytest.raises(SolverError, match="not be unique"):
        free_boundary(SP)


def _params(triples):
    """StoppingParams from (k, rho, gamma1 - 1) triples, gamma2 = 2*rho*gamma1."""
    for k, rho, g in triples:
        k, rho, gamma1 = float(k), float(rho), 1.0 + float(g)
        yield StoppingParams(k=k, rho=rho, gamma1=gamma1, gamma2=2.0 * rho * gamma1)


def _assert_certified(sp, x0):
    """The fit function is 0 at x0, or changes sign between x0 and its
    neighbouring float toward the root, with the smaller |f| at x0."""
    f0 = stopping._fit_lhs(x0, sp)[0]
    if f0 != 0:
        f1 = stopping._fit_lhs(math.nextafter(x0, -math.inf if f0 > 0 else math.inf), sp)[0]
        assert (f0 < 0 < f1 or f1 < 0 < f0) and abs(f0) <= abs(f1), (sp, x0, f0, f1)


def _root_visits(sp, monkeypatch):
    """(lo, hi, the points _newton_root evaluates the fit at, in order, x0)
    of free_boundary's solve for sp."""
    seen = []
    root = stopping._newton_root

    def recording_root(f, a, b):
        xs = []
        seen.append((a, b, xs))

        def recording_f(x):
            xs.append(x)
            return f(x)

        return root(recording_f, a, b)

    with monkeypatch.context() as m:
        m.setattr(stopping, "_newton_root", recording_root)
        x0, _ = free_boundary(sp)
    return seen[0] + (x0,)


def test_free_boundary_root_is_best_float():
    # every one of these draws solves
    rng = np.random.default_rng(20)
    for sp in _params(np.exp(rng.uniform(-4.0, 3.0, 3)) for _ in range(1003)):
        _assert_certified(sp, free_boundary(sp)[0])


def test_free_boundary_log_uniform_sweep():
    # k, rho and gamma1 - 1 log-uniform over 1e-3..1e3: the draws that
    # do not solve have a root at or past the edge of u2's stable range,
    # or an alpha2 that underflows, and raise StableRangeError
    rng = np.random.default_rng(1)
    solved = 0
    for sp in _params(10.0 ** rng.uniform(-3.0, 3.0, 3) for _ in range(1500)):
        try:
            x0, _ = free_boundary(sp)
        except StableRangeError:
            continue
        _assert_certified(sp, x0)
        solved += 1
    assert solved >= 1300


def test_free_boundary_agrees_with_brentq(monkeypatch):
    from scipy.optimize import brentq
    xtol, rtol = 2e-12, 4 * np.finfo(float).eps  # brentq's defaults
    rng = np.random.default_rng(20)
    for sp in _params(np.exp(rng.uniform(-4.0, 3.0, 3)) for _ in range(1003)):
        lo, hi, _, x0 = _root_visits(sp, monkeypatch)
        theirs = brentq(lambda x: stopping._fit_lhs(x, sp)[0], lo, hi, xtol=xtol, rtol=rtol)
        assert abs(x0 - theirs) <= xtol + rtol * abs(theirs), sp


def test_newton_root_non_finite_fit_value_is_stable_range_error(monkeypatch):
    # NaN at the first point past the bracket ends, which is not a node of
    # the 64-point sample grid, so only the root step sees it
    lo, hi, xs, _ = _root_visits(SP, monkeypatch)
    bad = xs[2]
    assert bad not in np.linspace(lo, hi, 64)
    _patch_fit_value(monkeypatch, lambda x, f: np.where(x == bad, np.nan, f)[()])
    with pytest.raises(StableRangeError, match="not finite at x"):
        free_boundary(SP)


def test_newton_root_past_iteration_cap_is_solver_error(monkeypatch):
    monkeypatch.setattr(stopping, "NEWTON_MAXITER", 1)
    with pytest.raises(SolverError, match="did not converge in 1 steps"):
        free_boundary(SP)


def test_newton_root_without_sign_change_is_solver_error():
    with pytest.raises(SolverError, match="negative to positive"):
        stopping._newton_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0)


@pytest.mark.parametrize("rho", [1e-100, 2e-193, 5e-324])
def test_u2_floor_keeps_tiny_rho_finite(rho):
    # the scale sqrt(pi)/(2*sqrt(rho)) ~ 1e161 times erfcx(-26) ~ 1e294
    # overflowed with a warning; the floor on w rises for such rho
    sp = StoppingParams(k=1.0, rho=rho, gamma1=2.0, gamma2=4.0 * rho)
    floor = sp.w_floor
    assert -stopping.W_STABLE < floor
    at_floor = sp.mu / sp.rho + floor / math.sqrt(rho)
    assert math.isfinite(u2(at_floor, sp))
    with pytest.raises(StableRangeError, match="stable range"):
        u2(sp.mu / sp.rho - 25.9 / math.sqrt(rho), sp)


@pytest.mark.parametrize("k, rho, gamma1, match", [
    # the fit function overflows on the bracket samples
    (3.2e53, 9.224e-321, 2.04, "not finite"),
    # the verification grid reaches x0 + 10/sqrt(rho) ~ 5e155, whose x^2 overflows
    (0.0264, 3.57e-310, 8.15, "x\\^2 overflows"),
])
def test_tiny_rho_is_stable_range_error(k, rho, gamma1, match):
    sp = StoppingParams(k=k, rho=rho, gamma1=gamma1, gamma2=2.0 * rho * gamma1)
    with pytest.raises(StableRangeError, match=match):
        solve_stopping(sp, n_grid=65)


def test_obstacle_overflow_is_stable_range_error():
    sol = solve_stopping(SP)
    for x in (1e200, np.array([0.0, -1e200])):
        with pytest.raises(StableRangeError, match="x\\^2 overflows"):
            sol.value(x)
        with pytest.raises(StableRangeError, match="x\\^2 overflows"):
            qvi_residual(sol, SP, np.atleast_1d(x))
    assert math.isfinite(sol.value(stopping.X_MAX))


def test_free_boundary_alpha2_underflow_is_stable_range_error():
    # exp(-x0^2/(2*gamma1)) underflows to 0 with x0 ~ 770 and gamma1 ~ 8,
    # so alpha2 = 0 and the value -2*gamma1*log(alpha2*u2) would be +inf
    sp = StoppingParams(k=770.0, rho=5e4, gamma1=8.0, gamma2=2.0 * 5e4 * 8.0)
    with pytest.raises(StableRangeError, match="alpha2"):
        free_boundary(sp)
