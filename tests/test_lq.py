import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adkit import (
    AdkitError,
    ModelParams,
    ParamError,
    PolicyError,
    SolverError,
    StableRangeError,
    closed_loop_mean,
    lq_feedback,
    riccati_integrate,
    riccati_oracle,
    riccati_sigma2_zero,
    u_max_oracle,
)
from paper_forms import riccati_coeffs, riccati_sigma2_zero_blow

# well-posed reference instance
P5 = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
P5_P0 = -0.29692583966290625
P5_G0 = 0.35280786663960795

# horizon too long for this terminal weight: finite-time blow-down
P_ILL = ModelParams(rho=0.5, c=0.0, T=1.0, sigma2=1.0, gamma0=0.75)
P_ILL_TBLOW = 0.9411084821718082

# sigma2 = 0 Bernoulli instance with elementary solution
P_BERN = ModelParams(rho=0.5, c=0.0, T=1.0, gamma0=0.5)


def test_coeffs_reference():
    co = riccati_coeffs(P5)
    s1, s2, rho = 0.2, 0.5, 0.5
    assert co.a1 == pytest.approx(-2 * rho - 2 * s1 / s2 - 1 / s2 ** 2)
    assert co.a2 == pytest.approx(2 * rho + s1 ** 2 + 2 / s2 ** 2 + 4 * s1 / s2)
    assert co.a3 == pytest.approx(-((s1 + 1 / s2) ** 2))
    assert co.a4 == pytest.approx(1 - 0.5 * s2 ** 2)


def test_coeffs_reject_bad_params():
    with pytest.raises(ParamError, match="sigma2 > 0"):
        riccati_coeffs(ModelParams(rho=0.5, c=0.0, T=1.0, sigma2=0.0))
    with pytest.raises(ParamError, match=r"1 - gamma0\*sigma2\^2 > 0"):
        riccati_coeffs(ModelParams(rho=0.5, c=0.0, T=1.0, sigma2=2.0, gamma0=0.3))


def test_coeffs_sigma2_square_overflow_is_adkit_error():
    # sigma2**2 used to raise a raw OverflowError before any check
    p = ModelParams(rho=1.0, c=0.0, T=1.0, sigma2=1e300)
    with pytest.raises(StableRangeError, match="sigma2"):
        riccati_coeffs(p)
    with pytest.raises(StableRangeError, match="sigma2"):
        riccati_integrate(p)


def test_zeta_identity_random():
    # discriminant collapses to (2*rho - sigma1^2)^2 for every instance
    rng = np.random.default_rng(21)
    for _ in range(1000):
        rho = rng.uniform(0.05, 3.0)
        s1 = rng.uniform(0.0, 2.0)
        s2 = rng.uniform(0.05, 3.0)
        g0 = rng.uniform(0.05, 0.95) / s2 ** 2
        p = ModelParams(rho=rho, c=0.0, T=1.0, sigma1=s1, sigma2=s2, gamma0=g0)
        co = riccati_coeffs(p)
        target = (2 * rho - s1 ** 2) ** 2
        assert abs(co.zeta - target) <= 1e-9 * max(1.0, abs(target))


def test_classification_case_i():
    sol = riccati_integrate(P5)
    assert sol.classification.case_label == "i"
    assert sol.classification.well_posed_closed_form
    assert sol.classification.T_max == math.inf


def test_classification_case_ii_horizon():
    sol = riccati_integrate(P_ILL)
    rep = sol.classification
    assert rep.case_label == "ii"
    assert rep.T_max == pytest.approx(0.0588915178281918, abs=1e-12)
    assert not rep.well_posed_closed_form


def test_classification_case_iii_double_root():
    # sigma1^2 = 2*rho collapses the discriminant: alpha = 0, and every
    # terminal weight blows down
    p = ModelParams(rho=0.5, c=0.0, T=5.0, sigma1=1.0, sigma2=1.0, gamma0=0.5)
    sol = riccati_integrate(p)
    rep = sol.classification
    assert rep.zeta == 0.0 and rep.case_label == "iii"
    assert math.isfinite(rep.T_max) and not rep.well_posed_closed_form
    assert p.T - sol.t_blow == pytest.approx(rep.T_max, rel=1e-14)


def test_integrate_reference_instance():
    sol = riccati_integrate(P5)
    assert sol.well_posed
    assert sol.t_blow is None
    assert sol.P[-1] == -P5.gamma
    assert float(sol.P[0]) == pytest.approx(P5_P0, abs=1e-9)
    assert sol.max_midpoint_residual <= 1e-7
    # min-form solution stays negative and the denominator positive
    assert np.all(sol.P < 0)
    assert np.all(sol.D_at(sol.t) > 0)


def test_gain_reference_and_terminal():
    sol = riccati_integrate(P5)
    assert float(sol.gain_at(sol.t[0])) == pytest.approx(P5_G0, abs=1e-8)
    g_T = (1 + 0.2 * 0.5) * P5.gamma / (math.exp(-0.1) - 0.25 * P5.gamma)
    assert float(sol.gain_at(P5.T)) == pytest.approx(g_T, abs=1e-10)
    assert np.all(np.asarray(sol.gain_at(sol.t)) >= 0)


def test_blow_down_detected():
    sol = riccati_integrate(P_ILL)
    assert not sol.well_posed
    assert sol.t_blow == pytest.approx(P_ILL_TBLOW, abs=1e-7)
    # retained nodes stay on the good side
    assert sol.t[0] > P_ILL_TBLOW - 1e-6
    assert np.all(np.asarray(sol.D_at(sol.t)) > 0)


def test_blow_down_matches_closed_form_horizon():
    # shrink T below the closed-form bound and the instance becomes solvable
    rep = riccati_integrate(P_ILL).classification
    p_ok = ModelParams(rho=0.5, c=0.0, T=0.9 * rep.T_max, sigma2=1.0, gamma0=0.75)
    assert riccati_integrate(p_ok).well_posed


def test_bernoulli_closed_form_agreement():
    sol = riccati_integrate(P_BERN)
    exact = riccati_sigma2_zero(P_BERN, sol.t)
    assert float(np.max(np.abs(sol.P - exact))) <= 1e-8
    assert riccati_sigma2_zero(P_BERN, 0.0) == pytest.approx(-1.0 / (math.e + 1.0), abs=1e-15)


def test_bernoulli_requires_sigma2_zero():
    with pytest.raises(ParamError, match="sigma2 = 0"):
        riccati_sigma2_zero(P5, 0.0)


def test_bernoulli_blow_time():
    # large gamma0 forces Q through zero inside the horizon
    p = ModelParams(rho=2.0, c=0.0, T=1.0, gamma0=60.0)
    tb = riccati_sigma2_zero_blow(p)
    assert tb is not None and 0.0 < tb < p.T
    sol = riccati_integrate(p)
    assert not sol.well_posed
    assert sol.t_blow == pytest.approx(tb, abs=1e-6)
    # small gamma0 never blows down
    assert riccati_sigma2_zero_blow(P_BERN) is None or riccati_sigma2_zero_blow(P_BERN) < 0


@pytest.mark.parametrize("p", [
    ModelParams(rho=1e300, c=1.0, T=1.0),
    ModelParams(rho=0.5, c=1e-300, T=1e300),
    # k = 0 and gamma underflows to 0
    ModelParams(rho=0.5, c=1023.0, T=1.0, sigma1=32.0),
    # k < 0 and both exponentials underflow, so the log argument is 0
    ModelParams(rho=0.5, c=0.0, T=1000.0, sigma1=2.0),
    # sigma1^2 overflows in a = 2*rho - sigma1^2
    ModelParams(rho=1.0, c=0.0, T=1.0, sigma1=1e200),
])
def test_bernoulli_blow_time_out_of_range(p):
    with pytest.raises(StableRangeError):
        riccati_sigma2_zero_blow(p)


def test_degenerate_sigma2_label():
    sol = riccati_integrate(P_BERN)
    assert sol.case_label == "degenerate-sigma2"
    assert sol.classification is None


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_integrate_rejects_bad_tolerance(tol):
    with pytest.raises(ParamError, match="tol"):
        riccati_integrate(P5, tol=tol)


@pytest.mark.parametrize("n_nodes", [1, 0])
def test_integrate_rejects_too_few_nodes(n_nodes):
    with pytest.raises(ParamError, match="n_nodes"):
        riccati_integrate(P5, n_nodes=n_nodes)


@pytest.mark.parametrize("c, t_lo", [(1.0, -800.0), (1e-3, -1e300)])
def test_integrate_discount_overflow_at_t_lo(c, t_lo):
    # exp(-c*t) at t_lo was a raw OverflowError inside the right-hand side
    p = ModelParams(rho=0.5, c=c, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
    with pytest.raises(StableRangeError, match="t_lo"):
        riccati_integrate(p, t_lo=t_lo)


def test_partial_window_integration():
    sol = riccati_integrate(P5, t_lo=0.5)
    assert sol.t[0] == pytest.approx(0.5, abs=0)
    full = riccati_integrate(P5)
    assert float(sol.P_at(0.75)) == pytest.approx(float(full.P_at(0.75)), abs=1e-9)


def test_feedback_policy_nonnegative_and_windowed():
    sol = riccati_integrate(P5)
    pol = lq_feedback(sol, P5)
    u = pol(0.5, np.array([0.0, 1.0, 2.0]))
    assert np.all(u >= 0)
    assert u[2] == pytest.approx(2 * u[1], rel=1e-12)
    with pytest.raises(PolicyError):
        pol(1.5, 1.0)


def test_feedback_and_cap_refuse_another_models_solution():
    # the solution carries its parameters; a second copy must be the same
    sol = riccati_integrate(P5)
    other = replace(P5, T=3.0)
    with pytest.raises(ParamError, match="p == sol.params"):
        lq_feedback(sol, other)
    with pytest.raises(ParamError, match="p == sol.params"):
        u_max_oracle(other, sol)
    assert lq_feedback(sol, replace(P5)).t_hi == 1.0


def test_feedback_refused_when_ill_posed():
    sol = riccati_integrate(P_ILL)
    with pytest.raises(SolverError):
        lq_feedback(sol, P_ILL)
    with pytest.raises(SolverError):
        closed_loop_mean(sol, 0.95)


def test_closed_loop_identity():
    sol = riccati_integrate(P5)
    g0, a0, c0 = sol.closed_loop(0.0)
    assert g0 == float(sol.gain_at(0.0))
    # a - gain = -rho exactly, and the noise loading follows the same gain
    assert a0 - g0 == -P5.rho
    assert c0 == pytest.approx(0.2 + 0.5 * g0, abs=1e-14)
    with pytest.raises(PolicyError):
        closed_loop_mean(sol, -0.5)


def test_closed_loop_one_formula():
    sol = riccati_integrate(P5)
    G, a, c = sol.closed_loop(sol.t)
    assert np.array_equal(G, sol.gain_at(sol.t))
    # an ill-posed instance keeps its coefficients on the retained grid
    ill = riccati_integrate(P_ILL)
    G, a, c = ill.closed_loop(ill.t)
    assert np.all(np.isfinite(G)) and G.shape == ill.t.shape
    assert np.array_equal(a, -P_ILL.rho + G)
    assert np.array_equal(c, P_ILL.sigma1 + P_ILL.sigma2 * G)


def test_closed_loop_mean_reference():
    sol = riccati_integrate(P5)
    vals = closed_loop_mean(sol, np.array([0.0, 0.5, 1.0]))
    assert vals[0] == pytest.approx(1.0, abs=0)
    assert vals[1] == pytest.approx(0.96077216, abs=1e-6)
    assert vals[2] == pytest.approx(0.98993671, abs=1e-6)


def test_closed_loop_mean_matches_euler():
    # integrate the mean ODE crudely and compare
    sol = riccati_integrate(P5)
    n = 20000
    t = np.linspace(0.0, 1.0, n + 1)
    dt = t[1] - t[0]
    x = 1.0
    for k in range(n):
        _, a_k, _ = sol.closed_loop(float(t[k]))
        x *= 1.0 + a_k * dt
    assert closed_loop_mean(sol, 1.0) == pytest.approx(x, abs=5e-5)


def test_value_negates_P():
    sol = riccati_integrate(P5)
    # v(t, x) = -P(t) x^2; spot-check positivity and scaling
    v0 = -float(sol.P[0])
    assert v0 > 0
    assert v0 == pytest.approx(-P5_P0, abs=1e-9)


# --- the closed form against the oracle, its limits and its range ---

def test_closed_form_matches_oracle():
    sol, ref = riccati_integrate(P5), riccati_oracle(P5)
    assert np.array_equal(sol.t, ref.t)
    assert np.max(np.abs(sol.P / ref.P - 1.0)) <= 1e-10
    ill, ref = riccati_integrate(P_ILL), riccati_oracle(P_ILL)
    assert not ref.well_posed
    # the oracle stops at its guard, a little before the blow-down
    assert abs(ill.t_blow - ref.t_blow) <= 1e-6
    assert ill.t_blow < ill.t[0] < P_ILL_TBLOW + 1e-9


def test_scaled_classification_is_exact_for_discount():
    # riccati_coeffs drops c; the flow's verdict does not
    p = ModelParams(rho=0.1, c=1.0, T=5.0, sigma1=0.7, sigma2=0.5, gamma0=1.0)
    sol = riccati_integrate(p)
    rep = sol.classification
    assert rep.case_label == "ii" and not rep.well_posed_closed_form
    assert rep.T_max == pytest.approx(0.27023137140623366, rel=1e-12)
    assert p.T - sol.t_blow == pytest.approx(rep.T_max, rel=1e-12)
    # criterion 7 keeps zeta = (2*rho - sigma1^2)^2 on the unshifted coefficients
    assert riccati_coeffs(p).zeta == pytest.approx((0.2 - 0.49) ** 2, rel=1e-9)
    assert rep.zeta == pytest.approx((0.2 + 1.0 - 0.49) ** 2, rel=1e-9)


def test_exact_discounted_verdict_is_riccati_integrate_classification():
    p = ModelParams(rho=0.1, c=1.0, T=5.0, sigma1=0.7, sigma2=0.5, gamma0=1.0)
    assert riccati_integrate(p).classification.T_max == 0.27023137140623293


@pytest.mark.parametrize("sigma2", [1e-8, 1e-100])
def test_tiny_sigma2_blow_down_tends_to_sigma2_zero(sigma2):
    # the reduced coefficients cancel as sigma2 shrinks: their T_max was
    # 0.5 at sigma2 = 1e-8, and they overflowed at 1e-100
    base = dict(rho=0.1, c=0.0, T=1.0, sigma1=0.7, gamma0=1.0)
    limit = 1.0 - riccati_sigma2_zero_blow(ModelParams(**base))
    rep = riccati_integrate(ModelParams(sigma2=sigma2, **base)).classification
    assert rep.case_label == "ii"
    assert rep.T_max == pytest.approx(limit, rel=1e-7)


def test_guard_past_the_float_range_is_stable_range_error():
    # sigma2^2 is subnormal, so w at the guard, about 1e6/sigma2^2, overflows
    p = ModelParams(rho=1.5e-156, c=1.5e-156, T=1.0, sigma1=1.5e-156, sigma2=1.5e-156)
    with pytest.raises(StableRangeError, match="float range before its guard"):
        riccati_integrate(p)


def test_node_values_and_scalar_queries_agree():
    sol = riccati_integrate(P5)
    assert np.array_equal(sol.P_at(sol.t[:-1]), sol.P[:-1])
    assert sol.P[-1] == -P5.gamma
    t = np.random.default_rng(3).uniform(0.0, 1.0, 500)
    for name in ("P_at", "D_at", "gain_at"):
        fn = getattr(sol, name)
        vec = fn(t)
        one = np.array([fn(float(tk)) for tk in t])
        assert np.max(np.abs(one / vec - 1.0)) <= 1e-14, name
    # a finer grid puts nodes where the coarse one interpolates
    fine = riccati_integrate(P5, n_nodes=20001)
    assert np.max(np.abs(sol.P_at(fine.t) / fine.P - 1.0)) <= 1e-14


def test_queries_outside_the_grid_take_the_nearer_end():
    sol = riccati_integrate(P5, t_lo=0.5)
    for name in ("P_at", "D_at", "gain_at"):
        fn = getattr(sol, name)
        assert fn(0.4) == fn(0.5) and fn(1.1) == fn(1.0), name
        assert np.array_equal(fn(np.array([0.4, 0.6, 1.2])), fn(np.array([0.5, 0.6, 1.0]))), name
        for t in (math.nan, np.array([0.6, math.nan])):
            with pytest.raises(PolicyError, match="nan"):
                fn(t)
    with pytest.raises(PolicyError, match="outside"):
        closed_loop_mean(sol, 0.4)
    # P has no value before the blow-down; the retained grid starts after it
    ill = riccati_integrate(P_ILL)
    assert ill.P_at(0.0) == ill.P_at(float(ill.t[0])) == ill.P[0]


def test_alpha_zero_is_the_limit_of_its_neighbours():
    # alpha = 2*rho + c - sigma1^2 = 0 exactly
    base = dict(c=0.0, T=0.2, sigma1=1.0, sigma2=0.3, gamma0=0.5)
    sol = riccati_integrate(ModelParams(rho=0.5, **base))
    assert sol.well_posed
    assert np.max(np.abs(sol.P / riccati_oracle(ModelParams(rho=0.5, **base)).P - 1)) <= 1e-10
    for eps in (1e-12, -1e-12):
        near = riccati_integrate(ModelParams(rho=0.5 + eps / 2, **base))
        assert abs(near.P[0] / sol.P[0] - 1.0) <= 1e-11


def test_start_on_the_fixed_point_stays_there():
    # sigma2 = 0, sigma1 = 0: w(T) = gamma0 = alpha/q = 2*rho
    p = ModelParams(rho=0.5, c=0.0, T=1.0, gamma0=1.0)
    sol = riccati_integrate(p)
    assert sol.well_posed and np.all(sol.P == -1.0)
    assert riccati_sigma2_zero(p, 0.25) == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("T", [1e5, 1e8])
def test_long_horizon_underflow_is_stable_range_error(T):
    # exp(c*t)*P decays like exp(-(T - t)) toward 0; RK45 needed about
    # 3*T evaluations for this and stopped at its budget
    p = ModelParams(rho=0.5, c=1e-300, T=T, sigma2=0.3, gamma0=0.5)
    start = time.perf_counter()
    with pytest.raises(StableRangeError, match="P underflows"):
        riccati_integrate(p)
    assert time.perf_counter() - start < 1.0
    # a horizon whose P(0) is still a normal float solves
    sol = riccati_integrate(ModelParams(rho=0.5, c=1e-300, T=700.0, sigma2=0.3, gamma0=0.5))
    assert sol.well_posed and np.all(sol.P < 0) and 0 < -sol.P[0] < 1e-300


@pytest.mark.parametrize("p, outcome", [
    (ModelParams(rho=1e150, c=1e300, T=1.0, sigma1=1e300, gamma0=1e-300, m=1e12),
     "right-hand side overflows"),
    # D(T) is a few rounding units of exp(-c*T), so blow-down follows within
    # about 1e-31 of T = 1e-12, closer than the next float; the oracle failed
    # inside solve_ivp's event location here
    (ModelParams(rho=0.5, c=1e-300, T=1e-12, sigma0=1e12, sigma1=0.5, sigma2=1e150,
                 gamma0=1e-300, m=1e12), "fails at T itself"),
    (ModelParams(rho=1e12, c=0.0, T=1e-300, sigma0=1e-12, sigma1=0.5, gamma0=1e300,
                 m=1e-300), "fails at T itself"),
    (ModelParams(rho=1e-300, c=1e-12, T=1.0, sigma0=1.0, sigma1=0.5, sigma2=1e150,
                 gamma0=1e-300, m=0.5), "fails at T itself"),
])
def test_closed_form_extreme_inputs(p, outcome):
    start = time.perf_counter()
    with pytest.raises(AdkitError, match=outcome):
        riccati_integrate(p)
    assert time.perf_counter() - start < 1.0


def test_near_cancelling_denominator_solves():
    # 1 - gamma0*sigma2^2 is a few rounding units and sigma2^2*P cancels
    # exp(-c*t) in D; the oracle ended most such instances in SolverError
    rng = np.random.default_rng(86)
    solved = 0
    for _ in range(40):
        s = 10 ** rng.uniform(-3, 150)
        p = ModelParams(rho=rng.uniform(0.1, 2.0), c=float(rng.choice([0.0, 1e-300, 0.1, 1.0])),
                        T=rng.uniform(0.5, 5.0), sigma1=rng.uniform(0.0, 2.0), sigma2=s,
                        gamma0=(1.0 - int(rng.integers(1, 2 ** 39)) * 2.0 ** -53) / s ** 2)
        try:
            sol = riccati_integrate(p, n_nodes=101)
        except SolverError as e:
            assert "floats" in str(e) or "fails at T itself" in str(e)
            continue
        solved += 1
        D = sol.D_at(sol.t)
        assert np.all(sol.P < 0) and np.all(np.isfinite(sol.P)), p
        assert np.all(D > 0) and np.all(np.isfinite(sol.gain_at(sol.t))), p
        # D(T) = exp(-c*T)*a4 without cancellation
        a4 = 1.0 - p.gamma0 * p.sigma2 ** 2
        assert D[-1] == pytest.approx(math.exp(-p.c * p.T) * a4, rel=1e-12)
    assert solved >= 30


def test_stalled_inversion_is_accepted_at_tol_on_both_paths():
    # sigma2^2 = 2e108 against a4 of a few rounding units: Newton's method
    # stalls at about 2e-14 relative on some nodes and midpoints, and the
    # scalar path raised SolverError where the vector path accepted
    p = ModelParams(rho=1.000000137244776, c=0.1, T=0.35932989874456606,
                    sigma1=3.234172619707515e-296, sigma2=1.5416837991079323e+54,
                    gamma0=4.2073571812420144e-109)
    sol = riccati_integrate(p)
    tm = 0.5 * (sol.t[1:] + sol.t[:-1])
    vec = sol.P_at(tm)
    one = np.array([sol.P_at(float(t)) for t in tm])
    assert np.max(np.abs(one / vec - 1.0)) <= 1e-13
    with pytest.raises(SolverError, match="tol = 1e-16"):
        riccati_integrate(p, tol=1e-16)
    tight = replace(sol, tol=1e-16)
    with pytest.raises(SolverError, match="tol = 1e-16"):
        tight.P_at(tm)
    with pytest.raises(SolverError, match="tol = 1e-16"):
        for t in tm:
            tight.P_at(float(t))


@pytest.mark.parametrize("p", [
    # sigma1^2 overflows: a raw OverflowError
    ModelParams(rho=1.0, c=0.0, T=1.0, sigma1=1e300),
    # gamma = gamma0*exp(-c*T) underflows to 0: a raw ZeroDivisionError
    ModelParams(rho=0.5, c=1e150, T=1.0, gamma0=1e150),
    # exp(a*T) overflows: a raw OverflowError
    ModelParams(rho=1e300, c=1e-12, T=1e300),
    # exp(k*t) overflows at the array's end: a non-finite return
    ModelParams(rho=1e12, c=0.5, T=1e12),
])
def test_bernoulli_out_of_range_is_stable_range_error(p):
    for t in (0.0, np.array([0.0, p.T / 2, p.T])):
        with pytest.raises(StableRangeError, match="sigma2 = 0|gamma0|right-hand side"):
            riccati_sigma2_zero(p, t)


def test_bernoulli_rejects_non_finite_times():
    with pytest.raises(ParamError, match="t finite"):
        riccati_sigma2_zero(P_BERN, np.array([0.0, math.nan]))



RICCATI_TABLE = json.loads(Path(__file__).with_name("riccati_refs.json").read_text())
RICCATI_REFS = RICCATI_TABLE["instances"]
# 40-digit P on 41 nodes from tests/make_refs.py; the largest distances are
# 2.1 ulps (criterion-8 instance) and 4.3 ulps (random instance)
P_ULPS = 8


@pytest.mark.parametrize("inst", RICCATI_REFS, ids=[r["note"] for r in RICCATI_REFS])
def test_riccati_against_reference_table(inst):
    sol = riccati_integrate(ModelParams(**inst["model"]), n_nodes=len(inst["t"]))
    assert sol.t.tolist() == inst["t"]
    for t, P, ref in zip(inst["t"], sol.P, inst["P"]):
        ref = Fraction(ref)
        assert abs(Fraction(float(P)) - ref) <= P_ULPS * Fraction(math.ulp(float(ref))), (t, P)


# 40-digit T - t_blow from tests/make_refs.py; T_max is 2.1, 0.84 and 3.0
# ulps from it, T - t_blow 0.37, 0.24 and 3.0 ulps of max(T_max, t_blow)
T_MAX_ULPS = 4


@pytest.mark.parametrize("inst", RICCATI_TABLE["blowdown"],
                         ids=[r["note"] for r in RICCATI_TABLE["blowdown"]])
def test_blow_down_time_against_reference_table(inst):
    p = ModelParams(**inst["model"])
    sol = riccati_integrate(p)
    ref = Fraction(inst["T_max"])
    T_max = sol.classification.T_max
    assert abs(Fraction(T_max) - ref) <= T_MAX_ULPS * Fraction(math.ulp(T_max)), T_max
    # t_blow = T - T_max is rounded at the scale of the larger of the two
    ulp = Fraction(math.ulp(max(T_max, abs(sol.t_blow))))
    assert abs(Fraction(p.T) - Fraction(sol.t_blow) - ref) <= T_MAX_ULPS * ulp, sol.t_blow
