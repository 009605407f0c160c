import math
import time

import numpy as np
import pytest

import adkit.lq
from adkit import (
    ModelParams,
    ParamError,
    PolicyError,
    SolverError,
    StableRangeError,
    classify_wellposedness,
    closed_loop_coeffs,
    closed_loop_mean,
    lq_feedback,
    riccati_coeffs,
    riccati_integrate,
    riccati_sigma2_zero,
    riccati_sigma2_zero_blow,
)

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


def test_case_v_flagged_unreachable():
    # force a negative discriminant by hand; no model instance reaches it
    from adkit import RiccatiCoeffs

    forced = RiccatiCoeffs(
        a1=-1.0, a2=1.0, a3=-1.0, a4=0.3,
        zeta=1.0 - 4.0, xi_small=math.nan, xi_large=math.nan,
    )
    rep = classify_wellposedness(forced, 0.5)
    assert rep.case_label == "v"
    assert rep.unreachable
    assert math.isfinite(rep.T_max)


def test_classification_case_i():
    sol = riccati_integrate(P5)
    assert sol.classification.case_label == "i"
    assert sol.classification.well_posed_closed_form
    assert sol.classification.T_max == math.inf
    assert not sol.classification.unreachable


def test_classification_case_ii_horizon():
    sol = riccati_integrate(P_ILL)
    rep = sol.classification
    assert rep.case_label == "ii"
    assert rep.T_max == pytest.approx(0.0588915178281918, abs=1e-12)
    assert not rep.well_posed_closed_form
    # literal reading of the companion conditions disagrees here
    assert rep.printed_well_posed is True
    assert not rep.printed_form_agrees


def test_classification_case_iii_double_root():
    # sigma1^2 = 2*rho collapses the discriminant
    rho = 0.5
    s1 = math.sqrt(2 * rho)
    p = ModelParams(rho=rho, c=0.0, T=5.0, sigma1=s1, sigma2=1.0, gamma0=0.5)
    co = riccati_coeffs(p)
    rep = classify_wellposedness(co, p.T)
    assert rep.zeta == pytest.approx(0.0, abs=1e-12)
    assert rep.case_label in ("iii", "iv")
    if rep.case_label == "iii":
        assert math.isfinite(rep.T_max)


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
])
def test_bernoulli_blow_time_out_of_range(p):
    with pytest.raises(StableRangeError):
        riccati_sigma2_zero_blow(p)


def test_degenerate_sigma2_label():
    sol = riccati_integrate(P_BERN)
    assert sol.case_label == "degenerate-sigma2"
    assert sol.classification is None


def test_tolerance_scales_residual():
    loose = riccati_integrate(P5, tol=1e-6)
    tight = riccati_integrate(P5, tol=1e-10)
    assert tight.max_midpoint_residual < loose.max_midpoint_residual
    assert float(tight.P[0]) == pytest.approx(P5_P0, abs=1e-11)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_integrate_rejects_bad_tolerance(tol):
    with pytest.raises(ParamError, match="tol"):
        riccati_integrate(P5, tol=tol)


@pytest.mark.parametrize("n_nodes", [1, 0])
def test_integrate_rejects_too_few_nodes(n_nodes):
    with pytest.raises(ParamError, match="n_nodes"):
        riccati_integrate(P5, n_nodes=n_nodes)


@pytest.mark.parametrize("p, error, match", [
    # sigma1**2 overflows in the right-hand side; sigma2 = 0 skips riccati_coeffs.
    # This was a raw OverflowError
    (ModelParams(rho=1e150, c=1e300, T=1.0, sigma1=1e300, gamma0=1e-300, m=1e12),
     StableRangeError, "right-hand side overflows"),
    # 1 - gamma0*sigma2^2 is one rounding unit, and solve_ivp's event root
    # finding raised a raw ValueError ("f(a) and f(b) must have different signs")
    (ModelParams(rho=0.5, c=1e-300, T=1e-12, sigma0=1e12, sigma1=0.5, sigma2=1e150,
                 gamma0=1e-300, m=1e12),
     SolverError, "Riccati integration failed"),
    # the right-hand side at P(T) = -1e300 is not finite, so the step size
    # went NaN and the integration ran for minutes
    (ModelParams(rho=1e12, c=0.0, T=1e-300, sigma0=1e-12, sigma1=0.5, gamma0=1e300,
                 m=1e-300),
     SolverError, "right-hand-side evaluations"),
    # the denominator event fires at T itself, which left an empty grid and
    # a NaN max_midpoint_residual
    (ModelParams(rho=1e-300, c=1e-12, T=1.0, sigma0=1.0, sigma1=0.5, sigma2=1e150,
                 gamma0=1e-300, m=0.5),
     SolverError, "fails at T itself"),
])
def test_integrate_extreme_inputs_raise_in_bounded_time(p, error, match):
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        riccati_integrate(p)
    assert time.perf_counter() - start < 10.0


def test_integrate_evaluation_budget(monkeypatch):
    # P5 (the criterion-8 instance) takes 308 evaluations
    monkeypatch.setattr(adkit.lq, "MAX_NFEV", 300)
    with pytest.raises(SolverError, match="more than 300"):
        riccati_integrate(P5)
    monkeypatch.setattr(adkit.lq, "MAX_NFEV", 308)
    assert float(riccati_integrate(P5).P[0]) == P5_P0


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


def test_feedback_refused_when_ill_posed():
    sol = riccati_integrate(P_ILL)
    with pytest.raises(SolverError):
        lq_feedback(sol, P_ILL)
    with pytest.raises(SolverError):
        closed_loop_coeffs(sol, P_ILL, 0.95)


def test_closed_loop_coeffs_identity():
    sol = riccati_integrate(P5)
    a0, c0 = closed_loop_coeffs(sol, P5, 0.0)
    g0 = float(sol.gain_at(0.0))
    # a - gain = -rho exactly, and the noise loading follows the same gain
    assert a0 - g0 == -P5.rho
    assert c0 == pytest.approx(0.2 + 0.5 * g0, abs=1e-14)
    with pytest.raises(PolicyError):
        closed_loop_coeffs(sol, P5, -0.5)


def test_closed_loop_one_formula():
    sol = riccati_integrate(P5)
    G, a, c = sol.closed_loop(sol.t)
    assert np.array_equal(G, sol.gain_at(sol.t))
    a_t, c_t = closed_loop_coeffs(sol, P5, sol.t)
    assert np.array_equal(a, a_t) and np.array_equal(c, c_t)
    # an ill-posed instance keeps its coefficients on the retained grid
    ill = riccati_integrate(P_ILL)
    G, a, c = ill.closed_loop(ill.t)
    assert np.all(np.isfinite(G)) and G.shape == ill.t.shape
    assert np.array_equal(a, -P_ILL.rho + G)
    assert np.array_equal(c, P_ILL.sigma1 + P_ILL.sigma2 * G)


def test_closed_loop_mean_reference():
    sol = riccati_integrate(P5)
    vals = closed_loop_mean(sol, P5, np.array([0.0, 0.5, 1.0]))
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
        a_k, _ = closed_loop_coeffs(sol, P5, float(t[k]))
        x *= 1.0 + a_k * dt
    assert closed_loop_mean(sol, P5, 1.0) == pytest.approx(x, abs=5e-5)


def test_value_negates_P():
    sol = riccati_integrate(P5)
    # v(t, x) = -P(t) x^2; spot-check positivity and scaling
    v0 = -float(sol.P[0])
    assert v0 > 0
    assert v0 == pytest.approx(-P5_P0, abs=1e-9)
