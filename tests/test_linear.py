import math

import numpy as np
import pytest

from adkit import (
    ModelParams,
    ParamError,
    SolverError,
    linear_policy,
    solve_budget,
    solve_linear,
    spend_bound,
    switch_time,
)

# reference instance used throughout; switch falls inside the horizon
P = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)

T_STAR = 0.6961307386767424
VALUE_0 = 0.68550206002251


def test_switch_time_reference():
    assert switch_time(P) == pytest.approx(T_STAR, abs=1e-15)


def test_switch_time_gamma0_one_is_exactly_T():
    p = ModelParams(rho=0.5, c=0.1, T=1.0)
    assert switch_time(p) == p.T


def test_switch_time_not_clamped():
    # strong terminal weight pushes the switch before time zero
    p = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=50.0)
    assert switch_time(p) < 0.0
    sol = solve_linear(p)
    assert sol.t_split == 0.0


def test_value_reference():
    sol = solve_linear(P)
    assert sol.value(0.0, 1.0) == pytest.approx(VALUE_0, abs=1e-14)


def test_terminal_conditions():
    sol = solve_linear(P)
    assert sol.gamma_fn(P.T) == pytest.approx(P.gamma, abs=1e-15)
    assert sol.b1_fn(P.T) == pytest.approx(0.0, abs=1e-15)
    # value at T equals the discounted terminal reward gamma*x
    assert sol.value(P.T, 2.0) == pytest.approx(P.gamma * 2.0, abs=1e-14)


def test_b1_prime_is_exact_derivative():
    sol = solve_linear(P)
    h = 1e-6
    for t in (0.1, 0.45, 0.9):
        fd = (sol.b1_fn(t + h) - sol.b1_fn(t - h)) / (2 * h)
        assert sol.b1_prime(t) == pytest.approx(fd, abs=2e-9)


def test_smooth_fit_at_switch():
    sol = solve_linear(P)
    # the switch time is where the marginal value of spend changes sign
    assert abs(sol.b1_prime(sol.t_star)) <= 1e-10
    assert sol.b1_prime(sol.t_star - 0.1) > 0
    assert sol.b1_prime(sol.t_star + 0.1) < 0


def test_b_fn_flat_before_switch():
    sol = solve_linear(P)
    v = sol.b_fn(np.array([0.0, 0.3, sol.t_split]))
    assert v[0] == v[1] == v[2]
    assert sol.b_fn(0.9) == pytest.approx(sol.b1_fn(0.9), abs=0)


def test_value_is_affine_in_state():
    sol = solve_linear(P)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0.0, P.T)
        x1, x2 = rng.uniform(0.0, 5.0, size=2)
        lhs = sol.value(t, 0.5 * (x1 + x2))
        rhs = 0.5 * (sol.value(t, x1) + sol.value(t, x2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_hjb_residual_on_both_branches():
    # v_t - rho*x*v_x + max(0, v_x - e^{-ct}) * m = 0 with v = gamma_fn*x + b
    sol = solve_linear(P)
    h = 1e-6
    for t in (0.2, 0.5, 0.8, 0.95):
        vt = (sol.value(t + h, 1.3) - sol.value(t - h, 1.3)) / (2 * h)
        vx = sol.gamma_fn(t)
        resid = vt - P.rho * 1.3 * vx + max(0.0, vx - math.exp(-P.c * t)) * P.m
        assert abs(resid) < 5e-9


def test_policy_matches_switch():
    sol = solve_linear(P)
    pol = linear_policy(sol)
    assert float(pol(sol.t_star - 0.01, 0.0)) == 0.0
    assert float(pol(sol.t_star + 0.01, 0.0)) == P.m


def test_c_zero_rejected():
    p = ModelParams(rho=0.5, c=0.0, T=1.0)
    with pytest.raises(ParamError, match="c > 0"):
        solve_linear(p)
    with pytest.raises(ParamError, match="c > 0"):
        solve_budget(p, 0.1)


# --- budget variant ---

M = 0.5
B_T_STAR = 0.4621419588865642
B_LAMBDA = 0.8003430548500416


def test_spend_bound_reference():
    assert spend_bound(P) == pytest.approx((1.0 / 0.1) * (1.0 - math.exp(-0.1)), abs=1e-15)


def test_budget_reference_values():
    sol = solve_budget(P, M)
    assert sol.t_star == pytest.approx(B_T_STAR, abs=1e-14)
    assert sol.lambda_star == pytest.approx(B_LAMBDA, abs=1e-14)
    assert sol.discounted_spend == pytest.approx(M, abs=1e-12)


def test_budget_identities_meet_tolerance():
    sol = solve_budget(P, M)
    assert abs(sol.discrepancy["spend_gap"]) <= 1e-12
    assert abs(sol.discrepancy["switch_identity_gap"]) <= 1e-12


def test_budget_alt_forms_fail_identities():
    # the companion closed forms are recorded precisely because they
    # break both defining identities by a wide margin
    sol = solve_budget(P, M)
    assert sol.discrepancy["spend_gap_alt"] > 0.1
    assert sol.discrepancy["switch_identity_gap_alt"] > 0.1
    assert sol.discrepancy["t_star_alt"] != pytest.approx(sol.t_star, abs=1e-3)
    assert sol.discrepancy["lambda_star_alt"] != pytest.approx(sol.lambda_star, rel=1e-3)


def test_budget_consumes_entire_budget_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = ModelParams(
            rho=rng.uniform(0.1, 2.0),
            c=rng.uniform(0.01, 1.0),
            T=rng.uniform(0.5, 3.0),
            m=rng.uniform(0.5, 2.0),
        )
        bound = spend_bound(p)
        sol = solve_budget(p, rng.uniform(0.05, 0.95) * bound)
        assert 0.0 <= sol.t_star < p.T
        assert sol.lambda_star > 0


def test_budget_rejects_infeasible():
    with pytest.raises(ParamError, match="M > 0"):
        solve_budget(P, 0.0)
    with pytest.raises(ParamError, match=r"M <= \(m/c\)"):
        solve_budget(P, spend_bound(P) * 1.01)


def test_budget_rejects_non_finite():
    for M in (float("nan"), float("inf")):
        with pytest.raises(ParamError, match="M finite"):
            solve_budget(P, M)


def test_budget_nan_identity_gap_is_solver_error():
    # m/c overflows, so the spend and its gap come out NaN; the identity
    # guards must not read a NaN gap as a pass
    p = ModelParams(rho=0.5, c=1e-300, T=1e-300, m=1e300)
    with pytest.raises(SolverError, match="budget identity failed"):
        solve_budget(p, 1e-300)


def test_spend_bound_finite_where_m_over_c_overflows():
    # m/c overflows; 1 - exp(-c*T) rounds to 0 in the first case, so the
    # naive product is inf * 0 = NaN, which any budget passed as feasible
    p = ModelParams(rho=0.5, c=1e-300, T=1e-300, m=1e300)
    assert spend_bound(p) == pytest.approx(1.0, rel=1e-12)
    assert spend_bound(ModelParams(rho=0.5, c=1e-10, T=1e-5, m=1e300)) == pytest.approx(
        1e295, rel=1e-12)
    with pytest.raises(ParamError, match=r"M <= \(m/c\)"):
        solve_budget(p, 1e300)


def test_budget_boundary_budget_gives_zero_switch():
    # spending the whole feasible budget means advertising from the start
    sol = solve_budget(P, spend_bound(P))
    assert sol.t_star == pytest.approx(0.0, abs=1e-12)


def test_tiny_budget_switch_near_horizon():
    sol = solve_budget(P, 1e-6)
    assert P.T - sol.t_star < 1e-4
