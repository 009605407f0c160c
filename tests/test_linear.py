import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adkit import (
    ModelParams,
    ParamError,
    SolverError,
    StableRangeError,
    linear_policy,
    solve_budget,
    solve_linear,
    spend_bound,
    switch_time,
)

# reference instance used throughout; switch falls inside the horizon
P = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)

T_STAR = 0.6961307386767424
VALUE_0 = 0.6855020600225101


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


@pytest.mark.parametrize("t", [0.5, np.array([0.0, 0.25, 0.5])])
def test_value_out_of_range_is_stable_range_error(t):
    # m*gamma/rho overflows and meets 1 - exp(0) = 0 at t = T: the value
    # used to come back NaN, with a RuntimeWarning
    sol = solve_linear(ModelParams(rho=1e150, c=0.5, T=0.5, m=1e300, gamma0=1e150))
    with pytest.raises(StableRangeError, match="linear value"):
        sol.value(t, 1.0)


@pytest.mark.parametrize("t", [0.5, np.array([0.0, 0.25, 0.5])])
@pytest.mark.parametrize("method", ["b_fn", "b1_fn", "b1_prime"])
def test_b_terms_out_of_range_are_stable_range_error(method, t):
    # the same instance: b1 and b_fn meet inf*0 at t = T, and b1_prime's
    # m*gamma overflows; each used to warn and return NaN or inf
    sol = solve_linear(ModelParams(rho=1e150, c=0.5, T=0.5, m=1e300, gamma0=1e150))
    with pytest.raises(StableRangeError, match="linear %s" % method):
        getattr(sol, method)(t)


@pytest.mark.parametrize("p", [
    # m*gamma/rho overflows at moderate rho
    ModelParams(rho=1.0, c=1e-10, T=1.0, m=1e300, gamma0=1e10),
    ModelParams(rho=1e10, c=1.0, T=1.0, m=1e300, gamma0=1e10),
    # gamma0 near the top of the range against a huge rho
    ModelParams(rho=1e300, c=0.5, T=1.0, m=1e10, gamma0=1e300),
])
def test_value_overflow_cases_are_stable_range_error(p):
    sol = solve_linear(p)
    with pytest.raises(StableRangeError, match="linear value"):
        sol.value(np.array([0.0, 0.5 * p.T, p.T]), 1.0)


def test_value_is_finite_or_stable_range_error_on_extreme_lattice():
    # parameters drawn from {0, 1e-300, ..., 1e300}: every accepted model
    # gives a finite value or raises, and none returns NaN or inf
    lattice = [0.0, 1e-300, 1e-150, 1e-10, 0.5, 1.0, 1e10, 1e150, 1e300]
    rng = np.random.default_rng(0)
    finite = raised = 0
    for _ in range(400):
        rho, c, T, m, gamma0 = (float(v) for v in rng.choice(lattice, 5))
        try:
            sol = solve_linear(ModelParams(rho=rho, c=c, T=T, m=m, gamma0=gamma0))
        except (ParamError, StableRangeError):
            continue
        try:
            v = sol.value(np.array([0.0, 0.5 * T, T]), 1.0)
        except StableRangeError:
            raised += 1
            continue
        assert np.all(np.isfinite(v))
        finite += 1
    assert finite > 0 and raised > 0


def test_policy_matches_switch():
    sol = solve_linear(P)
    pol = linear_policy(sol)
    assert float(pol(sol.t_star - 0.01, 0.0)) == 0.0
    assert float(pol(sol.t_star + 0.01, 0.0)) == P.m


def test_linear_without_discount_is_the_limit():
    # c = 0 is the undiscounted problem, not a ParamError: b1 is
    # (m*gamma0/rho)*(1 - exp(-rho*(T - t))) - m*(T - t), the c -> 0 limit
    p = ModelParams(rho=0.5, c=0.0, T=1.0, gamma0=1.2, m=2.0)
    sol = solve_linear(p)
    assert sol.t_star == pytest.approx(1.0 - math.log(1.2) / 0.5, rel=1e-15)
    t = np.array([0.0, 0.3, 1.0])
    b1 = (2.0 * 1.2 / 0.5) * -np.expm1(-0.5 * (1.0 - t)) - 2.0 * (1.0 - t)
    np.testing.assert_allclose(sol.b1_fn(t), b1, rtol=1e-15, atol=1e-16)
    near = solve_linear(ModelParams(rho=0.5, c=1e-12, T=1.0, gamma0=1.2, m=2.0))
    assert near.b1_fn(0.0) == pytest.approx(sol.b1_fn(0.0), rel=1e-11)
    assert abs(sol.b1_prime(sol.t_star)) <= 1e-15


def test_budget_c_zero_rejected():
    # the comparison forms of the discrepancy report divide by c
    with pytest.raises(ParamError, match="c > 0"):
        solve_budget(ModelParams(rho=0.5, c=0.0, T=1.0), 0.1)


REFS = json.loads(Path(__file__).with_name("linear_refs.json").read_text())["rows"]
# pins, in units of the reference's last place: the largest distances on
# the table are 0.54 (t_star), 1.17 (spend_bound), 1.65 (budget_t_star)
# and 0.50 (lambda_star)
ULPS = {"t_star": 1, "spend_bound": 2, "budget_t_star": 2, "lambda_star": 2}
# b1(0) cancels to about a tenth of its terms; largest relative error 2.6e-15
B1_REL = 4e-15


def _ulps(x, ref):
    ref = Fraction(ref)
    return abs(Fraction(x) - ref) / Fraction(math.ulp(float(ref)))


@pytest.mark.parametrize("row", REFS, ids=["c=%g" % r["c"] for r in REFS])
def test_closed_forms_against_reference_table(row):
    # 50-digit values from tests/make_refs.py; the 1/c forms these replace
    # lost b1(0) to 4e-4 relative at c = 1e-12 and failed the budget
    # identity from c = 1e-6 on
    p = ModelParams(rho=row["rho"], c=row["c"], T=row["T"], gamma0=row["gamma0"], m=row["m"])
    sol = solve_linear(p)
    got = {"t_star": sol.t_star, "spend_bound": spend_bound(p)}
    b1_ref = Fraction(row["b1_0"])
    assert abs(Fraction(sol.b1_fn(0.0)) - b1_ref) <= B1_REL * abs(b1_ref)
    if row["budget_t_star"] is not None:
        b = solve_budget(p, row["M"])
        got.update(budget_t_star=b.t_star, lambda_star=b.lambda_star)
    for name, value in got.items():
        assert _ulps(value, row[name]) <= ULPS[name], (name, value, row[name])


# --- budget variant ---

M = 0.5
B_T_STAR = 0.46214195888656406
B_LAMBDA = 0.8003430548500415


def test_spend_bound_reference():
    assert spend_bound(P) == pytest.approx((1.0 / 0.1) * (1.0 - math.exp(-0.1)), abs=1e-15)


def test_spend_bound_small_discount_keeps_its_digits():
    # (m/c)*(1 - exp(-c*T)) = 1 - c/2 + c^2/6 - ... at m = T = 1; formed
    # as 1 - exp(-c), the difference keeps 5 digits and gives 0.99997788
    bound = spend_bound(ModelParams(rho=0.5, c=1e-12, T=1.0))
    assert abs(bound - (1.0 - 5e-13)) <= math.ulp(1.0)


def test_spend_bound_without_discount_is_m_T():
    # m / c raised a raw ZeroDivisionError at c = 0; the c -> 0 limit is m*T
    assert spend_bound(ModelParams(rho=0.5, c=0.0, T=1.0)) == 1.0
    assert spend_bound(ModelParams(rho=0.5, c=0.0, T=2.0, m=3.0)) == 6.0


def test_spend_bound_overflow_is_stable_range_error():
    # m*T = 1e300*1e300 used to come back as inf
    for c in (0.0, 1e-300):
        with pytest.raises(StableRangeError, match="spend bound"):
            spend_bound(ModelParams(rho=0.5, c=c, T=1e300, m=1e300))


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


def test_budget_overflowing_comparison_spend_is_stable_range_error():
    # m/c overflows; the spend and its gap used to come out NaN, while the
    # forms without 1/c solve the switch and meet both identities here.
    # The comparison form t_star_alt ~ -1/c = -1e300 makes its spend
    # overflow, which is reported by name
    p = ModelParams(rho=0.5, c=1e-300, T=1e-300, m=1e300)
    with pytest.raises(StableRangeError, match="spend_gap_alt"):
        solve_budget(p, 1e-300)


def test_budget_overflowing_multiplier_is_stable_range_error():
    # c*t_star = -log(c*M/m) = 713.8, so exp((rho + c)*t_star - rho*T)
    # overflows: was a raw OverflowError from z ** (-(rho+c)/c)
    p = ModelParams(rho=1e-3, c=1.0, T=1000.0)
    with pytest.raises(StableRangeError, match="lambda_star = inf"):
        solve_budget(p, 1e-310)


def test_budget_underflowing_multiplier_is_stable_range_error():
    # lambda_star underflows to 0, whose log was a raw ValueError
    p = ModelParams(rho=1e150, c=1e150, T=1e-12, sigma0=1, sigma1=1, sigma2=1e150,
                    gamma0=1e300, m=1e300)
    with pytest.raises(StableRangeError, match="lambda_star"):
        solve_budget(p, 0.5)


def test_budget_overflowing_alternative_multiplier_is_stable_range_error():
    # lambda_star is finite, the comparison form's e^{rho*T} overflows:
    # was a raw OverflowError
    p = ModelParams(rho=705.0, c=1.0, T=1.01, m=1.0)
    with pytest.raises(StableRangeError, match="lambda_star_alt"):
        solve_budget(p, math.exp(-0.5) - math.exp(-1.01))


def test_budget_underflowing_switch_argument_is_stable_range_error():
    # c*M/m and e^{-c*T} both underflow, so log of the switch argument
    # was a raw ValueError
    p = ModelParams(rho=1.0, c=1e-10, T=1e150, m=1e300)
    with pytest.raises(StableRangeError, match="underflows"):
        solve_budget(p, 1e-300)


def test_discounted_length_where_c_T_overflows():
    # c*T overflows, where T*E(c*T) rounds to 0; the integral is 1/c
    p = ModelParams(rho=0.5, c=1e200, T=1e200, m=1e300)
    assert spend_bound(p) == pytest.approx(1e100, rel=1e-15)
    # gamma = exp(-c*T) underflows, so b1(0) = -m/c
    assert solve_linear(p).b1_fn(0.0) == pytest.approx(-1e100, rel=1e-15)


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
