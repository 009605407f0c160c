import math

import numpy as np
import pytest
from scipy.special import ndtri

from adkit import (
    ModelParams,
    ParamError,
    PathGrid,
    Policy,
    PolicyError,
    evaluate_policy,
    simulate_path,
    simulate_stopped,
    solve_linear,
    solve_stopping,
    stopping_cost_report,
)
from adkit.sde import block_normals, path_normals

P = ModelParams(rho=0.5, c=0.1, T=1.0, sigma0=0.2, gamma0=1.2)


def test_path_grid_nodes():
    g = PathGrid(0.0, 1.0, 4)
    np.testing.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.dt == 0.25
    with pytest.raises(ParamError):
        PathGrid(1.0, 1.0, 4)
    with pytest.raises(ParamError):
        PathGrid(0.0, 1.0, 0)


def test_substreams_reproducible_and_disjoint():
    a = path_normals(123, 0, 64)
    b = path_normals(123, 0, 64)
    c = path_normals(123, 1, 64)
    d = path_normals(124, 0, 64)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_block_normals_match_per_path_streams():
    idx = np.arange(5)
    z = block_normals(9, idx, 32)
    for i in idx:
        np.testing.assert_array_equal(z[i], path_normals(9, i, 32))


def test_block_normals_antithetic_pairing():
    z = block_normals(7, np.arange(4), 16, antithetic=True)
    np.testing.assert_array_equal(z[1], -z[0])
    np.testing.assert_array_equal(z[3], -z[2])
    # base draws come from consecutive substreams of the halved index
    np.testing.assert_array_equal(z[0], path_normals(7, 0, 16))
    np.testing.assert_array_equal(z[2], path_normals(7, 1, 16))


def _reference_normals(seed, indices, n, antithetic):
    # one Philox per row, 53-bit integers mapped to (k + 0.5) / 2^53
    mask = (1 << 64) - 1
    rows = []
    for idx in indices:
        base = int(idx) >> 1 if antithetic else int(idx)
        key = np.array([int(seed) & mask, base & mask], dtype=np.uint64)
        g = np.random.Generator(np.random.Philox(key=key))
        k = g.integers(0, 1 << 53, size=n, dtype=np.uint64)
        z = ndtri((k + 0.5) / float(1 << 53))
        rows.append(-z if antithetic and idx & 1 else z)
    return np.array(rows)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize(
    "seed, indices, n",
    [
        (9, [0, 1, 2, 3, 4], 32),
        (3, [17, 2, 9, 4000, 1], 257),
        (11, [5, 0, 3], 1),
        ((1 << 64) - 5, [1, 0, 7], 40),
        (np.int64(42), [6, 3, 12], 33),
    ],
)
def test_block_normals_bit_identical_to_reference(seed, indices, n, antithetic):
    z = block_normals(seed, np.array(indices), n, antithetic=antithetic)
    ref = _reference_normals(seed, indices, n, antithetic)
    assert z.shape == (len(indices), n)
    np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))


def test_block_normals_read_only_and_reused_by_key():
    a_ref = _reference_normals(5, [0, 1, 2], 16, False)
    b_ref = _reference_normals(5, [0, 1, 2], 16, True)
    a = block_normals(5, np.arange(3), 16)
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    assert block_normals(5, np.arange(3), 16) is a
    # A-B-A: the second key evicts the first, which is then drawn again
    b = block_normals(5, np.arange(3), 16, antithetic=True)
    np.testing.assert_array_equal(b, b_ref)
    again = block_normals(5, np.arange(3), 16)
    np.testing.assert_array_equal(again, a_ref)
    np.testing.assert_array_equal(a, a_ref)
    # same indices, another length or seed is another block
    np.testing.assert_array_equal(block_normals(5, np.arange(3), 8),
                                  _reference_normals(5, [0, 1, 2], 8, False))
    np.testing.assert_array_equal(block_normals(6, np.arange(3), 16),
                                  _reference_normals(6, [0, 1, 2], 16, False))


def test_repeated_evaluation_gives_identical_samples():
    pol = Policy.constant(0.5)
    g = PathGrid(0.0, 1.0, 30)
    a = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 300, 4,
                        keep_samples=True)
    b = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 300, 4,
                        keep_samples=True)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.mean == b.mean


def test_deterministic_limit_matches_ode():
    # no noise: Euler path converges to x' = -rho x + u
    p = ModelParams(rho=0.5, c=0.0, T=1.0)
    pol = Policy.constant(1.0)
    g = PathGrid(0.0, 1.0, 20000)
    traj = simulate_path(p, pol, g, 2.0, seed=0)
    exact = (2.0 - 1.0 / 0.5) * math.exp(-0.5) + 1.0 / 0.5
    assert traj.x[-1] == pytest.approx(exact, abs=5e-5)
    assert traj.t.shape == traj.x.shape == traj.u.shape == (20001,)


def test_simulate_path_reproducible():
    pol = Policy.constant(0.5)
    g = PathGrid(0.0, 1.0, 100)
    a = simulate_path(P, pol, g, 1.0, seed=5)
    b = simulate_path(P, pol, g, 1.0, seed=5)
    np.testing.assert_array_equal(a.x, b.x)


def test_policy_outside_control_set_faults():
    pol = Policy("bad", lambda t, x: np.full(np.shape(x), -1.0), Policy.constant(0.0).control_set)
    g = PathGrid(0.0, 1.0, 10)
    with pytest.raises(PolicyError):
        simulate_path(P, pol, g, 1.0, seed=0)


def test_evaluate_policy_grid_must_span_horizon():
    pol = Policy.constant(0.0)
    with pytest.raises(ParamError, match="span"):
        evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0,
                        PathGrid(0.0, 0.5, 10), 10, 1)


def test_evaluate_policy_growth_flag():
    pol = Policy.constant(0.0)
    g = PathGrid(0.0, 1.0, 10)
    with pytest.raises(ParamError, match="polynomial growth"):
        evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 10, 1,
                        assume_polynomial_growth=False)


def test_evaluate_policy_negative_loss_rejected():
    pol = Policy.constant(1.0)
    g = PathGrid(0.0, 1.0, 10)
    with pytest.raises(ParamError, match="loss"):
        evaluate_policy(P, pol, lambda x: x, lambda u: u - 2.0, 0.0, 1.0, g, 10, 1)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_evaluate_policy_rejects_non_finite_start(x):
    g = PathGrid(0.0, 1.0, 10)
    for pol in (Policy.constant(0.5), Policy.bang_bang(0.5, 1.0)):
        with pytest.raises(ParamError, match="finite"):
            evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, x, g, 10, 1)


def test_zero_noise_value_matches_quadrature():
    # deterministic model: MC value must equal the Riemann objective of
    # the same Euler path, so compare against a directly computed path
    p = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)
    sol = solve_linear(p)
    from adkit import linear_policy

    pol = linear_policy(sol)
    g = PathGrid(0.0, 1.0, 4000)
    rep = evaluate_policy(p, pol, lambda x: p.gamma0 * x, lambda u: u, 0.0, 1.0, g,
                          n_paths=3, seed=2)
    assert rep.std_error == pytest.approx(0.0, abs=1e-14)
    # Euler bias vanishes for this piecewise-constant-in-t problem at
    # O(dt); the closed form is the t=0 value
    assert rep.mean == pytest.approx(sol.value(0.0, 1.0), abs=2e-3)


def test_evaluate_policy_block_size_invariance():
    pol = Policy.constant(0.5)
    g = PathGrid(0.0, 1.0, 50)
    a = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 257, 3,
                        block_size=64)
    b = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 257, 3,
                        block_size=1000)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_antithetic_reduces_variance_for_linear_payoff():
    pol = Policy.constant(0.5)
    g = PathGrid(0.0, 1.0, 50)
    plain = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 4000, 3)
    anti = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 4000, 3,
                           antithetic=True)
    assert anti.std_error < plain.std_error


def test_min_state_positive_multiplicative_noise():
    # sigma0 = 0 and positive start keep the state positive
    p = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.3)
    pol = Policy.constant(0.5)
    g = PathGrid(0.0, 1.0, 200)
    rep = evaluate_policy(p, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 500, 8)
    assert rep.min_state > 0.0


def test_keep_samples_round_trip():
    pol = Policy.constant(0.5)
    g = PathGrid(0.0, 1.0, 20)
    rep = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 100, 4,
                          keep_samples=True)
    assert rep.samples.shape == (100,)
    assert rep.mean == pytest.approx(float(rep.samples.mean()), abs=1e-15)


# --- stopped diffusion ---

SP_KW = dict(mu=0.5, rho=0.5, gamma1=2.0, gamma2=2.0)


@pytest.fixture(scope="module")
def stop_sol():
    from adkit import StoppingParams

    return solve_stopping(StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0))


def test_simulate_stopped_immediate(stop_sol):
    g = PathGrid(0.0, 10.0, 100)
    r = simulate_stopped(sol=stop_sol, g=g, y_start=1.0, seed=0, **SP_KW)
    assert r.tau == 0.0
    assert r.cost == 1.0
    assert not r.truncated


def test_simulate_stopped_runs_until_boundary(stop_sol):
    g = PathGrid(0.0, 50.0, 20000)
    r = simulate_stopped(sol=stop_sol, g=g, y_start=3.0, seed=1, **SP_KW)
    assert r.y_path[-1] <= stop_sol.x0
    assert np.all(r.y_path[:-1] > stop_sol.x0)
    assert r.cost > r.y_path[-1] ** 2
    assert not r.truncated


def test_stopping_cost_report_reproducible(stop_sol):
    g = PathGrid(0.0, 40.0, 4000)
    a = stopping_cost_report(sol=stop_sol, g=g, y_start=2.0, n_paths=200, seed=9, **SP_KW)
    b = stopping_cost_report(sol=stop_sol, g=g, y_start=2.0, n_paths=200, seed=9, **SP_KW)
    assert a.mean == b.mean
    assert a.truncated_fraction == 0.0
    assert a.bias_bound > 0


def test_stopping_cost_near_value(stop_sol):
    # MC cost should approach the closed-form value function
    g = PathGrid(0.0, 40.0, 8000)
    y = stop_sol.x0 + 1.0
    rep = stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=2000, seed=13, **SP_KW)
    v = float(stop_sol.value(y))
    assert abs(rep.mean - v) < 3.0 * rep.std_error + rep.bias_bound


@pytest.mark.parametrize("y", [math.nan, math.inf])
def test_stopping_cost_report_rejects_non_finite_start(stop_sol, y):
    g = PathGrid(0.0, 10.0, 100)
    with pytest.raises(ParamError, match="finite"):
        stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=10, seed=0, **SP_KW)
