import dataclasses
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import ndtri

from adkit import (
    ModelParams,
    ParamError,
    PathGrid,
    Policy,
    PolicyError,
    SolverError,
    StableRangeError,
    evaluate_policy,
    linear_policy,
    riccati_integrate,
    simulate_path,
    simulate_stopped,
    solve_linear,
    solve_stopping,
    stopping_cost_report,
)
from adkit import sde
from adkit.model import ControlSet, diffusion, drift
from adkit.sde import block_normals
from adkit.stopping import u2

P = ModelParams(rho=0.5, c=0.1, T=1.0, sigma0=0.2, gamma0=1.2)


def path_normals(seed, index, n):
    """The n normals of one path's substream."""
    return block_normals(seed, [index], n)[0]


def test_path_grid_nodes():
    g = PathGrid(0.0, 1.0, 4)
    np.testing.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.dt == 0.25
    with pytest.raises(ParamError):
        PathGrid(1.0, 1.0, 4)
    with pytest.raises(ParamError):
        PathGrid(0.0, 1.0, 0)


@pytest.mark.parametrize("t0,t_end", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308),
                                      (0.0, 5e-324)],
                         ids=["inf_end", "inf_start", "dt_overflows", "dt_underflows"])
def test_path_grid_rejects_non_finite_or_degenerate_steps(t0, t_end):
    with pytest.raises(ParamError):
        PathGrid(t0, t_end, 10)


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
        # more rows than one drawing chunk, and not a multiple of it
        (5, list(range(129, -1, -1)), 70),
        (13, [4], 90),
    ],
)
def test_block_normals_bit_identical_to_reference(seed, indices, n, antithetic):
    z = block_normals(seed, np.array(indices), n, antithetic=antithetic)
    ref = _reference_normals(seed, indices, n, antithetic)
    assert z.shape == (len(indices), n)
    np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))
    assert not z.flags.writeable
    # time-major: the normals of one step across the block are contiguous
    assert z.T.flags.c_contiguous


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


@pytest.mark.parametrize("width", [1, 63, 64, 65])
def test_evaluate_policy_block_size_invariance(monkeypatch, width):
    pol = Policy.constant(0.5)
    g = PathGrid(0.0, 1.0, 50)
    a = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 257, 3,
                        keep_samples=True)
    monkeypatch.setattr(sde, "DEFAULT_BLOCK", width)
    b = evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 257, 3,
                        keep_samples=True)
    np.testing.assert_array_equal(a.samples.view(np.uint64), b.samples.view(np.uint64))
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


# --- step kernels against the reference loops ---
#
# The loops below are the step loops the in-place kernels replaced, kept
# verbatim as the reference: column reads of the normal block, fresh
# arrays every step, boolean scatters over the stopped paths. The kernels
# must give the same bits.


def _ref_evaluate(p, pol, reward, loss, x, g, n_paths, seed, antithetic, block_size):
    dt = g.dt
    sq = math.sqrt(dt)
    t_nodes = g.nodes()
    disc = np.exp(-p.c * t_nodes[:-1])
    disc_T = math.exp(-p.c * p.T)
    samples = np.empty(n_paths)
    min_state = float(x)
    done = 0
    while done < n_paths:
        nb = min(block_size, n_paths - done)
        z = block_normals(seed, np.arange(done, done + nb), g.n_steps, antithetic=antithetic)
        state = np.full(nb, float(x))
        j = np.zeros(nb)
        for k in range(g.n_steps):
            u = np.asarray(pol(t_nodes[k], state), dtype=float)
            if u.shape != state.shape:
                u = np.broadcast_to(u, state.shape)
            assert pol.control_set.contains(u)
            lo = np.asarray(loss(u), dtype=float)
            j -= disc[k] * lo * dt
            state = state + drift(state, u, p) * dt + diffusion(state, u, p) * sq * z[:, k]
            mn = float(state.min())
            if mn < min_state:
                min_state = mn
        j += disc_T * np.asarray(reward(state), dtype=float)
        samples[done : done + nb] = j
        done += nb
    return samples, min_state


def _ref_stopping(mu, rho, gamma1, gamma2, x0, feedback, g, y_start, n_paths, seed,
                  block_size):
    dt = g.dt
    sq = math.sqrt(dt)
    samples = np.empty(n_paths)
    truncated = 0
    min_state = float(y_start)
    done = 0
    while done < n_paths:
        nb = min(block_size, n_paths - done)
        z = block_normals(seed, np.arange(done, done + nb), g.n_steps)
        y = np.full(nb, float(y_start))
        cost = np.zeros(nb)
        alive = y > x0
        cost[~alive] = y[~alive] ** 2
        for k in range(g.n_steps):
            if not alive.any():
                break
            ya = y[alive]
            u = np.asarray(feedback(ya), dtype=float)
            cost[alive] += (gamma1 * u * u + gamma2) * dt
            ya = ya + (mu - rho * ya - u) * dt + sq * z[alive, k]
            y[alive] = ya
            mn = float(ya.min())
            if mn < min_state:
                min_state = mn
            crossed = alive & (y <= x0)
            cost[crossed] += y[crossed] ** 2
            alive &= y > x0
        if alive.any():
            cost[alive] += y[alive] ** 2
            truncated += int(alive.sum())
        samples[done : done + nb] = cost
        done += nb
    return samples, min_state, truncated / n_paths


def _ref_simulate_path(p, pol, g, x_start, seed):
    sq = math.sqrt(g.dt)
    z = path_normals(seed, 0, g.n_steps)
    t = g.nodes()
    x = np.empty(g.n_steps + 1)
    u = np.empty(g.n_steps + 1)
    x[0] = x_start
    state = np.array([float(x_start)])
    for k in range(g.n_steps):
        uk = np.asarray(pol(t[k], state), dtype=float).reshape(1)
        u[k] = uk[0]
        state = state + drift(state, uk, p) * g.dt + diffusion(state, uk, p) * sq * z[k]
        x[k + 1] = state[0]
    u[-1] = np.asarray(pol(t[-1], state), dtype=float).reshape(1)[0]
    return t, x, u


def _ref_simulate_stopped(mu, rho, gamma1, gamma2, sol, g, y_start, seed):
    dt = g.dt
    sq = math.sqrt(dt)
    z = path_normals(seed, 0, g.n_steps)
    t = g.nodes()
    y_list, u_list = [float(y_start)], []
    cost, y, tau, truncated = 0.0, float(y_start), g.t_end, True
    for k in range(g.n_steps):
        u = float(sol.policy(y))
        u_list.append(u)
        cost += (gamma1 * u * u + gamma2) * dt
        y = y + (mu - rho * y - u) * dt + sq * z[k]
        y_list.append(y)
        if y <= sol.x0:
            tau, truncated = t[k + 1], False
            break
    u_list.append(float(sol.policy(y)))
    cost += y * y
    return t[: len(y_list)], np.asarray(y_list), np.asarray(u_list), tau, cost, truncated


P_LQ = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)


def _policies():
    from adkit import linear_policy, lq_feedback, riccati_integrate

    ric = riccati_integrate(P_LQ)
    return {
        "constant": (P, Policy.constant(0.5)),
        "bang-bang": (P, linear_policy(solve_linear(P))),
        # open loop, piecewise linear in t, valid on [0, T] only
        "table": (P, Policy("table", lambda t, x: np.full(
            np.shape(x), float(np.interp(t, [0.0, 0.4, 1.0], [0.1, 0.9, 0.3]))),
            ControlSet(0.0, math.inf), 0.0, 1.0)),
        "lq": (P_LQ, lq_feedback(ric, P_LQ)),
        # state-dependent, bounded, and one that returns the state array
        "custom": (P_LQ, Policy("custom", lambda t, x: np.clip(np.sin(3.0 * x) + t, 0.0, 2.0),
                                ControlSet(0.0, 2.0))),
        "identity": (P_LQ, Policy("identity", lambda t, x: x, ControlSet(-math.inf, math.inf))),
    }


POLICIES = _policies()


@pytest.mark.parametrize("n_steps", [1, 7])
@pytest.mark.parametrize("width", [1, 63, 64, 65])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_evaluate_policy_matches_reference_loop(monkeypatch, kind, antithetic, width, n_steps):
    p, pol = POLICIES[kind]
    g = PathGrid(0.0, p.T, n_steps)
    reward = lambda x: p.gamma0 * x * x
    loss = lambda u: u * u
    monkeypatch.setattr(sde, "DEFAULT_BLOCK", width)
    rep = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, 257, 17, antithetic=antithetic,
                          keep_samples=True)
    samples, min_state = _ref_evaluate(p, pol, reward, loss, 1.0, g, 257, 17, antithetic,
                                       width)
    np.testing.assert_array_equal(rep.samples.view(np.uint64), samples.view(np.uint64))
    assert rep.min_state == min_state


@pytest.mark.parametrize("n_steps", [1, 30])
@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_simulate_path_matches_reference_loop(kind, n_steps):
    p, pol = POLICIES[kind]
    g = PathGrid(0.0, p.T, n_steps)
    traj = simulate_path(p, pol, g, 1.0, seed=3)
    t, x, u = _ref_simulate_path(p, pol, g, 1.0, 3)
    for got, want in ((traj.t, t), (traj.x, x), (traj.u, u)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


BAD_CONTROLS = [
    ("nan", ControlSet(0.0, math.inf), math.nan),
    ("inf", ControlSet(0.0, math.inf), math.inf),
    ("below lower", ControlSet(0.0, math.inf), -1e-6),
    ("above upper", ControlSet(0.0, 1.0), 1.0 + 1e-6),
]


@pytest.mark.parametrize("label, cs, bad", BAD_CONTROLS, ids=[b[0] for b in BAD_CONTROLS])
def test_policy_error_for_control_outside_set(label, cs, bad):
    # admissible at first, then one path leaves the set at the third step
    def fn(t, x):
        u = np.full(np.shape(x), 0.5)
        if t > 0.25:
            u.flat[-1] = bad
        return u

    pol = Policy("bad", fn, cs)
    g = PathGrid(0.0, 1.0, 10)
    with pytest.raises(PolicyError, match="outside"):
        evaluate_policy(P, pol, lambda x: x, lambda u: u, 0.0, 1.0, g, 70, 1)
    with pytest.raises(PolicyError, match="outside"):
        simulate_path(P, pol, g, 1.0, seed=0)


def _stop_control(name, sol):
    if name == "scaled":
        return lambda y: 0.7 * np.asarray(sol.policy(y))
    if name == "scalar":
        return lambda y: 0.3
    return None


@pytest.mark.parametrize("width", [1, 63, 64, 65])
@pytest.mark.parametrize("control", ["optimal", "scaled", "scalar"])
@pytest.mark.parametrize(
    "case, y_offset, t_end, n_steps",
    [
        ("starts at x0", 0.0, 10.0, 100),
        ("starts below x0", -0.2, 10.0, 100),
        ("all stop early", 0.01, 40.0, 4000),
        ("truncating grid", 1.0, 1.0, 12),
        ("one step", 0.5, 0.5, 1),
    ],
)
def test_stopping_cost_report_matches_reference_loop(monkeypatch, stop_sol, case, y_offset, t_end,
                                                     n_steps, control, width):
    g = PathGrid(0.0, t_end, n_steps)
    y = stop_sol.x0 + y_offset
    ctl = _stop_control(control, stop_sol)
    monkeypatch.setattr(sde, "DEFAULT_BLOCK", width)
    rep = stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=257, seed=21,
                               control=ctl, keep_samples=True, **SP_KW)
    feedback = stop_sol.policy if ctl is None else ctl
    samples, min_state, trunc = _ref_stopping(
        SP_KW["mu"], SP_KW["rho"], SP_KW["gamma1"], SP_KW["gamma2"], stop_sol.x0, feedback, g,
        y, 257, 21, width)
    np.testing.assert_array_equal(rep.samples.view(np.uint64), samples.view(np.uint64))
    assert rep.min_state == min_state
    assert rep.truncated_fraction == trunc
    if case == "all stop early":
        assert trunc == 0.0
    if case == "truncating grid":
        assert 0.0 < trunc < 1.0


@pytest.mark.parametrize("y_start, t_end, n_steps, seed", [
    (3.0, 60.0, 30000, 1),   # stops on its own
    (3.0, 1.0, 50, 2),       # truncated by the grid
    (1.4, 5.0, 1, 0),        # one step
])
def test_simulate_stopped_matches_reference_loop(stop_sol, y_start, t_end, n_steps, seed):
    g = PathGrid(0.0, t_end, n_steps)
    r = simulate_stopped(sol=stop_sol, g=g, y_start=y_start, seed=seed, **SP_KW)
    t, y, u, tau, cost, truncated = _ref_simulate_stopped(
        sol=stop_sol, g=g, y_start=y_start, seed=seed, **SP_KW)
    for got, want in ((r.t_path, t), (r.y_path, y), (r.u_path, u)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (r.tau, r.cost, r.truncated) == (tau, cost, truncated)


# --- windowed normals of the stopping kernel ---


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize(
    "indices, n, k0, k1",
    [
        ([0, 1, 2, 3, 4], 200, 0, 64),          # first window
        ([0, 1, 2, 3, 4], 200, 64, 128),        # aligned
        ([0, 1, 2, 3, 4], 200, 65, 131),        # k0 not a multiple of 4
        ([0, 1, 2, 3, 4], 200, 7, 10),          # inside one Philox block
        ([0, 1, 2, 3, 4], 200, 192, 200),       # last partial window
        ([9], 200, 130, 194),                   # one row
        ([40, 3, 17, 2, 88, 5], 150, 66, 130),  # rows not contiguous
        (list(range(129, -1, -1)), 90, 1, 90),  # more rows than one chunk
    ],
)
def test_window_equals_slice_of_full_block(indices, n, k0, k1, antithetic):
    w = sde._draw(11, np.array(indices, dtype=np.int64), k0, k1, antithetic)
    ref = _reference_normals(11, indices, n, antithetic)[:, k0:k1]
    assert w.shape == (k1 - k0, len(indices))
    np.testing.assert_array_equal(w.view(np.uint64), ref.T.view(np.uint64))


# --- draws split across threads ---


def _split(monkeypatch, cpus):
    """Split every draw across up to cpus threads; returns the set of
    threads that called sde.ndtri."""
    monkeypatch.setattr(sde, "_cpus", lambda: cpus)
    monkeypatch.setattr(sde, "_THREAD_NORMALS", 1)
    seen = set()

    def recording(x, out=None):
        seen.add(threading.current_thread())
        return ndtri(x, out=out)

    monkeypatch.setattr(sde, "ndtri", recording)
    return seen


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize(
    "cpus, indices, k0, k1, threads",
    [
        (3, list(range(203)), 0, 70, 3),          # 4 chunks, last one partial
        (2, list(range(129, -1, -1)), 0, 33, 2),  # descending, 3 chunks
        (8, list(range(70)), 0, 40, 2),           # more workers than chunks
        (4, list(range(900, 0, -7)), 0, 50, 3),   # descending, not contiguous
        (3, list(range(5, 400, 2)), 65, 131, 3),  # window, k0 % 4 == 1
        (2, [40, 3, 17, 2, 88, 5] * 20, 7, 10, 2),  # inside one Philox block
        (5, list(range(300)), 194, 200, 5),       # a short last window
    ],
)
def test_split_draw_bit_identical_to_reference(monkeypatch, cpus, indices, k0, k1, threads,
                                               antithetic):
    seen = _split(monkeypatch, cpus)
    w = sde._draw(21, np.array(indices, dtype=np.int64), k0, k1, antithetic)
    ref = _reference_normals(21, indices, k1, antithetic)[:, k0:]
    assert w.shape == (k1 - k0, len(indices))
    np.testing.assert_array_equal(w.view(np.uint64), ref.T.view(np.uint64))
    # every thread looked ndtri up as the module global
    assert len(seen) == threads


def test_split_block_normals_bit_identical_and_cached(monkeypatch):
    _empty_cache(monkeypatch)
    seen = _split(monkeypatch, 3)
    idx = np.arange(250)
    z = block_normals(4, idx, 90, antithetic=True)
    ref = _reference_normals(4, idx, 90, True)
    np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))
    assert not z.flags.writeable and z.T.flags.c_contiguous
    assert len(seen) == 3
    assert block_normals(4, idx, 90, antithetic=True) is z


def test_split_draw_under_fast_thread_switching(monkeypatch):
    # far more threads than cores, switching every microsecond
    seen = _split(monkeypatch, 16)
    idx = np.arange(1100, dtype=np.int64)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = threading.Thread(target=lambda: result.append(sde._draw(8, idx, 3, 60)))
        t.start()
        t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not t.is_alive() and len(result) == 1
    ref = _reference_normals(8, idx, 60, False)[:, 3:]
    np.testing.assert_array_equal(result[0].view(np.uint64), ref.T.view(np.uint64))
    assert len(seen) == 16


class _WorkerFault(Exception):
    pass


def test_split_draw_worker_error_reaches_caller(monkeypatch):
    _empty_cache(monkeypatch)
    _split(monkeypatch, 4)
    caller = threading.current_thread()
    threads = set()

    def failing(x, out=None):
        threads.add(threading.current_thread())
        if threading.current_thread() is not caller:
            raise _WorkerFault("ndtri failed in a worker")
        return ndtri(x, out=out)

    monkeypatch.setattr(sde, "ndtri", failing)
    idx = np.arange(256)
    with pytest.raises(_WorkerFault, match="in a worker"):
        block_normals(6, idx, 40)
    assert sde._whole is None  # the failed block is not a resident
    # the caller and three workers ran, and every worker was joined
    assert len(threads) == 4
    assert not any(t.is_alive() for t in threads if t is not caller)
    # a failed window draw records no entry, so no path of the window is
    # taken for drawn
    with pytest.raises(_WorkerFault):
        _resident_windows(6, idx, 200).window(64, np.arange(256))
    assert sde._windowed[1] == [None] * 4
    # the next draw of the same key draws it afresh, bit for bit
    monkeypatch.setattr(sde, "ndtri", ndtri)
    z = block_normals(6, idx, 40)
    np.testing.assert_array_equal(z.view(np.uint64),
                                  _reference_normals(6, idx, 40, False).view(np.uint64))


def _count_ndtri(monkeypatch):
    # a split draw calls ndtri from several threads at once
    count = [0]
    lock = threading.Lock()

    def counting(x, out=None):
        with lock:
            count[0] += np.size(x)
        return ndtri(x, out=out)

    monkeypatch.setattr(sde, "ndtri", counting)
    return count


def _record_draws(monkeypatch):
    """Record (k0, path indices) of every _draw request."""
    draws = []
    draw = sde._draw

    def recording(seed, indices, k0, k1, antithetic=False, out=None):
        draws.append((k0, indices.tolist()))
        return draw(seed, indices, k0, k1, antithetic, out)

    monkeypatch.setattr(sde, "_draw", recording)
    return draws


def _empty_cache(monkeypatch):
    monkeypatch.setattr(sde, "_whole", None)
    monkeypatch.setattr(sde, "_windowed", None)


def _resident_windows(seed, idx, n):
    """Windows on the windowed resident, as stopping_cost_report opens them."""
    return sde._Windows(seed, idx, n, sde._resident_store(seed, idx, n))


def test_windowed_block_fills_only_requested_paths(monkeypatch):
    _empty_cache(monkeypatch)
    draws = _record_draws(monkeypatch)
    idx = np.arange(10, 20, dtype=np.int64)
    ref = _reference_normals(4, idx, 150, False)
    src = _resident_windows(4, idx, 150)
    w, col = src.window(128, np.array([1, 4, 9]))
    assert w.shape == (150 - 128, 3) and draws == [(128, [11, 14, 19])]
    np.testing.assert_array_equal(w[:, col].view(np.uint64),
                                  ref[[1, 4, 9], 128:].T.view(np.uint64))
    store = sde._windowed[1]
    assert (store[2][1] >= 0).tolist() == [i in (1, 4, 9) for i in range(10)]
    assert store[:2] == [None, None]
    # a second source on the same key sees the drawn paths and adds more
    w, col = _resident_windows(4, idx, 150).window(128, np.arange(10))
    assert w.shape == (150 - 128, 10)
    assert draws[1:] == [(128, [10, 12, 13, 15, 16, 17, 18])]
    np.testing.assert_array_equal(w[:, col].view(np.uint64), ref[:, 128:].T.view(np.uint64))
    assert (store[2][1] >= 0).all()


def test_stopping_all_paths_truncated_matches_reference(stop_sol, monkeypatch):
    # every path survives past two windows to the last node
    g = PathGrid(0.0, 0.5, 150)
    y = stop_sol.x0 + 5.0
    monkeypatch.setattr(sde, "DEFAULT_BLOCK", 60)
    rep = stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=100, seed=8,
                               keep_samples=True, **SP_KW)
    samples, min_state, trunc = _ref_stopping(
        SP_KW["mu"], SP_KW["rho"], SP_KW["gamma1"], SP_KW["gamma2"], stop_sol.x0,
        stop_sol.policy, g, y, 100, 8, 60)
    assert rep.truncated_fraction == trunc == 1.0
    np.testing.assert_array_equal(rep.samples.view(np.uint64), samples.view(np.uint64))
    assert rep.min_state == min_state


def test_stopping_after_failed_run_on_same_key_matches_reference(stop_sol, monkeypatch):
    _empty_cache(monkeypatch)
    g = PathGrid(0.0, 40.0, 4000)
    y = stop_sol.x0 + 1.0
    calls = [0]

    def failing(yy):
        # a NaN control in the third window, after the first windows are drawn
        calls[0] += 1
        u = np.asarray(stop_sol.policy(yy), dtype=float)
        return u * math.nan if calls[0] == 150 else u

    with pytest.raises(PolicyError, match="stopping control"):
        stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=300, seed=3,
                             control=failing, **SP_KW)
    assert sde._windowed[1][0] is not None and sde._windowed[1][1] is not None
    rep = stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=300, seed=3,
                               keep_samples=True, **SP_KW)
    samples, min_state, trunc = _ref_stopping(
        SP_KW["mu"], SP_KW["rho"], SP_KW["gamma1"], SP_KW["gamma2"], stop_sol.x0,
        stop_sol.policy, g, y, 300, 3, sde._block_width(g.n_steps))
    np.testing.assert_array_equal(rep.samples.view(np.uint64), samples.view(np.uint64))
    assert rep.min_state == min_state
    assert rep.truncated_fraction == trunc


def test_stopping_inverts_only_the_normals_it_reads(stop_sol, monkeypatch):
    # the benchmark's paired stopping instance: 2,000 paths x 4,000 steps
    count = _count_ndtri(monkeypatch)
    _empty_cache(monkeypatch)
    g = PathGrid(0.0, 40.0, 4000)
    kw = dict(sol=stop_sol, g=g, y_start=stop_sol.x0 + 1.0, n_paths=2000, seed=99, **SP_KW)
    rep = stopping_cost_report(**kw)
    assert rep.truncated_fraction == 0.0
    assert 0 < count[0] < 0.1 * 2000 * 4000
    # the same block again draws nothing
    first = count[0]
    stopping_cost_report(**kw)
    assert count[0] == first


def test_stopping_store_working_set(stop_sol, monkeypatch):
    # the paired stopping instance holds only the normals its paths read:
    # a (steps, paths) buffer of the block would be 64 MB
    _empty_cache(monkeypatch)
    g = PathGrid(0.0, 40.0, 4000)
    tracemalloc.start()
    try:
        stopping_cost_report(sol=stop_sol, g=g, y_start=stop_sol.x0 + 1.0, n_paths=2000,
                             seed=99, **SP_KW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_stopping_reuse_draws_each_path_window_once(stop_sol, monkeypatch):
    # the optimal control, then a scaled one on the same key: the second
    # run draws only the (path, window) pairs the first did not reach
    g = PathGrid(0.0, 40.0, 4000)
    kw = dict(sol=stop_sol, g=g, y_start=stop_sol.x0 + 1.0, n_paths=2000, seed=99,
              keep_samples=True, **SP_KW)
    scaled = lambda y: 0.6 * np.asarray(stop_sol.policy(y), dtype=float)
    _empty_cache(monkeypatch)
    fresh = stopping_cost_report(control=scaled, **kw)

    _empty_cache(monkeypatch)
    draws = _record_draws(monkeypatch)
    stopping_cost_report(**kw)
    first = len(draws)
    rep = stopping_cost_report(control=scaled, **kw)
    assert len(draws) > first  # the slower control reaches later windows
    pairs = [(i, k0) for k0, indices in draws for i in indices]
    assert len(set(pairs)) == len(pairs)
    for name in ("mean", "std_error", "min_state", "truncated_fraction"):
        assert getattr(rep, name) == getattr(fresh, name), name
    np.testing.assert_array_equal(rep.samples.view(np.uint64), fresh.samples.view(np.uint64))


def test_paired_evaluations_and_stopping_share_the_cache(stop_sol, monkeypatch):
    # evaluate -> stop -> evaluate -> stop on one seed, as paired
    # comparisons alternate between policy and stopping evaluations
    g = PathGrid(0.0, P.T, 50)
    g_stop = PathGrid(0.0, 40.0, 4000)

    def evaluate():
        return evaluate_policy(P, Policy.constant(0.5), lambda x: x, lambda u: u, 0.0, 1.0,
                               g, 300, 99, keep_samples=True).samples

    def stop():
        return stopping_cost_report(sol=stop_sol, g=g_stop, y_start=stop_sol.x0 + 1.0,
                                    n_paths=300, seed=99, keep_samples=True, **SP_KW).samples

    _empty_cache(monkeypatch)
    fresh_eval = evaluate()
    _empty_cache(monkeypatch)
    fresh_stop = stop()

    _empty_cache(monkeypatch)
    count = _count_ndtri(monkeypatch)
    first = (evaluate(), stop())
    assert count[0] > 0
    drawn = count[0]
    second = (evaluate(), stop())
    assert count[0] == drawn  # the second pair inverts no normals
    for got, want in zip(first + second, (fresh_eval, fresh_stop) * 2):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_one_path_simulations_leave_the_cache_alone(stop_sol, monkeypatch):
    _empty_cache(monkeypatch)
    p, pol = POLICIES["lq"]
    g = PathGrid(0.0, p.T, 400)
    g_stop = PathGrid(0.0, 40.0, 4000)
    ref_path = _ref_simulate_path(p, pol, g, 1.0, 1)
    ref_stop = _ref_simulate_stopped(sol=stop_sol, g=g_stop, y_start=3.0, seed=99, **SP_KW)
    # residents of other keys on the same seeds
    block_normals(1, np.arange(64), 400)
    stopping_cost_report(sol=stop_sol, g=g_stop, y_start=stop_sol.x0 + 1.0, n_paths=200,
                         seed=99, **SP_KW)
    whole, windowed = sde._whole, sde._windowed
    traj = simulate_path(p, pol, g, 1.0, seed=1)
    assert sde._whole is whole and sde._windowed is windowed
    r = simulate_stopped(sol=stop_sol, g=g_stop, y_start=3.0, seed=99, **SP_KW)
    assert sde._whole is whole and sde._windowed is windowed
    for got, want in zip((traj.t, traj.x, traj.u, r.t_path, r.y_path, r.u_path),
                         ref_path + ref_stop[:3]):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (r.tau, r.cost, r.truncated) == ref_stop[3:]


def test_new_key_replaces_only_the_resident_of_its_kind(stop_sol, monkeypatch):
    _empty_cache(monkeypatch)
    idx = np.arange(6)
    block_normals(1, idx, 100)
    _resident_windows(1, idx, 200).window(0, np.arange(6))
    whole = weakref.ref(sde._whole[1].base)
    windowed = weakref.ref(sde._windowed[1][0][0])
    live = []
    draw = sde._draw

    def spying(*args):
        live.append((whole() is not None, windowed() is not None))
        return draw(*args)

    monkeypatch.setattr(sde, "_draw", spying)
    # a new whole key: the old whole block is gone before the new one is
    # drawn, and the windowed resident stays
    block_normals(2, idx, 100)
    assert live == [(False, True)]
    assert sde._whole[0][0] == 2 and sde._windowed[0][0] == 1
    # a new windowed key: the old store is gone once its empty
    # replacement exists, before the new key draws, and the whole
    # resident stays
    src = _resident_windows(2, idx, 200)
    assert windowed() is None
    assert sde._whole[0][0] == 2 and sde._windowed[0][0] == 2
    src.window(0, np.arange(6))
    assert live[1:] == [(False, False)]
    # a stopping run on the whole resident's key draws into the windowed
    # store and leaves the whole resident as it was
    g = PathGrid(0.0, 4.0, 400)
    kw = dict(sol=stop_sol, g=g, y_start=stop_sol.x0 + 1.0, n_paths=6, seed=3,
              keep_samples=True, **SP_KW)
    block_normals(3, idx, 400)
    resident = sde._whole
    drawn = len(live)
    rep = stopping_cost_report(**kw)
    assert len(live) > drawn and sde._windowed[0][0] == 3
    assert sde._whole is resident
    # and its samples are those of the same run on an empty cache
    _empty_cache(monkeypatch)
    fresh = stopping_cost_report(**kw)
    np.testing.assert_array_equal(rep.samples.view(np.uint64), fresh.samples.view(np.uint64))


# --- block width from the grid ---


class _Drawn(Exception):
    pass


def intercept_draws(monkeypatch, fill=False):
    """Record the (steps, paths) shape of every _draw request; returns the
    list of shapes. Each request fails before it draws, or with fill gives
    zeros instead of normals."""
    _empty_cache(monkeypatch)
    shapes = []

    def intercept(seed, indices, k0, k1, antithetic=False, out=None):
        shapes.append((k1 - k0, len(indices)))
        if not fill:
            raise _Drawn
        if out is None:
            return np.zeros((k1 - k0, len(indices)))
        out[...] = 0.0
        return out

    monkeypatch.setattr(sde, "_draw", intercept)
    return shapes


def test_long_grid_evaluation_draws_at_most_2_22_normals(monkeypatch):
    # blocks of 8 paths, each streamed in windows of 2^19 steps
    shapes = intercept_draws(monkeypatch)
    g = PathGrid(0.0, 1.0, 10 ** 6)
    with pytest.raises(_Drawn):
        evaluate_policy(P, Policy.constant(0.5), lambda x: x, lambda u: u, 0.0, 1.0, g,
                        4096, 1)
    assert shapes == [(2 ** 19, 8)]
    assert max(k * n for k, n in shapes) <= 2 ** 22


def test_long_grid_stopping_draws_at_most_2_23_normals(stop_sol, monkeypatch):
    shapes = intercept_draws(monkeypatch)
    g = PathGrid(0.0, 40.0, 10 ** 6)
    with pytest.raises(_Drawn):
        stopping_cost_report(sol=stop_sol, g=g, y_start=stop_sol.x0 + 1.0, n_paths=4096,
                             seed=1, **SP_KW)
    assert shapes == [(sde._WINDOW, 8)]
    # the store holds at most one block: each of its windows holds at
    # most _WINDOW normals of each of the block's 8 paths
    key, store = sde._windowed
    assert len(key[1]) == 8 * 8  # the indices' bytes
    assert len(store) * sde._WINDOW * 8 <= 2 ** 23


def test_benchmark_shapes_keep_their_blocks(monkeypatch):
    # mc_fresh's block of 4,096 paths x 2,000 steps: two windows, not cached
    shapes = intercept_draws(monkeypatch, fill=True)
    evaluate_policy(P, Policy.constant(0.5), lambda x: x, lambda u: u, 0.0, 1.0,
                    PathGrid(0.0, 1.0, 2000), 4096, 1)
    assert shapes == [(1024, 4096), (976, 4096)]
    assert max(k * n for k, n in shapes) <= 2 ** 22
    assert sde._whole is None
    # the paired shapes, 4,000 x 400 and 2,000 stopped paths x 4,000, in
    # one block each; the evaluation's block is one window, cached
    assert sde._block_width(400) >= 4000 and sde._block_width(4000) >= 2000
    shapes.clear()
    evaluate_policy(P, Policy.constant(0.5), lambda x: x, lambda u: u, 0.0, 1.0,
                    PathGrid(0.0, 1.0, 400), 4000, 1)
    assert shapes == [(400, 4000)]
    assert sde._whole[1].shape == (4000, 400)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("steps", [5, 7])
def test_streamed_windows_bit_identical_to_one_window(monkeypatch, steps, antithetic):
    # 150 paths over 40 steps in blocks of 64, 64 and 22 paths: the 64-path
    # blocks stream windows of `steps` steps, which start at steps that are
    # not multiples of 4, and the 22-path block windows of 14 or 20 steps
    p, pol = POLICIES["lq"]
    g = PathGrid(0.0, p.T, 40)
    monkeypatch.setattr(sde, "DEFAULT_BLOCK", 64)

    def run():
        return evaluate_policy(p, pol, lambda x: x * x, lambda u: u * u, 0.0, 1.0, g, 150, 5,
                               antithetic=antithetic, keep_samples=True)

    _empty_cache(monkeypatch)
    whole = run()
    draws = _record_draws(monkeypatch)
    _empty_cache(monkeypatch)
    monkeypatch.setattr(sde, "_WINDOW_NORMALS", steps * 64)
    streamed = run()
    assert sde._whole is None
    assert [k0 for k0, _ in draws] == (list(range(0, 40, steps)) * 2
                                       + list(range(0, 40, steps * 64 // 22)))
    np.testing.assert_array_equal(streamed.samples.view(np.uint64),
                                  whole.samples.view(np.uint64))
    assert streamed.min_state == whole.min_state
    assert streamed.mean == whole.mean


def test_streamed_evaluation_working_set(monkeypatch):
    # a block of 4,096 paths x 2,000 steps holds one 32 MiB window of its
    # normals; the whole block would be 64 MiB
    _empty_cache(monkeypatch)
    g = PathGrid(0.0, 1.0, 2000)
    tracemalloc.start()
    try:
        evaluate_policy(P, Policy.constant(0.5), lambda x: x, lambda u: u, 0.0, 1.0, g, 4096,
                        1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34 * 2 ** 20


# --- kernel trims against the forms they replaced ---


def _euler_seven_op(p, pol, loss, g, x, z):
    """The Euler step loop with the diffusion increment in the general
    seven-op form, as _euler_block computed it for every noise model."""
    dt = g.dt
    sq = math.sqrt(dt)
    t_nodes = g.nodes()
    disc = np.exp(-p.c * t_nodes[:-1])
    zt = z.T
    state = np.full(zt.shape[1], float(x))
    j = np.zeros_like(state)
    a = np.empty_like(state)
    b = np.empty_like(state)
    min_state = float(x)
    for k in range(g.n_steps):
        u = np.broadcast_to(np.asarray(pol(t_nodes[k], state), dtype=float), state.shape)
        np.multiply(np.asarray(loss(u), dtype=float), disc[k], out=a)
        a *= dt
        j -= a
        np.abs(state, out=b)
        b *= p.sigma1
        b += p.sigma0
        np.multiply(u, p.sigma2, out=a)
        b += a
        b *= sq
        b *= zt[k]
        np.multiply(state, -p.rho, out=a)
        a += u
        a *= dt
        state += a
        state += b
        min_state = min(min_state, float(state.min()))
    return state, j, min_state


@pytest.mark.parametrize("sigmas", [(0.2, 0.0, 0.0), (0.2, -0.0, -0.0), (1e-300, 0.0, 0.0),
                                    (3.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0),
                                    (0.2, 0.1, 0.0)])
@pytest.mark.parametrize("kind", ["constant", "bang-bang", "identity", "subnormal"])
def test_additive_noise_step_matches_seven_op_form(kind, sigmas):
    sigma0, sigma1, sigma2 = sigmas
    p = ModelParams(rho=0.5, c=0.1, T=1.0, sigma0=sigma0, sigma1=sigma1, sigma2=sigma2,
                    gamma0=1.2)
    anywhere = ControlSet(-math.inf, math.inf)
    pol = {"constant": Policy.constant(0.5),
           "bang-bang": linear_policy(solve_linear(P)),
           # negative controls: u*sigma2 is -0.0 on those paths
           "identity": Policy("identity", lambda t, x: x - 1.0, anywhere),
           # from x = -0.0, u*dt rounds to -0.0 and the state stays at -0.0,
           # where the sign of a zero increment shows after one step
           "subnormal": Policy("subnormal", lambda t, x: np.full(np.shape(x), -5e-324),
                               anywhere)}[kind]
    if kind == "subnormal":
        x, g = -0.0, PathGrid(0.0, 0.025, 1)
    else:
        x, g = 1.0, PathGrid(0.0, 1.0, 40)
    z = block_normals(7, np.arange(129), g.n_steps)
    got = sde._euler_block(p, pol, lambda u: u * u, g, x, [z.T])
    want = _euler_seven_op(p, pol, lambda u: u * u, g, x, z)
    assert np.isfinite(got[0]).all()
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    assert got[2] == want[2]


@pytest.mark.parametrize("params", [
    P_LQ,
    ModelParams(rho=1.3, c=0.0, T=2.0, sigma1=0.35, sigma2=0.1, gamma0=0.4),
    ModelParams(rho=0.2, c=0.7, T=0.5, sigma2=0.9, gamma0=0.9),
])
def test_gain_at_matches_p_over_d(params):
    sol = riccati_integrate(params)
    s = 1.0 + params.sigma1 * params.sigma2
    t = np.concatenate([sol.t, 0.5 * (sol.t[1:] + sol.t[:-1])])
    for q in (t, float(sol.t[0]), 0.37 * params.T, float(params.T)):
        got = np.asarray(sol.gain_at(q))
        want = np.asarray(-s * sol.P_at(q) / sol.D_at(q))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _stopping_policy_where(sol, y):
    """The control's erfcx form 1/u2 - 2*rho*(y - mu/rho) at max(y, x0),
    and np.where for the stop side."""
    sp = sol.params
    y_arr = np.asarray(y, dtype=float)
    y_c = np.maximum(y_arr, sol.x0)
    raw = 1.0 / u2(y_c, sp) - 2.0 * sp.rho * (y_c - sp.mu / sp.rho)
    out = np.where(y_arr >= sol.x0, np.maximum(raw, 0.0), 0.0)
    return float(out) if np.ndim(y) == 0 else out


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_stopping_policy_matches_where_form(stop_sol, shift):
    sol = dataclasses.replace(stop_sol, x0=stop_sol.x0 + shift)
    sp = sol.params
    x0 = sol.x0
    y = np.concatenate([
        np.linspace(x0 - 2.0, x0 + 12.0, 1000),
        [x0, np.nextafter(x0, -math.inf), np.nextafter(x0, math.inf), -math.inf, 0.0, -0.0,
         math.nan, 1e150],
    ])
    # bit for bit where the policy takes the erfcx form, 0 <= w < 3, and on
    # the stop side; on w >= 3 it takes the continued fraction, which the
    # erfcx form, cancelling there, matches only to rounding
    fraction = math.sqrt(sp.rho) * (np.maximum(y, x0) - sp.mu / sp.rho) >= 3.0
    got = sol.policy(y)
    want = _stopping_policy_where(sol, y)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got[~fraction].view(np.uint64),
                                  want[~fraction].view(np.uint64))
    assert fraction.sum() > 100
    np.testing.assert_allclose(got[fraction][:-1], want[fraction][:-1], rtol=1e-12)
    assert got[-1] == pytest.approx(1.0 / (1e150 - sp.mu / sp.rho), rel=1e-15)
    assert got[y < x0].tolist() == [0.0] * int((y < x0).sum())
    assert got[np.isnan(y)].view(np.uint64).tolist() == [0]  # NaN maps to +0.0
    for q in (x0, x0 - 0.5, x0 + 0.5, math.nan, 3):
        g, w = sol.policy(q), _stopping_policy_where(sol, q)
        assert type(g) is type(w) is float
        assert math.copysign(1.0, g) == math.copysign(1.0, w) and (g == w)
    got2 = sol.policy(y.reshape(-1, 7))
    np.testing.assert_array_equal(got2.view(np.uint64), got.reshape(-1, 7).view(np.uint64))


def test_stopping_policy_where_erfcx_overflows(stop_sol):
    # a boundary at w = -30, where erfcx overflows: 1/u2 is 0 there and
    # the control is -2*rho*(y - mu/rho)
    sp = stop_sol.params
    sol = dataclasses.replace(stop_sol, x0=sp.mu / sp.rho - 30.0 / math.sqrt(sp.rho))
    u = sol.policy(np.array([sol.x0, math.nan, sp.mu / sp.rho]))
    # h = exp(-w^2)/(sqrt(pi)*erfc(w)) - w = 30 to rounding at w = -30
    assert u[0] == pytest.approx(2.0 * math.sqrt(sp.rho) * 30.0, rel=1e-15)
    assert u[1] == 0.0
    # h(0) = 1/sqrt(pi), on the erfcx branch
    assert u[2] == pytest.approx(2.0 * math.sqrt(sp.rho) / math.sqrt(math.pi), rel=1e-15)


# --- no silent non-finite result ---


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_stopping_control_nan_inf_negative_rejected(stop_sol, value):
    g = PathGrid(0.0, 10.0, 100)
    with pytest.raises(PolicyError, match="stopping control"):
        stopping_cost_report(sol=stop_sol, g=g, y_start=2.0, n_paths=10, seed=0,
                             control=lambda y: np.full(np.shape(y), value), **SP_KW)


def test_stopping_overflowing_cost_is_solver_error(stop_sol):
    # a finite control whose running cost overflows
    g = PathGrid(0.0, 10.0, 100)
    with pytest.raises(SolverError, match="non-finite"):
        stopping_cost_report(sol=stop_sol, g=g, y_start=2.0, n_paths=10, seed=0,
                             control=lambda y: np.full(np.shape(y), 1e200), **SP_KW)


def test_stopping_nan_state_stops_on_its_step(stop_sol, monkeypatch):
    # NaN normals make every state NaN after the first step: a NaN
    # minimum counts as a stop, so the path ends there instead of running
    # on to the horizon under the policy's control for NaN
    _empty_cache(monkeypatch)
    monkeypatch.setattr(sde, "_draw", lambda seed, indices, k0, k1, antithetic=False:
                        np.full((k1 - k0, indices.size), math.nan))
    g = PathGrid(0.0, 10.0, 100)
    res = simulate_stopped(sol=stop_sol, g=g, y_start=2.0, seed=0, **SP_KW)
    assert not res.truncated and res.tau == g.nodes()[1] and res.y_path.size == 2
    assert math.isnan(res.cost)
    with pytest.raises(SolverError, match="non-finite"):
        stopping_cost_report(sol=stop_sol, g=g, y_start=2.0, n_paths=10, seed=0, **SP_KW)


def test_evaluate_policy_nan_loss_rejected():
    g = PathGrid(0.0, 1.0, 10)
    with pytest.raises(ParamError, match="loss"):
        evaluate_policy(P, Policy.constant(1.0), lambda x: x,
                        lambda u: np.full(np.shape(u), math.nan), 0.0, 1.0, g, 10, 1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_evaluate_policy_non_finite_sample_is_solver_error(value):
    g = PathGrid(0.0, 1.0, 10)
    reward = lambda x: np.where(x > 1.0, value, x)
    with pytest.raises(SolverError, match="non-finite"):
        evaluate_policy(P, Policy.constant(1.0), reward, lambda u: u, 0.0, 1.0, g, 10, 1)
