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
    SolverError,
    evaluate_policy,
    simulate_path,
    simulate_stopped,
    solve_linear,
    solve_stopping,
    stopping_cost_report,
)
from adkit import sde
from adkit.model import ControlSet, diffusion, drift
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
        "table": (P, Policy.from_table([0.0, 0.4, 1.0], [0.1, 0.9, 0.3])),
        "lq": (P_LQ, lq_feedback(ric, P_LQ)),
        # state-dependent, bounded, and one that returns the state array
        "custom": (P_LQ, Policy("custom", lambda t, x: np.clip(np.sin(3.0 * x) + t, 0.0, 2.0),
                                ControlSet(0.0, 2.0))),
        "identity": (P_LQ, Policy("identity", lambda t, x: x, ControlSet(-math.inf, math.inf))),
    }


POLICIES = _policies()


@pytest.mark.parametrize("n_steps", [1, 7])
@pytest.mark.parametrize("block_size", [1, 63, 64, 65])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_evaluate_policy_matches_reference_loop(kind, antithetic, block_size, n_steps):
    p, pol = POLICIES[kind]
    g = PathGrid(0.0, p.T, n_steps)
    reward = lambda x: p.gamma0 * x * x
    loss = lambda u: u * u
    rep = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, 257, 17, antithetic=antithetic,
                          block_size=block_size, keep_samples=True)
    samples, min_state = _ref_evaluate(p, pol, reward, loss, 1.0, g, 257, 17, antithetic,
                                       block_size)
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


@pytest.mark.parametrize("block_size", [1, 63, 64, 65])
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
def test_stopping_cost_report_matches_reference_loop(stop_sol, case, y_offset, t_end, n_steps,
                                                     control, block_size):
    g = PathGrid(0.0, t_end, n_steps)
    y = stop_sol.x0 + y_offset
    ctl = _stop_control(control, stop_sol)
    rep = stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=257, seed=21,
                               control=ctl, keep_samples=True, block_size=block_size, **SP_KW)
    feedback = stop_sol.policy if ctl is None else ctl
    samples, min_state, trunc = _ref_stopping(
        SP_KW["mu"], SP_KW["rho"], SP_KW["gamma1"], SP_KW["gamma2"], stop_sol.x0, feedback, g,
        y, 257, 21, block_size)
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


def test_windowed_block_fills_only_requested_paths(monkeypatch):
    monkeypatch.setattr(sde, "_last", None)
    idx = np.arange(10, 20, dtype=np.int64)
    ref = _reference_normals(4, idx, 150, False)
    src = sde._Windows(4, idx, 150)
    w = src.window(128, np.array([1, 4, 9]))
    assert w.shape == (150 - 128, 10)
    np.testing.assert_array_equal(w[:, [1, 4, 9]].view(np.uint64),
                                  ref[[1, 4, 9], 128:].T.view(np.uint64))
    assert sde._last[2][2].tolist() == [i in (1, 4, 9) for i in range(10)]
    assert not sde._last[2][:2].any()
    # a second source on the same key sees the drawn paths and adds more
    w = sde._Windows(4, idx, 150).window(128, np.arange(10))
    np.testing.assert_array_equal(w.view(np.uint64), ref[:, 128:].T.view(np.uint64))
    assert sde._last[2][2].all()


def test_stopping_all_paths_truncated_matches_reference(stop_sol):
    # every path survives past two windows to the last node
    g = PathGrid(0.0, 0.5, 150)
    y = stop_sol.x0 + 5.0
    rep = stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=100, seed=8,
                               keep_samples=True, block_size=60, **SP_KW)
    samples, min_state, trunc = _ref_stopping(
        SP_KW["mu"], SP_KW["rho"], SP_KW["gamma1"], SP_KW["gamma2"], stop_sol.x0,
        stop_sol.policy, g, y, 100, 8, 60)
    assert rep.truncated_fraction == trunc == 1.0
    np.testing.assert_array_equal(rep.samples.view(np.uint64), samples.view(np.uint64))
    assert rep.min_state == min_state


def test_stopping_after_failed_run_on_same_key_matches_reference(stop_sol, monkeypatch):
    monkeypatch.setattr(sde, "_last", None)
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
    assert sde._last[2][:2].any()
    rep = stopping_cost_report(sol=stop_sol, g=g, y_start=y, n_paths=300, seed=3,
                               keep_samples=True, **SP_KW)
    samples, min_state, trunc = _ref_stopping(
        SP_KW["mu"], SP_KW["rho"], SP_KW["gamma1"], SP_KW["gamma2"], stop_sol.x0,
        stop_sol.policy, g, y, 300, 3, sde.DEFAULT_BLOCK)
    np.testing.assert_array_equal(rep.samples.view(np.uint64), samples.view(np.uint64))
    assert rep.min_state == min_state
    assert rep.truncated_fraction == trunc


def test_stopping_inverts_only_the_normals_it_reads(stop_sol, monkeypatch):
    # the benchmark's paired stopping instance: 2,000 paths x 4,000 steps
    count = [0]

    def counting(x, out=None):
        count[0] += np.size(x)
        return ndtri(x, out=out)

    monkeypatch.setattr(sde, "ndtri", counting)
    monkeypatch.setattr(sde, "_last", None)
    g = PathGrid(0.0, 40.0, 4000)
    kw = dict(sol=stop_sol, g=g, y_start=stop_sol.x0 + 1.0, n_paths=2000, seed=99, **SP_KW)
    rep = stopping_cost_report(**kw)
    assert rep.truncated_fraction == 0.0
    assert 0 < count[0] < 0.1 * 2000 * 4000
    # the same block again draws nothing
    first = count[0]
    stopping_cost_report(**kw)
    assert count[0] == first


# --- no silent non-finite result ---


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_stopping_control_nan_inf_negative_rejected(stop_sol, value):
    g = PathGrid(0.0, 10.0, 100)
    with pytest.raises(PolicyError, match="stopping control"):
        stopping_cost_report(sol=stop_sol, g=g, y_start=2.0, n_paths=10, seed=0,
                             control=lambda y: np.full(np.shape(y), value), **SP_KW)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stopping_overflowing_cost_is_solver_error(stop_sol):
    # a finite control whose running cost overflows
    g = PathGrid(0.0, 10.0, 100)
    with pytest.raises(SolverError, match="non-finite"):
        stopping_cost_report(sol=stop_sol, g=g, y_start=2.0, n_paths=10, seed=0,
                             control=lambda y: np.full(np.shape(y), 1e200), **SP_KW)


def test_evaluate_policy_nan_loss_rejected():
    g = PathGrid(0.0, 1.0, 10)
    with pytest.raises(ParamError, match="loss"):
        evaluate_policy(P, Policy.constant(1.0), lambda x: x,
                        lambda u: np.full(np.shape(u), math.nan), 0.0, 1.0, g, 10, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_evaluate_policy_non_finite_sample_is_solver_error(value):
    g = PathGrid(0.0, 1.0, 10)
    reward = lambda x: np.where(x > 1.0, value, x)
    with pytest.raises(SolverError, match="non-finite"):
        evaluate_policy(P, Policy.constant(1.0), reward, lambda u: u, 0.0, 1.0, g, 10, 1)
