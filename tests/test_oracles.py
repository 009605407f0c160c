import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from adkit import (
    Grid2D,
    ModelParams,
    ParamError,
    SolverError,
    StableRangeError,
    StoppingParams,
    dp_linear,
    dp_qvi_stopping,
    fd_hjb_lq,
    riccati_integrate,
    solve_linear,
    solve_stopping,
    u_max_oracle,
)

P_LIN = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)
P_LQ = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
SP = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)


def test_grid2d_validation():
    g = Grid2D(0.0, 2.0, 21, 16)
    assert g.dx == pytest.approx(0.1)
    assert g.x_nodes().shape == (21,)
    with pytest.raises(ParamError):
        Grid2D(2.0, 0.0, 21, 16)
    with pytest.raises(ParamError):
        Grid2D(0.0, 2.0, 4, 16)
    with pytest.raises(ParamError):
        Grid2D(0.0, 2.0, 21, 16, boundary_mode="periodic")


def test_grid2d_reports_every_violation():
    with pytest.raises(ParamError) as exc:
        Grid2D(1.0, 0.0, 1, 0)
    assert exc.value.violations == ["x_lo < x_hi", "n_x >= 16", "n_t >= 16"]


def test_dp_linear_recovers_switch_time():
    r = dp_linear(P_LIN, 10 ** 4)
    sol = solve_linear(P_LIN)
    assert abs(r.t_star_hat - sol.t_star) <= P_LIN.T / 10 ** 4
    assert r.value_hat == pytest.approx(sol.value(0.0, P_LIN.x_init), rel=1e-7)
    assert r.s_grid.shape == r.values.shape == (10 ** 4 + 1,)


def test_dp_linear_gamma0_one_switches_at_horizon():
    r = dp_linear(ModelParams(rho=0.5, c=0.1, T=1.0), 1000)
    assert r.t_star_hat == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dp_linear_out_of_range_is_stable_range_error():
    # m/rho and m/c overflow against factors that round to 0: every
    # grid value used to be NaN
    p = ModelParams(rho=1e-300, c=1e-300, T=1.0, m=1e300)
    with pytest.raises(StableRangeError, match="dp_linear"):
        dp_linear(p, 100)


def test_dp_linear_requires_enough_nodes():
    with pytest.raises(ParamError):
        dp_linear(P_LIN, 50)


def test_fd_hjb_lq_coarse_agreement():
    sol = riccati_integrate(P_LQ)
    g = Grid2D(0.0, 4.0, 101, 501)
    u_hi = u_max_oracle(P_LQ, sol)
    res = fd_hjb_lq(P_LQ, g, np.linspace(0.0, u_hi, 41))
    ref = -float(sol.P[0]) * P_LQ.x_init ** 2
    assert res.value_at(P_LQ.x_init) == pytest.approx(ref, rel=0.01)
    assert not res.cap_hit
    assert res.substeps >= 500


def test_fd_hjb_lq_large_step():
    # explicit ratio ~699: the implicit step needs no substeps
    sol = riccati_integrate(P_LQ)
    g = Grid2D(0.0, 4.0, 201, 20)
    res = fd_hjb_lq(P_LQ, g, np.linspace(0.0, 3.0, 21))
    assert res.cfl_ratio > 600
    assert res.substeps == 19
    assert np.all(np.isfinite(res.v0))
    assert not res.cap_hit
    ref = -float(sol.P[0]) * P_LQ.x_init ** 2
    assert res.value_at(P_LQ.x_init) == pytest.approx(ref, rel=0.02)


def test_fd_hjb_lq_reflecting_maximum_principle():
    # no control cost, mirror ghosts: each step solves with an M-matrix
    # whose rows sum to 1, so the value stays within the terminal's range
    p = ModelParams(rho=0.5, c=0.3, T=1.0, sigma0=0.3, sigma1=0.2)
    g = Grid2D(0.0, 4.0, 201, 20, boundary_mode="reflecting")
    res = fd_hjb_lq(p, g, [0.0], terminal=lambda x: np.sin(3.0 * x))
    assert res.substeps == 19
    assert float(np.max(np.abs(res.v0))) <= 1.0


def test_fd_hjb_lq_custom_terminal():
    # zero terminal reward, zero noise, u=0 only: value is identically zero
    p = ModelParams(rho=0.5, c=0.0, T=1.0)
    g = Grid2D(0.0, 2.0, 51, 51)
    res = fd_hjb_lq(p, g, np.array([0.0]), terminal=lambda x: np.zeros_like(x))
    assert float(np.max(np.abs(res.v0))) == 0.0


def test_u_max_oracle_bounds_the_gain():
    sol = riccati_integrate(P_LQ)
    u_hi = u_max_oracle(P_LQ, sol)
    assert u_hi == pytest.approx(3.1428571428571432, abs=1e-12)
    gains = np.asarray(sol.gain_at(sol.t))
    assert u_hi >= 5.0 * float(gains.max()) * P_LQ.x_init - 1e-12


def test_dp_qvi_boundary_coarse():
    ssol = solve_stopping(SP)
    g = Grid2D(0.0, 5.4, 1081, 16)
    res = dp_qvi_stopping(SP, g, np.linspace(0.0, 1.0, 101))
    assert res.converged
    assert abs(res.boundary_hat - ssol.x0) <= 1e-2
    assert res.iterations <= 50


def test_dp_qvi_value_below_obstacle():
    g = Grid2D(0.0, 5.4, 541, 16)
    res = dp_qvi_stopping(SP, g, np.linspace(0.0, 1.0, 51))
    x = res.x
    assert np.all(res.v <= x * x + 1e-10)
    assert np.all(res.v >= 0.0)


def test_dp_qvi_monotone_in_obstacle():
    # raising the obstacle can only raise the fixed point
    g = Grid2D(0.0, 5.4, 271, 16)
    u_grid = np.linspace(0.0, 1.0, 51)
    lo = dp_qvi_stopping(SP, g, u_grid)
    hi = dp_qvi_stopping(SP, g, u_grid, obstacle=lambda x: x * x + 0.05)
    assert np.all(hi.v >= lo.v - 1e-12)


def test_dp_qvi_value_interpolator():
    ssol = solve_stopping(SP)
    g = Grid2D(0.0, 5.4, 1081, 16)
    res = dp_qvi_stopping(SP, g, np.linspace(0.0, 1.0, 101))
    y = ssol.x0 + 1.0
    assert res.value_at(y) == pytest.approx(float(ssol.value(y)), rel=2e-3)


# ---- reference loops: one solve_banded call per FD step, and the
# obstacle sweep on numpy scalars. The oracles must match them bit for bit.


def _ref_fd_hjb_lq(p, g, u_grid, terminal=None):
    u = np.asarray(u_grid, dtype=float).reshape(-1)
    x = g.x_nodes()
    n = g.n_x
    dx = g.dx
    dt = p.T / (g.n_t - 1)
    b = u[:, None] - p.rho * x[None, :]
    sig = p.sigma0 + p.sigma1 * np.abs(x)[None, :] + p.sigma2 * u[:, None]
    s2h = 0.5 * sig * sig
    usq = u * u
    up = np.maximum(b, 0.0) / dx + s2h / (dx * dx)
    lo = np.maximum(-b, 0.0) / dx + s2h / (dx * dx)
    v = p.gamma * x * x if terminal is None else np.asarray(terminal(x), dtype=float).copy()
    ab = np.zeros((5, n))
    nodes = np.arange(n)
    cap_hit = False
    reflect = g.boundary_mode == "reflecting"
    for k in range(g.n_t - 2, -1, -1):
        w = math.exp(-p.c * k * dt)
        if reflect:
            lo_ghost, hi_ghost = v[1], v[-2]
        else:
            lo_ghost = 3.0 * v[0] - 3.0 * v[1] + v[2]
            hi_ghost = 3.0 * v[-1] - 3.0 * v[-2] + v[-3]
        ve = np.concatenate(([lo_ghost], v, [hi_ghost]))
        ham = up * (ve[2:] - v) + lo * (ve[:-2] - v) - (w * usq)[:, None]
        pick = np.argmax(ham, axis=0)
        if u.size > 1 and not cap_hit:
            cap_hit = bool(np.any(pick == u.size - 1))
        a_up = dt * up[pick, nodes]
        a_lo = dt * lo[pick, nodes]
        ab[2] = 1.0 + a_up + a_lo
        ab[1, 1:] = -a_up[:-1]
        ab[3, :-1] = -a_lo[1:]
        if reflect:
            ab[1, 1] -= a_lo[0]
            ab[3, n - 2] -= a_up[-1]
        else:
            ab[2, 0] -= 3.0 * a_lo[0]
            ab[1, 1] += 3.0 * a_lo[0]
            ab[0, 2] = -a_lo[0]
            ab[2, -1] -= 3.0 * a_up[-1]
            ab[3, n - 2] += 3.0 * a_up[-1]
            ab[4, n - 3] = -a_up[-1]
        v = solve_banded((2, 2), ab, v - dt * w * usq[pick], check_finite=False)
    return v, cap_hit


def _ref_dp_qvi_stopping(sp, g, u_grid, tol=1e-10, max_iter=300, obstacle=None):
    u = np.asarray(u_grid, dtype=float).reshape(-1)
    x = g.x_nodes()
    dx = g.dx
    n = g.n_x
    obs = x * x if obstacle is None else np.asarray(obstacle(x), dtype=float)
    b = sp.mu - sp.rho * x[None, :] - u[:, None]
    norm = 1.0 + dx * np.abs(b)
    p_up = (0.5 + dx * np.maximum(b, 0.0)) / norm
    p_dn = (0.5 + dx * np.maximum(-b, 0.0)) / norm
    cost = dx * dx / norm * (sp.gamma1 * (u * u)[:, None] + sp.gamma2)

    def best(v):
        ve = np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))
        return np.argmin(p_up * ve[2:][None, :] + p_dn * ve[:-2][None, :] + cost, axis=0)

    v = obs.copy()
    all_i = np.arange(n)
    u_idx = best(v)
    for iterations in range(1, max_iter + 1):
        pu = p_up[u_idx, all_i]
        pd = p_dn[u_idx, all_i]
        rhs = cost[u_idx, all_i]
        diag = np.ones(n)
        upper = -pu
        lower = -pd
        diag[-1] = 1.0 - 2.0 * pu[-1]
        lower[-1] = pu[-1] - pd[-1]
        dtil = np.empty(n)
        rtil = np.empty(n)
        dtil[-1] = diag[-1]
        rtil[-1] = rhs[-1]
        for i in range(n - 2, 0, -1):
            f = upper[i] / dtil[i + 1]
            dtil[i] = diag[i] - f * lower[i + 1]
            rtil[i] = rhs[i] - f * rtil[i + 1]
        v_new = np.empty(n)
        v_new[0] = obs[0]
        for i in range(1, n):
            v_new[i] = min((rtil[i] - lower[i] * v_new[i - 1]) / dtil[i], obs[i])
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        u_new = best(v)
        stable = bool(np.array_equal(u_new, u_idx))
        u_idx = u_new
        if stable and delta <= tol:
            break
    below = np.nonzero(obs - v > 1e-8)[0]
    boundary_hat = float(x[below[0]]) if below.size else float(x[-1])
    return v, iterations, boundary_hat


MODES = ("extrapolating", "reflecting")
FD_CONTROLS = {
    "81": np.linspace(0.0, 3.1428571428571432, 81),
    "81-capped": np.linspace(0.0, 0.3, 81),
    "1": np.array([0.4]),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("controls", sorted(FD_CONTROLS))
@pytest.mark.parametrize("terminal", [None, lambda x: np.sin(3.0 * x)])
def test_fd_hjb_lq_matches_solve_banded_reference(mode, controls, terminal):
    g = Grid2D(0.0, 4.0, 41, 60, boundary_mode=mode)
    u = FD_CONTROLS[controls]
    res = fd_hjb_lq(P_LQ, g, u, terminal=terminal)
    v0, cap_hit = _ref_fd_hjb_lq(P_LQ, g, u, terminal=terminal)
    assert np.array_equal(res.v0, v0)
    assert res.cap_hit == cap_hit
    if terminal is None:
        # both cap_hit outcomes are covered
        assert res.cap_hit == (controls == "81-capped")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n_u", [1, 81])
@pytest.mark.parametrize("obstacle", [None, lambda x: x * x + 0.05])
def test_dp_qvi_matches_numpy_scalar_reference(mode, n_u, obstacle):
    g = Grid2D(0.0, 5.4, 271, 16, boundary_mode=mode)
    u = np.linspace(0.0, 1.0, n_u) if n_u > 1 else np.array([0.5])
    res = dp_qvi_stopping(SP, g, u, obstacle=obstacle)
    v, iterations, boundary_hat = _ref_dp_qvi_stopping(SP, g, u, obstacle=obstacle)
    assert np.array_equal(res.v, v)
    assert res.iterations == iterations
    assert res.boundary_hat == boundary_hat


# ---- input contract

FD_GRID = Grid2D(0.0, 4.0, 41, 30)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fd_hjb_lq_non_finite_control_is_param_error(bad):
    with pytest.raises(ParamError, match="u_grid"):
        fd_hjb_lq(P_LQ, FD_GRID, [0.0, bad])


def test_fd_hjb_lq_control_cost_overflow_is_stable_range_error():
    # u^2 and the noise (sigma2*u)^2 overflow; v0 used to come back NaN
    with pytest.raises(StableRangeError, match="fd_hjb_lq"):
        fd_hjb_lq(P_LQ, FD_GRID, [0.0, 1e200])


def _overflowing_terminal(x):
    with np.errstate(over="ignore"):
        return 1e308 * np.exp(x)


@pytest.mark.parametrize("terminal", [
    lambda x: np.full_like(x, math.nan),
    _overflowing_terminal,
    lambda x: x[:-1],
    lambda x: 1.0,
    lambda x: ["a"] * len(x),
])
def test_fd_hjb_lq_bad_terminal_is_param_error(terminal):
    with pytest.raises(ParamError, match="terminal"):
        fd_hjb_lq(P_LQ, FD_GRID, [0.0, 1.0], terminal=terminal)


def test_fd_hjb_lq_value_overflow_is_stable_range_error():
    # a finite terminal near the top of the double range: the march
    # overflows, which used to come back as a non-finite v0
    with pytest.raises(StableRangeError, match="fd_hjb_lq"):
        fd_hjb_lq(P_LQ, FD_GRID, np.linspace(0.0, 3.0, 21),
                  terminal=lambda x: 1.7e308 * (x > 3.5))


def test_fd_hjb_lq_lapack_failure_is_solver_error(monkeypatch):
    import adkit.oracles

    real = adkit.oracles.get_lapack_funcs

    def singular_gbsv(names, arrays):
        (gbsv,) = real(names, arrays)
        return (lambda *args, **kwargs: gbsv(*args, **kwargs)[:3] + (3,),)

    monkeypatch.setattr(adkit.oracles, "get_lapack_funcs", singular_gbsv)
    with pytest.raises(SolverError, match="LAPACK info 3"):
        fd_hjb_lq(P_LQ, FD_GRID, [0.0, 1.0])


QVI_GRID = Grid2D(0.0, 5.4, 271, 16)


@pytest.mark.parametrize("kwargs", [
    {"tol": math.nan},
    {"tol": 0.0},
    {"max_iter": 0},
    {"max_iter": -3},
])
def test_dp_qvi_bad_iteration_control_is_param_error(kwargs):
    with pytest.raises(ParamError):
        dp_qvi_stopping(SP, QVI_GRID, np.linspace(0.0, 1.0, 11), **kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dp_qvi_non_finite_control_is_param_error(bad):
    with pytest.raises(ParamError, match="u_grid"):
        dp_qvi_stopping(SP, QVI_GRID, [0.0, bad])


def test_dp_qvi_bad_obstacle_is_param_error():
    with pytest.raises(ParamError, match="obstacle"):
        dp_qvi_stopping(SP, QVI_GRID, [0.0], obstacle=lambda x: x[1:])


def test_dp_qvi_zero_last_pivot_is_solver_error():
    # zero drift at x_hi (mu = rho*x_hi, u = 0): the ghost row's pivot
    # 1 - 2*pu is exactly 0, and must not reach a division
    sp = StoppingParams(k=2.0, rho=0.5, gamma1=2.0, gamma2=2.0)
    g = Grid2D(0.0, 2.0, 21, 16)
    with pytest.raises(SolverError, match="lost positivity"):
        dp_qvi_stopping(sp, g, [0.0])
