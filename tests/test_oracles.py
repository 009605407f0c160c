import math

import numpy as np
import pytest

from adkit import (
    Grid2D,
    ModelParams,
    ParamError,
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
