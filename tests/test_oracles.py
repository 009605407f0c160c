import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

import adkit.oracles
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
    riccati_oracle,
    solve_linear,
    solve_stopping,
    u_max_oracle,
)

P_LIN = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)
P_LQ = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
# P(0) of P_LQ from the oracle at its default tolerance
P_LQ_P0 = -0.29692583966290625
SP = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)


def test_grid2d_validation():
    g = Grid2D(0.0, 2.0, 21, 16)
    assert g.dx == pytest.approx(0.1)
    assert g.x_nodes().shape == (21,)
    with pytest.raises(ParamError):
        Grid2D(2.0, 0.0, 21, 16)
    with pytest.raises(ParamError):
        Grid2D(0.0, 2.0, 4, 16)


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


@pytest.mark.parametrize("c", [1e-12, 1e-14])
def test_dp_linear_small_discount_rate(c):
    # (m/c)*(exp(-c*s) - exp(-c*T)) cancelled here, and put the switch
    # 11.6 and 20.4 grid steps from the closed form
    p = ModelParams(rho=0.5, c=c, T=1.0, gamma0=1.2)
    n = 10 ** 4
    assert abs(dp_linear(p, n).t_star_hat - solve_linear(p).t_split) <= p.T / n


def test_dp_linear_gamma0_one_switches_at_horizon():
    r = dp_linear(ModelParams(rho=0.5, c=0.1, T=1.0), 1000)
    assert r.t_star_hat == 1.0


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


def test_dp_qvi_monotone_in_running_cost():
    # raising both running-cost weights can only raise the fixed point
    g = Grid2D(0.0, 5.4, 271, 16)
    u_grid = np.linspace(0.0, 1.0, 51)
    lo = dp_qvi_stopping(SP, g, u_grid)
    hi = dp_qvi_stopping(StoppingParams(k=1.0, rho=0.5, gamma1=2.5, gamma2=2.5), g, u_grid)
    assert np.all(hi.v >= lo.v - 1e-12)
    assert np.any(hi.v > lo.v)


def test_dp_qvi_value_interpolator():
    ssol = solve_stopping(SP)
    g = Grid2D(0.0, 5.4, 1081, 16)
    res = dp_qvi_stopping(SP, g, np.linspace(0.0, 1.0, 101))
    y = ssol.x0 + 1.0
    assert res.value_at(y) == pytest.approx(float(ssol.value(y)), rel=2e-3)


# ---- reference loops: one solve_banded call per FD step, and the
# obstacle sweep on numpy scalars. The oracles must match them bit for bit.


def _ref_fd_hjb_lq(p, g, u_grid):
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
    v = p.gamma * x * x
    ab = np.zeros((5, n))
    nodes = np.arange(n)
    cap_hit = False
    top = np.argmax(u)
    for k in range(g.n_t - 2, -1, -1):
        w = math.exp(-p.c * k * dt)
        lo_ghost = 3.0 * v[0] - 3.0 * v[1] + v[2]
        hi_ghost = 3.0 * v[-1] - 3.0 * v[-2] + v[-3]
        ve = np.concatenate(([lo_ghost], v, [hi_ghost]))
        ham = up * (ve[2:] - v) + lo * (ve[:-2] - v) - (w * usq)[:, None]
        pick = np.argmax(ham, axis=0)
        if u.size > 1 and not cap_hit:
            cap_hit = bool(np.any(pick == top))
        a_up = dt * up[pick, nodes]
        a_lo = dt * lo[pick, nodes]
        ab[2] = 1.0 + a_up + a_lo
        ab[1, 1:] = -a_up[:-1]
        ab[3, :-1] = -a_lo[1:]
        ab[2, 0] -= 3.0 * a_lo[0]
        ab[1, 1] += 3.0 * a_lo[0]
        ab[0, 2] = -a_lo[0]
        ab[2, -1] -= 3.0 * a_up[-1]
        ab[3, n - 2] += 3.0 * a_up[-1]
        ab[4, n - 3] = -a_up[-1]
        v = solve_banded((2, 2), ab, v - dt * w * usq[pick], check_finite=False)
    return v, cap_hit


def _ref_dp_qvi_stopping(sp, g, u_grid):
    u = np.asarray(u_grid, dtype=float).reshape(-1)
    x = g.x_nodes()
    dx = g.dx
    n = g.n_x
    obs = x * x
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
    for iterations in range(1, 301):
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
        if stable and delta <= 1e-10:
            break
    below = np.nonzero(obs - v > 1e-8)[0]
    boundary_hat = float(x[below[0]]) if below.size else float(x[-1])
    return v, iterations, boundary_hat


FD_CONTROLS = {
    "81": np.linspace(0.0, 3.1428571428571432, 81),
    "81-capped": np.linspace(0.0, 0.3, 81),
    "1": np.array([0.4]),
}


# model and grid pairs for the FD reference check, beside P_LQ above: a
# state-noise kink at x = 0 inside the grid with c = 0, a noiseless model
# (pure upwind drift) on the smallest grid Grid2D accepts, and constant
# plus strong control noise on a wide grid
FD_CASES = {
    "noisy": (ModelParams(rho=0.8, c=0.3, T=1.5, sigma0=0.3, sigma2=1.0, gamma0=0.2),
              Grid2D(0.0, 6.0, 61, 25)),
    "kink": (ModelParams(rho=0.3, c=0.0, T=0.8, sigma0=0.1, sigma1=0.3, sigma2=0.2,
                         gamma0=0.7), Grid2D(-2.0, 3.0, 51, 40)),
    "no-noise": (ModelParams(rho=1.0, c=0.5, T=2.0, gamma0=2.0), Grid2D(0.0, 2.0, 16, 16)),
}


@pytest.mark.parametrize("controls", sorted(FD_CONTROLS))
def test_fd_hjb_lq_matches_solve_banded_reference(controls):
    g = Grid2D(0.0, 4.0, 41, 60)
    u = FD_CONTROLS[controls]
    res = fd_hjb_lq(P_LQ, g, u)
    v0, cap_hit = _ref_fd_hjb_lq(P_LQ, g, u)
    assert np.array_equal(res.v0, v0)
    assert res.cap_hit == cap_hit
    # both cap_hit outcomes are covered
    assert res.cap_hit == (controls == "81-capped")


@pytest.mark.parametrize("order", ["reversed", "mirrored"])
def test_fd_hjb_lq_cap_hit_ignores_control_order(order):
    # the capped grid with its largest control first, and ascending then
    # descending (the largest twice, at indices 80 and 81): the value is
    # the ascending grid's and the cap is still reported hit
    g = Grid2D(0.0, 4.0, 41, 60)
    u = FD_CONTROLS["81-capped"]
    shuffled = u[::-1] if order == "reversed" else np.concatenate((u, u[::-1]))
    asc = fd_hjb_lq(P_LQ, g, u)
    res = fd_hjb_lq(P_LQ, g, shuffled)
    v0, cap_hit = _ref_fd_hjb_lq(P_LQ, g, shuffled)
    assert np.array_equal(res.v0, asc.v0)
    assert np.array_equal(res.v0, v0)
    assert asc.cap_hit and res.cap_hit and cap_hit


@pytest.mark.parametrize("controls", sorted(FD_CONTROLS))
@pytest.mark.parametrize("case", sorted(FD_CASES))
def test_fd_hjb_lq_matches_reference_across_models(case, controls):
    p, g = FD_CASES[case]
    u = FD_CONTROLS[controls]
    res = fd_hjb_lq(p, g, u)
    v0, cap_hit = _ref_fd_hjb_lq(p, g, u)
    assert np.array_equal(res.v0, v0)
    assert np.array_equal(res.x, g.x_nodes())
    assert res.cap_hit == cap_hit
    assert res.substeps == g.n_t - 1


# stopping instances for the QVI reference check, beside SP above: no
# drift (k = 0), a faster mean reversion on a shorter grid, a slower one
# with a far target on a wide grid, and SP on the 1,081-node grid of
# adkit verify, four full QVI_CHUNK blocks of nodes and part of a fifth
QVI_CASES = {
    "slow": (StoppingParams(k=2.0, rho=0.25, gamma1=3.0, gamma2=1.5), Grid2D(0.0, 8.0, 161, 16)),
    "k0": (StoppingParams(k=0.0, rho=0.5, gamma1=2.0, gamma2=2.0), Grid2D(0.0, 3.0, 151, 16)),
    "fast": (StoppingParams(k=0.5, rho=1.0, gamma1=1.5, gamma2=3.0), Grid2D(0.0, 3.0, 151, 16)),
    "chunked": (SP, Grid2D(0.0, 5.4, 1081, 16)),
}
# a control list out of order, with a repeat
QVI_UNSORTED = [0.7, 0.0, 0.3, 0.3]


def _qvi_controls(n_u):
    return np.linspace(0.0, 1.0, n_u) if n_u > 1 else np.array([0.5])


@pytest.mark.parametrize("n_u", [1, 81])
def test_dp_qvi_matches_numpy_scalar_reference(n_u):
    g = Grid2D(0.0, 5.4, 271, 16)
    u = _qvi_controls(n_u)
    res = dp_qvi_stopping(SP, g, u)
    v, iterations, boundary_hat = _ref_dp_qvi_stopping(SP, g, u)
    assert np.array_equal(res.v, v)
    assert res.iterations == iterations
    assert res.boundary_hat == boundary_hat


@pytest.mark.parametrize("controls", ["1", "11", "81", "unsorted"])
@pytest.mark.parametrize("case", sorted(QVI_CASES))
def test_dp_qvi_matches_reference_across_models(case, controls):
    sp, g = QVI_CASES[case]
    u = QVI_UNSORTED if controls == "unsorted" else _qvi_controls(int(controls))
    res = dp_qvi_stopping(sp, g, u)
    v, iterations, boundary_hat = _ref_dp_qvi_stopping(sp, g, u)
    assert np.array_equal(res.v, v)
    assert res.iterations == iterations
    assert res.boundary_hat == boundary_hat
    assert res.converged


def test_dp_qvi_working_set():
    # criterion 9's grid, 5,401 nodes x 101 controls. One (101, 5401)
    # float64 array is 4.36 MB, and a solver that keeps its coefficients
    # for the whole grid peaks at 26.5-27.8 MB. The chunked control
    # search peaks at 2.92 MB; the bound leaves 37% headroom over that
    # and stays below one such array
    g = Grid2D(0.0, 5.4, 5401, 16)
    u = np.linspace(0.0, 1.0, 101)
    tracemalloc.start()
    try:
        dp_qvi_stopping(SP, g, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0e6, peak


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


def test_fd_hjb_lq_value_overflow_is_stable_range_error():
    # gamma*x^2 overflows on [0, 4]: the terminal product warned before
    # the StableRangeError, and the march used to return a non-finite v0
    p = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=1e308)
    with pytest.raises(StableRangeError, match="fd_hjb_lq"):
        fd_hjb_lq(p, FD_GRID, np.linspace(0.0, 3.0, 21))


@pytest.mark.parametrize("g", [Grid2D(-4.0, 0.0, 41, 30), Grid2D(-4.0, 4.0, 81, 16)],
                         ids=["negative", "two-sided"])
def test_fd_hjb_lq_terminal_overflow_left_of_zero(g):
    # the terminal gamma*x^2 overflows at x_lo as well as at x_hi
    p = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=1e308)
    with pytest.raises(StableRangeError, match="fd_hjb_lq"):
        fd_hjb_lq(p, g, [0.0, 1.0])


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


def test_dp_qvi_sweep_limit_is_solver_error(monkeypatch):
    # QVI_GRID takes more than one sweep to settle
    monkeypatch.setattr(adkit.oracles, "QVI_MAX_SWEEPS", 1)
    with pytest.raises(SolverError, match="did not converge in 1 sweeps"):
        dp_qvi_stopping(SP, QVI_GRID, np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("n_u", [1, 11, 81])
def test_dp_qvi_sweep_limit_is_inclusive(monkeypatch, n_u):
    # a run that settles on sweep N converges with QVI_MAX_SWEEPS = N,
    # to the same value, and fails with QVI_MAX_SWEEPS = N - 1
    u = _qvi_controls(n_u)
    free = dp_qvi_stopping(SP, QVI_GRID, u)
    monkeypatch.setattr(adkit.oracles, "QVI_MAX_SWEEPS", free.iterations)
    capped = dp_qvi_stopping(SP, QVI_GRID, u)
    assert capped.converged and capped.iterations == free.iterations
    assert np.array_equal(capped.v, free.v)
    monkeypatch.setattr(adkit.oracles, "QVI_MAX_SWEEPS", free.iterations - 1)
    with pytest.raises(SolverError, match="did not converge in %d sweeps"
                       % (free.iterations - 1)):
        dp_qvi_stopping(SP, QVI_GRID, u)


@pytest.mark.parametrize("tol, sweeps_saved", [(1e-3, 1), (1e-6, 0)])
def test_dp_qvi_looser_tol_stops_no_later(monkeypatch, tol, sweeps_saved):
    # the stopping rule reads QVI_TOL at call time; on QVI_GRID the
    # fourth sweep moves the value by less than 1e-3 but more than 1e-6
    u = _qvi_controls(81)
    tight = dp_qvi_stopping(SP, QVI_GRID, u)
    monkeypatch.setattr(adkit.oracles, "QVI_TOL", tol)
    loose = dp_qvi_stopping(SP, QVI_GRID, u)
    assert loose.converged
    assert loose.iterations == tight.iterations - sweeps_saved
    assert float(np.max(np.abs(loose.v - tight.v))) <= 10.0 * tol


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dp_qvi_non_finite_control_is_param_error(bad):
    with pytest.raises(ParamError, match="u_grid"):
        dp_qvi_stopping(SP, QVI_GRID, [0.0, bad])


def test_dp_qvi_zero_last_pivot_is_solver_error():
    # zero drift at x_hi (mu = rho*x_hi, u = 0): the ghost row's pivot
    # 1 - 2*pu is exactly 0, and must not reach a division
    sp = StoppingParams(k=2.0, rho=0.5, gamma1=2.0, gamma2=2.0)
    g = Grid2D(0.0, 2.0, 21, 16)
    with pytest.raises(SolverError, match="lost positivity"):
        dp_qvi_stopping(sp, g, [0.0])


# --- the Riccati oracle: adaptive RK45 with constraint events ---

def test_tolerance_scales_residual():
    loose = riccati_oracle(P_LQ, tol=1e-6)
    tight = riccati_oracle(P_LQ, tol=1e-10)
    assert tight.max_midpoint_residual < loose.max_midpoint_residual
    assert float(tight.P[0]) == pytest.approx(P_LQ_P0, abs=1e-11)


def test_tiny_sigma2_matches_closed_form():
    # the paper's reduced coefficients overflow below sigma2 of about
    # 1e-77, and the oracle's input check used to go through them
    p = ModelParams(rho=0.1, c=0.0, T=0.5, sigma1=0.7, sigma2=1e-80, gamma0=1.0)
    want = float(riccati_integrate(p).P[0])
    assert want == pytest.approx(-2.5026157056, rel=1e-10)
    assert float(riccati_oracle(p).P[0]) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("sigma2, error, match", [
    (2.0, ParamError, r"1 - gamma0\*sigma2\^2 > 0"),  # D_T < 0
    (1.0, ParamError, r"1 - gamma0\*sigma2\^2 > 0"),  # D_T = 0
    (1e200, StableRangeError, r"sigma2\^2 overflows"),
])
def test_oracle_input_check(sigma2, error, match):
    p = ModelParams(rho=0.1, c=0.0, T=0.5, sigma1=0.7, sigma2=sigma2, gamma0=1.0)
    with pytest.raises(error, match=match):
        riccati_oracle(p)


@pytest.mark.parametrize("p, error, match", [
    # sigma1**2 overflows in the right-hand side; sigma2 = 0 passes the input check.
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
        riccati_oracle(p)
    assert time.perf_counter() - start < 10.0


def test_integrate_evaluation_budget(monkeypatch):
    # P_LQ (the criterion-8 instance) takes 308 evaluations
    monkeypatch.setattr(adkit.oracles, "MAX_NFEV", 300)
    with pytest.raises(SolverError, match="more than 300"):
        riccati_oracle(P_LQ)
    monkeypatch.setattr(adkit.oracles, "MAX_NFEV", 308)
    assert float(riccati_oracle(P_LQ).P[0]) == P_LQ_P0
