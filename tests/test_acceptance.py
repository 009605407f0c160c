"""Acceptance suite: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion. Numeric side reports (budget discrepancy table, finite
difference convergence trend) are written to test_artifacts/ next to
the repository root.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from adkit import (
    Grid2D,
    ModelParams,
    PathGrid,
    Policy,
    StoppingParams,
    dp_linear,
    dp_qvi_stopping,
    evaluate_policy,
    fd_hjb_lq,
    linear_policy,
    lq_feedback,
    qvi_residual,
    riccati_integrate,
    riccati_oracle,
    riccati_sigma2_zero,
    solve_budget,
    solve_linear,
    solve_stopping,
    spend_bound,
    stopping_cost_report,
    u_max_oracle,
)
from adkit.cli import main as cli_main
from adkit.model import ControlSet
from paper_forms import riccati_coeffs, u2

ART_DIR = os.path.join(os.path.dirname(__file__), "..", "test_artifacts")

P_LQ = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
SP = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)


def _artifact(name, payload):
    os.makedirs(ART_DIR, exist_ok=True)
    with open(os.path.join(ART_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _draw_linear_params(rng):
    return ModelParams(
        rho=rng.uniform(0.1, 2.0),
        c=rng.uniform(0.01, 1.0),
        T=rng.uniform(0.5, 3.0),
        gamma0=rng.uniform(0.5, 3.0),
        m=rng.uniform(0.5, 2.0),
    )


def test_criterion_01_linear_switch_time_matches_dp_oracle():
    rng = np.random.default_rng(2026)
    n = 10 ** 4
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        p = _draw_linear_params(rng)
        sol = solve_linear(p)
        r = dp_linear(p, n)
        gap = abs(sol.t_split - r.t_star_hat)
        worst = max(worst, gap / p.T)
        assert gap <= p.T / n, (p, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, elapsed
    print("criterion 1: worst relative switch gap %.2e in %.2fs" % (worst, elapsed))


def test_criterion_02_smooth_fit_at_switch_time():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        p = _draw_linear_params(rng)
        sol = solve_linear(p)
        resid = abs(sol.b1_prime(sol.t_star))
        worst = max(worst, resid)
        assert resid <= 1e-10, (p, resid)
    print("criterion 2: worst |b1'(t_star)| = %.2e" % worst)


def test_criterion_03_budget_identities_and_discrepancy_report():
    rng = np.random.default_rng(2026)
    rows = []
    for _ in range(50):
        p = _draw_linear_params(rng)
        M = rng.uniform(0.05, 0.95) * spend_bound(p)
        sol = solve_budget(p, M)
        d = sol.discrepancy
        assert abs(d["spend_gap"]) <= 1e-12
        assert abs(d["switch_identity_gap"]) <= 1e-12
        rows.append({
            "rho": p.rho, "c": p.c, "T": p.T, "m": p.m, "M": M,
            "t_star": sol.t_star, "lambda_star": sol.lambda_star,
            "spend_gap": d["spend_gap"],
            "switch_identity_gap": d["switch_identity_gap"],
            "t_star_alt": d["t_star_alt"],
            "lambda_star_alt": d["lambda_star_alt"],
            "spend_gap_alt": d["spend_gap_alt"],
            "switch_identity_gap_alt": d["switch_identity_gap_alt"],
        })
    # the companion closed forms must be visibly wrong on the same draws
    assert min(r["spend_gap_alt"] for r in rows) > 1e-3
    _artifact("budget_discrepancy.json", rows)
    print("criterion 3: 50 draws exact to 1e-12; alt-form spend gaps span "
          "%.3g..%.3g (report in test_artifacts/budget_discrepancy.json)"
          % (min(r["spend_gap_alt"] for r in rows),
             max(r["spend_gap_alt"] for r in rows)))


def test_criterion_04_riccati_matches_bernoulli_closed_form():
    worst = worst_oracle = 0.0
    for p in (
        ModelParams(rho=0.5, c=0.0, T=1.0, gamma0=0.5),
        ModelParams(rho=0.8, c=0.2, T=2.0, gamma0=0.6),
        ModelParams(rho=1.5, c=0.0, T=0.75, sigma1=0.4, gamma0=1.1),
    ):
        sol = riccati_integrate(p)
        assert sol.well_posed
        gap = float(np.max(np.abs(sol.P - riccati_sigma2_zero(p, sol.t))))
        # the adaptive integration is a third, independent computation
        ref = riccati_oracle(p)
        assert ref.well_posed and np.array_equal(ref.t, sol.t)
        gap_oracle = float(np.max(np.abs(sol.P - ref.P)))
        worst = max(worst, gap)
        worst_oracle = max(worst_oracle, gap_oracle)
        assert gap <= 1e-8, (p, gap)
        assert gap_oracle <= 1e-8, (p, gap_oracle)
    print("criterion 4: worst sigma2=0 closed-form gap %.2e, oracle gap %.2e"
          % (worst, worst_oracle))


def test_criterion_05_fd_hjb_value_agreement_and_convergence():
    sol = riccati_integrate(P_LQ)
    ref = -float(sol.P[0]) * P_LQ.x_init ** 2
    u_grid = np.linspace(0.0, u_max_oracle(P_LQ, sol), 81)
    trend = []
    for nx, nt in ((100, 1000), (200, 2000), (400, 4000)):
        g = Grid2D(0.0, 4.0, nx, nt)
        started = time.perf_counter()
        res = fd_hjb_lq(P_LQ, g, u_grid)
        elapsed = time.perf_counter() - started
        rel = abs(res.value_at(P_LQ.x_init) - ref) / abs(ref)
        trend.append({"n_x": nx, "n_t": nt, "rel_error": rel,
                      "seconds": elapsed, "substeps": res.substeps,
                      "cap_hit": res.cap_hit})
        assert not res.cap_hit
    final = trend[-1]
    assert final["rel_error"] <= 0.02, final
    assert final["seconds"] < 60.0, final
    # refinement by 2 should shrink the error (first-order trend)
    assert trend[0]["rel_error"] > trend[1]["rel_error"] > trend[2]["rel_error"]
    _artifact("fd_convergence.json", {"reference": ref, "trend": trend})
    print("criterion 5: rel errors %s (logged to test_artifacts/fd_convergence.json)"
          % ["%.2e" % t["rel_error"] for t in trend])


def test_criterion_06_riccati_sign_and_denominator_invariants():
    rng = np.random.default_rng(624)
    instances = [P_LQ, ModelParams(rho=0.5, c=0.0, T=1.0, gamma0=0.5)]
    for _ in range(10):
        s2 = rng.uniform(0.1, 1.5)
        instances.append(ModelParams(
            rho=rng.uniform(0.2, 1.5),
            c=rng.uniform(0.0, 0.5),
            T=rng.uniform(0.1, 0.4),
            sigma1=rng.uniform(0.0, 0.8),
            sigma2=s2,
            gamma0=rng.uniform(0.1, 0.9) / s2 ** 2,
        ))
    # the invariants hold on the retained window of a blow-down instance too
    instances.append(ModelParams(rho=0.5, c=0.0, T=1.0, sigma2=1.0, gamma0=0.75))
    worst_rel = worst_blow = 0.0
    n_ill = 0
    for p in instances:
        sol = riccati_integrate(p)
        assert np.all(sol.P < 0), p
        assert np.all(np.asarray(sol.D_at(sol.t)) > 0), p
        # the oracle integration checks the same invariants independently
        ref = riccati_oracle(p)
        assert np.all(ref.P < 0), p
        assert np.all(np.exp(-p.c * ref.t) + p.sigma2 ** 2 * ref.P > 0), p
        assert ref.well_posed == sol.well_posed, p
        if sol.well_posed:
            rel = float(np.max(np.abs(sol.P / ref.P - 1.0)))
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-10, (p, rel)
        else:
            # the oracle stops at its guard, a little before D = 0
            n_ill += 1
            gap = abs(sol.t_blow - ref.t_blow)
            worst_blow = max(worst_blow, gap)
            assert gap <= 1e-6, (p, gap)
    assert n_ill >= 1 and not sol.well_posed
    print("criterion 6: P < 0 and D > 0 on all retained nodes of %d instances; "
          "oracle gaps: P %.1e relative (well posed), t_blow %.1e (%d ill posed)"
          % (len(instances), worst_rel, worst_blow, n_ill))


def test_criterion_07_zeta_identity():
    rng = np.random.default_rng(77)
    worst = worst_flow = 0.0
    for _ in range(1000):
        rho = rng.uniform(0.05, 3.0)
        s1 = rng.uniform(0.0, 2.0)
        s2 = rng.uniform(0.05, 3.0)
        p = ModelParams(rho=rho, c=rng.uniform(0.0, 1.0), T=1.0, sigma1=s1,
                        sigma2=s2, gamma0=rng.uniform(0.05, 0.95) / s2 ** 2)
        co = riccati_coeffs(p)
        target = (2.0 * rho - s1 ** 2) ** 2
        rel = abs(co.zeta - target) / max(1.0, abs(target))
        worst = max(worst, rel)
        assert rel <= 1e-9, (p, rel)
        # the flow's alpha^2 is zeta of the scaled problem, rho + c/2 in place of rho
        scaled = riccati_coeffs(replace(p, rho=p.rho + p.c / 2.0, c=0.0)).zeta
        rel = (abs(riccati_integrate(p, n_nodes=2).classification.zeta - scaled)
               / max(1.0, abs(scaled)))
        worst_flow = max(worst_flow, rel)
        assert rel <= 1e-9, (p, rel)
    print("criterion 7: worst zeta identity error %.2e; flow zeta against the scaled "
          "coefficients %.2e" % (worst, worst_flow))


def test_criterion_08_lq_monte_carlo_consistency():
    sol = riccati_integrate(P_LQ)
    ref = -float(sol.P[0]) * P_LQ.x_init ** 2
    rep = evaluate_policy(
        P_LQ, lq_feedback(sol, P_LQ),
        lambda x: P_LQ.gamma0 * x * x, lambda u: u * u,
        0.0, P_LQ.x_init, PathGrid(0.0, P_LQ.T, 2000), 100000, 20260822,
    )
    assert rep.std_error > 0
    assert abs(rep.mean - ref) <= 3.0 * rep.std_error, (rep.mean, ref, rep.std_error)
    # sigma0 = 0 and x_init > 0: goodwill never touches zero
    assert rep.min_state > 0.0
    print("criterion 8: MC mean %.6f vs closed form %.6f (%.2f SE), min state %.3f"
          % (rep.mean, ref, abs(rep.mean - ref) / rep.std_error, rep.min_state))


def test_criterion_09_stopping_boundary_against_qvi_oracle():
    ssol = solve_stopping(SP)
    slope = 2.0 * SP.rho + 1.0 / SP.gamma1
    resid = abs((slope * ssol.x0 - 2.0 * SP.mu) * u2(ssol.x0, SP) - 1.0)
    assert resid <= 1e-12

    dx = 1e-3
    n_x = int(round(5.4 / dx)) + 1
    g = Grid2D(0.0, 5.4, n_x, 16)
    q = dp_qvi_stopping(SP, g, np.linspace(0.0, 1.0, 101))
    assert q.converged
    gap = abs(q.boundary_hat - ssol.x0)
    assert gap <= 2.0 * dx, gap

    y = ssol.x0 + 1.0
    v_rel = abs(q.value_at(y) - float(ssol.value(y))) / float(ssol.value(y))
    assert v_rel <= 0.01, v_rel
    print("criterion 9: fit residual %.1e, boundary gap %.2e (2dx = %.1e), "
          "value rel error %.2e" % (resid, gap, 2 * dx, v_rel))


def test_criterion_10_qvi_inequalities_and_boundary_control():
    ssol = solve_stopping(SP)
    grid = np.linspace(0.0, ssol.x0 + 10.0 / math.sqrt(SP.rho), 1000)
    rep = qvi_residual(ssol, grid)
    assert rep.stop_side_max <= 1e-12
    assert rep.pde_residual_max <= 1e-8
    assert rep.u_clamp_hits == 0
    assert abs(float(ssol.policy(ssol.x0)) - ssol.x0 / SP.gamma1) <= 1e-10
    v = ssol.value(grid)
    assert np.all(v <= grid * grid + 1e-12)
    assert rep.obstacle_gap_min >= -1e-12
    print("criterion 10: stop side max %.2e, pde residual max %.2e, "
          "v <= x^2 everywhere" % (rep.stop_side_max, rep.pde_residual_max))


def test_criterion_11_perturbed_policies_never_beat_closed_forms():
    n_paths, n_steps, seed = 4000, 400, 99
    rng = np.random.default_rng(1)
    report = {}

    def paired_stat(opt, pert, sign):
        # sign +1: opt maximizes, pert must not come out higher
        d = sign * (opt.samples - pert.samples)
        se = float(d.std(ddof=1)) / math.sqrt(d.size)
        return float(d.mean()) / se if se > 0 else math.inf

    p = ModelParams(rho=0.5, c=0.1, T=1.0, sigma0=0.2, gamma0=1.2)
    sol = solve_linear(p)
    g = PathGrid(0.0, p.T, n_steps)
    reward, loss = (lambda x: p.gamma0 * x), (lambda u: u)
    kw = dict(keep_samples=True)
    opt = evaluate_policy(p, linear_policy(sol), reward, loss, 0.0, p.x_init,
                          g, n_paths, seed, **kw)
    stats = []
    for _ in range(20):
        delta = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
        s = min(max(sol.t_star + delta, 0.0), p.T)
        pert = evaluate_policy(p, Policy.bang_bang(s, p.m), reward, loss, 0.0,
                               p.x_init, g, n_paths, seed, **kw)
        stats.append(paired_stat(opt, pert, +1.0))
    report["linear"] = min(stats)

    M = 0.5
    bsol = solve_budget(p, M)
    opt = evaluate_policy(p, bsol.policy, reward, loss, 0.0, p.x_init,
                          g, n_paths, seed, **kw)
    stats = []
    for _ in range(20):
        # same discounted spend M, admissible rate, earlier start
        s = rng.uniform(max(bsol.t_star - 0.4, 0.0), bsol.t_star - 0.01)
        m_tilde = p.c * M / (math.exp(-p.c * s) - math.exp(-p.c * p.T))
        assert 0.0 < m_tilde < p.m
        pert = evaluate_policy(p, Policy.bang_bang(s, m_tilde), reward, loss,
                               0.0, p.x_init, g, n_paths, seed, **kw)
        stats.append(paired_stat(opt, pert, +1.0))
    report["budget"] = min(stats)

    rsol = riccati_integrate(P_LQ)
    reward_q, loss_q = (lambda x: P_LQ.gamma0 * x * x), (lambda u: u * u)
    opt = evaluate_policy(P_LQ, lq_feedback(rsol, P_LQ), reward_q, loss_q,
                          0.0, P_LQ.x_init, g, n_paths, seed, **kw)
    stats = []
    for _ in range(20):
        kappa = rng.uniform(0.7, 1.3)
        if abs(kappa - 1.0) < 0.05:
            kappa = 1.05
        pol = Policy.linear_feedback(
            lambda t, k=kappa: k * float(rsol.gain_at(t)),
            0.0, P_LQ.T, ControlSet(0.0, math.inf))
        pert = evaluate_policy(P_LQ, pol, reward_q, loss_q, 0.0, P_LQ.x_init,
                               g, n_paths, seed, **kw)
        stats.append(paired_stat(opt, pert, +1.0))
    report["lq"] = min(stats)

    class BoundaryShim:
        def __init__(self, x0, policy):
            self.x0 = x0
            self.policy = policy

    ssol = solve_stopping(SP)
    g_stop = PathGrid(0.0, 40.0, 4000)
    kws = dict(mu=SP.mu, rho=SP.rho, gamma1=SP.gamma1, gamma2=SP.gamma2,
               g=g_stop, y_start=ssol.x0 + 1.0, n_paths=2000,
               keep_samples=True)
    opt = stopping_cost_report(sol=ssol, seed=seed, **kws)
    stats = []
    for _ in range(10):
        shim = BoundaryShim(ssol.x0 + rng.uniform(0.15, 0.6), ssol.policy)
        pert = stopping_cost_report(sol=shim, seed=seed, **kws)
        stats.append(paired_stat(pert, opt, +1.0))  # cost: pert not lower
    for _ in range(10):
        kappa = float(rng.choice([rng.uniform(0.5, 0.85), rng.uniform(1.15, 1.5)]))
        ctrl = lambda y, k=kappa: k * np.asarray(ssol.policy(y))
        pert = stopping_cost_report(sol=ssol, seed=seed, control=ctrl, **kws)
        stats.append(paired_stat(pert, opt, +1.0))
    report["stopping"] = min(stats)

    for name, worst in report.items():
        assert worst >= -3.0, (name, worst)
    print("criterion 11: worst paired t-statistics " +
          ", ".join("%s %.2f" % kv for kv in report.items()) + " (floor -3)")


def test_criterion_12_cli_reruns_byte_identical(tmp_path):
    bodies = {
        "linear": {"model": {"rho": 0.5, "c": 0.1, "T": 1.0, "gamma0": 1.2},
                   "linear": {"n_grid": 51}},
        "budget": {"model": {"rho": 0.5, "c": 0.1, "T": 1.0},
                   "budget": {"M": 0.5, "n_grid": 51}},
        "lq": {"model": {"rho": 0.5, "c": 0.1, "T": 1.0, "sigma1": 0.2,
                         "sigma2": 0.5, "gamma0": 0.5},
               "lq": {"n_grid": 201}},
        "stop": {"model": {"rho": 0.5, "c": 0.0, "T": 1.0},
                 "stop": {"k": 1.0, "gamma1": 2.0, "gamma2": 2.0, "n_grid": 101}},
        "simulate": {"model": {"rho": 0.5, "c": 0.1, "T": 1.0, "sigma0": 0.2,
                               "gamma0": 1.2},
                     "simulate": {"policy": "linear", "n_paths": 500,
                                  "n_steps": 50, "seed": 11}},
        "verify": {"model": {"rho": 0.5, "c": 0.0, "T": 1.0}, "verify": {}},
    }
    n_files = 0
    for problem, extra in bodies.items():
        cfg = dict({"problem": problem, "output_dir": "unused",
                    "formats": ["json", "csv"]}, **extra)
        cfg_path = tmp_path / ("%s.json" % problem)
        cfg_path.write_text(json.dumps(cfg))
        dirs = [str(tmp_path / ("%s_%s" % (problem, tag))) for tag in "ab"]
        for d in dirs:
            code = cli_main([problem, "--config", str(cfg_path),
                             "--output", d, "--quiet"])
            assert code == 0, (problem, code)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        for name in names:
            with open(os.path.join(dirs[0], name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(dirs[1], name), "rb") as fh:
                b = fh.read()
            assert a == b, (problem, name)
            n_files += 1
    print("criterion 12: %d artifact files byte-identical across reruns" % n_files)
