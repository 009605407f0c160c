"""Command-line front end.

Subcommands mirror the solver families: linear, budget, lq, stop,
simulate, verify. Every run is driven by a JSON config file parsed
strictly (unknown keys are errors), and artifacts are written as JSON
and RFC-4180 CSV with 17-significant-digit floats, so reruns of the
same config are byte-identical.

Exit codes: 0 success, 2 validation/config error, 3 solver error
(including an ill-posed LQ instance, whose report is still written),
4 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import ParamError, SolverError, StableRangeError
from .linear import linear_policy, solve_budget, solve_linear, spend_bound
from .lq import lq_feedback, riccati_integrate, riccati_sigma2_zero
from .model import ModelParams, require
from .oracles import Grid2D, dp_linear, dp_qvi_stopping
from .sde import PathGrid, evaluate_policy, simulate_path
# free_boundary is unused here but stays importable: perfbench/tracing.py
# patches it on this module by name
from .stopping import StoppingParams, free_boundary, solve_stopping, u2  # noqa: F401

log = logging.getLogger("adkit.cli")

PROBLEMS = ("linear", "budget", "lq", "stop", "simulate", "verify")
TOP_KEYS = ("problem", "model", "output_dir", "formats")
MODEL_KEYS = ("rho", "c", "T", "sigma0", "sigma1", "sigma2", "m", "gamma0", "x_init")
MODEL_REQUIRED = ("rho", "c", "T")
FORMATS = ("json", "csv")
# largest grid, path count or step count a config may ask for: numpy
# cannot allocate arrays near 2^63 elements, and far below that they
# no longer fit in memory
MAX_SIZE = 10 ** 7

BLOCK_SCHEMAS = {
    "linear": {"required": (), "optional": ("n_grid",)},
    "budget": {"required": ("M",), "optional": ("n_grid",)},
    "lq": {"required": (), "optional": ("t_lo", "tol", "n_grid")},
    "stop": {"required": ("k", "gamma1", "gamma2"), "optional": ("n_grid",)},
    "simulate": {
        "required": ("policy", "n_paths", "n_steps", "seed"),
        "optional": ("x_start", "M", "antithetic"),
    },
    "verify": {"required": (), "optional": ()},
}


class RunConfig:
    def __init__(self, problem, params, block, output_dir, formats):
        self.problem = problem
        self.params = params
        self.block = block
        self.output_dir = output_dir
        self.formats = formats


def _num(block, name, where):
    v = block[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParamError("%s.%s must be a number" % (where, name))
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ParamError("%s.%s must be finite" % (where, name))
    return v


def _int(block, name, where):
    v = block[name]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParamError("%s.%s must be an integer" % (where, name))
    return int(v)


def _size(block, name, where, lo):
    """An array length from the config, lo <= v <= MAX_SIZE."""
    v = _int(block, name, where)
    if not lo <= v <= MAX_SIZE:
        raise ParamError("%s.%s in [%d, %d]" % (where, name, lo, MAX_SIZE))
    return v


def _n_grid(block, where, default):
    return _size(block, "n_grid", where, 2) if "n_grid" in block else default


def _reject_constant(name):
    raise ParamError("config holds %s; numbers must be finite" % name)


def load_config(path, output_override=None, format_override=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as e:
        raise ParamError("cannot read config %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ParamError("config %s is not valid JSON: %s" % (path, e))
    if not isinstance(raw, dict):
        raise ParamError("config root must be an object")

    problem = raw.get("problem")
    if problem not in PROBLEMS:
        raise ParamError("problem must be one of %s" % (", ".join(PROBLEMS)))

    allowed = set(TOP_KEYS) | {problem}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ParamError("unknown config keys: %s" % ", ".join(unknown))
    if problem not in raw:
        raise ParamError("missing '%s' block" % problem)
    block = raw[problem]
    if not isinstance(block, dict):
        raise ParamError("'%s' block must be an object" % problem)

    model = raw.get("model")
    if not isinstance(model, dict):
        raise ParamError("missing 'model' block")
    unknown = sorted(set(model) - set(MODEL_KEYS))
    if unknown:
        raise ParamError("unknown model keys: %s" % ", ".join(unknown))
    missing = sorted(set(MODEL_REQUIRED) - set(model))
    if missing:
        raise ParamError("model requires: %s" % ", ".join(missing))
    kwargs = {k: _num(model, k, "model") for k in model}
    params = ModelParams(**kwargs)
    require(params)

    schema = BLOCK_SCHEMAS[problem]
    allowed = set(schema["required"]) | set(schema["optional"])
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ParamError("unknown %s keys: %s" % (problem, ", ".join(unknown)))
    missing = sorted(set(schema["required"]) - set(block))
    if missing:
        raise ParamError("%s block requires: %s" % (problem, ", ".join(missing)))

    output_dir = output_override or raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        raise ParamError("output_dir required (config key or --output)")

    formats = format_override or raw.get("formats", list(FORMATS))
    if (
        not isinstance(formats, (list, tuple))
        or not formats
        or any(f not in FORMATS for f in formats)
        or len(set(formats)) != len(formats)
    ):
        raise ParamError("formats must be a non-empty subset of {csv, json}")

    return RunConfig(problem, params, block, output_dir, tuple(formats))


def _fmt_cell(v):
    if isinstance(v, float):
        return "%.17g" % v
    return v


def emit(artifact, fmt, path):
    """Write one artifact. JSON keeps insertion order and is strict
    RFC 8259: a non-finite float raises SolverError before the file is
    opened. CSV uses CRLF records, minimal quoting, and 17 significant
    digits."""
    try:
        if fmt == "json":
            try:
                text = json.dumps(artifact, indent=2, allow_nan=False)
            except ValueError as e:
                raise SolverError("cannot write %s: %s" % (path, e)) from e
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        elif fmt == "csv":
            header, rows = artifact
            with open(path, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
                w.writerow(header)
                for row in rows:
                    w.writerow([_fmt_cell(v) for v in row])
        else:
            raise ParamError("format in {csv, json}")
    except OSError as e:
        raise SolverError("cannot write %s: %s" % (path, e)) from e


def _write(cfg: RunConfig, payload, tables):
    os.makedirs(cfg.output_dir, exist_ok=True)
    if "json" in cfg.formats:
        path = os.path.join(cfg.output_dir, "%s.json" % cfg.problem)
        emit(payload, "json", path)
        log.info("wrote %s", path)
    if "csv" in cfg.formats:
        for name, table in tables.items():
            path = os.path.join(cfg.output_dir, "%s.csv" % name)
            emit(table, "csv", path)
            log.info("wrote %s", path)


def _run_linear(cfg: RunConfig):
    p = cfg.params
    n_grid = _n_grid(cfg.block, "linear", 201)
    sol = solve_linear(p)
    pol = linear_policy(sol)
    t = np.linspace(0.0, p.T, n_grid)
    u_vals = [float(pol(tk, 0.0)) for tk in t]
    v_vals = sol.value(t, p.x_init)
    payload = {
        "problem": "linear",
        "model": asdict(p),
        "t_star": sol.t_star,
        "t_split": sol.t_split,
        "value_at": float(sol.value(0.0, p.x_init)),
    }
    tables = {
        "policy": (("t", "u"), [(float(tk), uk) for tk, uk in zip(t, u_vals)]),
        "value": (("t", "value"), [(float(tk), float(vk)) for tk, vk in zip(t, v_vals)]),
    }
    return payload, tables, "linear: t_star=%.12g value=%.12g" % (
        sol.t_star, payload["value_at"])


def _run_budget(cfg: RunConfig):
    p = cfg.params
    M = _num(cfg.block, "M", "budget")
    n_grid = _n_grid(cfg.block, "budget", 201)
    sol = solve_budget(p, M)
    t = np.linspace(0.0, p.T, n_grid)
    u_vals = [float(sol.policy(tk, 0.0)) for tk in t]
    payload = {
        "problem": "budget",
        "model": asdict(p),
        "M": M,
        "t_star": sol.t_star,
        "lambda_star": sol.lambda_star,
        "discounted_spend": sol.discounted_spend,
        "spend_bound": spend_bound(p),
        "discrepancy": {k: float(v) for k, v in sol.discrepancy.items()},
    }
    tables = {"policy": (("t", "u"), [(float(tk), uk) for tk, uk in zip(t, u_vals)])}
    return payload, tables, "budget: t_star=%.12g lambda_star=%.12g" % (
        sol.t_star, sol.lambda_star)


def _run_lq(cfg: RunConfig):
    p = cfg.params
    t_lo = _num(cfg.block, "t_lo", "lq") if "t_lo" in cfg.block else 0.0
    tol = _num(cfg.block, "tol", "lq") if "tol" in cfg.block else 1e-8
    n_grid = _n_grid(cfg.block, "lq", 2001)
    sol = riccati_integrate(p, t_lo=t_lo, tol=tol, n_nodes=n_grid)
    p0 = float(sol.P[0])
    try:
        value = -p0 * p.x_init ** 2
    except OverflowError:
        raise StableRangeError("lq: value at x_init = %g overflows" % p.x_init) from None
    payload = {
        "problem": "lq",
        "model": asdict(p),
        "well_posed": sol.well_posed,
        "case_label": sol.case_label,
        "t_blow": None if sol.t_blow is None else float(sol.t_blow),
        "P0": p0,
        "value_at_x_init": value,
        "max_midpoint_residual": sol.max_midpoint_residual,
    }
    if sol.classification is not None:
        rep = sol.classification
        payload["classification"] = dict(
            asdict(rep), T_max=None if math.isinf(rep.T_max) else rep.T_max)
    # feedback columns are well defined on the retained grid even when
    # the horizon check failed, so the report is always complete
    gain = np.asarray(sol.gain_at(sol.t))
    a_t = -p.rho + gain
    c_t = p.sigma1 + p.sigma2 * gain
    rows = [
        (float(tk), float(pk), float(gk), float(ak), float(ck))
        for tk, pk, gk, ak, ck in zip(sol.t, sol.P, gain, a_t, c_t)
    ]
    tables = {"riccati": (("t", "P", "gain", "a", "c_coef"), rows)}
    if not sol.well_posed:
        summary = "lq: not well posed (case %s, t_blow=%.12g); report written" % (
            sol.case_label, sol.t_blow)
    else:
        summary = "lq: P0=%.12g value=%.12g case=%s" % (p0, value, sol.case_label)
    return payload, tables, summary


def _run_stop(cfg: RunConfig):
    p = cfg.params
    if p.c != 0:
        raise ParamError("c = 0 (the stopping problem is undiscounted)")
    k = _num(cfg.block, "k", "stop")
    gamma1 = _num(cfg.block, "gamma1", "stop")
    gamma2 = _num(cfg.block, "gamma2", "stop")
    n_grid = _n_grid(cfg.block, "stop", 2001)
    sp = StoppingParams(k=k, rho=p.rho, gamma1=gamma1, gamma2=gamma2)
    sol = solve_stopping(sp, n_grid=n_grid)
    rep = sol.residual_report
    x = rep.x_grid
    payload = {
        "problem": "stop",
        "model": asdict(p),
        "k": sp.k,
        "gamma1": sp.gamma1,
        "gamma2": sp.gamma2,
        "mu": sp.mu,
        "x0": sol.x0,
        "alpha2": sol.alpha2,
        "u_at_boundary": float(sol.policy(sol.x0)),
        "qvi": {
            "stop_side_max": rep.stop_side_max,
            "pde_residual_max": rep.pde_residual_max,
            "obstacle_gap_min": rep.obstacle_gap_min,
            "u_clamp_hits": rep.u_clamp_hits,
        },
    }
    rows = [
        (float(xk), float(vk), float(xk * xk), float(uk), float(rk))
        for xk, vk, uk, rk in zip(x, sol.value(x), sol.policy(x), rep.residual)
    ]
    tables = {"stopping": (("x", "value", "obstacle", "u_star", "qvi_residual"), rows)}
    return payload, tables, "stop: x0=%.12g alpha2=%.12g" % (sol.x0, sol.alpha2)


def _run_simulate(cfg: RunConfig):
    p = cfg.params
    block = cfg.block
    kind = block["policy"]
    if kind not in ("linear", "budget", "lq"):
        raise ParamError("simulate.policy in {linear, budget, lq}")
    n_paths = _size(block, "n_paths", "simulate", 1)
    n_steps = _size(block, "n_steps", "simulate", 1)
    seed = _int(block, "seed", "simulate")
    x_start = _num(block, "x_start", "simulate") if "x_start" in block else p.x_init
    antithetic = block.get("antithetic", False)
    if not isinstance(antithetic, bool):
        raise ParamError("simulate.antithetic must be a boolean")
    if kind != "budget" and "M" in block:
        raise ParamError("simulate.M only applies to the budget policy")

    if kind == "linear":
        pol = linear_policy(solve_linear(p))
        reward = lambda xs: p.gamma0 * xs
        loss = lambda us: us
    elif kind == "budget":
        if "M" not in block:
            raise ParamError("simulate block requires M for the budget policy")
        pol = solve_budget(p, _num(block, "M", "simulate")).policy
        reward = lambda xs: p.gamma0 * xs
        loss = lambda us: us
    else:
        rsol = riccati_integrate(p)
        pol = lq_feedback(rsol, p)
        reward = lambda xs: p.gamma0 * xs * xs
        loss = lambda us: us * us

    grid = PathGrid(0.0, p.T, n_steps)
    rep = evaluate_policy(
        p, pol, reward, loss, 0.0, x_start, grid, n_paths, seed, antithetic=antithetic
    )
    traj = simulate_path(p, pol, grid, x_start, seed)
    payload = {
        "problem": "simulate",
        "model": asdict(p),
        "policy_kind": kind,
        "n_paths": n_paths,
        "n_steps": n_steps,
        "seed": seed,
        "antithetic": antithetic,
        "x_start": x_start,
        "mean": rep.mean,
        "std_error": rep.std_error,
        "min_state": rep.min_state,
    }
    rows = [
        (float(tk), float(xk), float(uk))
        for tk, xk, uk in zip(traj.t, traj.x, traj.u)
    ]
    tables = {"trajectory": (("t", "x", "u"), rows)}
    return payload, tables, "simulate[%s]: mean=%.12g se=%.3g" % (
        kind, rep.mean, rep.std_error)


def _verify_fixtures():
    """Fast deterministic cross-checks of every solver family."""
    out = []

    p_lin = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)
    sol = solve_linear(p_lin)
    r = dp_linear(p_lin, 10 ** 4)
    gap = abs(min(max(sol.t_star, 0.0), p_lin.T) - r.t_star_hat)
    fit = abs(sol.b1_prime(sol.t_star))
    out.append({
        "name": "linear_switch_time",
        "pass": bool(gap <= p_lin.T / 10 ** 4 and fit <= 1e-10),
        "switch_gap": gap,
        "smooth_fit": fit,
    })

    sol_b = solve_budget(p_lin, 0.5)
    g1 = abs(sol_b.discrepancy["spend_gap"])
    g2 = abs(sol_b.discrepancy["switch_identity_gap"])
    out.append({
        "name": "budget_identity",
        "pass": bool(g1 <= 1e-12 and g2 <= 1e-12),
        "spend_gap": g1,
        "switch_identity_gap": g2,
    })

    p_z = ModelParams(rho=0.5, c=0.0, T=1.0, gamma0=0.5)
    sol_z = riccati_integrate(p_z)
    gap = float(np.max(np.abs(sol_z.P - riccati_sigma2_zero(p_z, sol_z.t))))
    out.append({
        "name": "lq_bernoulli",
        "pass": bool(sol_z.well_posed and gap <= 1e-8),
        "closed_form_gap": gap,
    })

    p_5 = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
    sol_5 = riccati_integrate(p_5)
    ok = bool(
        sol_5.well_posed
        and sol_5.max_midpoint_residual <= 10 * sol_5.tol
        and np.all(sol_5.P < 0)
        and np.all(sol_5.D_at(sol_5.t) > 0)
    )
    out.append({
        "name": "lq_riccati_residual",
        "pass": ok,
        "midpoint_residual": sol_5.max_midpoint_residual,
    })

    sp = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
    ssol = solve_stopping(sp)
    slope = 2.0 * sp.rho + 1.0 / sp.gamma1
    resid = abs((slope * ssol.x0 - 2.0 * sp.mu) * u2(ssol.x0, sp) - 1.0)
    u_gap = abs(float(ssol.policy(ssol.x0)) - ssol.x0 / sp.gamma1)
    rep = ssol.residual_report
    ok = bool(
        resid <= 1e-12
        and u_gap <= 1e-10
        and rep.stop_side_max <= 1e-12
        and rep.pde_residual_max <= 1e-8
        and rep.obstacle_gap_min >= -1e-9
        and rep.u_clamp_hits == 0
    )
    out.append({
        "name": "stopping_boundary",
        "pass": ok,
        "fit_residual": resid,
        "u_boundary_gap": u_gap,
    })

    g = Grid2D(0.0, 5.4, 1081, 16)
    q = dp_qvi_stopping(sp, g, np.linspace(0.0, 1.0, 101))
    gap = abs(q.boundary_hat - ssol.x0)
    out.append({
        "name": "qvi_small_grid",
        "pass": bool(gap <= 1e-2),
        "boundary_gap": gap,
    })

    return out


def _run_verify(cfg: RunConfig):
    fixtures = _verify_fixtures()
    all_pass = all(f["pass"] for f in fixtures)
    payload = {"problem": "verify", "fixtures": fixtures, "all_pass": all_pass}
    tables = {
        "verify": (
            ("name", "passed"),
            [(f["name"], "pass" if f["pass"] else "fail") for f in fixtures],
        )
    }
    return payload, tables, "\n".join(
        "%-22s %s" % (f["name"], "PASS" if f["pass"] else "FAIL") for f in fixtures)


HANDLERS = {
    "linear": _run_linear,
    "budget": _run_budget,
    "lq": _run_lq,
    "stop": _run_stop,
    "simulate": _run_simulate,
    "verify": _run_verify,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="adkit",
        description="Solvers for stochastic advertising control problems.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in PROBLEMS:
        s = sub.add_parser(name, help="run the %s problem from a config file" % name)
        s.add_argument("--config", required=True, help="path to a JSON config")
        s.add_argument("--output", default=None, help="override output_dir")
        s.add_argument("--format", default=None,
                       help="comma-separated subset of csv,json")
        s.add_argument("--quiet", action="store_true", help="suppress summary lines")
    return ap


def _setup_logging():
    level_name = os.environ.get("ADK_LOG", "")
    if level_name:
        level = getattr(logging, level_name.upper(), logging.INFO)
        logging.basicConfig(
            stream=sys.stderr,
            level=level,
            format="%(levelname)s %(name)s: %(message)s",
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    fmt_override = args.format.split(",") if args.format else None
    try:
        cfg = load_config(args.config, args.output, fmt_override)
        if cfg.problem != args.cmd:
            raise ParamError(
                "config is for problem '%s' but subcommand is '%s'"
                % (cfg.problem, args.cmd)
            )
        payload, tables, summary = HANDLERS[cfg.problem](cfg)
        _write(cfg, payload, tables)
    except ParamError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except SolverError as e:
        print("solver error: %s" % e, file=sys.stderr)
        return 3
    # an ill-posed LQ instance still has its report written
    if payload.get("well_posed") is False:
        print(summary, file=sys.stderr)
        return 3
    if not args.quiet:
        print(summary)
    return 4 if payload.get("all_pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
