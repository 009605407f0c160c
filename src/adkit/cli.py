"""Command-line front end.

`adkit PROBLEM --config FILE` runs one solver family: linear, budget,
lq, stop, simulate or verify. Every run is driven by a JSON config file
parsed strictly (unknown keys are errors), and artifacts are written as
JSON and CSV, so reruns of the same config are byte-identical.

A CSV table is a header plus equal-length 1-d columns. Records end in
CRLF and float cells carry 17 significant digits. The only string cells
are fixed identifiers (fixture names, pass/fail), so no cell is quoted.

Exit codes: 0 success, 2 validation/config error, 3 solver error
(including an ill-posed LQ instance, whose report is still written),
4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParamError, SolverError, StableRangeError
from .linear import linear_policy, solve_budget, solve_linear, spend_bound
from .lq import lq_feedback, riccati_integrate, riccati_sigma2_zero
from .model import _FIELDS as MODEL_KEYS, ModelParams, as_count, as_real, as_seed
from .oracles import Grid2D, dp_linear, dp_qvi_stopping
from .sde import DEFAULT_BLOCK, PathGrid, _block_width, evaluate_policy, simulate_path
# free_boundary is unused here: perfbench/tracing.py patches it on this module
from .stopping import StoppingParams, _fit, free_boundary, solve_stopping  # noqa: F401

log = logging.getLogger("adkit.cli")

PROBLEMS = ("linear", "budget", "lq", "stop", "simulate", "verify")
TOP_KEYS = ("problem", "model", "output_dir", "formats")
MODEL_REQUIRED = ("rho", "c", "T")
FORMATS = ("json", "csv")
# largest simulate.n_paths * simulate.n_steps, each block of paths counted
# as a full DEFAULT_BLOCK (a kernel step's fixed cost does not shrink with
# the width): five times criterion 8's 100k x 2,000, about 10 s on two CPUs
MAX_WORK = 10 ** 9
# most rows of a CSV table formatted and written at a time
CSV_BLOCK = 4096

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


@dataclass(frozen=True)
class RunConfig:
    problem: str
    params: ModelParams
    block: dict
    output_dir: str
    formats: tuple


def _n_grid(block, where, default):
    return as_count(block["n_grid"], where + ".n_grid", 2) if "n_grid" in block else default


def _reject_constant(name):
    raise ParamError("config holds %s; numbers must be finite" % name)


def _check_keys(obj, label, allowed, required, missing_fmt):
    """ParamError for keys of obj outside allowed, then for keys of
    required that obj lacks, each list sorted."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParamError("unknown %s keys: %s" % (label, ", ".join(unknown)))
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ParamError(missing_fmt % ", ".join(missing))


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

    _check_keys(raw, "config", TOP_KEYS + (problem,), (problem,), "missing '%s' block")
    block = raw[problem]
    if not isinstance(block, dict):
        raise ParamError("'%s' block must be an object" % problem)

    model = raw.get("model")
    if not isinstance(model, dict):
        raise ParamError("missing 'model' block")
    _check_keys(model, "model", MODEL_KEYS, MODEL_REQUIRED, "model requires: %s")
    params = ModelParams(**{k: as_real(v, "model." + k) for k, v in model.items()})

    schema = BLOCK_SCHEMAS[problem]
    _check_keys(block, problem, schema["required"] + schema["optional"], schema["required"],
                problem + " block requires: %s")

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


def emit(artifact, fmt, path):
    """Write one artifact. JSON keeps insertion order and is strict
    RFC 8259: a non-finite float raises SolverError before the file is
    opened. A CSV artifact is (header, columns) with equal-length 1-d
    columns, else ValueError before the file is opened: records end in
    CRLF, float columns are written with "%.17g" and other columns with
    "%s". String cells are fixed identifiers, so none is quoted. Rows
    are formatted and written CSV_BLOCK at a time, so the memory a table
    takes beyond its columns does not grow with its length."""
    try:
        if fmt == "json":
            try:
                text = json.dumps(artifact, indent=2, allow_nan=False)
            except ValueError as e:
                raise SolverError("cannot write %s: %s" % (path, e)) from e
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        elif fmt == "csv":
            header, cols = artifact
            cols = [np.asarray(c) for c in cols]
            n = len(cols[0]) if cols else 0
            if any(len(c) != n for c in cols):
                raise ValueError("CSV columns of unequal length")
            floats = all(c.dtype.kind == "f" for c in cols)
            row_fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\r\n"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                for i in range(0, n, CSV_BLOCK):
                    part = [c[i : i + CSV_BLOCK] for c in cols]
                    if floats:
                        cells = np.column_stack(part).ravel().tolist()
                    else:
                        cells = [v for row in zip(*(c.tolist() for c in part)) for v in row]
                    fh.write(row_fmt * len(part[0]) % tuple(cells))
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
    payload = {
        "problem": "linear",
        "model": asdict(p),
        "t_star": sol.t_star,
        "t_split": sol.t_split,
        "value_at": float(sol.value(0.0, p.x_init)),
    }
    tables = {
        "policy": (("t", "u"), (t, np.array([pol(tk, 0.0) for tk in t]))),
        "value": (("t", "value"), (t, sol.value(t, p.x_init))),
    }
    return payload, tables, "linear: t_star=%.12g value=%.12g" % (
        sol.t_star, payload["value_at"])


def _run_budget(cfg: RunConfig):
    p = cfg.params
    M = as_real(cfg.block["M"], "budget.M")
    n_grid = _n_grid(cfg.block, "budget", 201)
    sol = solve_budget(p, M)
    t = np.linspace(0.0, p.T, n_grid)
    payload = {
        "problem": "budget",
        "model": asdict(p),
        "M": M,
        "t_star": sol.t_star,
        "lambda_star": sol.lambda_star,
        "discounted_spend": sol.discounted_spend,
        "spend_bound": spend_bound(p),
        "discrepancy": sol.discrepancy,
    }
    tables = {"policy": (("t", "u"), (t, np.array([sol.policy(tk, 0.0) for tk in t])))}
    return payload, tables, "budget: t_star=%.12g lambda_star=%.12g" % (
        sol.t_star, sol.lambda_star)


def _run_lq(cfg: RunConfig):
    p = cfg.params
    t_lo = as_real(cfg.block["t_lo"], "lq.t_lo") if "t_lo" in cfg.block else 0.0
    tol = as_real(cfg.block["tol"], "lq.tol") if "tol" in cfg.block else 1e-8
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
    # an ill-posed instance still gets these columns, on the retained grid
    tables = {"riccati": (("t", "P", "gain", "a", "c_coef"),
                          (sol.t, sol.P) + sol.closed_loop(sol.t))}
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
    k, gamma1, gamma2 = (as_real(cfg.block[name], "stop." + name)
                         for name in ("k", "gamma1", "gamma2"))
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
    tables = {"stopping": (("x", "value", "obstacle", "u_star", "qvi_residual"),
                           (x, sol.value(x), x * x, sol.policy(x), rep.residual))}
    return payload, tables, "stop: x0=%.12g alpha2=%.12g" % (sol.x0, sol.alpha2)


def _run_simulate(cfg: RunConfig):
    p = cfg.params
    block = cfg.block
    kind = block["policy"]
    if kind not in ("linear", "budget", "lq"):
        raise ParamError("simulate.policy in {linear, budget, lq}")
    n_paths = as_count(block["n_paths"], "simulate.n_paths", 1)
    n_steps = as_count(block["n_steps"], "simulate.n_steps", 1)
    width = _block_width(n_steps)
    if math.ceil(n_paths / width) * DEFAULT_BLOCK * n_steps > MAX_WORK:
        raise ParamError("simulate.n_paths * simulate.n_steps at most %d, where n_paths "
                         "counts as %d per block of %d paths" % (MAX_WORK, DEFAULT_BLOCK, width))
    seed = as_seed(block["seed"], "simulate.seed")
    x_start = as_real(block["x_start"], "simulate.x_start") if "x_start" in block else p.x_init
    antithetic = block.get("antithetic", False)
    if not isinstance(antithetic, bool):
        raise ParamError("simulate.antithetic must be a boolean")
    if kind != "budget" and "M" in block:
        raise ParamError("simulate.M only applies to the budget policy")

    reward = lambda xs: p.gamma0 * xs
    loss = lambda us: us
    if kind == "linear":
        pol = linear_policy(solve_linear(p))
    elif kind == "budget":
        if "M" not in block:
            raise ParamError("simulate block requires M for the budget policy")
        pol = solve_budget(p, as_real(block["M"], "simulate.M")).policy
    else:
        pol = lq_feedback(riccati_integrate(p), p)
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
    tables = {"trajectory": (("t", "x", "u"), (traj.t, traj.x, traj.u))}
    return payload, tables, "simulate[%s]: mean=%.12g se=%.3g" % (
        kind, rep.mean, rep.std_error)


def _fixture(name, ok, **metrics):
    """One verify result: its name, pass verdict, then its metrics in order."""
    return {"name": name, "pass": bool(ok), **metrics}


def _verify_fixtures():
    """Fast deterministic cross-checks of every solver family."""
    out = []

    p_lin = ModelParams(rho=0.5, c=0.1, T=1.0, gamma0=1.2)
    sol = solve_linear(p_lin)
    r = dp_linear(p_lin, 10 ** 4)
    gap = abs(min(max(sol.t_star, 0.0), p_lin.T) - r.t_star_hat)
    fit = abs(sol.b1_prime(sol.t_star))
    out.append(_fixture("linear_switch_time", gap <= p_lin.T / 10 ** 4 and fit <= 1e-10,
                        switch_gap=gap, smooth_fit=fit))

    sol_b = solve_budget(p_lin, 0.5)
    g1 = abs(sol_b.discrepancy["spend_gap"])
    g2 = abs(sol_b.discrepancy["switch_identity_gap"])
    out.append(_fixture("budget_identity", g1 <= 1e-12 and g2 <= 1e-12,
                        spend_gap=g1, switch_identity_gap=g2))

    p_z = ModelParams(rho=0.5, c=0.0, T=1.0, gamma0=0.5)
    sol_z = riccati_integrate(p_z)
    gap = float(np.max(np.abs(sol_z.P - riccati_sigma2_zero(p_z, sol_z.t))))
    out.append(_fixture("lq_bernoulli", sol_z.well_posed and gap <= 1e-8,
                        closed_form_gap=gap))

    p_5 = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
    sol_5 = riccati_integrate(p_5)
    ok = (
        sol_5.well_posed
        and sol_5.max_midpoint_residual <= 10 * sol_5.tol
        and np.all(sol_5.P < 0)
        and np.all(sol_5.D_at(sol_5.t) > 0)
    )
    out.append(_fixture("lq_riccati_residual", ok,
                        midpoint_residual=sol_5.max_midpoint_residual))

    sp = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
    ssol = solve_stopping(sp)
    resid = abs(_fit(ssol.x0, sp)[0])
    u_gap = abs(float(ssol.policy(ssol.x0)) - ssol.x0 / sp.gamma1)
    rep = ssol.residual_report
    ok = (
        resid <= 1e-12
        and u_gap <= 1e-10
        and rep.stop_side_max <= 1e-12
        and rep.pde_residual_max <= 1e-8
        and rep.obstacle_gap_min >= -1e-9
        and rep.u_clamp_hits == 0
    )
    out.append(_fixture("stopping_boundary", ok, fit_residual=resid, u_boundary_gap=u_gap))

    g = Grid2D(0.0, 5.4, 1081, 16)
    q = dp_qvi_stopping(sp, g, np.linspace(0.0, 1.0, 101))
    gap = abs(q.boundary_hat - ssol.x0)
    out.append(_fixture("qvi_small_grid", gap <= 1e-2, boundary_gap=gap))

    return out


def _run_verify(cfg: RunConfig):
    fixtures = _verify_fixtures()
    all_pass = all(f["pass"] for f in fixtures)
    payload = {"problem": "verify", "fixtures": fixtures, "all_pass": all_pass}
    names = [f["name"] for f in fixtures]
    verdicts = ["pass" if f["pass"] else "fail" for f in fixtures]
    tables = {"verify": (("name", "passed"), (names, verdicts))}
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
    ap.add_argument("cmd", metavar="PROBLEM", choices=PROBLEMS,
                    help="%s; must equal the config's problem" % ", ".join(PROBLEMS))
    ap.add_argument("--config", required=True, help="path to a JSON config")
    ap.add_argument("--output", default=None, help="override output_dir")
    ap.add_argument("--format", default=None, help="comma-separated subset of csv,json")
    ap.add_argument("--quiet", action="store_true", help="suppress summary lines")
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


# main's parser, built once: parse_args leaves it as it was
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
