import contextlib
import csv
import io
import json
import math
import os
import tempfile
import time
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import adkit.cli
import adkit.sde
import adkit.stopping
from adkit import ModelParams, SolverError, StoppingParams, solve_stopping
from adkit.cli import (BLOCK_SCHEMAS, CSV_BLOCK, HANDLERS, MAX_WORK, MODEL_KEYS, build_parser,
                       emit, load_config, main)
from adkit.model import MAX_SIZE
from adkit.oracles import dp_linear

BASE_MODEL = {"rho": 0.5, "c": 0.1, "T": 1.0, "gamma0": 1.2}


def write_cfg(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def linear_cfg(tmp_path, out="out"):
    return write_cfg(tmp_path, {
        "problem": "linear",
        "model": dict(BASE_MODEL),
        "output_dir": str(tmp_path / out),
        "formats": ["json", "csv"],
        "linear": {"n_grid": 11},
    })


def test_linear_writes_artifacts(tmp_path, capsys):
    cfg = linear_cfg(tmp_path)
    assert main(["linear", "--config", cfg]) == 0
    out = tmp_path / "out"
    data = json.loads((out / "linear.json").read_text())
    assert data["problem"] == "linear"
    assert data["t_star"] == pytest.approx(0.6961307386767424)
    assert data["value_at"] == pytest.approx(0.68550206002251)
    assert data["model"]["gamma"] == pytest.approx(1.2 * 0.9048374180359595)
    lines = (out / "policy.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"t,u"
    assert len(lines) == 13  # header + 11 rows + trailing
    assert (out / "value.csv").exists()
    assert "t_star" in capsys.readouterr().out


def test_rerun_byte_identical(tmp_path):
    cfg = linear_cfg(tmp_path)
    assert main(["linear", "--config", cfg, "--quiet"]) == 0
    first = {
        name: (tmp_path / "out" / name).read_bytes()
        for name in ("linear.json", "policy.csv", "value.csv")
    }
    assert main(["linear", "--config", cfg, "--quiet"]) == 0
    for name, payload in first.items():
        assert (tmp_path / "out" / name).read_bytes() == payload, name


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = linear_cfg(tmp_path)
    assert main(["linear", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_output_and_format_overrides(tmp_path):
    cfg = linear_cfg(tmp_path)
    dest = str(tmp_path / "elsewhere")
    assert main(["linear", "--config", cfg, "--output", dest,
                 "--format", "json", "--quiet"]) == 0
    assert os.path.exists(os.path.join(dest, "linear.json"))
    assert not os.path.exists(os.path.join(dest, "policy.csv"))


def test_budget_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "budget",
        "model": dict(BASE_MODEL),
        "output_dir": str(tmp_path / "out"),
        "formats": ["json"],
        "budget": {"M": 0.5},
    })
    assert main(["budget", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "budget.json").read_text())
    assert data["t_star"] == pytest.approx(0.4621419588865642)
    assert data["lambda_star"] == pytest.approx(0.8003430548500416)
    assert abs(data["discrepancy"]["spend_gap"]) <= 1e-12
    assert data["discrepancy"]["spend_gap_alt"] > 0.1


def test_budget_small_discount_exit0(tmp_path):
    # at c = 1e-6, -log(c*M/m + exp(-c*T))/c and the (m/c)-scaled spend
    # lost about 1e-10 and failed the budget identity: this exited 3
    cfg = write_cfg(tmp_path, {
        "problem": "budget", "model": dict(BASE_MODEL, c=1e-6),
        "output_dir": str(tmp_path / "out"), "formats": ["json"], "budget": {"M": 0.5},
    })
    assert main(["budget", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "budget.json").read_text())
    assert data["discrepancy"]["spend_gap"] <= 1e-15
    assert data["t_star"] == pytest.approx(0.5, abs=1e-6)


def test_linear_without_discount_exit0_matches_dp(tmp_path):
    # c = 0 is the undiscounted linear problem: the switch time agrees with
    # the grid search over switch times, as criterion 1 asks for c > 0
    model = dict(BASE_MODEL, c=0.0)
    cfg = write_cfg(tmp_path, {"problem": "linear", "model": model, "formats": ["json"],
                               "output_dir": str(tmp_path / "out"), "linear": {}})
    assert main(["linear", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "linear.json").read_text())
    n = 10 ** 4
    r = dp_linear(ModelParams(**model), n)
    assert abs(data["t_split"] - r.t_star_hat) <= model["T"] / n
    assert data["t_star"] == pytest.approx(1.0 - math.log(1.2) / 0.5, rel=1e-15)


def test_budget_non_finite_M_exit2(tmp_path, capsys):
    out = tmp_path / "out"
    for i, M in enumerate(("NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400)):
        path = tmp_path / ("nan%d.json" % i)
        path.write_text(
            '{"problem": "budget", "model": %s, "output_dir": %s, '
            '"formats": ["json"], "budget": {"M": %s}}'
            % (json.dumps(BASE_MODEL), json.dumps(str(out)), M)
        )
        assert main(["budget", "--config", str(path), "--quiet"]) == 2, M
        assert "finite" in capsys.readouterr().err
    assert not (out / "budget.json").exists()


def test_emit_rejects_non_finite_json(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(SolverError):
        emit({"x": float("nan")}, "json", str(path))
    assert not path.exists()


def reference_csv(path, header, cols):
    """The row-by-row writer of earlier releases, kept as the reference:
    csv.writer with minimal quoting and CRLF records, each float cell
    formatted with "%.17g"."""
    cols = [[float(v) if np.asarray(c).dtype.kind == "f" else str(v) for v in c]
            for c in cols]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(header)
        for row in zip(*cols):
            w.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])


def assert_same_csv(tmp_path, header, cols):
    emit((header, cols), "csv", str(tmp_path / "new.csv"))
    reference_csv(str(tmp_path / "ref.csv"), header, cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_emit_csv_matches_reference_writer(tmp_path):
    vals = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324,
                     1.7976931348623157e308, 1.0, 0.1, 1 / 3])
    names = np.array(["a", "b", "c", "d", "e", "f", "g", "pass", "fail"])
    assert_same_csv(tmp_path, ("x", "name", "y"), (vals, names, vals[::-1]))
    text = (tmp_path / "new.csv").read_bytes().decode()
    assert text.split("\r\n")[1:4] == ["-0,a,0.33333333333333331", "nan,b,0.10000000000000001",
                                        "inf,c,1"]
    # blocks of CSV_BLOCK rows: two full ones and a short one, mixed columns
    n = 2 * CSV_BLOCK + 7
    rng = np.random.default_rng(5)
    assert_same_csv(tmp_path, ("x", "name", "k", "y"),
                    (rng.standard_normal(n), np.resize(names, n), np.arange(n),
                     np.resize(vals, n)))
    assert_same_csv(tmp_path, ("x", "name"), (np.empty(0), names[:0]))
    assert (tmp_path / "new.csv").read_bytes() == b"x,name\r\n"
    with pytest.raises(ValueError):
        emit((("x", "y"), (vals, vals[1:])), "csv", str(tmp_path / "short.csv"))
    assert not (tmp_path / "short.csv").exists()


def test_emit_csv_working_set(tmp_path):
    # a 10^5 x 5 float table: the writer holds one block of cells at a
    # time; every cell of the table as a Python float takes about 16 MB
    cols = tuple(np.random.default_rng(1).standard_normal((5, 10 ** 5)))
    tracemalloc.start()
    try:
        emit((tuple("abcde"), cols), "csv", str(tmp_path / "big.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


HANDLER_BODIES = {
    "linear": {"model": dict(BASE_MODEL), "linear": {"n_grid": 51}},
    "budget": {"model": dict(BASE_MODEL), "budget": {"M": 0.5, "n_grid": 51}},
    "lq": {"model": {"rho": 0.5, "c": 0.1, "T": 1.0, "sigma1": 0.2, "sigma2": 0.5,
                     "gamma0": 0.5}, "lq": {"n_grid": 201}},
    "stop": {"model": {"rho": 0.5, "c": 0.0, "T": 1.0},
             "stop": {"k": 1.0, "gamma1": 2.0, "gamma2": 2.0, "n_grid": 101}},
    "simulate": {"model": dict(BASE_MODEL, sigma0=0.2),
                 "simulate": {"policy": "budget", "M": 0.5, "n_paths": 100, "n_steps": 50,
                              "seed": 11}},
    "verify": {"model": {"rho": 0.5, "c": 0.0, "T": 1.0}, "verify": {}},
}


@pytest.mark.parametrize("problem", sorted(HANDLER_BODIES))
def test_handler_tables_match_reference_writer(tmp_path, problem):
    body = dict(HANDLER_BODIES[problem], problem=problem, output_dir=str(tmp_path / "out"))
    _, tables, _ = HANDLERS[problem](load_config(write_cfg(tmp_path, body)))
    for header, cols in tables.values():
        assert all(len(c) == len(cols[0]) for c in cols)
        assert_same_csv(tmp_path, header, cols)


def test_parser_one_level():
    ns = build_parser().parse_args(["lq", "--config", "c.json", "--format", "csv", "--quiet"])
    assert vars(ns) == {"cmd": "lq", "config": "c.json", "output": None, "format": "csv",
                        "quiet": True}
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        build_parser().parse_args(["ode", "--config", "c.json"])


def test_lq_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "lq",
        "model": {"rho": 0.5, "c": 0.1, "T": 1.0, "sigma1": 0.2,
                  "sigma2": 0.5, "gamma0": 0.5},
        "output_dir": str(tmp_path / "out"),
        "formats": ["json", "csv"],
        "lq": {"n_grid": 101},
    })
    assert main(["lq", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "lq.json").read_text())
    assert data["well_posed"] is True
    assert data["P0"] == pytest.approx(-0.29692583966290625, abs=1e-8)
    assert data["value_at_x_init"] == pytest.approx(0.29692583966290625, abs=1e-8)
    assert data["classification"]["case_label"] == "i"
    assert data["classification"]["T_max"] is None
    header = (tmp_path / "out" / "riccati.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"t,P,gain,a,c_coef"


def test_lq_ill_posed_exit3_still_writes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": "lq",
        "model": {"rho": 0.5, "c": 0.0, "T": 1.0, "sigma2": 1.0, "gamma0": 0.75},
        "output_dir": str(tmp_path / "out"),
        "formats": ["json"],
        "lq": {},
    })
    assert main(["lq", "--config", cfg]) == 3
    data = json.loads((tmp_path / "out" / "lq.json").read_text())
    assert data["well_posed"] is False
    assert data["t_blow"] == pytest.approx(0.9411084821718082, abs=1e-6)
    assert "not well posed" in capsys.readouterr().err


def test_lq_bad_terminal_weight_exit2(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "lq",
        "model": {"rho": 0.5, "c": 0.0, "T": 1.0, "sigma2": 2.0, "gamma0": 0.3},
        "output_dir": str(tmp_path / "out"),
        "lq": {},
    })
    assert main(["lq", "--config", cfg]) == 2


def test_stop_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "stop",
        "model": {"rho": 0.5, "c": 0.0, "T": 1.0},
        "output_dir": str(tmp_path / "out"),
        "formats": ["json", "csv"],
        "stop": {"k": 1.0, "gamma1": 2.0, "gamma2": 2.0, "n_grid": 41},
    })
    assert main(["stop", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "stop.json").read_text())
    assert data["x0"] == pytest.approx(1.3603866416114931, abs=1e-12)
    assert data["alpha2"] == pytest.approx(0.6551541419723372, abs=1e-12)
    assert data["u_at_boundary"] == pytest.approx(data["x0"] / 2.0, abs=1e-10)
    header = (tmp_path / "out" / "stopping.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"x,value,obstacle,u_star,qvi_residual"


def stop_cfg(tmp_path, stop):
    return write_cfg(tmp_path, {
        "problem": "stop",
        "model": {"rho": 0.5, "c": 0.0, "T": 1.0},
        "output_dir": str(tmp_path / "out"),
        "formats": ["json", "csv"],
        "stop": stop,
    })


def read_csv_floats(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(c) for c in row] for row in rows[1:]]


@pytest.mark.parametrize("n_grid", [None, 101])
def test_stop_residual_column_is_solver_report(tmp_path, n_grid):
    block = {"k": 1.0, "gamma1": 2.0, "gamma2": 2.0}
    if n_grid is not None:
        block["n_grid"] = n_grid
    assert main(["stop", "--config", stop_cfg(tmp_path, block), "--quiet"]) == 0
    header, rows = read_csv_floats(tmp_path / "out" / "stopping.csv")
    sp = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
    rep = solve_stopping(sp, n_grid or 2001).residual_report
    col = np.array([row[header.index("qvi_residual")] for row in rows])
    assert np.array_equal(col, rep.residual)
    assert np.array_equal(np.array([row[0] for row in rows]), rep.x_grid)


def test_stop_solves_free_boundary_once(tmp_path, monkeypatch):
    calls = []
    real = adkit.stopping.free_boundary

    def counting(sp):
        calls.append(sp)
        return real(sp)

    monkeypatch.setattr(adkit.stopping, "free_boundary", counting)
    monkeypatch.setattr(adkit.cli, "free_boundary", counting)
    cfg = stop_cfg(tmp_path, {"k": 1.0, "gamma1": 2.0, "gamma2": 2.0, "n_grid": 41})
    assert main(["stop", "--config", cfg, "--quiet"]) == 0
    assert len(calls) == 1


def test_stop_overshooting_fit_exit0(tmp_path):
    # k = 3: the fit function overshoots past its root; the solve still succeeds
    cfg = stop_cfg(tmp_path, {"k": 3.0, "gamma1": 2.0, "gamma2": 2.0})
    assert main(["stop", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "stop.json").read_text())
    assert data["u_at_boundary"] == pytest.approx(data["x0"] / 2.0, abs=1e-14)
    assert data["qvi"]["stop_side_max"] < 0
    assert data["qvi"]["u_clamp_hits"] == 0


@pytest.mark.parametrize("k, rho, gamma1", [
    # one ulp of x0 moves the fit by about 5e-11 here
    (22.478, 8.379, 1.3867),
    # the root lies past sqrt(rho)*(x - mu/rho) = 26
    (0.0024, 7.05, 131.6),
])
def test_stop_root_at_float_resolution_or_far_right_exit0(tmp_path, k, rho, gamma1):
    cfg = write_cfg(tmp_path, {
        "problem": "stop",
        "model": {"rho": rho, "c": 0.0, "T": 1.0},
        "output_dir": str(tmp_path / "out"),
        "stop": {"k": k, "gamma1": gamma1, "gamma2": 2.0 * rho * gamma1, "n_grid": 41},
    })
    assert main(["stop", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "stop.json").read_text())
    assert data["qvi"]["stop_side_max"] < 0 and data["qvi"]["u_clamp_hits"] == 0


def test_verify_failure_exit4_still_writes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(adkit.cli, "_verify_fixtures",
                        lambda: [{"name": "broken", "pass": False}])
    cfg = write_cfg(tmp_path, {
        "problem": "verify",
        "model": {"rho": 0.5, "c": 0.0, "T": 1.0},
        "output_dir": str(tmp_path / "out"),
        "verify": {},
    })
    assert main(["verify", "--config", cfg]) == 4
    assert json.loads((tmp_path / "out" / "verify.json").read_text())["all_pass"] is False
    assert "FAIL" in capsys.readouterr().out
    assert main(["verify", "--config", cfg, "--quiet"]) == 4
    assert capsys.readouterr().out == ""


def test_lq_ill_posed_message_ignores_quiet(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": "lq",
        "model": {"rho": 0.5, "c": 0.0, "T": 1.0, "sigma2": 1.0, "gamma0": 0.75},
        "output_dir": str(tmp_path / "out"),
        "lq": {},
    })
    assert main(["lq", "--config", cfg, "--quiet"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not well posed" in captured.err
    assert (tmp_path / "out" / "riccati.csv").exists()


def test_stop_requires_undiscounted_model(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "stop",
        "model": {"rho": 0.5, "c": 0.1, "T": 1.0},
        "output_dir": str(tmp_path / "out"),
        "stop": {"k": 1.0, "gamma1": 2.0, "gamma2": 2.0},
    })
    assert main(["stop", "--config", cfg]) == 2


def test_simulate_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "simulate",
        "model": dict(BASE_MODEL, sigma0=0.2),
        "output_dir": str(tmp_path / "out"),
        "formats": ["json", "csv"],
        "simulate": {"policy": "linear", "n_paths": 500, "n_steps": 50, "seed": 7},
    })
    assert main(["simulate", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "simulate.json").read_text())
    assert data["policy_kind"] == "linear"
    assert data["seed"] == 7
    assert data["std_error"] > 0
    rows = (tmp_path / "out" / "trajectory.csv").read_bytes().split(b"\r\n")
    assert rows[0] == b"t,x,u"
    assert len(rows) == 53  # header + 51 nodes + trailing


def test_simulate_seed_changes_result(tmp_path):
    out = {}
    for seed in (1, 2):
        cfg = write_cfg(tmp_path, {
            "problem": "simulate",
            "model": dict(BASE_MODEL, sigma0=0.2),
            "output_dir": str(tmp_path / ("out%d" % seed)),
            "formats": ["json"],
            "simulate": {"policy": "linear", "n_paths": 200, "n_steps": 20,
                         "seed": seed},
        }, name="cfg%d.json" % seed)
        assert main(["simulate", "--config", cfg, "--quiet"]) == 0
        out[seed] = json.loads(
            (tmp_path / ("out%d" % seed) / "simulate.json").read_text())["mean"]
    assert out[1] != out[2]


def test_simulate_budget_policy_needs_M(tmp_path):
    body = {
        "problem": "simulate",
        "model": dict(BASE_MODEL),
        "output_dir": str(tmp_path / "out"),
        "simulate": {"policy": "budget", "n_paths": 10, "n_steps": 10, "seed": 1},
    }
    assert main(["simulate", "--config", write_cfg(tmp_path, body)]) == 2
    body["simulate"]["M"] = 0.5
    assert main(["simulate", "--config", write_cfg(tmp_path, body, "ok.json"),
                 "--quiet"]) == 0


def test_simulate_lq_policy(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "simulate",
        "model": {"rho": 0.5, "c": 0.1, "T": 1.0, "sigma1": 0.2, "sigma2": 0.5,
                  "gamma0": 0.5},
        "output_dir": str(tmp_path / "out"),
        "formats": ["json"],
        "simulate": {"policy": "lq", "n_paths": 300, "n_steps": 50, "seed": 3},
    })
    assert main(["simulate", "--config", cfg, "--quiet"]) == 0
    data = json.loads((tmp_path / "out" / "simulate.json").read_text())
    assert data["min_state"] > 0  # multiplicative noise keeps x positive
    assert data["mean"] == pytest.approx(0.2969, abs=0.05)


def test_verify_all_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": "verify",
        "model": {"rho": 0.5, "c": 0.0, "T": 1.0},
        "output_dir": str(tmp_path / "out"),
        "formats": ["json", "csv"],
        "verify": {},
    })
    assert main(["verify", "--config", cfg]) == 0
    data = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert data["all_pass"] is True
    assert len(data["fixtures"]) == 6
    assert {f["name"] for f in data["fixtures"]} == {
        "linear_switch_time", "budget_identity", "lq_bernoulli",
        "lq_riccati_residual", "stopping_boundary", "qvi_small_grid",
    }
    assert capsys.readouterr().out.count("PASS") == 6


def test_mismatched_subcommand_exit2(tmp_path, capsys):
    cfg = linear_cfg(tmp_path)
    assert main(["budget", "--config", cfg]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_negative_discount_on_long_horizon_exit2(tmp_path, capsys):
    # exp(-c*T) = exp(1000) overflowed with a traceback before c >= 0 was checked
    cfg = write_cfg(tmp_path, {"problem": "linear", "model": {"rho": 1, "c": -1, "T": 1000},
                               "output_dir": str(tmp_path / "out"), "linear": {}})
    assert main(["linear", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: c >= 0\n"


def test_config_error_matrix(tmp_path, capsys):
    # each case with its exact stderr line: the key checks' order and
    # wording are user-visible
    model = dict(BASE_MODEL)
    out = str(tmp_path / "out")
    cases = [
        # unknown top-level key
        ({"problem": "linear", "model": model, "output_dir": out, "linear": {},
          "extra": 1}, "unknown config keys: extra"),
        ({"problem": "linear", "model": model, "output_dir": out, "zz": 1, "aa": 2},
         "unknown config keys: aa, zz"),
        # stray second problem block
        ({"problem": "linear", "model": model, "output_dir": out, "linear": {},
          "budget": {"M": 1.0}}, "unknown config keys: budget"),
        # missing problem block
        ({"problem": "linear", "model": model, "output_dir": out},
         "missing 'linear' block"),
        # missing model
        ({"problem": "linear", "output_dir": out, "linear": {}}, "missing 'model' block"),
        # unknown model key
        ({"problem": "linear", "model": dict(model, zeta=1.0), "output_dir": out,
          "linear": {}}, "unknown model keys: zeta"),
        ({"problem": "linear", "model": {"T": 1.0, "x0": 1, "a": 2}, "output_dir": out,
          "linear": {}}, "unknown model keys: a, x0"),
        # missing required model key
        ({"problem": "linear", "model": {"rho": 0.5, "c": 0.1}, "output_dir": out,
          "linear": {}}, "model requires: T"),
        ({"problem": "linear", "model": {"T": 1.0}, "output_dir": out, "linear": {}},
         "model requires: c, rho"),
        # invalid parameter value
        ({"problem": "linear", "model": dict(model, rho=-1.0), "output_dir": out,
          "linear": {}}, "rho > 0"),
        # boolean smuggled into a numeric field
        ({"problem": "linear", "model": dict(model, rho=True), "output_dir": out,
          "linear": {}}, "model.rho must be a real number"),
        # unknown block key
        ({"problem": "linear", "model": model, "output_dir": out,
          "linear": {"grid": 10}}, "unknown linear keys: grid"),
        # missing required block keys
        ({"problem": "budget", "model": model, "output_dir": out, "budget": {}},
         "budget block requires: M"),
        # the budget's comparison forms divide by c; the linear problem takes c = 0
        ({"problem": "budget", "model": dict(model, c=0.0), "output_dir": out,
          "budget": {"M": 0.5}}, "c > 0"),
        ({"problem": "stop", "model": dict(model, c=0.0), "output_dir": out,
          "stop": {"k": 1.0}}, "stop block requires: gamma1, gamma2"),
        # bad formats
        ({"problem": "linear", "model": model, "output_dir": out, "linear": {},
          "formats": ["yaml"]}, "formats must be a non-empty subset of {csv, json}"),
        ({"problem": "linear", "model": model, "output_dir": out, "linear": {},
          "formats": []}, "formats must be a non-empty subset of {csv, json}"),
        # unknown problem name
        ({"problem": "ode", "model": model, "output_dir": out},
         "problem must be one of linear, budget, lq, stop, simulate, verify"),
        # grid sizes below 2 or past the size limit
        ({"problem": "linear", "model": model, "output_dir": out,
          "linear": {"n_grid": -1}}, "linear.n_grid >= 2"),
        ({"problem": "linear", "model": model, "output_dir": out,
          "linear": {"n_grid": 10 ** 400}}, "linear.n_grid <= 10000000"),
        # seeds outside the Philox key word: 2**64 drew seed 0's normals
        ({"problem": "simulate", "model": model, "output_dir": out,
          "simulate": {"policy": "linear", "n_paths": 10, "n_steps": 10, "seed": 2 ** 64}},
         "simulate.seed in [0, 2**64)"),
        ({"problem": "simulate", "model": model, "output_dir": out,
          "simulate": {"policy": "linear", "n_paths": 10, "n_steps": 10, "seed": -1}},
         "simulate.seed in [0, 2**64)"),
    ]
    for i, (body, err) in enumerate(cases):
        cfg = write_cfg(tmp_path, body, name="bad%d.json" % i)
        cmd = body["problem"] if body["problem"] in adkit.cli.PROBLEMS else "linear"
        assert main([cmd, "--config", cfg]) == 2, body
        assert capsys.readouterr().err == "error: %s\n" % err, body
    assert not (tmp_path / "out").exists()


def test_lq_overflow_exit3(tmp_path):
    # finite solution, infinite value at x_init
    model = {"rho": 1.0, "c": 0.0, "T": 1.0, "sigma2": 0.5, "x_init": 1e300}
    cfg = write_cfg(tmp_path, {"problem": "lq", "model": model,
                               "output_dir": str(tmp_path / "out"), "lq": {}})
    assert main(["lq", "--config", cfg, "--quiet"]) == 3
    assert not (tmp_path / "out" / "lq.json").exists()


def test_lq_tiny_sigma2_exit0(tmp_path):
    # 1/sigma2^2 leaves the float range, which made the reduced Riccati
    # coefficients overflow (exit 3); sigma2^2 rounds to 0 in the flow
    model = {"rho": 1.0, "c": 0.0, "T": 1.0, "sigma2": 1e-247}
    cfg = write_cfg(tmp_path, {"problem": "lq", "model": model,
                               "output_dir": str(tmp_path / "out"), "lq": {}})
    assert main(["lq", "--config", cfg, "--quiet"]) == 0
    rep = json.loads((tmp_path / "out" / "lq.json").read_text())
    assert rep["well_posed"] and rep["classification"]["case_label"] == "i"


@pytest.mark.parametrize("formats", [["csv"], ["json"], ["csv", "json"]])
def test_linear_non_finite_value_exit3(tmp_path, capsys, formats):
    # with CSV only, emit's JSON check could not catch it: this wrote an
    # all-NaN value.csv and exited 0. Every format now stops at the solver
    model = {"rho": 1e150, "c": 0.5, "T": 0.5, "m": 1e300, "gamma0": 1e150}
    cfg = write_cfg(tmp_path, {"problem": "linear", "model": model, "formats": formats,
                               "output_dir": str(tmp_path / "out"),
                               "linear": {"n_grid": 3}})
    assert main(["linear", "--config", cfg, "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("solver error: linear value leaves")
    assert not (tmp_path / "out").exists()


def test_lq_sigma2_square_overflow_exit3(tmp_path, capsys):
    model = {"rho": 1.0, "c": 0.0, "T": 1.0, "sigma2": 1e300}
    cfg = write_cfg(tmp_path, {"problem": "lq", "model": model,
                               "output_dir": str(tmp_path / "out"), "lq": {}})
    assert main(["lq", "--config", cfg, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: sigma2^2 overflows")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "lq.json").exists()


def test_lq_stiff_horizon_exit3_in_bounded_time(tmp_path, capsys):
    # rho*T = 5e7: RK45 is held to steps of about 3 on T = 1e8 by stability,
    # and this config ran for minutes. exp(c*t)*P decays like exp(-(T - t))
    # toward its fixed point 0, so P(0) underflows
    model = {"rho": 0.5, "c": 1e-300, "T": 1e8, "sigma2": 0.3, "gamma0": 0.5}
    cfg = write_cfg(tmp_path, {"problem": "lq", "model": model,
                               "output_dir": str(tmp_path / "out"), "lq": {}})
    start = time.perf_counter()
    assert main(["lq", "--config", cfg, "--quiet"]) == 3
    assert time.perf_counter() - start < 20.0
    assert capsys.readouterr().err.startswith("solver error: P underflows to 0")
    assert not (tmp_path / "out" / "lq.json").exists()


def test_simulate_sizes_past_limit_exit2(tmp_path):
    for field in ("n_paths", "n_steps"):
        block = {"policy": "linear", "n_paths": 10, "n_steps": 10, "seed": 1}
        block[field] = MAX_SIZE + 1
        cfg = write_cfg(tmp_path, {"problem": "simulate", "model": dict(BASE_MODEL),
                                   "output_dir": str(tmp_path / "out"), "simulate": block})
        assert main(["simulate", "--config", cfg]) == 2


class _Drawn(Exception):
    pass


def test_simulate_work_past_limit_exit2(tmp_path, monkeypatch, capsys):
    # rejected before any path is drawn: each size within MAX_SIZE and
    # their product past MAX_WORK; and 1,000 paths x 10^6 steps, 10^9
    # path-steps but 125 blocks of 8 paths, each counted as DEFAULT_BLOCK
    def intercept(*args, **kwargs):
        raise _Drawn

    monkeypatch.setattr(adkit.sde, "_whole", None)
    monkeypatch.setattr(adkit.sde, "_draw", intercept)
    for n_paths, n_steps in ((MAX_SIZE, MAX_WORK // MAX_SIZE + 1), (1000, 10 ** 6)):
        block = {"policy": "linear", "n_paths": n_paths, "n_steps": n_steps, "seed": 1}
        cfg = write_cfg(tmp_path, {"problem": "simulate", "model": dict(BASE_MODEL),
                                   "output_dir": str(tmp_path / "out"), "simulate": block})
        assert main(["simulate", "--config", cfg]) == 2
        assert "simulate.n_paths * simulate.n_steps at most" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # criterion 8's 100k paths x 2,000 steps passes the check and reaches
    # the simulation, stubbed here to fail
    def stub(*args, **kwargs):
        raise SolverError("simulation reached")

    monkeypatch.setattr(adkit.cli, "evaluate_policy", stub)
    block.update(n_paths=100_000, n_steps=2000)
    cfg = write_cfg(tmp_path, {"problem": "simulate", "model": dict(BASE_MODEL),
                               "output_dir": str(tmp_path / "out"), "simulate": block})
    assert main(["simulate", "--config", cfg]) == 3
    assert "simulation reached" in capsys.readouterr().err


def test_simulate_long_grid_draws_at_most_2_22_normals(tmp_path, monkeypatch):
    # 4,096 paths x 10^4 steps passes the MAX_WORK check in 5 blocks of
    # 838 paths, each streamed in windows of 5,005 steps; one block of all
    # its paths would be 4.1e7 normals. Each draw is recorded and failed
    # before it draws.
    shapes = []

    def intercept(seed, indices, k0, k1, antithetic=False, out=None):
        shapes.append((k1 - k0, len(indices)))
        raise _Drawn

    monkeypatch.setattr(adkit.sde, "_whole", None)
    monkeypatch.setattr(adkit.sde, "_draw", intercept)
    block = {"policy": "linear", "n_paths": 4096, "n_steps": 10 ** 4, "seed": 1}
    cfg = write_cfg(tmp_path, {"problem": "simulate", "model": dict(BASE_MODEL, sigma0=0.2),
                               "output_dir": str(tmp_path / "out"), "simulate": block})
    with pytest.raises(_Drawn):
        main(["simulate", "--config", cfg, "--quiet"])
    assert shapes == [(5005, 838)]
    assert max(k * n for k, n in shapes) <= 2 ** 22


def test_seed_must_be_integer(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": "simulate",
        "model": dict(BASE_MODEL),
        "output_dir": str(tmp_path / "out"),
        "simulate": {"policy": "linear", "n_paths": 10, "n_steps": 10,
                     "seed": 1.5},
    })
    assert main(["simulate", "--config", cfg]) == 2


def test_missing_config_file(tmp_path):
    assert main(["linear", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["linear", "--config", str(path)]) == 2


def test_load_config_round_trip(tmp_path):
    cfg = load_config(linear_cfg(tmp_path))
    assert cfg.problem == "linear"
    assert cfg.params.gamma0 == 1.2
    assert cfg.formats == ("json", "csv")
    assert cfg.block == {"n_grid": 11}


# --- property: every config ends in an exit code, never a traceback ---

# values that replace a field of a valid config: edges, out-of-range and
# non-finite numbers (NaN/Infinity in the file, or an integer too large
# for a float), sizes past the CLI's limit, and values of the wrong type
BAD_VALUES = st.sampled_from([
    0, -1, 0.0, -0.0, 1e-300, 1e-9, 50.0, 1e300, math.nan, math.inf, -math.inf,
    10 ** 400, MAX_SIZE + 1, 2 ** 62, None, True, "1.0", [], {}, 1.5,
])
MISSING = object()


def _unit(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@st.composite
def _valid_config(draw, problem):
    """A config the solvers accept, with small MC and grid sizes."""
    model = {"rho": draw(_unit(0.1, 2.0)), "T": draw(_unit(0.1, 3.0)),
             "c": 0.0 if problem == "stop" else draw(_unit(0.01, 1.0))}
    if problem in ("lq", "simulate"):
        # LQ needs sigma2 > 0 and 1 - gamma0*sigma2^2 > 0
        model.update(sigma1=draw(_unit(0.0, 0.5)), sigma2=draw(_unit(0.05, 0.9)),
                     gamma0=draw(_unit(0.1, 1.0)), x_init=draw(_unit(0.0, 2.0)))
    n_grid = draw(st.integers(2, 60))
    if problem == "linear":
        block = {"n_grid": n_grid}
    elif problem == "budget":
        bound = (1.0 - math.exp(-model["c"] * model["T"])) / model["c"]
        block = {"M": draw(_unit(0.05, 0.95)) * bound, "n_grid": n_grid}
    elif problem == "lq":
        block = {"t_lo": draw(_unit(-1.0, 0.5 * model["T"])), "tol": draw(_unit(1e-10, 1e-3)),
                 "n_grid": n_grid}
    elif problem == "stop":
        gamma1 = draw(_unit(1.1, 4.0))
        block = {"k": draw(_unit(0.0, 3.0)), "gamma1": gamma1,
                 "gamma2": 2.0 * model["rho"] * gamma1, "n_grid": n_grid}
    elif problem == "simulate":
        block = {"policy": draw(st.sampled_from(["linear", "budget", "lq"])),
                 "n_paths": draw(st.integers(1, 40)), "n_steps": draw(st.integers(1, 40)),
                 "seed": draw(st.integers(-5, 2 ** 70)), "x_start": draw(_unit(0.0, 2.0)),
                 "antithetic": draw(st.booleans())}
        if block["policy"] == "budget":
            block["M"] = 0.1 * model["T"]
    else:
        block = {}
    return {"problem": problem, "model": model, problem: block,
            "formats": draw(st.sampled_from([["json", "csv"], ["json"], ["csv"]]))}


@st.composite
def cli_configs(draw):
    """(subcommand, config): a valid config with up to three fields
    replaced by a bad value, deleted or added, and now and then run
    under another subcommand."""
    problem = draw(st.sampled_from(sorted(BLOCK_SCHEMAS)))
    cfg = draw(_valid_config(problem))
    fields = [("model", k) for k in MODEL_KEYS] + [(problem, k) for k in
               BLOCK_SCHEMAS[problem]["required"] + BLOCK_SCHEMAS[problem]["optional"]]
    fields += [(None, "formats"), (None, "problem"), (problem, "unknown")]
    for _ in range(draw(st.integers(0, 3))):
        where, key = draw(st.sampled_from(fields))
        target = cfg if where is None else cfg[where]
        value = draw(st.one_of(BAD_VALUES, st.just(MISSING)))
        if value is MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    command = draw(st.sampled_from([problem] * 9 + sorted(BLOCK_SCHEMAS)))
    return command, cfg


def _strict_json(text):
    def reject(name):
        raise ValueError("non-RFC-8259 constant %s" % name)

    return json.loads(text, parse_constant=reject)


# No shrink (or explain) phase: shrinking a failure here ran for over ten
# minutes and looked like a hung test run, while the first failing config,
# reported as drawn, is small enough to read; derandomize reproduces it.
@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(cli_configs())
def test_cli_any_config_exits_cleanly(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        cfg["output_dir"] = out_dir
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--quiet"])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        written = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        for name in written:
            if name.endswith(".json"):
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    _strict_json(fh.read())
