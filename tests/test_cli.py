import json
import os

import pytest

from adkit import SolverError
from adkit.cli import emit, load_config, main

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


def test_config_error_matrix(tmp_path):
    model = dict(BASE_MODEL)
    out = str(tmp_path / "out")
    cases = [
        # unknown top-level key
        {"problem": "linear", "model": model, "output_dir": out, "linear": {},
         "extra": 1},
        # stray second problem block
        {"problem": "linear", "model": model, "output_dir": out, "linear": {},
         "budget": {"M": 1.0}},
        # missing problem block
        {"problem": "linear", "model": model, "output_dir": out},
        # missing model
        {"problem": "linear", "output_dir": out, "linear": {}},
        # unknown model key
        {"problem": "linear", "model": dict(model, zeta=1.0), "output_dir": out,
         "linear": {}},
        # missing required model key
        {"problem": "linear", "model": {"rho": 0.5, "c": 0.1}, "output_dir": out,
         "linear": {}},
        # invalid parameter value
        {"problem": "linear", "model": dict(model, rho=-1.0), "output_dir": out,
         "linear": {}},
        # boolean smuggled into a numeric field
        {"problem": "linear", "model": dict(model, rho=True), "output_dir": out,
         "linear": {}},
        # unknown block key
        {"problem": "linear", "model": model, "output_dir": out,
         "linear": {"grid": 10}},
        # bad formats
        {"problem": "linear", "model": model, "output_dir": out, "linear": {},
         "formats": ["yaml"]},
        {"problem": "linear", "model": model, "output_dir": out, "linear": {},
         "formats": []},
        # unknown problem name
        {"problem": "ode", "model": model, "output_dir": out},
    ]
    for i, body in enumerate(cases):
        cfg = write_cfg(tmp_path, body, name="bad%d.json" % i)
        assert main(["linear", "--config", cfg]) == 2, body


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
