"""adkit loads each scipy submodule on the first call that needs it, and
none at import. Every check runs in a fresh interpreter, because this
test process has imported scipy itself."""

import ast
import glob
import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

# prints the scipy modules loaded so far as the last line of stdout
LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

SETUP = """
from adkit import *
from adkit.oracles import Grid2D
P_LQ = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
P_LIN = ModelParams(rho=0.5, c=0.1, T=1.0, sigma0=0.2, gamma0=1.2)
SP = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
"""


def fresh(code):
    """(stdout lines but the last, scipy modules loaded) of code run in a
    new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code) + LOADED],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("module", ["adkit", "adkit.cli"])
def test_import_loads_no_scipy(module):
    assert fresh("import %s" % module) == ([], [])


def test_linear_budget_and_rejected_configs_load_no_scipy(tmp_path):
    model = {"rho": 0.5, "c": 0.1, "T": 1.0, "gamma0": 1.2}
    bodies = {
        "linear": {"problem": "linear", "model": model, "linear": {"n_grid": 11}},
        "budget": {"problem": "budget", "model": model, "budget": {"M": 0.5}},
        "rejected": {"problem": "linear", "model": dict(model, rho=-1.0), "linear": {}},
    }
    runs = []
    for name, body in bodies.items():
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(dict(body, output_dir=str(tmp_path / name))))
        runs.append([body["problem"], "--config", str(path), "--quiet"])
    out, loaded = fresh("""
        import contextlib, io
        from adkit.cli import main
        for argv in %r:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            print(code, err.getvalue().strip())
    """ % runs)
    assert out == ["0 ", "0 ", "2 error: rho > 0"]
    assert loaded == []
    assert sorted(os.listdir(tmp_path / "linear")) == ["linear.json", "policy.csv", "value.csv"]
    assert (tmp_path / "budget" / "budget.json").exists()
    assert not (tmp_path / "rejected").exists()


@pytest.mark.parametrize("expr", [
    "float(riccati_integrate(P_LQ).P_at(0.25))",
    "float(riccati_integrate(P_LQ).gain_at(riccati_integrate(P_LQ).t[7:9]).sum())",
    "riccati_integrate(ModelParams(rho=0.5, c=0.0, T=1.0, sigma2=1.0, gamma0=0.75)).t_blow",
])
def test_riccati_closed_form_loads_no_scipy(expr):
    here = {}
    exec(SETUP, here)
    out, loaded = fresh(SETUP + "print(repr(%s))" % expr)
    assert out == [repr(eval(expr, here))]
    assert loaded == []


def test_lq_cli_run_loads_no_scipy(tmp_path):
    # the criterion-12 lq config
    model = {"rho": 0.5, "c": 0.1, "T": 1.0, "sigma1": 0.2, "sigma2": 0.5, "gamma0": 0.5}
    path = tmp_path / "lq.json"
    path.write_text(json.dumps({"problem": "lq", "model": model, "lq": {"n_grid": 201},
                                "output_dir": str(tmp_path / "out")}))
    out, loaded = fresh("""
        from adkit.cli import main
        print(main(["lq", "--config", %r, "--quiet"]))
    """ % str(path))
    assert out == ["0"]
    assert loaded == []
    assert sorted(os.listdir(tmp_path / "out")) == ["lq.json", "riccati.csv"]


@pytest.mark.parametrize("problem, block, artifacts", [
    ("stop", {"k": 1.0, "gamma1": 2.0, "gamma2": 2.0, "n_grid": 101},
     ["stop.json", "stopping.csv"]),
    ("verify", {}, ["verify.csv", "verify.json"]),
])
def test_stop_and_verify_cli_runs_load_no_scipy_optimize(tmp_path, problem, block, artifacts):
    # the criterion-12 stop and verify configs; the free boundary's root
    # finder is in adkit itself, so only scipy.special (erfcx) is loaded
    path = tmp_path / ("%s.json" % problem)
    path.write_text(json.dumps({"problem": problem, "model": {"rho": 0.5, "c": 0.0, "T": 1.0},
                                problem: block, "output_dir": str(tmp_path / "out")}))
    out, loaded = fresh("""
        from adkit.cli import main
        print(main([%r, "--config", %r, "--quiet"]))
    """ % (problem, str(path)))
    assert out == ["0"]
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]
    assert sorted(os.listdir(tmp_path / "out")) == artifacts


@pytest.mark.parametrize("expr, submodules, absent", [
    ("riccati_oracle(P_LQ).P[0]", {"scipy.integrate"}, set()),
    ("solve_stopping(SP).x0", {"scipy.special"}, {"scipy.optimize"}),
    ("float(fd_hjb_lq(P_LQ, Grid2D(0.0, 3.0, 31, 40), [0.0, 0.5, 1.0]).v0[10])",
     {"scipy.linalg"}, set()),
    ("evaluate_policy(P_LIN, linear_policy(solve_linear(P_LIN)), lambda x: x, lambda u: u,"
     " 0.0, 1.0, PathGrid(0.0, 1.0, 20), 64, 5).mean", {"scipy.special"}, set()),
])
def test_first_call_matches_and_loads_its_submodules(expr, submodules, absent):
    here = {}
    exec(SETUP, here)
    out, loaded = fresh(SETUP + "print(repr(%s))" % expr)
    assert out == [repr(eval(expr, here))]
    assert submodules <= set(loaded)
    assert not absent & set(loaded)


def test_only_the_scipy_shim_imports_scipy():
    # every scipy import goes through _scipy.py, which loads each
    # submodule on its first call
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "adkit", "*.py"))):
        if os.path.basename(path) == "_scipy.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += ["%s:%d %s" % (os.path.basename(path), node.lineno, name)
                          for name in names if name == "scipy" or name.startswith("scipy.")]
    assert offenders == []
