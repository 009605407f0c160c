"""adkit loads each scipy submodule on the first call that needs it, and
none at import. Every check runs in a fresh interpreter, because this
test process has imported scipy itself."""

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


@pytest.mark.parametrize("expr, submodules", [
    ("float(riccati_integrate(P_LQ).P_at(0.25))", {"scipy.integrate", "scipy.interpolate"}),
    ("solve_stopping(SP).x0", {"scipy.optimize", "scipy.special"}),
    ("float(fd_hjb_lq(P_LQ, Grid2D(0.0, 3.0, 31, 40), [0.0, 0.5, 1.0]).v0[10])",
     {"scipy.linalg"}),
    ("evaluate_policy(P_LIN, linear_policy(solve_linear(P_LIN)), lambda x: x, lambda u: u,"
     " 0.0, 1.0, PathGrid(0.0, 1.0, 20), 64, 5).mean", {"scipy.special"}),
])
def test_first_call_matches_and_loads_its_submodules(expr, submodules):
    here = {}
    exec(SETUP, here)
    out, loaded = fresh(SETUP + "print(repr(%s))" % expr)
    assert out == [repr(eval(expr, here))]
    assert submodules <= set(loaded)
