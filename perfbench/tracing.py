"""In-memory span tracer for the traced benchmark run.

A span is one call into a layer's public function: name, start, end,
parent span and op id. Calls the benchmark makes itself are wrapped at
the call site; calls made inside the package are caught by swapping the
module attribute for a timing wrapper while the tracer is installed.
Spans stay in memory and are written out once, after the timed section.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); every name the package looks up at call
# time, in each module that imported it
PATCHES = (
    ("adkit.sde", "block_normals", "sde.block_normals"),
    ("adkit.sde", "ndtri", "sde.ndtri"),
    ("adkit.sde", "evaluate_policy", "sde.evaluate_policy"),
    ("adkit.cli", "evaluate_policy", "sde.evaluate_policy"),
    ("adkit.sde", "stopping_cost_report", "sde.stopping_cost_report"),
    ("adkit.cli", "simulate_path", "sde.simulate_path"),
    ("adkit.lq", "riccati_integrate", "lq.riccati_integrate"),
    ("adkit.cli", "riccati_integrate", "lq.riccati_integrate"),
    ("adkit.linear", "solve_linear", "linear.solve_linear"),
    ("adkit.cli", "solve_linear", "linear.solve_linear"),
    ("adkit.linear", "solve_budget", "linear.solve_budget"),
    ("adkit.cli", "solve_budget", "linear.solve_budget"),
    ("adkit.stopping", "free_boundary", "stopping.free_boundary"),
    ("adkit.cli", "free_boundary", "stopping.free_boundary"),
    ("adkit.stopping", "qvi_residual", "stopping.qvi_residual"),
    ("adkit.stopping", "solve_stopping", "stopping.solve_stopping"),
    ("adkit.cli", "solve_stopping", "stopping.solve_stopping"),
    ("adkit.oracles", "fd_hjb_lq", "oracles.fd_hjb_lq"),
    ("adkit.oracles", "dp_qvi_stopping", "oracles.dp_qvi_stopping"),
    ("adkit.cli", "dp_qvi_stopping", "oracles.dp_qvi_stopping"),
    ("adkit.oracles", "dp_linear", "oracles.dp_linear"),
    ("adkit.cli", "dp_linear", "oracles.dp_linear"),
    ("adkit.cli", "load_config", "cli.load_config"),
    ("adkit.cli", "emit", "cli.emit"),
)

CLI_PROBLEMS = ("linear", "budget", "lq", "stop", "simulate", "verify")

# name, unit, better; every value is per round of the workload unless the
# unit says otherwise
PER_LAYER = (
    ("sde.block_normals.calls", "count/round", "lower"),
    ("sde.block_normals.s", "s/round", "lower"),
    ("sde.block_normals.rows", "count/round", "lower"),
    ("sde.block_normals.unique_frac", "ratio", "higher"),
    ("sde.ndtri.s", "s/round", "lower"),
    ("sde.philox.s", "s/round", "lower"),
    ("sde.evaluate_policy.calls", "count/round", "lower"),
    ("sde.evaluate_policy.s", "s/round", "lower"),
    ("sde.stopping_cost_report.calls", "count/round", "lower"),
    ("sde.stopping_cost_report.s", "s/round", "lower"),
    ("sde.stopping.truncated_frac", "ratio", "lower"),
    ("sde.step_loop.s", "s/round", "lower"),
    ("model.policy.calls", "count/round", "lower"),
    ("model.policy.s", "s/round", "lower"),
    ("oracles.fd_hjb_lq.s", "s/round", "lower"),
    ("oracles.fd_hjb_lq.substeps", "count", "lower"),
    ("oracles.fd_hjb_lq.cfl_ratio", "ratio", "lower"),
    ("oracles.fd_hjb_lq.us_per_substep", "us", "lower"),
    ("oracles.dp_qvi_stopping.s", "s/round", "lower"),
    ("oracles.dp_qvi_stopping.sweeps", "count/round", "lower"),
    ("oracles.dp_linear.s", "s/round", "lower"),
    ("lq.riccati_integrate.calls", "count/round", "lower"),
    ("lq.riccati_integrate.s", "s/round", "lower"),
    ("linear.solve_linear.s", "s/round", "lower"),
    ("linear.solve_budget.s", "s/round", "lower"),
    ("stopping.free_boundary.calls", "count/round", "lower"),
    ("stopping.free_boundary.s", "s/round", "lower"),
    ("stopping.qvi_residual.s", "s/round", "lower"),
    ("cli.load_config.s", "s/round", "lower"),
    ("cli.emit.calls", "count/round", "lower"),
    ("cli.emit.s", "s/round", "lower"),
    ("cli.emit.bytes", "B/round", "lower"),
) + tuple(("cli.main.%s.s" % p, "s/round", "lower") for p in CLI_PROBLEMS) + (
    ("cli.exit_nonzero", "count/round", "lower"),
)


class Tracer:
    """Collects spans and counters; install() swaps the module attributes
    in PATCHES for wrappers, uninstall() puts the originals back."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self.normal_keys = set()
        self.fd_runs = []  # (substeps, cfl_ratio) per fd_hjb_lq call
        self._saved = []

    def wrap(self, fn, name, after=None):
        """fn with a span around each call; after(result, args, kwargs)
        records counters from the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _after(self, name):
        return {
            "sde.block_normals": self._count_normals,
            "sde.stopping_cost_report": self._count_stopping,
            "oracles.fd_hjb_lq": self._count_fd,
            "oracles.dp_qvi_stopping": self._count_qvi,
            "cli.emit": self._count_emit,
        }.get(name)

    def _count_normals(self, out, args, kwargs):
        seed, indices, n = args[:3]
        antithetic = kwargs.get("antithetic", args[3] if len(args) > 3 else False)
        self.counts["normals.rows"] += out.shape[0]
        key = np.asarray(indices, dtype=np.int64).tobytes()
        self.normal_keys.add((int(seed), key, int(n), bool(antithetic)))

    def _count_stopping(self, rep, args, kwargs):
        self.counts["stopping.paths"] += rep.n_paths
        self.counts["stopping.truncated"] += rep.truncated_fraction * rep.n_paths

    def _count_fd(self, res, args, kwargs):
        self.fd_runs.append((res.substeps, res.cfl_ratio))

    def _count_qvi(self, res, args, kwargs):
        self.counts["qvi.sweeps"] += res.iterations

    def _count_emit(self, out, args, kwargs):
        self.counts["emit.bytes"] += os.path.getsize(args[2])

    def install(self):
        for mod_name, attr, name in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name, self._after(name)))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")

    def table(self):
        """{span name: [calls, total s, self s]}; self time is the span's
        duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return dict(out)

    def per_layer(self, rounds):
        """Every PER_LAYER metric, per round of `rounds` traced rounds."""
        tab = self.table()

        def calls(name):
            return tab.get(name, (0, 0.0, 0.0))[0] / rounds

        def total(name):
            return tab.get(name, (0, 0.0, 0.0))[1] / rounds

        def own(name):
            return tab.get(name, (0, 0.0, 0.0))[2] / rounds

        n_normals = tab.get("sde.block_normals", (0,))[0]
        paths = self.counts["stopping.paths"]
        substeps = sum(s for s, _ in self.fd_runs)
        v = {
            "sde.block_normals.calls": calls("sde.block_normals"),
            "sde.block_normals.s": total("sde.block_normals"),
            "sde.block_normals.rows": self.counts["normals.rows"] / rounds,
            "sde.block_normals.unique_frac":
                len(self.normal_keys) / n_normals if n_normals else 0.0,
            "sde.ndtri.s": total("sde.ndtri"),
            # block_normals' only child span is ndtri
            "sde.philox.s": own("sde.block_normals"),
            "sde.evaluate_policy.calls": calls("sde.evaluate_policy"),
            "sde.evaluate_policy.s": total("sde.evaluate_policy"),
            "sde.stopping_cost_report.calls": calls("sde.stopping_cost_report"),
            "sde.stopping_cost_report.s": total("sde.stopping_cost_report"),
            "sde.stopping.truncated_frac":
                self.counts["stopping.truncated"] / paths if paths else 0.0,
            # MC time minus normals, policy, reward and loss spans
            "sde.step_loop.s": own("sde.evaluate_policy") + own("sde.stopping_cost_report"),
            "model.policy.calls": calls("model.policy"),
            "model.policy.s": total("model.policy"),
            "oracles.fd_hjb_lq.s": total("oracles.fd_hjb_lq"),
            # the finest grid of the round: the largest substep count
            "oracles.fd_hjb_lq.substeps": max((s for s, _ in self.fd_runs), default=0),
            "oracles.fd_hjb_lq.cfl_ratio": max((r for _, r in self.fd_runs), default=0.0),
            "oracles.fd_hjb_lq.us_per_substep":
                1e6 * tab["oracles.fd_hjb_lq"][1] / substeps if substeps else 0.0,
            "oracles.dp_qvi_stopping.s": total("oracles.dp_qvi_stopping"),
            "oracles.dp_qvi_stopping.sweeps": self.counts["qvi.sweeps"] / rounds,
            "oracles.dp_linear.s": total("oracles.dp_linear"),
            "lq.riccati_integrate.calls": calls("lq.riccati_integrate"),
            "lq.riccati_integrate.s": total("lq.riccati_integrate"),
            "linear.solve_linear.s": total("linear.solve_linear"),
            "linear.solve_budget.s": total("linear.solve_budget"),
            "stopping.free_boundary.calls": calls("stopping.free_boundary"),
            "stopping.free_boundary.s": total("stopping.free_boundary"),
            "stopping.qvi_residual.s": total("stopping.qvi_residual"),
            "cli.load_config.s": total("cli.load_config"),
            "cli.emit.calls": calls("cli.emit"),
            "cli.emit.s": total("cli.emit"),
            "cli.emit.bytes": self.counts["emit.bytes"] / rounds,
            "cli.exit_nonzero": self.counts["cli.exit_nonzero"] / rounds,
        }
        for p in CLI_PROBLEMS:
            v["cli.main.%s.s" % p] = total("cli.main.%s" % p)
        return v
