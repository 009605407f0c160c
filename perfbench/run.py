#!/usr/bin/env python3
"""adkit benchmark: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload mc_fresh --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports adkit from src/. The
workloads are listed in perfbench/workloads.py and BENCHMARK.json. A run
times set-up (a fresh interpreter importing adkit and building the
workload's inputs, SETUP_REPEATS times), then runs rounds of library
calls in a closed loop, stopping at the round boundary nearest to
--seconds, and checks every output. At the end it repeats the first op
and requires a bit-identical output.

With --trace 1 every second round runs with each layer's public
functions wrapped in spans; the per-layer metrics come from the traced
rounds, the end-to-end ones from the others, and the difference between
the two is the tracing overhead. Spans are written to .perfbench/.

Output: one line per op (round, label, seconds, output digest, failures),
the metric table, then as the last line one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up runs in fresh interpreters, since an import happens once per process
SETUP_REPEATS = 5
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class OpRecord:
    index: int
    round: object  # round number, or "rerun" for the determinism check
    label: str
    kind: str
    seconds: float
    work: int
    digest: str
    problems: list = field(default_factory=list)


class Runner:
    """Executes ops in rounds and keeps one record per op."""

    def __init__(self):
        self.records = []
        self.first_op = None
        self.tracer = None
        self.traced_rounds = set()
        self._round = 0

    def execute(self, op, round_no):
        rec = OpRecord(len(self.records), round_no, op.label, op.kind, float("nan"),
                       op.work, "-")
        self.records.append(rec)
        if self.tracer is not None:
            self.tracer.op = rec.index
        try:
            t0 = time.perf_counter()
            out = op.call()
            rec.seconds = time.perf_counter() - t0
            if op.collect is not None:
                out = op.collect(out)
            rec.digest = op.digest(out)
            rec.problems = op.check(out)
        except Exception as e:  # a failed op is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            rec.problems = ["%s: %s" % (type(e).__name__, e)]
        return rec

    def rounds(self, wl, seconds, tracer=None):
        """Run whole rounds, at least one, and stop at the round boundary
        nearest to `seconds`, judging the next round by the last one's
        length. With a tracer,
        rounds alternate untraced and traced (at least one of each), so
        drift in machine speed falls on both alike. Returns the wall
        times of the untraced and of the traced rounds."""
        walls = ([], [])
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(walls[0]) > len(walls[1])
            if traced:
                tracer.install()
                self.tracer = tracer
                self.traced_rounds.add(self._round)
            try:
                ops = wl.next_round(self.tracer)
                if self.first_op is None:
                    self.first_op = ops[0]
                t0 = time.perf_counter()
                for op in ops:
                    self.execute(op, self._round)
                last = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
                    self.tracer = None
            walls[traced].append(last)
            self._round += 1
            done = tracer is None or walls[1]
            if done and time.perf_counter() - start + last / 2.0 >= seconds:
                return walls

    def check_run(self, check):
        """A check on the run as a whole, counted like an op."""
        rec = OpRecord(len(self.records), "run", "run check", "check", 0.0, 0, "-")
        self.records.append(rec)
        try:
            rec.problems = check()
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            rec.problems = ["%s: %s" % (type(e).__name__, e)]

    def rerun_first(self):
        rec = self.execute(self.first_op, "rerun")
        if rec.digest != self.records[0].digest:
            rec.problems.append("determinism: output differs from op 0")
        return rec


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke test")
    return ap.parse_args(argv)


def workload_metrics(records):
    """The workload-specific metrics of the op kinds present."""
    out = {}
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r)
    mc = by_kind.get("mc", [])
    if mc:
        busy = sum(r.seconds for r in mc)
        out["mc_path_steps_per_s"] = (sum(r.work for r in mc) / busy, "1/s")
        out["evals_per_s"] = (len(mc) / busy, "1/s")
    if "fd" in by_kind:
        ladders = {}
        for r in by_kind["fd"]:
            ladders[r.round] = ladders.get(r.round, 0.0) + r.seconds
        out["fd_ladder_s"] = (statistics.median(ladders.values()), "s")
    if "qvi" in by_kind:
        out["qvi_s"] = (statistics.median(r.seconds for r in by_kind["qvi"]), "s")
    if "cli" in by_kind:
        out["cli_runs_per_s"] = (len(by_kind["cli"]) / sum(r.seconds for r in by_kind["cli"]),
                                 "1/s")
    return out


def print_metric(name, value, unit):
    print("metric %-34s %-14.6g %s" % (name, value, unit))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "adkit" / "__init__.py").is_file():
        print("perfbench: %s/src/adkit not found; run from a checkout of the repository"
              % ROOT, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ADK_LOG", None)  # keep the CLI's logging off
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    import numpy
    import scipy

    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; one of %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    print("machine: %s, nproc %d, python %s, numpy %s, scipy %s"
          % (platform.machine(), os.cpu_count(), platform.python_version(),
             numpy.__version__, scipy.__version__))
    print("run: workload %s, seed %d, seconds %g, trace %d, size %s"
          % (args.workload, args.seed, args.seconds, args.trace, args.size))

    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        return run(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_setup(args, workdir) -> float:
    """Seconds a fresh interpreter takes to import adkit and build the
    workload's inputs, closed-form references included."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path[:0] = [%r, %r]\n"
        "import adkit\n"
        "from perfbench import workloads\n"
        "workloads.WORKLOADS[%r](%d, workloads.SIZES[%r], %r)\n"
        "print(time.perf_counter() - t0)\n"
    ) % (str(ROOT / "src"), str(ROOT), args.workload, args.seed, args.size, workdir)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run(args, workloads, tracing, workdir) -> int:
    repeats = SETUP_REPEATS if args.size == "full" else 1  # keeps the smoke test short
    setup_s = statistics.median(timed_setup(args, workdir) for _ in range(repeats))
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], workdir)

    runner = Runner()
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls = runner.rounds(wl, args.seconds, tracer)
    untraced = [r for r in runner.records if r.round not in runner.traced_rounds]
    if hasattr(wl, "run_check"):
        runner.check_run(wl.run_check)
    runner.rerun_first()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for r in runner.records:
        print("op %d round %s %s %.6fs %s %s"
              % (r.index, r.round, r.label, r.seconds, r.digest[:16],
                 "ok" if not r.problems else "FAIL: " + "; ".join(r.problems)))
    rerun = runner.records[-1]
    print("determinism: op 0 (%s) rerun %s" % (rerun.label, "ok" if not rerun.problems
                                                else "FAILED"))

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r.problems)
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": len(untraced) / len(walls) / statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    print("rounds: %d untraced%s" % (len(walls), ", %d traced" % len(traced_walls)
                                      if tracer else ""))
    for name, value in e2e.items():
        print_metric(name, value, units[name])
    print_metric("failed_frac", failed / attempted, "1")
    for name, (value, unit) in workload_metrics(untraced).items():
        print_metric(name, value, unit)

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = report_trace(args, tracing, tracer, walls, traced_walls)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_trace(args, tracing, tracer, walls, traced_walls):
    n = len(traced_walls)
    print("per-layer spans, per traced round (%d rounds):" % n)
    print("  %-30s %12s %12s %12s" % ("span", "calls", "total_s", "self_s"))
    for name, (calls, total, own) in sorted(tracer.table().items(), key=lambda kv: -kv[1][1]):
        print("  %-30s %12.6g %12.6g %12.6g" % (name, calls / n, total / n, own / n))
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    print("trace overhead: traced wall_s %.6g - untraced wall_s %.6g = %.6g s (%.2f%%)"
          % (statistics.median(traced_walls), statistics.median(walls), overhead,
             100.0 * overhead / statistics.median(walls)))
    values = tracer.per_layer(n)
    for name, unit, _ in tracing.PER_LAYER:
        print_metric(name, values[name], unit)
    path = SCRATCH / ("trace-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
    tracer.write(path)
    print("spans: %d written to %s" % (len(tracer.spans), path.relative_to(ROOT)))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
