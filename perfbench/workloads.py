"""The benchmark's four workloads.

Each workload is built from a seed (setup: inputs and closed-form
references) and then hands out rounds: a round is a fixed list of ops,
each op exactly one call into the library plus the check of its output.
Rounds repeat until the run's time is up, so every timing below is per
round and a faster library completes more rounds.

Why these four:
- mc_fresh: long rows and a fresh MC seed per op, so no normal block is
  ever reused; normals and the step loop each take about half the time.
- mc_paired: the shape of the paired-perturbation criterion; every
  evaluation in a run draws the same normal blocks, so substream
  construction dominates and a draw-once cache would show here.
- oracle_ladder: the deterministic oracles (explicit FD ladder, QVI
  obstacle solver, switch grid search); no MC at all.
- cli_sweep: seeded configs through adkit.cli.main in-process, a quarter
  of them invalid; the only workload that exercises config parsing, the
  closed forms and emit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import adkit
import adkit.cli
import adkit.oracles
import adkit.sde
from adkit import ModelParams, PathGrid, Policy, StoppingParams
from adkit.model import ControlSet

# criterion-8 LQ instance and criterion-9 stopping instance
P_LQ = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
SP = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
# criterion-11 linear/budget instance
P_LIN = ModelParams(rho=0.5, c=0.1, T=1.0, sigma0=0.2, gamma0=1.2)
BUDGET_M = 0.5
T_STOP = 40.0
QVI_X_HI = 5.4
DP_N = 10 ** 4
# criterion 11's MC seed, fixed for every run: --seed draws the
# perturbations. With these normals the paired t of every perturbation in
# the drawn ranges stays above -0.6; with a fresh MC seed per run, the LQ
# and stopping perturbations near the optimum give t ~ N(0.3, 1), and a
# correct program would fail the -3 floor now and then.
PAIRED_MC_SEED = 99


@dataclass(frozen=True)
class Size:
    fresh_paths: int
    fresh_steps: int
    paired_paths: int
    paired_steps: int
    stop_paths: int
    stop_steps: int
    # perturbations per round: linear, budget, lq, boundary shift, control scale
    perturbations: tuple
    fd_grids: tuple
    qvi_dx: float
    dp_draws: int
    cli_per_problem: int
    cli_invalid: int


SIZES = {
    "full": Size(
        fresh_paths=2 * 4096, fresh_steps=2000,
        paired_paths=4000, paired_steps=400, stop_paths=2000, stop_steps=4000,
        perturbations=(5, 5, 5, 3, 3),
        fd_grids=((100, 1000), (200, 2000), (400, 4000)), qvi_dx=1e-3, dp_draws=20,
        cli_per_problem=4, cli_invalid=6,
    ),
    # for the smoke test: same code paths, about a second in all
    "tiny": Size(
        fresh_paths=512, fresh_steps=200,
        paired_paths=500, paired_steps=50, stop_paths=200, stop_steps=400,
        perturbations=(2, 2, 2, 1, 1),
        fd_grids=((25, 250), (50, 500), (100, 1000)), qvi_dx=1e-2, dp_draws=3,
        cli_per_problem=1, cli_invalid=2,
    ),
}


@dataclass
class Op:
    """One call into the library. call() is timed; collect() turns its
    return value into the output that check() and digest() read."""

    label: str
    kind: str  # mc, fd, qvi, dp or cli
    call: Callable[[], Any]
    check: Callable[[Any], list]  # failure messages, empty when correct
    digest: Callable[[Any], str]
    work: int = 0  # nominal path-steps of an MC evaluation
    collect: Optional[Callable[[Any], Any]] = None


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def report_digest(rep) -> str:
    return digest_of(rep.mean, rep.std_error, rep.n_paths, rep.seed, rep.min_state,
                     rep.truncated_fraction, rep.samples)


def traced_policy(tr, pol: Policy) -> Policy:
    return pol if tr is None else dataclasses.replace(pol, fn=tr.wrap(pol.fn, "model.policy"))


def traced(tr, fn, name):
    return fn if tr is None else tr.wrap(fn, name)


def paired_t(a, b) -> float:
    """Paired t-statistic of a's samples minus b's; for a claim that a
    does at least as well as b it should not fall below -3."""
    d = a.samples - b.samples
    se = float(d.std(ddof=1)) / math.sqrt(d.size)
    return float(d.mean()) / se if se > 0 else math.inf


def draw_linear_params(rng) -> ModelParams:
    return ModelParams(
        rho=rng.uniform(0.1, 2.0),
        c=rng.uniform(0.01, 1.0),
        T=rng.uniform(0.5, 3.0),
        gamma0=rng.uniform(0.5, 3.0),
        m=rng.uniform(0.5, 2.0),
    )


class McFresh:
    """evaluate_policy with lq_feedback on P_LQ; a fresh MC seed per op."""

    name = "mc_fresh"

    def __init__(self, seed, size: Size, workdir):
        self.rng = np.random.default_rng(seed)
        sol = adkit.riccati_integrate(P_LQ)
        self.ref = -float(sol.P[0]) * P_LQ.x_init ** 2
        self.pol = adkit.lq_feedback(sol, P_LQ)
        self.grid = PathGrid(0.0, P_LQ.T, size.fresh_steps)
        self.n_paths = size.fresh_paths
        self.estimates = {}  # MC seed -> (mean, std_error)

    def run_check(self):
        """Criterion 8's check, |mean + P(0)x^2| <= 4 SE, on the pooled
        estimate of every op of the run. Per op it would fail a correct
        program about once in a thousand ops: the samples have skewness
        about 5, and at 8192 paths the lower tail of the t-statistic is
        far heavier than the normal one."""
        means, ses = zip(*self.estimates.values())
        mean = sum(means) / len(means)
        se = math.sqrt(sum(s * s for s in ses)) / len(ses)
        if abs(mean - self.ref) > 4.0 * se:
            return ["pooled mean %.6f vs closed form %.6f: %.2f SE > 4"
                    % (mean, self.ref, abs(mean - self.ref) / se)]
        return []

    def next_round(self, tr):
        mc_seed = int(self.rng.integers(1 << 62))
        pol = traced_policy(tr, self.pol)
        reward = traced(tr, lambda x: P_LQ.gamma0 * x * x, "model.reward")
        loss = traced(tr, lambda u: u * u, "model.loss")

        def call():
            return adkit.sde.evaluate_policy(
                P_LQ, pol, reward, loss, 0.0, P_LQ.x_init, self.grid, self.n_paths, mc_seed)

        def check(rep):
            self.estimates[mc_seed] = (rep.mean, rep.std_error)
            bad = []
            if not (math.isfinite(rep.mean) and rep.std_error > 0):
                bad.append("mean %r, std_error %r" % (rep.mean, rep.std_error))
            if not rep.min_state > 0:
                bad.append("min_state %r not positive" % rep.min_state)
            return bad

        return [Op("evaluate_policy[lq seed=%d]" % mc_seed, "mc", call, check, report_digest,
                   work=self.n_paths * self.grid.n_steps)]


class _Shim:
    """Stopping rule with a moved boundary or another feedback."""

    def __init__(self, x0, policy):
        self.x0 = x0
        self.policy = policy


class McPaired:
    """Optimum and seeded perturbations of the linear, budget, LQ and
    stopping policies on one MC seed, checked by paired t-statistics."""

    name = "mc_paired"

    def __init__(self, seed, size: Size, workdir):
        self.rng = np.random.default_rng(seed)
        self.size = size
        self.lin = adkit.solve_linear(P_LIN)
        self.bud = adkit.solve_budget(P_LIN, BUDGET_M)
        self.ric = adkit.riccati_integrate(P_LQ)
        self.lq_pol = adkit.lq_feedback(self.ric, P_LQ)
        self.stop = adkit.solve_stopping(SP)
        self.grid = PathGrid(0.0, P_LIN.T, size.paired_steps)
        self.grid_stop = PathGrid(0.0, T_STOP, size.stop_steps)

    def next_round(self, tr):
        rng, size = self.rng, self.size
        n_lin, n_bud, n_lq, n_shift, n_scale = size.perturbations
        opt = {}
        ops = []
        work = size.paired_paths * size.paired_steps

        def evaluation(family, label, p, pol, reward, loss):
            pol = traced_policy(tr, pol)
            reward = traced(tr, reward, "model.reward")
            loss = traced(tr, loss, "model.loss")

            def call():
                return adkit.sde.evaluate_policy(
                    p, pol, reward, loss, 0.0, p.x_init, self.grid, size.paired_paths,
                    PAIRED_MC_SEED, keep_samples=True)

            ops.append(Op("%s %s" % (family, label), "mc", call,
                          self._checker(opt, family, label, 1.0),
                          report_digest, work=work))

        def stopping(label, sol, control=None):
            if tr is not None:
                control = tr.wrap(sol.policy if control is None else control, "model.policy")

            def call():
                return adkit.sde.stopping_cost_report(
                    SP.mu, SP.rho, SP.gamma1, SP.gamma2, sol, self.grid_stop,
                    self.stop.x0 + 1.0, size.stop_paths, PAIRED_MC_SEED,
                    control=control, keep_samples=True)

            ops.append(Op("stop %s" % label, "mc", call,
                          self._checker(opt, "stop", label, -1.0),
                          report_digest, work=size.stop_paths * size.stop_steps))

        lin_reward, lin_loss = (lambda x: P_LIN.gamma0 * x), (lambda u: u)
        evaluation("linear", "opt", P_LIN, adkit.linear_policy(self.lin), lin_reward, lin_loss)
        for _ in range(n_lin):
            delta = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
            s = min(max(self.lin.t_star + delta, 0.0), P_LIN.T)
            evaluation("linear", "switch=%.4f" % s, P_LIN, Policy.bang_bang(s, P_LIN.m),
                       lin_reward, lin_loss)

        evaluation("budget", "opt", P_LIN, self.bud.policy, lin_reward, lin_loss)
        for _ in range(n_bud):
            # same discounted spend, admissible rate, earlier start
            s = rng.uniform(max(self.bud.t_star - 0.4, 0.0), self.bud.t_star - 0.01)
            m_tilde = P_LIN.c * BUDGET_M / (math.exp(-P_LIN.c * s) - math.exp(-P_LIN.c * P_LIN.T))
            evaluation("budget", "start=%.4f" % s, P_LIN, Policy.bang_bang(s, m_tilde),
                       lin_reward, lin_loss)

        lq_reward, lq_loss = (lambda x: P_LQ.gamma0 * x * x), (lambda u: u * u)
        evaluation("lq", "opt", P_LQ, self.lq_pol, lq_reward, lq_loss)
        for _ in range(n_lq):
            kappa = rng.uniform(0.7, 1.3)
            if abs(kappa - 1.0) < 0.05:
                kappa = 1.05
            pol = Policy.linear_feedback(
                lambda t, k=kappa: k * float(self.ric.gain_at(t)),
                0.0, P_LQ.T, ControlSet(0.0, math.inf))
            evaluation("lq", "kappa=%.4f" % kappa, P_LQ, pol, lq_reward, lq_loss)

        stopping("opt", self.stop)
        for _ in range(n_shift):
            x0 = self.stop.x0 + rng.uniform(0.15, 0.6)
            stopping("x0=%.4f" % x0, _Shim(x0, self.stop.policy))
        for _ in range(n_scale):
            kappa = float(rng.choice([rng.uniform(0.5, 0.85), rng.uniform(1.15, 1.5)]))
            stopping("kappa=%.4f" % kappa, self.stop,
                     lambda y, k=kappa: k * np.asarray(self.stop.policy(y)))
        return ops

    @staticmethod
    def _checker(opt, family, label, sign):
        def check(rep):
            if not (math.isfinite(rep.mean) and np.all(np.isfinite(rep.samples))):
                return ["non-finite samples"]
            if label == "opt":
                opt[family] = rep
                return []
            # rewards: opt - pert; costs: pert - opt
            t = paired_t(opt[family], rep) if sign > 0 else paired_t(rep, opt[family])
            return [] if t >= -3.0 else ["paired t %.2f < -3" % t]

        return check


class OracleLadder:
    """FD Bellman ladder, QVI obstacle solver and switch grid search."""

    name = "oracle_ladder"

    def __init__(self, seed, size: Size, workdir):
        rng = np.random.default_rng(seed)
        self.size = size
        sol = adkit.riccati_integrate(P_LQ)
        self.ref = -float(sol.P[0]) * P_LQ.x_init ** 2
        self.u_grid = np.linspace(0.0, adkit.u_max_oracle(P_LQ, sol), 81)
        self.stop = adkit.solve_stopping(SP)
        self.stop_value = float(self.stop.value(self.stop.x0 + 1.0))
        self.dp = []
        for _ in range(size.dp_draws):
            p = draw_linear_params(rng)
            self.dp.append((p, adkit.solve_linear(p).t_split))

    def next_round(self, tr):
        ops = []
        trend = []
        last = len(self.size.fd_grids) - 1
        for i, (nx, nt) in enumerate(self.size.fd_grids):
            g = adkit.Grid2D(0.0, 4.0, nx, nt)
            ops.append(Op("fd_hjb_lq[%dx%d]" % (nx, nt), "fd",
                          lambda g=g: adkit.oracles.fd_hjb_lq(P_LQ, g, self.u_grid),
                          self._fd_check(trend, i == last), self._fd_digest))

        dx = self.size.qvi_dx
        g = adkit.Grid2D(0.0, QVI_X_HI, int(round(QVI_X_HI / dx)) + 1, 16)
        ops.append(Op("dp_qvi_stopping[dx=%g]" % dx, "qvi",
                      lambda: adkit.oracles.dp_qvi_stopping(SP, g, np.linspace(0.0, 1.0, 101)),
                      lambda q: self._qvi_check(q, dx),
                      lambda q: digest_of(q.v, q.boundary_hat, q.iterations)))

        for p, t_split in self.dp:
            def check(r, p=p, t_split=t_split):
                gap = abs(t_split - r.t_star_hat)
                return [] if gap <= p.T / DP_N else ["switch gap %.3g > T/n" % gap]

            ops.append(Op("dp_linear[rho=%.4f]" % p.rho, "dp",
                          lambda p=p: adkit.oracles.dp_linear(p, DP_N), check,
                          lambda r: digest_of(r.t_star_hat, r.value_hat)))
        return ops

    def _fd_check(self, trend, finest):
        def check(res):
            rel = abs(res.value_at(P_LQ.x_init) - self.ref) / abs(self.ref)
            trend.append(rel)
            bad = ["control cap hit"] if res.cap_hit else []
            if finest:
                if rel > 0.02:
                    bad.append("finest rel_error %.4f > 0.02" % rel)
                if not all(a > b for a, b in zip(trend, trend[1:])):
                    bad.append("rel_error trend %s not strictly decreasing" % trend)
            return bad

        return check

    @staticmethod
    def _fd_digest(res):
        return digest_of(res.v0, res.substeps, res.cfl_ratio, res.cap_hit)

    def _qvi_check(self, q, dx):
        bad = [] if q.converged else ["QVI not converged"]
        gap = abs(q.boundary_hat - self.stop.x0)
        if gap > 2.0 * dx:
            bad.append("boundary gap %.3g > 2dx" % gap)
        y = self.stop.x0 + 1.0
        v_rel = abs(q.value_at(y) - self.stop_value) / self.stop_value
        if v_rel > 0.01:
            bad.append("value rel error %.3g > 0.01" % v_rel)
        return bad


def _lq_model(rng):
    # well posed (no Riccati blow-down) everywhere on this box
    return {"rho": rng.uniform(0.5, 1.5), "c": rng.uniform(0.0, 0.5),
            "T": rng.uniform(0.5, 1.5), "sigma1": rng.uniform(0.0, 0.4),
            "sigma2": rng.uniform(0.1, 0.5), "gamma0": rng.uniform(0.2, 0.6)}


def _linear_model(rng):
    p = draw_linear_params(rng)
    return {"rho": p.rho, "c": p.c, "T": p.T, "gamma0": p.gamma0, "m": p.m}


def _budget_M(rng, model):
    return rng.uniform(0.05, 0.95) * adkit.spend_bound(ModelParams(**model))


def _stop_model(rng, c=0.0):
    return {"rho": rng.uniform(0.2, 1.5), "c": c, "T": rng.uniform(0.5, 2.0)}


def _valid_config(problem, rng):
    """A config that must exit 0; problem "simulate:<policy>" picks the
    simulated policy."""
    if problem == "linear":
        return {"model": _linear_model(rng), "linear": {}}
    if problem == "budget":
        model = _linear_model(rng)
        return {"model": model, "budget": {"M": _budget_M(rng, model)}}
    if problem == "lq":
        return {"model": _lq_model(rng), "lq": {}}
    if problem == "stop":
        model = _stop_model(rng)
        gamma1 = rng.uniform(1.5, 4.0)
        return {"model": model, "stop": {"k": rng.uniform(0.5, 2.0), "gamma1": gamma1,
                                         "gamma2": 2.0 * model["rho"] * gamma1}}
    if problem == "verify":
        return {"model": _stop_model(rng), "verify": {}}
    kind = problem.split(":")[1]
    model = _lq_model(rng) if kind == "lq" else dict(_linear_model(rng), sigma0=rng.uniform(0.0, 0.3))
    block = {"policy": kind, "n_paths": 200, "n_steps": 50, "seed": int(rng.integers(1 << 31))}
    if kind == "budget":
        block["M"] = _budget_M(rng, model)
    return {"model": model, "simulate": block}


def _invalid_config(i, rng):
    """Structurally invalid configs, cycling through the four kinds."""
    kind = ("unknown_key", "missing_key", "wrong_type", "stop_discounted")[i % 4]
    if kind == "unknown_key":
        problem = ("linear", "lq", "verify")[i // 4 % 3]
        cfg = _valid_config(problem, rng)
        cfg[problem]["colour"] = "blue"
    elif kind == "missing_key":
        problem = ("budget", "lq")[i // 4 % 2]
        cfg = _valid_config(problem, rng)
        if problem == "budget":
            del cfg["budget"]["M"]
        else:
            del cfg["model"]["T"]
    elif kind == "wrong_type":
        problem = ("linear", "lq")[i // 4 % 2]
        cfg = _valid_config(problem, rng)
        if problem == "linear":
            cfg["model"]["rho"] = str(cfg["model"]["rho"])
        else:
            cfg["lq"]["n_grid"] = 2001.0
    else:
        problem = "stop"
        cfg = _valid_config(problem, rng)
        cfg["model"]["c"] = rng.uniform(0.01, 0.5)
    return "%s:%s" % (problem, kind), problem, cfg


def read_artifacts(out_dir):
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class CliSweep:
    """Seeded configs through adkit.cli.main, each valid one run twice."""

    name = "cli_sweep"
    # one small simulate per policy kind, so a round's work does not
    # depend on which kind the seed would pick
    ONCE = ("verify", "simulate:linear", "simulate:budget", "simulate:lq")

    def __init__(self, seed, size: Size, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        cfg_dir = os.path.join(workdir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        entries = []
        for problem in ("linear", "budget", "lq", "stop"):
            for _ in range(size.cli_per_problem):
                entries.append((problem, problem, _valid_config(problem, rng), 0))
        for label in self.ONCE:
            entries.append((label, label.split(":")[0], _valid_config(label, rng), 0))
        for i in range(size.cli_invalid):
            label, problem, cfg = _invalid_config(i, rng)
            entries.append((label, problem, cfg, 2))
        self.configs = []
        for k, (label, problem, cfg, expect) in enumerate(entries):
            path = os.path.join(cfg_dir, "%02d-%s.json" % (k, problem))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict({"problem": problem, "output_dir": "unused"}, **cfg), fh)
            self.configs.append((k, label, problem, path, expect))

    def next_round(self, tr):
        ops = []
        for k, label, problem, path, expect in self.configs:
            first = {}
            for run in ("a", "b") if expect == 0 else ("a",):
                out_dir = os.path.join(self.workdir, "out", "%02d-%s" % (k, run))
                ops.append(Op("cli %s #%d%s" % (label, k, run), "cli",
                              self._caller(tr, problem, path, out_dir),
                              self._checker(expect, first, run), self._digest,
                              collect=self._collector(tr, out_dir)))
        return ops

    @staticmethod
    def _caller(tr, problem, path, out_dir):
        main = traced(tr, adkit.cli.main, "cli.main.%s" % problem)
        argv = [problem, "--config", path, "--output", out_dir, "--quiet"]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return main(argv)

        return call

    @staticmethod
    def _collector(tr, out_dir):
        def collect(code):
            if tr is not None and code != 0:
                tr.counts["cli.exit_nonzero"] += 1
            files = read_artifacts(out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            return code, files

        return collect

    @staticmethod
    def _checker(expect, first, run):
        def check(out):
            code, files = out
            if code != expect:
                return ["exit code %r, expected %d" % (code, expect)]
            if expect != 0:
                return ["artifacts written on a rejected config"] if files else []
            if not files:
                return ["no artifacts written"]
            if run == "a":
                first["files"] = files
                return []
            if files != first.get("files"):
                return ["artifacts differ from the first run of the same config"]
            return []

        return check

    @staticmethod
    def _digest(out):
        code, files = out
        return digest_of(code, *[name.encode() + b"\0" + data for name, data in files.items()])


WORKLOADS = {w.name: w for w in (McFresh, McPaired, OracleLadder, CliSweep)}
