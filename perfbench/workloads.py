"""The four workloads: inputs made from the seed, the timed operations of
one pass, and the checks on what those operations produced.

A workload's ``setup`` generates its inputs, writes its run files and
validates its models; ``run_pass`` performs its operations once and
returns one ``Op`` per operation.  Every pass of a run repeats the same
operations on the same inputs, so their output digests must agree.

Sizes: "full" is what the benchmark measures; "tiny" runs each workload
in about a second for the benchmark's own tests.
"""

import contextlib
import csv
import io
import json
import math
import random
import shutil
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from measure import (
    Check,
    Op,
    count_check,
    digest,
    gap_check,
    json_digest,
    merge_outcomes,
    passage_se,
)

INPUTS = Path(__file__).resolve().parent / "inputs"

# the paper's verdicts on the two critical manifolds: the transition
# sits at r1 = 2 (diffusion) and r2 = alpha (heavy jumps)
STAYS = ("holds", "holds", "stays_infinite")
COMES_DOWN = ("holds", "holds", "comes_down_from_infinity")
VERDICT_VALUES = ({"holds", "inconclusive"}, {"holds", "inconclusive"},
                  {"stays_infinite", "comes_down_from_infinity",
                   "inconclusive"})


def mc_seed(workload: str, seed: int, salt: str = "") -> int:
    """Monte Carlo seed of one operation, derived from the bench seed."""
    return random.Random(f"{workload}:{seed}:{salt}").getrandbits(31)


def power_model(nb, b0=1.0, r0=1.0, b1=0.0, r1=0.0, b2=0.0, r2=0.0,
                alpha=1.5, u_max=None):
    m = nb.model
    return m.validate(m.ModelSpec(
        a0=m.PowerLaw(b0, r0), a1=m.PowerLaw(b1, r1), a2=m.PowerLaw(b2, r2),
        a3=m.PowerLaw(0.0, 0.0), mu=m.StableMeasure(alpha=alpha, u_max=u_max)))


def gbm_passage(x0, a, t, b1=2.0):
    """P(min over [0,t] < a) when ln X is a Brownian motion of variance b1."""
    return math.erfc(math.log(x0 / a) / math.sqrt(2.0 * b1 * t))


def verdict(report) -> tuple:
    return (report.no_extinction.value, report.no_explosion.value,
            report.infinity_behavior.value)


def verdict_check(name, got, expected) -> Check:
    wrong = sum(g != e for g, e in zip(got, expected))
    return Check(f"verdict:{name}", float(wrong), wrong == 0, in_se=False)


# ---------------------------------------------------------------------------
# operations shared by the workloads


def classify_step(nb, host, name, cases, samples) -> Op:
    """Classify the workload's models ``samples`` times in turn, timing
    each call between two host-speed samples; one operation.  Passage
    workloads take one step before and one after simulating, so the
    samples of a run are spread over it rather than taken in one burst."""
    op = Op("classify", name)
    seen = set()
    for i in range(samples):
        label, model, expected = cases[i % len(cases)]
        try:
            with host.timing() as t:
                report = nb.criteria.classify(model)
        except Exception as exc:  # recorded as a failed operation
            op.failed, op.error = True, f"{type(exc).__name__}: {exc}"
        op.samples.append(t.seconds)
        op.raw_samples.append(t.raw)
        if op.failed:
            break
        if label not in seen:
            seen.add(label)
            op.checks.append(verdict_check(label, verdict(report), expected))
    op.seconds = sum(op.samples)
    op.raw = sum(op.raw_samples)
    op.digest = digest(sorted(c.name for c in op.checks if c.ok))
    return op


def _simulate(op, capture, call, n_paths):
    """Run one Monte Carlo entry point; returns (result, blocks).  Its
    time is reported as measured: see hostspeed.py for why."""
    capture.take()
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:  # recorded as a failed operation
        op.seconds = op.raw = perf_counter() - t0
        op.failed, op.error = True, f"{type(exc).__name__}: {exc}"
        capture.take()
        return None, []
    op.seconds = op.raw = perf_counter() - t0
    blocks = capture.take()
    op.paths = n_paths
    op.outcomes = merge_outcomes(blocks)
    if sum(op.outcomes.values()) != n_paths:
        op.malformed.append("outcome counts do not sum to n_paths")
    if op.outcomes["unfinished"]:
        op.failed = True
        op.error = f"{op.outcomes['unfinished']} lanes cut off by the step budget"
    return result, blocks


def passage_op(nb, capture, name, model, cfg, x0, a, t, n_paths, seed,
               threads, jump_critical=False):
    op = Op("passage", name)
    est, blocks = _simulate(op, capture, lambda: nb.montecarlo.estimate_passage_prob(
        model, cfg, x0=x0, a=a, t=t, n_paths=n_paths, seed=seed,
        threads=threads), n_paths)
    if est is None:
        return op, None, blocks
    op.digest = digest(est.p_hat, est.ci95_low, est.ci95_high, est.n_paths,
                       sorted(op.outcomes.items()))
    if not est.ci95_low <= est.p_hat <= est.ci95_high:
        op.malformed.append("estimate outside its interval")
    _jump_critical_failure(op, jump_critical)
    return op, est, blocks


def rates_op(nb, capture, name, model, cfg, x0, horizon, n_paths, seed,
             threads):
    """Absorption/cap fractions of a jump-critical model: any absorbed or
    capped path fails the operation."""
    op = Op("rates", name)
    res, _ = _simulate(op, capture, lambda: nb.montecarlo.extinction_explosion_rates(
        model, cfg, x0=x0, horizon=horizon, n_paths=n_paths, seed=seed,
        threads=threads), n_paths)
    if res is None:
        return op
    op.digest = digest(res.frac_zero, res.frac_capped, res.ci_zero,
                       res.ci_capped, sorted(op.outcomes.items()))
    op.checks.append(count_check(f"{name}:absorbed+capped",
                                 op.outcomes["absorbed"] + op.outcomes["capped"], 0))
    _jump_critical_failure(op, True)
    return op


def _jump_critical_failure(op, jump_critical):
    if jump_critical and not op.failed:
        lost = op.outcomes["absorbed"] + op.outcomes["capped"]
        if lost:
            op.failed, op.error = True, f"{lost} paths absorbed or capped"


def cli_op(nb, host, kind, name, argv) -> Op:
    """One in-process ``nlbranch`` invocation; non-zero exit fails it."""
    op = Op(kind, name)
    err = io.StringIO()
    try:
        with host.timing() as t, contextlib.redirect_stderr(err):
            code = nb.cli.main(argv)
    except Exception as exc:  # recorded as a failed operation
        code, op.error = None, f"{type(exc).__name__}: {exc}"
    op.raw, op.seconds = t.raw, t.seconds
    if code != 0:
        op.failed = True
        op.error = op.error or f"exit {code}: {err.getvalue().strip()[:160]}"
    return op


def log_martingale_check(name, blocks, x0) -> Check:
    """ln X of a critical jump model is a martingale with no downward
    overshoot, so the mean stopped log-state equals ln x0."""
    x = np.concatenate([out["x"] for out, _ in blocks])
    y = np.log(np.maximum(x, 1e-300))
    se = float(y.std(ddof=1)) / math.sqrt(y.size)
    return gap_check(name, float(y.mean()), se, math.log(x0))


# ---------------------------------------------------------------------------
# workloads


class PassageDiffusion:
    name = "passage_diffusion"
    why = ("wide fixed-step jump-free GBM passage: normals, rate evaluation "
           "and numpy per-element work, two blocks on two threads")
    SIZES = {"full": dict(n=32768, t=4.0, dt=1e-3, samples=128),
             "tiny": dict(n=512, t=0.5, dt=1e-2, samples=2)}
    x0, a = 10.0, 1.0

    def setup(self, nb, seed, size, workdir, threads=2):
        p = self.SIZES[size]
        return SimpleNamespace(
            p=p, threads=threads, seed=mc_seed(self.name, seed),
            model=power_model(nb, b0=1.0, r0=1.0, b1=2.0, r1=2.0),
            cfg=nb.simulator.SimConfig(dt=p["dt"], eps_cut=1e-4,
                                       horizon_t=p["t"]))

    def run_pass(self, nb, s, capture, host):
        p = s.p
        cases = [("gbm", s.model, STAYS)]
        ops = [classify_step(nb, host, "classify:gbm", cases, p["samples"])]
        op, est, _ = passage_op(nb, capture, "c5-gbm", s.model, s.cfg,
                                self.x0, self.a, p["t"], p["n"], s.seed,
                                s.threads)
        if est is not None:
            ref = gbm_passage(self.x0, self.a, p["t"])
            op.checks.append(gap_check("c5:erfc", est.p_hat,
                                       passage_se(est.p_hat, p["n"], ref), ref))
        ops.append(op)
        ops.append(classify_step(nb, host, "classify:gbm-after", cases, p["samples"]))
        return ops


class PassageJump:
    name = "passage_jump"
    why = ("the README run file as shipped: about 1e4 heavy jumps per "
           "lane-step through the normal-approximation Poisson draw and the "
           "per-lane loop")
    SIZES = {"full": dict(n=256, t=0.05, samples=128),
             "tiny": dict(n=128, t=0.005, samples=2)}
    x0, a = 10.0, 1.0

    def setup(self, nb, seed, size, workdir):
        path = Path(workdir) / "readme_run.ini"
        shutil.copyfile(INPUTS / "readme_run.ini", path)
        rc = nb.config.parse_config(str(path))
        return SimpleNamespace(p=self.SIZES[size], rc=rc,
                               seed=mc_seed(self.name, seed))

    def run_pass(self, nb, s, capture, host):
        p, rc = s.p, s.rc
        cases = [("readme", rc.model, STAYS)]
        ops = [classify_step(nb, host, "classify:readme", cases, p["samples"])]
        op, est, blocks = passage_op(nb, capture, "readme-jump", rc.model,
                                     rc.sim, self.x0, self.a, p["t"], p["n"],
                                     s.seed, 2, jump_critical=True)
        if est is not None:
            op.checks.append(log_martingale_check("readme:log-martingale",
                                                  blocks, self.x0))
        ops.append(op)
        ops.append(classify_step(nb, host, "classify:readme-after", cases, p["samples"]))
        return ops


class PassageAdaptive:
    name = "passage_adaptive"
    why = ("adaptive steps with ragged lanes: fixed per-iteration cost of "
           "few live lanes (c6a) and sparse jumps (c7 jump-critical run)")
    SIZES = {"full": dict(n6=16384, x0=1e6, a=10.0, cap=1e12, n7=2048, h7=1.0,
                          samples=128),
             "tiny": dict(n6=200, x0=1e3, a=10.0, cap=1e6, n7=128, h7=0.05,
                          samples=2)}

    def setup(self, nb, seed, size, workdir):
        p = self.SIZES[size]
        sim = nb.simulator
        return SimpleNamespace(
            p=p, seed6=mc_seed(self.name, seed, "c6a"),
            seed7=mc_seed(self.name, seed, "c7"),
            m6=power_model(nb, b0=1.0, r0=2.0, b1=2.0, r1=3.0),
            cfg6=sim.SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=1.0,
                               adaptive=True, cap_b=p["cap"]),
            m7=power_model(nb, b0=math.gamma(1.5), r0=1.0, b2=1.0, r2=1.5),
            cfg7=sim.SimConfig(dt=1e-2, eps_cut=0.05, horizon_t=p["h7"],
                               eps_rule="relative", adaptive=True))

    def run_pass(self, nb, s, capture, host):
        p = s.p
        cases = [("c6a", s.m6, COMES_DOWN), ("c7", s.m7, STAYS)]
        ops = [classify_step(nb, host, "classify:c6a+c7", cases, p["samples"])]
        op, est, _ = passage_op(nb, capture, "c6a-comes-down", s.m6, s.cfg6,
                                p["x0"], p["a"], 1.0, p["n6"], s.seed6, 2)
        if est is not None:
            # scale-function law of the capped driftless log-state
            ref = 1.0 - math.log(p["x0"] / p["a"]) / math.log(p["cap"] / p["a"])
            op.checks.append(gap_check(
                "c6a:scale-function", est.p_hat,
                passage_se(est.p_hat, p["n6"], ref), ref, known_defect=True))
        ops.append(op)
        ops.append(classify_step(nb, host, "classify:c6a+c7-between", cases,
                                 p["samples"]))
        ops.append(rates_op(nb, capture, "c7-jump-critical", s.m7, s.cfg7,
                            1.0, p["h7"], p["n7"], s.seed7, 2))
        ops.append(classify_step(nb, host, "classify:c6a+c7-after", cases, p["samples"]))
        return ops


class CliBatch:
    name = "cli_batch"
    why = ("in-process nlbranch classify over symbolic, tabulated and "
           "cut-support run files, and the same sweep across r1 = 2 three "
           "times through the pass")
    ALPHAS = (1.2, 1.5, 1.8)
    U_MAX = (5.0, 50.0, 1e4)
    SWEEP_R1 = (1.5, 1.75, 2.0, 2.25, 2.5)
    SIZES = {"full": dict(sym=16, tab=16, cut=None, rows=SWEEP_R1,
                          sweep_paths=4096, sweeps=3, dt=1e-3, t=1.0),
             "tiny": dict(sym=2, tab=1, cut=[(1.8, 5.0)], rows=(1.5, 2.0),
                          sweep_paths=200, sweeps=1, dt=1e-2, t=0.2)}
    x0, a = 10.0, 1.0

    def setup(self, nb, seed, size, workdir):
        p = self.SIZES[size]
        rng = random.Random(f"{self.name}:{seed}")
        files = Path(workdir) / "runs"
        files.mkdir(parents=True, exist_ok=True)
        (Path(workdir) / "out").mkdir(exist_ok=True)
        kinds = [[], [], []]  # (name, path, expected verdict or None, text)
        for i in range(p["sym"]):
            name, text, expected = _symbolic_file(rng, i, self.ALPHAS)
            kinds[0].append((name, files / f"{name}.ini", expected, text))
        for i in range(p["tab"]):
            alpha = self.ALPHAS[i % 3]
            kinds[1].append((f"tab{i:02d}", files / f"tab{i:02d}.ini", None,
                             _tabulated_file(rng, alpha)))
        cut = p["cut"] or [(a, u) for a in self.ALPHAS for u in self.U_MAX]
        for alpha, u_max in cut:
            name = f"cut-a{alpha}-u{u_max:g}"
            kinds[2].append((name, files / f"{name}.ini", None,
                             _cut_file(rng, alpha, u_max)))
        # each kind spread evenly over the pass, so its timings sample the
        # whole pass and not one stretch of it
        runs = [r for _, r in sorted(
            ((j + 0.5) / len(kind), r) for kind in kinds
            for j, r in enumerate(kind))]
        for name, path, _, text in runs:
            path.write_text(text)
        sweep_ini = files / "sweep.ini"
        sweep_ini.write_text(_SWEEP_INI.format(
            dt=p["dt"], t=p["t"], n=p["sweep_paths"],
            seed=mc_seed(self.name, seed, "sweep")))
        grid = files / "grid.csv"
        grid.write_text("r0,r1,x0,a,t\n" + "".join(
            f"{r1 - 1.0!r},{r1!r},{self.x0!r},{self.a!r},{p['t']!r}\n"
            for r1 in p["rows"]))
        # set-up validates every model the batch will classify
        for _, path, _, _ in runs:
            nb.config.parse_config(str(path))
        nb.config.parse_config(str(sweep_ini))
        return SimpleNamespace(p=p, runs=[r[:3] for r in runs], out=Path(workdir) / "out",
                               sweep_ini=sweep_ini, grid=grid)

    def run_pass(self, nb, s, capture, host):
        # the same sweep runs several times, spread through the pass like
        # the run files, so paths_per_s samples the whole pass
        n, k = len(s.runs), s.p["sweeps"]
        sweep_before = {int((j + 0.5) * n / k) for j in range(k)}
        ops = []
        for i, (name, path, expected) in enumerate(s.runs):
            if i in sweep_before:
                ops.append(self._sweep(nb, s, capture, host))
            out = s.out / f"{name}.json"
            op = cli_op(nb, host, "classify", name,
                        ["classify", "--config", str(path), "--out", str(out)])
            op.samples, op.raw_samples = [op.seconds], [op.raw]
            if not op.failed:
                report = json.loads(out.read_text())
                op.digest = json_digest(report)
                got = tuple(report["results"][k] for k in
                            ("no_extinction", "no_explosion", "infinity_behavior"))
                if any(g not in v for g, v in zip(got, VERDICT_VALUES)):
                    op.malformed.append(f"unknown verdict {got}")
                if expected is not None:
                    op.checks.append(verdict_check(name, got, expected))
            ops.append(op)
        return ops

    def _sweep(self, nb, s, capture, host):
        p = s.p
        rows_csv = s.out / "rows.csv"
        capture.take()
        op = cli_op(nb, host, "sweep", "sweep-r1", [
            "sweep", "--config", str(s.sweep_ini), "--grid", str(s.grid),
            "--threads", "2", "--format", "csv", "--out", str(rows_csv)])
        blocks = capture.take()
        op.seconds = op.raw   # a simulation: reported as measured
        if op.failed:
            return op
        data = rows_csv.read_bytes()
        op.digest = digest(data)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        op.paths = len(rows) * p["sweep_paths"]
        op.outcomes = merge_outcomes(blocks)
        if len(rows) != len(p["rows"]) or sum(op.outcomes.values()) != op.paths:
            op.malformed.append("sweep rows or outcome counts incomplete")
        if op.outcomes["unfinished"]:
            op.failed = True
            op.error = f"{op.outcomes['unfinished']} lanes cut off by the step budget"
        for row in rows:
            r1 = float(row["r1"])
            if not math.isfinite(float(row["p_hat"])):
                op.failed, op.error = True, f"row r1={r1}: no estimate"
                continue
            expected = "stays_infinite" if r1 <= 2.0 else "comes_down_from_infinity"
            op.checks.append(Check(f"sweep:predicted r1={r1}",
                                   float(row["predicted"] != expected),
                                   row["predicted"] == expected, in_se=False))
            if r1 == 2.0:
                ref = gbm_passage(float(row["x0"]), float(row["a"]), float(row["t"]))
                p_hat, n = float(row["p_hat"]), int(row["n_paths"])
                op.checks.append(gap_check("sweep:r1=2 erfc", p_hat,
                                           passage_se(p_hat, n, ref), ref))
        return op


_SWEEP_INI = """[model]
alpha = 1.5

[model.a0]
type = powerlaw
b = 1.0
r = 1.0

[model.a1]
type = powerlaw
b = 2.0
r = 2.0

[sim]
dt = {dt!r}
eps_cut = 1e-4
horizon_t = {t!r}

[mc]
n_paths = {n}
seed = {seed}
threads = 2
"""


def _away_from(rng, lo, hi, centre, gap=0.02):
    while True:
        v = round(rng.uniform(lo, hi), 3)
        if abs(v - centre) >= gap:
            return v


def _symbolic_file(rng, i, alphas):
    """A power law on one of the two critical manifolds, with the
    paper's verdict for it."""
    b0 = round(rng.uniform(0.5, 3.0), 3)
    if i % 2 == 0:
        r1 = _away_from(rng, 1.2, 2.8, 2.0)
        text = (f"[model]\nalpha = 1.5\n\n[model.a0]\nb = {b0!r}\nr = {r1 - 1.0!r}\n\n"
                f"[model.a1]\nb = {2.0 * b0!r}\nr = {r1!r}\n")
        return f"sym{i:02d}-diff", text, (STAYS if r1 <= 2.0 else COMES_DOWN)
    alpha = alphas[(i // 2) % 3]
    r2 = _away_from(rng, alpha - 0.45, alpha + 0.45, alpha)
    text = (f"[model]\nalpha = {alpha!r}\n\n[model.a0]\nb = {b0!r}\n"
            f"r = {r2 - alpha + 1.0!r}\n\n[model.a2]\nb = b0/gamma(alpha)\n"
            f"r = {r2!r}\n")
    return f"sym{i:02d}-jump", text, (STAYS if r2 <= alpha else COMES_DOWN)


def _tabulated_file(rng, alpha):
    """Tabulated drift near b0*u on full support with a critical-order
    jump rate: the numeric classifier and its quadratures."""
    b0 = rng.uniform(0.5, 3.0)
    knots = " ".join(f"{u!r}:{b0 * u * (1.0 + 0.1 * rng.uniform(-1, 1))!r}"
                     for u in np.logspace(-3.0, 8.0, 12).tolist())
    return (f"[model]\nalpha = {alpha!r}\n\n[model.a0]\ntype = tabulated\n"
            f"knots = {knots}\n\n[model.a2]\nb = {b0 / math.gamma(alpha)!r}\n"
            f"r = {alpha!r}\n")


def _cut_file(rng, alpha, u_max):
    b0 = round(rng.uniform(0.5, 3.0), 3)
    return (f"[model]\nalpha = {alpha!r}\nu_max = {u_max!r}\n\n[model.a0]\n"
            f"b = {b0!r}\nr = 1.0\n\n[model.a2]\nb = b0/gamma(alpha)\n"
            f"r = {alpha!r}\n")


WORKLOADS = {w.name: w for w in
             (PassageDiffusion(), PassageJump(), PassageAdaptive(), CliBatch())}
