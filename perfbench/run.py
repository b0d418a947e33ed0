"""nlbranch benchmark: end-to-end metrics, or per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload passage_diffusion --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload

Run from anywhere; the package is imported from ``src/`` next to this
directory.  A run sets up its workload several times (importing
nlbranch afresh, generating inputs, writing run files, validating
models), then repeats passes of the workload's operations until
``--seconds`` have gone by, starting a pass only when it should end no
more than half a pass late.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With ``--trace 1``
the first pass runs untraced, the rest traced, and the metrics are the
per-layer ones.  Work files go to ``.perfbench/`` at the repository root.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

MODULES = {
    "cli": "nlbranch.cli", "config": "nlbranch.config",
    "criteria": "nlbranch.criteria", "model": "nlbranch.model",
    "montecarlo": "nlbranch.montecarlo", "simulator": "nlbranch.simulator",
    "rng": "nlbranch.numerics.rng",
}

# (name, unit) of every end-to-end metric, in print order
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("paths_per_s", "1/s"),
    ("classify_p50_s", "s"), ("classify_tail_s", "s"), ("ok_ratio", "ratio"),
    ("ref_gap_se", "se"), ("peak_rss_mb", "MB"),
]
# set-ups per run (median reported): some before the passes and the rest
# after them, so the samples span the run rather than one moment of it
SETUP_REPS = {"full": (4, 3), "tiny": (1, 1)}


class Nb:
    """The nlbranch modules of one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "nlbranch" or n.startswith("nlbranch.")]:
            del sys.modules[name]
        for key, mod in MODULES.items():
            setattr(self, key, importlib.import_module(mod))
        where = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise ImportError(f"nlbranch imported from {where}, not {SRC}")


class BlockCapture:
    """Keeps what ``_run_block`` returns to ``nlbranch.montecarlo``, with
    the horizon it ran to, for outcome accounting."""

    def __init__(self, montecarlo):
        self.blocks = []
        self._mc = montecarlo
        self._original = montecarlo._run_block
        montecarlo._run_block = self._run_block

    def _run_block(self, model, cfg, *args, **kwargs):
        out = self._original(model, cfg, *args, **kwargs)
        horizon = kwargs.get("horizon", args[4] if len(args) > 4 else None)
        self.blocks.append((out, cfg.horizon_t if horizon is None else float(horizon)))
        return out

    def take(self):
        blocks, self.blocks = self.blocks, []
        return blocks

    def uninstall(self):
        self._mc._run_block = self._original


def _setup(wl, seed, size, workdir, host, times):
    with host.timing() as t:
        nb = Nb()
        state = wl.setup(nb, seed, size, workdir)
    times.append((t.seconds, t.raw))
    return nb, state


def run_workload(wl, seed, seconds, trace=False, size="full", workdir=None):
    """Set up, run passes, check outputs; returns the run record."""
    import hostspeed
    import measure
    from hostspeed import HostSpeed
    workdir = Path(workdir or ROOT / ".perfbench" / f"{wl.name}-s{seed}")
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    host = HostSpeed()
    setup_times = []
    before, after = SETUP_REPS[size]
    for _ in range(before):
        nb, state = _setup(wl, seed, size, workdir, host, setup_times)

    capture = BlockCapture(nb.montecarlo)
    tracer = None
    passes = []      # (seconds, ops, traced)
    started = perf_counter()
    try:
        while True:
            if trace and passes and tracer is None:
                import tracing
                tracer = tracing.install(nb)
                started = perf_counter()
            t0 = perf_counter()
            ops = wl.run_pass(nb, state, capture, host)
            passes.append((perf_counter() - t0, ops, tracer is not None))
            elapsed = perf_counter() - started
            if (not trace or tracer is not None) \
                    and elapsed + 0.5 * passes[-1][0] > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        capture.uninstall()
    for _ in range(after):
        _setup(wl, seed, size, workdir, host, setup_times)

    record = summarize(wl, passes, setup_times)
    record["host_speed"] = hostspeed.REFERENCE_S / statistics.median(host.samples)
    record["environment"] = measure.environment()
    record["workload"], record["seed"], record["size"] = wl.name, seed, size
    if tracer is not None:
        import tracing
        traced = [p for p in passes if p[2]]
        outcomes = dict.fromkeys(measure.OUTCOMES, 0)
        for _, ops, _ in traced:
            for op in ops:
                for k, v in (op.outcomes or {}).items():
                    outcomes[k] += v
        op_time = [sum(op.raw for op in ops) for _, ops, _ in passes]
        record["per_layer"] = tracing.per_layer_metrics(
            tracer, outcomes, len(traced),
            sum(t for t, p in zip(op_time, passes) if p[2]), op_time[0])
        record["spans"] = len(tracer.spans)
        tracer.save(workdir / "trace.npz")
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    return record


def summarize(wl, passes, setup_times):
    import measure
    ops = [op for _, p_ops, _ in passes for op in p_ops]
    problems = [f"{op.name}: {m}" for op in ops for m in op.malformed]
    digests = {}
    for op in ops:
        if op.digest is not None and digests.setdefault(op.name, op.digest) != op.digest:
            problems.append(f"{op.name}: output differs between passes")
    checks = [c for op in ops for c in op.checks]
    problems += [f"check {c.name} failed (gap {c.gap:.3g})" for c in checks
                 if not c.ok and not c.known_defect]

    failed = sum(op.failed for op in ops)
    gaps = [c.gap for c in checks if c.in_se]
    metrics = timing_metrics([p_ops for _, p_ops, _ in passes],
                             [t for t, _ in setup_times], raw=False)
    metrics.update({
        "ok_ratio": (len(ops) - failed) / len(ops),
        "ref_gap_se": max([measure.REF_GAP_FLOOR] + gaps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    raw = timing_metrics([p_ops for _, p_ops, _ in passes],
                         [r for _, r in setup_times], raw=True)
    samples = [x for op in passes[0][1] if op.kind == "classify"
               for x in op.samples]
    tail = measure.tail(samples) if samples else (0.0, 0.0, 0)
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "problems": problems,
        "metrics": {k: metrics[k] for k, _ in END_TO_END},
        "raw_metrics": raw,
        "passes": len(passes),
        "setup_times": [t for t, _ in setup_times],
        "raw_setup_times": [r for _, r in setup_times],
        "tail_percentile": tail[1],
        "tail_samples": tail[2],
        "ops": [dict(kind=op.kind, name=op.name, seconds=op.seconds,
                     raw_seconds=op.raw, failed=op.failed, error=op.error,
                     digest=op.digest, paths=op.paths, outcomes=op.outcomes,
                     checks=[vars(c) for c in op.checks])
                for op in passes[0][1]],
    }


def timing_metrics(pass_ops, setup_times, raw):
    """The timing metrics of a run, from its passes' operations: at the
    reference host speed, or as the clock read them if ``raw``."""
    import measure
    per_pass = []
    for p_ops in pass_ops:
        secs = [op.raw if raw else op.seconds for op in p_ops]
        sim = [(op.paths, t) for op, t in zip(p_ops, secs)
               if op.paths and not op.failed]
        samples = [x for op in p_ops if op.kind == "classify"
                   for x in (op.raw_samples if raw else op.samples)]
        per_pass.append(dict(
            wall=sum(secs),
            pps=(sum(n for n, _ in sim) / sum(t for _, t in sim)) if sim else 0.0,
            p50=statistics.median(samples) if samples else 0.0,
            tail=measure.tail(samples)[0] if samples else 0.0))
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median([p["wall"] for p in per_pass]),
        "paths_per_s": statistics.median([p["pps"] for p in per_pass]),
        "classify_p50_s": statistics.median([p["p50"] for p in per_pass]),
        "classify_tail_s": statistics.median([p["tail"] for p in per_pass]),
    }


def report_lines(record, trace):
    env = record["environment"]
    yield (f"# {record['workload']} seed={record['seed']} passes={record['passes']} "
           f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
           f"nproc={env['nproc']} cpu={env['cpu']!r}")
    for op in record["ops"]:
        gaps = " ".join(f"{c['name']}={c['gap']:.2f}{'se' if c['in_se'] else ''}"
                        f"{'' if c['ok'] else '(known defect)' if c['known_defect'] else '(FAIL)'}"
                        for c in op["checks"])
        state = f"FAILED {op['error']}" if op["failed"] else "ok"
        yield (f"  op {op['name']:<22} {op['seconds']:9.4f} s "
               f"(raw {op['raw_seconds']:9.4f} s)  {state}  "
               f"digest={op['digest']} {gaps}")
    yield (f"  attempted={record['attempted']} failed={record['failed']} "
           f"fail_ratio={record['fail_ratio']:.4f} "
           f"classify tail = p{record['tail_percentile']:.1f} of "
           f"{record['tail_samples']} samples per pass")
    yield (f"  host speed {record['host_speed']:.3f} of the reference "
           f"(timings below at the reference speed, raw in brackets)")
    for problem in record["problems"]:
        yield f"  PROBLEM {problem}"
    if trace:
        import tracing
        units = dict(tracing.PER_LAYER)
        yield f"  spans={record['spans']}"
        for name, value in record["per_layer"].items():
            yield f"  {name:<28} {value:16.6g} {units[name]}"
    else:
        for name, unit in END_TO_END:
            raw = record["raw_metrics"].get(name)
            yield (f"  {name:<28} {record['metrics'][name]:16.6g} {unit}"
                   + ("" if raw is None else f"  (raw {raw:.6g})"))


def result_line(record, trace):
    import tracing
    metrics = record["per_layer"] if trace else record["metrics"]
    units = dict(tracing.PER_LAYER if trace else END_TO_END)
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "nlbranch" / "__init__.py").is_file():
        print(f"error: no nlbranch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scipy.special  # noqa: F401  start-up cost, kept out of set-up

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), args.size)
        for line in report_lines(record, args.trace):
            print(line)
        records.append(record)
        sys.stdout.flush()
    if args.workload != "all":
        print(result_line(records[0], args.trace))
        return 0
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
