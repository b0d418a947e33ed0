"""Command-line front end.

Subcommands: classify | simulate | passage | sweep | selftest.
Exit codes are a stable contract: 0 success, 1 configuration error,
2 numeric failure, 3 self-test failure.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, RunConfig, config_echo, parse_config
from .criteria import (
    apply_generator,
    classify,
    k_integral_bounds,
    ln_test_function,
    nested_jump_moment,
    phi,
    stable_k_integrals,
)
from .model import PowerLaw, StableMeasure, ValidationError
from .montecarlo import (
    SWEEP_COLUMNS,
    SWEEP_PARAMS,
    _model_from_params,
    estimate_passage_prob,
    sweep,
)
from .numerics import StreamBundle, gamma
from .numerics.quadrature import QuadratureError
from .simulator import trace_path

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_SELFTEST = 3


def _versions() -> Dict[str, str]:
    return {"nlbranch": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0]}


def _report(command: str, config: Optional[Dict], results,
            started: float) -> Dict:
    return {
        "command": command,
        "config": config,
        "results": results,
        "versions": _versions(),
        "wall_clock_s": time.monotonic() - started,
    }


def _write(text: str, out_path: Optional[str]) -> None:
    """Write ``text`` to ``out_path``, or to standard output without one."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: Dict, out_path: Optional[str]) -> None:
    """Write ``report`` as strict (RFC 8259) JSON: a non-finite float,
    which JSON cannot carry, is written as null."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite(report), indent=2)
    _write(text + "\n", out_path)


def _finite(obj):
    """``obj`` with each non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _resolve_threads(args, rc: RunConfig) -> int:
    """--threads, else NLBRANCH_THREADS, else [mc] threads (which the run
    file's parse checks); a count below 1 exits 1 and names its source."""
    if args.threads is not None:
        if args.threads < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        return args.threads
    env = os.environ.get("NLBRANCH_THREADS")
    if env is None:
        return rc.threads
    try:
        threads = int(env)
    except ValueError:
        raise ConfigError("env", "NLBRANCH_THREADS", f"not an integer: {env!r}")
    if threads < 1:
        raise ConfigError("env", "NLBRANCH_THREADS",
                          f"must be >= 1, got {threads}")
    return threads


def _load(args) -> RunConfig:
    """The run file with the command line's overrides; a command with no
    ``--format`` option has no CSV form, and refuses one from the file."""
    rc = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise ValueError(f"--seed must be in [0, 2**64), got {args.seed}")
        rc.seed = args.seed
    if args.out:
        rc.output_path = args.out
    if not hasattr(args, "format"):
        if rc.output_format != "json":
            raise ConfigError("output", "format",
                              f"{args.command} writes JSON only")
    elif args.format:
        rc.output_format = args.format
    return rc


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    started = time.monotonic()
    rc = _load(args)
    report = classify(rc.model)
    _emit(_report("classify", config_echo(rc), report.to_dict(), started),
          rc.output_path)
    return EXIT_OK


def cmd_passage(args) -> int:
    started = time.monotonic()
    rc = _load(args)
    threads = _resolve_threads(args, rc)
    est = estimate_passage_prob(rc.model, rc.sim, x0=args.x0, a=args.a,
                                t=args.t, n_paths=rc.n_paths, seed=rc.seed,
                                threads=threads)
    results = {
        "p_hat": est.p_hat,
        "ci95_low": est.ci95_low,
        "ci95_high": est.ci95_high,
        "n_paths": est.n_paths,
        "n_capped": est.n_capped,
        "n_censored": est.n_censored,
        "n_unfinished": est.n_unfinished,
        "iterations": est.iterations,
        "lane_steps": est.lane_steps,
        "query": {"x0": est.x0, "a": est.a, "t": est.t},
        "note": "grid-time crossings; cap hits count as non-crossings",
    }
    _emit(_report("passage", config_echo(rc), results, started),
          rc.output_path)
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.monotonic()
    rc = _load(args)
    ts, xs, unfinished = trace_path(rc.model, rc.sim, args.x0, rc.seed)
    if unfinished:
        print(f"[sim] step_budget = {rc.sim.step_budget} cut the path off at "
              f"t = {float(ts[-1])!r}", file=sys.stderr)
    if rc.output_format == "csv":
        rows = [f"{float(t)!r},{float(x)!r}" for t, x in zip(ts, xs)]
        _write("t,x\n" + "\n".join(rows) + "\n", rc.output_path)
    else:
        results = {"trace": [[float(t), float(x)] for t, x in zip(ts, xs)],
                   "points": int(len(ts))}
        _emit(_report("simulate", config_echo(rc), results, started),
              rc.output_path)
    return EXIT_OK


def _read_grid(path: str) -> List[Dict[str, float]]:
    grid = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError("grid", "", f"{path}: empty grid file")
        for i, name in enumerate(reader.fieldnames):
            if name.strip() not in SWEEP_PARAMS:
                raise ConfigError("grid", name, "unknown column; known: "
                                  + ", ".join(SWEEP_PARAMS))
            if name.strip() in (n.strip() for n in reader.fieldnames[:i]):
                raise ConfigError("grid", name.strip(), "repeated column")
        for row in reader:
            if None in row:   # DictReader's key for values past the header
                raise ConfigError("grid", "", f"{path} line {reader.line_num}:"
                                  " more values than columns")
            point = {}
            for key, raw in row.items():
                if raw is None or raw.strip() == "":
                    continue
                try:
                    point[key.strip()] = float(raw)
                except ValueError:
                    raise ConfigError("grid", key,
                                      f"not a number: {raw!r}")
            grid.append(point)
    return grid


def _sweep_csv(rows, n_paths: int, seed: int) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(row.csv_values(n_paths, seed)))
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    started = time.monotonic()
    rc = _load(args)
    threads = _resolve_threads(args, rc)
    grid = _read_grid(args.grid)
    # a row is a full-support power-law model without atoms: a run file
    # that says more would be swept as a different model
    m = rc.model
    if not m.nu_empty:
        raise ConfigError("model.nu", "atoms", "sweep takes no atoms")
    if not m.full_support:
        raise ConfigError("model", "u_max",
                          "sweep takes full-support models only")
    a0, a1, a2 = m.spec.a0, m.spec.a1, m.spec.a2
    for name, rate in (("a0", a0), ("a1", a1), ("a2", a2)):
        if not isinstance(rate, PowerLaw):
            raise ConfigError(f"model.{name}", "type",
                              "sweep takes power-law rates only")
    template = {
        "b0": a0.b, "r0": a0.r, "b1": a1.b, "r1": a1.r, "b2": a2.b,
        "r2": a2.r, "alpha": m.alpha, "x0": 100.0, "a": 1.0, "t": 1.0,
    }
    rows = sweep(template, grid, rc.sim, n_paths=rc.n_paths, seed=rc.seed,
                 threads=threads)
    for row in rows:
        if row.error is not None:
            print(f"row {row.index}: {row.error}", file=sys.stderr)
    if rc.output_format == "csv":
        _write(_sweep_csv(rows, rc.n_paths, rc.seed), rc.output_path)
    else:
        results = [dict(zip(SWEEP_COLUMNS, row.csv_values(rc.n_paths, rc.seed)))
                   for row in rows]
        _emit(_report("sweep", config_echo(rc), results, started),
              rc.output_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# self-test battery: one implementation of each numeric invariant, which
# acceptance criteria 1-3 call as well

# the critical families: diffusion, jumps, and both at the edge point
CRITICAL_FAMILIES = {
    "diffusion_critical": dict(b0=1.0, r0=1.0, b1=2.0, r1=2.0),
    "jump_critical": dict(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, alpha=1.5),
    "mixed_critical": dict(b0=0.5 + 0.5 * gamma(1.5), r0=1.0, b1=1.0,
                           r1=2.0, b2=0.5, r2=1.5, alpha=1.5),
}


def check_stable_identity() -> Dict:
    """Nested jump-moment quadrature against gamma(a) u^-a; ``worst`` is
    the largest relative error over its tolerance."""
    worst = 0.0
    detail = []
    for alpha, tol in [(1.1, 1e-8), (1.5, 1e-8), (1.9, 1e-8),
                       (1.01, 1e-6), (1.99, 1e-6)]:
        mu = StableMeasure(alpha=alpha)
        for u in (1.0, 10.0, 1e3):
            got = nested_jump_moment(mu, u)
            rel = abs(got / (gamma(alpha) * u ** -alpha) - 1.0)
            worst = max(worst, rel / tol)
            detail.append(f"alpha={alpha} u={u}: rel={rel:.2e} (tol {tol})")
    return {"name": "stable_integral_identity", "passed": bool(worst <= 1.0),
            "detail": "; ".join(detail), "worst": worst}


def check_k_sandwich() -> Dict:
    """The k-integral inside its closed-form bounds on 27 combinations;
    ``worst`` is the number outside."""
    detail = []
    points = [(u, rho) for u in (10.0, 100.0, 1e4) for rho in (0.5, 1.0, 2.0)]
    for alpha in (1.2, 1.5, 1.8):
        model = _model_from_params(dict(b0=1.0, r0=1.0, b2=1.0, alpha=alpha))
        kis = stable_k_integrals(model, *zip(*points), 1e-10)
        for (u, rho), ki in zip(points, kis):
            lo, up = k_integral_bounds(u, rho, alpha, model.c_alpha)
            if not lo <= ki <= up:
                detail.append(
                    f"alpha={alpha} u={u} rho={rho}: {lo:.3e} "
                    f"<= {ki:.3e} <= {up:.3e} FAILS")
    return {"name": "k_integral_sandwich", "passed": not detail,
            "detail": "; ".join(detail) or "27 combinations inside bounds",
            "worst": len(detail)}


def check_generator_consistency() -> Dict:
    """L(ln) = -phi on the critical families; ``worst`` is the largest
    |L(ln) + phi| / (1 + |phi|)."""
    worst = 0.0
    detail = []
    g = ln_test_function()
    for name, params in CRITICAL_FAMILIES.items():
        model = _model_from_params(params)
        for u in (5.0, 100.0, 1e6):
            lg = apply_generator(model, g, u, 1e-10)
            ph = phi(model, u)
            err = abs(lg + ph) / (1.0 + abs(ph))
            worst = max(worst, err)
            detail.append(f"{name} u={u}: |L(ln)+phi|/(1+|phi|)={err:.2e}")
    return {"name": "generator_consistency", "passed": bool(worst <= 1e-8),
            "detail": "; ".join(detail), "worst": worst}


def check_rng_determinism() -> Dict:
    """One-lane bundles equal the lanes of a four-lane bundle bitwise;
    repeat runs are identical."""
    ok = True
    detail = []

    def lane(sid, n):
        one = StreamBundle(99, np.array([sid], dtype=np.uint64))
        return np.array([one.uniforms()[0] for _ in range(n)])

    if not np.array_equal(lane(3, 128), lane(3, 128)):
        ok = False
        detail.append("repeat run differs")
    bundle = StreamBundle(99, np.arange(4, dtype=np.uint64))
    block = np.array([bundle.uniforms() for _ in range(16)])
    for sid in range(4):
        if not np.array_equal(block[:, sid], lane(sid, 16)):
            ok = False
            detail.append(f"bundle lane {sid} differs from its one-lane bundle")
    means = block.mean(axis=0)
    if np.any(means < 0.15) or np.any(means > 0.85):
        ok = False
        detail.append("lane means far from 1/2")
    return {"name": "rng_determinism", "passed": bool(ok),
            "detail": "; ".join(detail) or
            "one-lane and four-lane bundles agree bitwise; repeat runs identical"}


def run_selftest() -> List[Dict]:
    return [
        check_stable_identity(),
        check_k_sandwich(),
        check_generator_consistency(),
        check_rng_determinism(),
    ]


def cmd_selftest(args) -> int:
    started = time.monotonic()
    checks = run_selftest()
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[selftest] {chk['name']}: {status}", file=sys.stderr)
    report = _report("selftest", None, checks, started)
    _emit(report, args.out)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: parse_args
    leaves it unchanged and returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="nlbranch",
        description="Boundary-behavior classification and Monte Carlo "
                    "verification for state-dependent branching models.")
    sub = parser.add_subparsers(dest="command", required=True)

    # every option by flag; each subcommand takes only the ones it reads
    options = {
        "--config": dict(required=True, help="run file (INI)"),
        "--seed": dict(type=int, default=None),
        "--threads": dict(type=int, default=None,
                          help="worker threads (fallback: NLBRANCH_THREADS)"),
        "--out": dict(default=None, help="output path"),
        "--format": dict(choices=("json", "csv"), default=None),
        "--x0": dict(type=float, required=True),
        "--a": dict(type=float, required=True),
        "--t": dict(type=float, required=True),
        "--grid": dict(required=True, help="CSV of parameter overrides"),
    }
    for name, func, help_, flags in (
            ("classify", cmd_classify, "boundary-behavior verdicts",
             "--config --out"),
            ("simulate", cmd_simulate, "one path trace",
             "--config --seed --out --format --x0"),
            ("passage", cmd_passage, "passage probability estimate",
             "--config --seed --threads --out --x0 --a --t"),
            ("sweep", cmd_sweep, "phase-diagram sweep from a grid CSV",
             "--config --seed --threads --out --format --grid"),
            ("selftest", cmd_selftest, "run the numeric invariant battery",
             "--out")):
        p = sub.add_parser(name, help=help_)
        for flag in flags.split():
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code; ``--help`` raises ``SystemExit(0)``.

    May be called repeatedly in one process: the parser is built on the
    first call and reused, and no call sees another's arguments.
    ``sweep`` writes ``row <index>: <error>`` to stderr for each failed
    row and still exits 0; a grid column outside ``SWEEP_PARAMS`` exits
    1.  ``--threads``, ``NLBRANCH_THREADS`` and ``[mc] threads`` below 1,
    and ``--seed`` or ``[mc] seed`` outside [0, 2**64), exit 1, naming the
    source.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the numeric-failure code
        if exc.code == 0:   # --help
            raise
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
