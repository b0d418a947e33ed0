"""Replicated path simulation: passage probabilities, absorption rates,
parameter sweeps.

Replicate i always consumes random stream i (plus a per-row offset in
sweeps), and results are reduced in replicate order, so output is
bit-identical for any worker count.  Paths that hit the cap before
crossing a lower barrier count as non-crossings, which biases passage
estimates against the "comes down from infinity" conclusion: a passing
coming-down check is conservative evidence.  The default cap (1e300)
keeps that loss small: where ln X is a driftless martingale it is the
fraction ln(x0/a)/ln(cap/a), under 2% for x0/a up to 1e5.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .criteria import BoundaryReport, classify
from .model import FiniteMeasure, ModelSpec, PowerLaw, StableMeasure, validate
from .numerics.rng import StreamBundle
from .simulator import SimConfig, _check_start, _run_block

__all__ = [
    "PassageEstimate",
    "AbsorptionRates",
    "SweepRow",
    "wilson_interval",
    "estimate_passage_prob",
    "extinction_explosion_rates",
    "sweep",
    "SWEEP_COLUMNS",
    "SWEEP_PARAMS",
    "MIN_PATHS",
]

_Z95 = 1.959963984540054
# fewest paths a passage estimate takes, and so the least [mc] n_paths
MIN_PATHS = 100
# lanes per simulation block; threads share out whole blocks, so a run
# of at most this many paths takes one thread.  From a few thousand lanes
# on, per-element work, not per-op numpy overhead, dominates a step: a
# 20480-lane block costs only 10-15 % less per lane-step than a 4096-lane
# one.  A block is not split across threads, since the engine loop holds
# the interpreter lock between its numpy calls: criterion 6a's run
# (16,384 adaptive paths) took 1.28-1.43 s as one block, 1.52-1.72 s as
# two 8,192-lane blocks in series and 2.32-2.79 s as the same two on two
# threads (four alternations each on a shared 2-core host, p_hat equal)
_BLOCK = 16384

# engine counters of a block, summed over blocks
_COUNTERS = ("iterations", "lane_steps")

# the parameters a sweep row prints, each of which a grid column may set
SWEEP_PARAMS = ("r0", "r1", "r2", "alpha", "b0", "b1", "b2", "x0", "a", "t")
SWEEP_COLUMNS = SWEEP_PARAMS + ("predicted", "p_hat", "ci_low", "ci_high",
                                "n_paths", "seed")


def wilson_interval(successes: int, n: int,
                    z: float = _Z95) -> Tuple[float, float]:
    """95% Wilson score interval; well behaved at p near 0 and 1."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # roundoff can push the bounds a few ulp past the estimate itself
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


@dataclass(frozen=True)
class PassageEstimate:
    """Monte Carlo estimate of P{path from x0 drops below a by t}; the
    other paths ended capped, censored at t, or cut off by the step budget
    (``n_unfinished``), each counted once.  ``iterations`` and
    ``lane_steps`` are the engine's steps and lane-steps, summed over
    blocks."""
    p_hat: float
    ci95_low: float
    ci95_high: float
    n_paths: int
    x0: float
    a: float
    t: float
    n_capped: int
    n_censored: int
    n_unfinished: int
    iterations: int
    lane_steps: int

    def __post_init__(self):
        assert self.ci95_low <= self.p_hat <= self.ci95_high


@dataclass(frozen=True)
class AbsorptionRates:
    """Fractions of paths absorbed at zero and frozen at the cap; the
    step budget cut off ``n_unfinished`` of the others before the
    horizon; ``iterations`` and ``lane_steps`` as in ``PassageEstimate``."""
    frac_zero: float
    frac_capped: float
    ci_zero: Tuple[float, float]
    ci_capped: Tuple[float, float]
    n_paths: int
    n_unfinished: int
    iterations: int
    lane_steps: int


def _run_replicates(model, cfg, x0, a, b, horizon, n_paths, seed,
                    threads=1, stream_offset=0):
    """Simulate n_paths replicates in fixed blocks; gather in index order."""
    if n_paths < MIN_PATHS:
        raise ValueError(f"need at least {MIN_PATHS} paths for a meaningful "
                         f"interval, got n_paths = {n_paths}")
    blocks = []
    lo = 0
    while lo < n_paths:
        hi = min(lo + _BLOCK, n_paths)
        blocks.append((lo, hi))
        lo = hi

    results: List[Optional[dict]] = [None] * len(blocks)

    def work(k):
        blo, bhi = blocks[k]
        ids = np.arange(blo + stream_offset, bhi + stream_offset,
                        dtype=np.uint64)
        bundle = StreamBundle(seed, ids)
        results[k] = _run_block(model, cfg, x0, a, b, bundle, horizon=horizon)

    if threads <= 1 or len(blocks) == 1:
        for k in range(len(blocks)):
            work(k)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(blocks))))

    merged = {}
    for key in results[0]:
        parts = [r[key] for r in results]
        merged[key] = sum(parts) if key in _COUNTERS else np.concatenate(parts)
    return merged


def estimate_passage_prob(model, cfg: SimConfig, x0: float, a: float,
                          t: float, n_paths: int, seed: int,
                          threads: int = 1,
                          stream_offset: int = 0) -> PassageEstimate:
    """Fraction of paths whose first drop below a happens by t.

    Paths absorbed at zero count as crossings (zero is below any a > 0);
    paths that reach the cap first count as non-crossings.
    """
    _check_start(cfg, x0, t)
    if not 0.0 < a < x0:
        raise ValueError("need 0 < a < x0")
    out = _run_replicates(model, cfg, x0, a, np.inf, t, n_paths, seed,
                          threads, stream_offset)
    # the run stops at t, so every recorded crossing is one by t; the last
    # step lands on t only to within an ulp, so no time comparison
    crossed = int(np.count_nonzero(~np.isnan(out["tau_a"])))
    # a path freezes at its first event, so these never overlap
    capped = int(np.count_nonzero(out["capped"]))
    unfinished = int(np.count_nonzero(out["unfinished"]))
    censored = int(n_paths - crossed - capped - unfinished)
    lo, hi = wilson_interval(crossed, n_paths)
    return PassageEstimate(p_hat=crossed / n_paths, ci95_low=lo, ci95_high=hi,
                           n_paths=n_paths, x0=x0, a=a, t=t,
                           n_capped=capped, n_censored=censored,
                           n_unfinished=unfinished,
                           iterations=out["iterations"],
                           lane_steps=out["lane_steps"])


def extinction_explosion_rates(model, cfg: SimConfig, x0: float, horizon: float,
                               n_paths: int, seed: int,
                               threads: int = 1) -> AbsorptionRates:
    """Fractions of paths absorbed at zero / frozen at the cap within the
    horizon."""
    _check_start(cfg, x0, horizon, "horizon")
    out = _run_replicates(model, cfg, x0, a=-1.0, b=np.inf, horizon=horizon,
                          n_paths=n_paths, seed=seed, threads=threads)
    n_zero = int(np.count_nonzero(out["absorbed"]))
    n_cap = int(np.count_nonzero(out["capped"]))
    return AbsorptionRates(
        frac_zero=n_zero / n_paths,
        frac_capped=n_cap / n_paths,
        ci_zero=wilson_interval(n_zero, n_paths),
        ci_capped=wilson_interval(n_cap, n_paths),
        n_paths=n_paths,
        n_unfinished=int(np.count_nonzero(out["unfinished"])),
        iterations=out["iterations"],
        lane_steps=out["lane_steps"],
    )


@dataclass
class SweepRow:
    """One grid point of a phase-diagram sweep."""
    index: int
    params: Dict[str, float]
    predicted: str
    estimate: Optional[PassageEstimate]
    error: Optional[str] = None

    def csv_values(self, n_paths: int, seed: int):
        p = self.params

        def fmt(x):
            return repr(float(x))

        if self.estimate is None:
            tail = ["nan", "nan", "nan", str(n_paths), str(seed)]
        else:
            e = self.estimate
            tail = [fmt(e.p_hat), fmt(e.ci95_low), fmt(e.ci95_high),
                    str(e.n_paths), str(seed)]
        return [fmt(p.get(k, 0.0)) for k in SWEEP_PARAMS] \
            + [self.predicted] + tail


def _model_from_params(params: Dict[str, float]):
    spec = ModelSpec(
        a0=PowerLaw(float(params.get("b0", 0.0)), float(params.get("r0", 0.0))),
        a1=PowerLaw(float(params.get("b1", 0.0)), float(params.get("r1", 0.0))),
        a2=PowerLaw(float(params.get("b2", 0.0)), float(params.get("r2", 0.0))),
        a3=PowerLaw(0.0, 0.0),
        mu=StableMeasure(alpha=float(params.get("alpha", 1.5))),
        nu=FiniteMeasure(()),
    )
    return validate(spec)


def sweep(template: Dict[str, float], grid: List[Dict[str, float]],
          cfg: SimConfig, n_paths: int, seed: int,
          threads: int = 1) -> List[SweepRow]:
    """Classify and estimate every grid point of a power-law family.

    ``template`` holds the base parameters (b0, r0, ..., alpha, x0, a, t)
    and each grid entry overrides a subset.  The prediction is always
    computed before any simulation; an invalid point yields a flagged row
    rather than a failure.  Row i uses random streams [i*n_paths,
    (i+1)*n_paths), so the output is one deterministic table.
    """
    rows: List[SweepRow] = []
    for i, point in enumerate(grid):
        params = {**template, **point}
        try:
            model = _model_from_params(params)
            report: BoundaryReport = classify(model)
            predicted = report.infinity_behavior.value
        except Exception as exc:  # invalid grid point: flag, keep sweeping
            rows.append(SweepRow(index=i, params=params, predicted="invalid",
                                 estimate=None, error=str(exc)))
            continue
        try:
            estimate, error = estimate_passage_prob(
                model, cfg, float(params["x0"]), float(params["a"]),
                float(params["t"]), n_paths, seed, threads,
                stream_offset=i * n_paths), None
        except Exception as exc:
            estimate, error = None, str(exc)
        rows.append(SweepRow(index=i, params=params, predicted=predicted,
                             estimate=estimate, error=error))
    return rows
