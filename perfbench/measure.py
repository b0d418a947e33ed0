"""Operation records, reference checks, outcome accounting and statistics.

Everything here looks at the program from outside: it reads the values
that public entry points return, the dict that ``_run_block`` hands to
``nlbranch.montecarlo``, and the files the CLI writes.
"""

import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

# A gap below this many standard errors is sampling noise at the sizes
# the workloads use (two-sided P ~ 6e-5 for an unbiased estimate).  The
# reported ref_gap_se never reads lower, so it is never zero and does not
# follow the noise of checks that find no bias; raw gaps stay in the
# operation records.
REF_GAP_FLOOR = 4.0

# the tail latency is the highest order statistic with this many
# samples above it
TAIL_BEYOND = 10

OUTCOMES = ("crossed", "absorbed", "capped", "censored", "unfinished")


@dataclass
class Check:
    """One reference check: ``gap`` in standard errors (or a count)."""
    name: str
    gap: float
    ok: bool
    known_defect: bool = False
    in_se: bool = True


@dataclass
class Op:
    """One timed operation and what it produced.  ``seconds`` and
    ``samples`` are at the reference host speed, ``raw`` and
    ``raw_samples`` as the clock read them (see hostspeed.py)."""
    kind: str
    name: str
    seconds: float = 0.0
    raw: float = 0.0
    failed: bool = False
    error: Optional[str] = None
    digest: Optional[str] = None
    paths: int = 0
    outcomes: Optional[Dict[str, int]] = None
    checks: List[Check] = field(default_factory=list)
    samples: List[float] = field(default_factory=list)
    raw_samples: List[float] = field(default_factory=list)
    malformed: List[str] = field(default_factory=list)


def digest(*parts) -> str:
    """Short sha256 of the repr of the parts, or of raw bytes."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def json_digest(report: Dict) -> str:
    """Hash of a CLI JSON report without its run-time field."""
    stripped = {k: v for k, v in report.items() if k != "wall_clock_s"}
    return digest(json.dumps(stripped, sort_keys=True).encode())


def passage_se(p_hat: float, n: int, p_ref: float) -> float:
    """Binomial standard error of the estimate, guarded at p_hat in {0,1}."""
    var = p_hat * (1.0 - p_hat)
    if var == 0.0:
        var = p_ref * (1.0 - p_ref)
    return math.sqrt(var / n) if var > 0.0 else 1.0 / n


def gap_check(name: str, estimate: float, se: float, reference: float,
              known_defect: bool = False) -> Check:
    gap = float(abs(estimate - reference) / se)
    return Check(name, gap, gap <= REF_GAP_FLOOR, known_defect)


def count_check(name: str, got: int, expected: int) -> Check:
    return Check(name, float(abs(got - expected)), bool(got == expected),
                 in_se=False)


def block_outcomes(out: Dict, horizon: float) -> Dict[str, int]:
    """How the lanes of one ``_run_block`` result ended, exclusively.

    A lane still short of the horizon and neither crossed, absorbed nor
    capped was cut off by the step budget.
    """
    absorbed = out["absorbed"]
    capped = out["capped"] & ~absorbed
    crossed = (~np.isnan(out["tau_a"]) | ~np.isnan(out["tau_b"])) \
        & ~absorbed & ~capped
    rest = ~(absorbed | capped | crossed)
    at_horizon = out["t"] >= horizon * (1.0 - 1e-9)
    return {
        "crossed": int(crossed.sum()),
        "absorbed": int(absorbed.sum()),
        "capped": int(capped.sum()),
        "censored": int((rest & at_horizon).sum()),
        "unfinished": int((rest & ~at_horizon).sum()),
    }


def merge_outcomes(blocks) -> Dict[str, int]:
    total = dict.fromkeys(OUTCOMES, 0)
    for out, horizon in blocks:
        for k, v in block_outcomes(out, horizon).items():
            total[k] += v
    return total


def tail(samples: List[float]):
    """(value, percentile, count) of the tail order statistic.

    With fewer than TAIL_BEYOND + 1 samples there is no such statistic
    and the maximum is returned with its percentile of 100.
    """
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def environment() -> Dict[str, str]:
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
    }
