"""sha256 digests of engine outputs, one ``name sha256`` line each.

Run from the repository root with the sources to check on the path:

    PYTHONPATH=src python tests/engine_digests.py

Running it on two checkouts from one directory and comparing the lines
shows which outputs a change of the engine moved; an item that raises
prints ``name error <type>: <message>`` in place of its digest.  The
items are ``_run_block`` blocks (the returned dict and the final stream
counters), ``trace_path`` runs, the ``passage`` JSON of the README run
file without ``wall_clock_s`` and ``versions``, and a two-block sweep
CSV at one and two threads.  pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from nlbranch import cli
from nlbranch.model import (
    FiniteMeasure,
    ModelSpec,
    PowerLaw,
    StableMeasure,
    Tabulated,
    validate,
)
from nlbranch.numerics import StreamBundle
from nlbranch.simulator import SimConfig, _run_block, trace_path

G15 = math.gamma(1.5)

README_INI = """[model]
alpha = 1.5

[model.a0]
type = powerlaw
b = gamma(alpha)
r = 1.0

[model.a2]
type = powerlaw
b = b0/gamma(alpha)
r = 1.5

[sim]
dt = 1e-3
horizon_t = 4.0

[mc]
n_paths = 10000
seed = 1234
threads = 4

[output]
format = json
"""

# two blocks of paths per row, so that two threads share them
SWEEP_INI = """[model]
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
dt = 1e-2
horizon_t = 1.0

[mc]
n_paths = 16500
seed = 21
"""

SWEEP_GRID = "r0,r1\n0.5,1.5\n1.5,2.5\n"


def model(b0=1.0, r0=1.0, b1=0.0, r1=0.0, b2=0.0, r2=0.0, b3=0.0, r3=0.0,
          alpha=1.5, u_max=None, atoms=(), a0=None, a1=None):
    return validate(ModelSpec(
        a0=a0 or PowerLaw(b0, r0), a1=a1 or PowerLaw(b1, r1),
        a2=PowerLaw(b2, r2), a3=PowerLaw(b3, r3),
        mu=StableMeasure(alpha=alpha, u_max=u_max),
        nu=FiniteMeasure(tuple(atoms))))


README = model(b0=G15, b2=1.0, r2=1.5)
C6A = model(r0=2.0, b1=2.0, r1=3.0)
GBM = model(b1=2.0, r1=2.0)
CUT = model(b1=0.5, r1=2.0, b2=0.5, r2=1.5, u_max=5.0)
ROW_A = model(b0=0.1, b1=1.0, r1=2.0, b3=1.0, r3=1.0, u_max=0.1,
              atoms=[(0.5, 1.0)])
ROW_B = model(b1=0.5, r1=2.0, b2=0.5, r2=1.5, b3=0.3, r3=1.0, u_max=5.0,
              atoms=[(8.0, 0.5), (12.0, 0.3)])
FELLER = model(a0=Tabulated(((0.0, 0.0), (1.0, 0.5), (1e9, 5e8))),
               a1=Tabulated(((0.0, 0.0), (1.0, 1.0), (1e9, 1e9))))

# name: (model, cfg, x0, a, b, lanes, seed)
BLOCKS = {
    "block:readme-fixed": (README, SimConfig(dt=1e-3, horizon_t=0.3),
                           10.0, 1.0, np.inf, 256, 1),
    "block:readme-budget": (README, SimConfig(dt=1e-3, step_budget=40),
                            10.0, 9.0, 11.0, 256, 2),
    "block:c6a-adaptive": (C6A, SimConfig(dt=1e-3, adaptive=True, cap_b=1e6),
                           1e3, 10.0, np.inf, 200, 3),
    "block:c7-adaptive": (README, SimConfig(dt=1e-2, horizon_t=0.2,
                                            adaptive=True),
                          1.0, -1.0, np.inf, 128, 4),
    "block:c5-gbm": (GBM, SimConfig(dt=1e-2, horizon_t=0.5),
                     10.0, 1.0, np.inf, 512, 5),
    "block:sweep-r1=1.5": (model(r0=0.5, b1=2.0, r1=1.5),
                           SimConfig(dt=1e-2, adaptive=True),
                           100.0, 1.0, np.inf, 300, 6),
    "block:sweep-r1=2.5": (model(r0=1.5, b1=2.0, r1=2.5),
                           SimConfig(dt=1e-2, adaptive=True),
                           100.0, 1.0, np.inf, 300, 7),
    "block:cut-support": (CUT, SimConfig(dt=1e-2, horizon_t=0.5),
                          3.0, 2.0, 6.0, 300, 8),
    "block:cut-support-adaptive": (CUT, SimConfig(dt=1e-2, horizon_t=0.5,
                                                  adaptive=True),
                                   3.0, 2.0, 6.0, 300, 9),
    "block:row-a-fixed": (ROW_A, SimConfig(dt=1e-3, horizon_t=0.2),
                          1e3, 500.0, np.inf, 200, 5),
    "block:row-a-adaptive": (ROW_A, SimConfig(dt=1e-2, horizon_t=0.2,
                                              adaptive=True,
                                              step_budget=20_000),
                             1e3, 500.0, np.inf, 200, 5),
    "block:row-b-fixed": (ROW_B, SimConfig(dt=1e-2, horizon_t=1.0),
                          3.0, 2.0, np.inf, 200, 7),
    "block:row-b-adaptive": (ROW_B, SimConfig(dt=1e-2, horizon_t=1.0,
                                              adaptive=True),
                             3.0, 2.0, np.inf, 200, 7),
    "block:tabulated-feller-away-from-zero": (
        FELLER, SimConfig(dt=1e-2, horizon_t=0.2, adaptive=True),
        20.0, 2.0, np.inf, 300, 10),
    "block:tabulated-feller-fixed": (FELLER, SimConfig(dt=1e-2),
                                     0.5, -1.0, np.inf, 300, 1),
    "block:tabulated-feller-adaptive": (
        FELLER, SimConfig(dt=1e-2, adaptive=True, step_budget=2_000),
        0.5, -1.0, np.inf, 300, 1),
}

# name: (model, cfg, x0, seed)
TRACES = {
    "trace:readme": (README, SimConfig(dt=1e-3, horizon_t=0.5), 10.0, 3),
    "trace:c6a-adaptive": (C6A, SimConfig(dt=1e-3, adaptive=True,
                                          cap_b=1e6), 1e3, 4),
    "trace:row-b-adaptive": (ROW_B, SimConfig(dt=1e-2, adaptive=True),
                             3.0, 5),
}


def sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def block_digest(m, cfg, x0, a, b, lanes, seed):
    bundle = StreamBundle(seed, np.arange(lanes, dtype=np.uint64))
    out = _run_block(m, cfg, x0, a, b, bundle)
    parts = []
    for key in sorted(out):
        value = np.asarray(out[key])
        parts += [key, value.dtype.str, value.tobytes()]
    return sha(*parts, bundle.counters().tobytes())


def trace_digest(m, cfg, x0, seed):
    ts, xs, cut = trace_path(m, cfg, x0, seed)
    return sha(ts.tobytes(), xs.tobytes(), cut)


def cli_output(argv):
    """Exit code and output file of a CLI call in the work directory; the
    JSON echoes the output path, so every path is relative to it."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--out", "out"])
    return code, Path("out").read_bytes() if code == 0 else b""


def passage_digest():
    code, raw = cli_output(["passage", "--config", "readme.ini", "--x0", "10",
                            "--a", "1", "--t", "4"])
    doc = json.loads(raw) if code == 0 else None
    if doc is not None:
        for key in ("wall_clock_s", "versions"):
            doc.pop(key, None)
    return sha(code, json.dumps(doc, sort_keys=True))


def sweep_digest(threads):
    code, raw = cli_output(["sweep", "--config", "sweep.ini", "--grid",
                            "grid.csv", "--format", "csv", "--threads",
                            str(threads)])
    return sha(code, raw)


def items():
    for name, args in BLOCKS.items():
        yield name, lambda args=args: block_digest(*args)
    for name, args in TRACES.items():
        yield name, lambda args=args: trace_digest(*args)
    yield "cli:readme-passage", passage_digest
    for threads in (1, 2):
        yield f"cli:sweep-csv-threads={threads}", \
            lambda threads=threads: sweep_digest(threads)


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            print_digests()
        finally:
            os.chdir(home)
    return 0


def print_digests():
    Path("readme.ini").write_text(README_INI)
    Path("sweep.ini").write_text(SWEEP_INI)
    Path("grid.csv").write_text(SWEEP_GRID)
    for name, digest in items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                line = digest()
            except Exception as exc:
                line = f"error {type(exc).__name__}: {exc}"
        if caught:
            line += f" ({len(caught)} warnings)"
        print(name, line, flush=True)


if __name__ == "__main__":
    sys.exit(main())
