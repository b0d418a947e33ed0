"""Spans around the calls that cross each module boundary, installed from
outside the package, and the per-layer metrics computed from them.

Each wrapped call records one span (name, start, end, parent).  Parents
are kept per thread; a span opened on a pool thread with nothing open on
it takes the innermost open span of the thread that installed the tracer
as its parent, which is the Monte Carlo call waiting on that pool.
Counts are taken in the same wrappers, per thread, and merged at the end.
A layer's self time is its spans' durations minus the part their child
spans cover.
"""

import functools
import threading
from collections import Counter, defaultdict
from itertools import count
from time import perf_counter

import numpy as np

NARROW_LANES = 64    # "few live lanes" for rng.small_calls and sim.narrow_iters
DENSE_JUMPS = 256    # per-lane jump count that takes the per-lane loop
POISSON_APPROX = 1000.0  # rates above this use the rounded normal

LAYERS = ("rng", "quad", "model", "criteria", "sim", "mc", "config", "cli")

# (name, unit) of every per-layer metric, in print order
PER_LAYER = [
    ("rng.self_s", "s"), ("rng.share", "ratio"), ("rng.calls", "count"),
    ("rng.small_calls", "count"), ("rng.normal_draws", "count"),
    ("rng.poisson_draws", "count"), ("rng.poisson_approx_draws", "count"),
    ("rng.jump_uniforms", "count"), ("rng.draws_per_s", "1/s"),
    ("quad.calls", "count"), ("quad.evals", "count"), ("quad.self_s", "s"),
    ("quad.evals_per_s", "1/s"), ("quad.errors", "count"),
    ("quad.wasted_eval_ratio", "ratio"),
    ("model.rate_calls", "count"), ("model.rate_points", "count"),
    ("model.self_s", "s"),
    ("criteria.classify_calls", "count"), ("criteria.h_rho_calls", "count"),
    ("criteria.self_s", "s"), ("criteria.evals_per_classify", "count"),
    ("sim.iterations", "count"), ("sim.lane_steps", "count"),
    ("sim.self_s", "s"), ("sim.lane_steps_per_s", "1/s"), ("sim.min_dt", "s"),
    ("sim.narrow_iters", "count"), ("sim.narrow_iter_us", "us"),
    ("sim.jumps", "count"), ("sim.dense_lane_steps", "count"),
    ("sim.jump_slot_eff", "ratio"),
    ("sim.outcome.crossed", "count"), ("sim.outcome.absorbed", "count"),
    ("sim.outcome.capped", "count"), ("sim.outcome.censored", "count"),
    ("sim.outcome.unfinished", "count"),
    ("mc.blocks", "count"), ("mc.block_s", "s"), ("mc.self_s", "s"),
    ("mc.parallel_eff", "ratio"),
    ("config.parse_s", "s"), ("cli.self_s", "s"),
    ("trace_overhead", "ratio"),
]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, t0, t1, attr)
        self._ids = count(1)
        self._local = threading.local()
        self._counters = []
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.counts = Counter()
            self._local.mins = {}
            self._counters.append((self._local.counts, self._local.mins))
        return st

    def counts(self):
        self._stack()
        return self._local.counts

    def low(self, key, value):
        mins = self._local.mins
        mins[key] = min(mins.get(key, value), value)

    def wrap(self, name, fn, on_result=None, on_error=None, attr=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, parent_name = stack[-1]
            elif tracer._main_stack:
                parent, parent_name = tracer._main_stack[-1]
            else:
                parent, parent_name = 0, None
            sid = next(tracer._ids)
            stack.append((sid, name))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, None))
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            t1 = perf_counter()
            stack.pop()
            tracer.spans.append((sid, parent, name, t0, t1,
                                 attr(args, kwargs) if attr else None))
            if on_result is not None:
                on_result(tracer, result, args, kwargs, t1 - t0, parent_name)
            return result
        return traced

    def patch(self, owner, attr_name, span_name, **hooks):
        original = getattr(owner, attr_name)
        setattr(owner, attr_name, self.wrap(span_name, original, **hooks))
        self._undo.append((owner, attr_name, original))

    def uninstall(self):
        while self._undo:
            owner, attr_name, original = self._undo.pop()
            setattr(owner, attr_name, original)

    def merged_counts(self):
        total = Counter()
        mins = {}
        for c, m in self._counters:
            total.update(c)
            for k, v in m.items():
                mins[k] = min(mins.get(k, v), v)
        return total, mins

    def save(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        arr = np.array([(s[0], s[1], index[s[2]]) for s in self.spans],
                       dtype=np.int64).reshape(-1, 3)
        times = np.array([(s[3], s[4]) for s in self.spans]).reshape(-1, 2)
        np.savez(path, names=np.array(names), id=arr[:, 0], parent=arr[:, 1],
                 name=arr[:, 2], start=times[:, 0], end=times[:, 1])


# ---------------------------------------------------------------------------
# hooks: counts taken at the boundary


def _lanes(args, kwargs, position):
    """Lanes a StreamBundle method drew for: its ``idx`` or every lane."""
    idx = kwargs.get("idx", args[position] if len(args) > position else None)
    return args[0].size if idx is None else int(np.size(idx))


def _rng_draw(key, idx_position=1):
    def hook(tr, result, args, kwargs, dt, parent_name):
        c = tr.counts()
        c["rng.calls"] += 1
        c["rng.small_calls"] += _lanes(args, kwargs, idx_position) <= NARROW_LANES
        n = int(np.size(result))
        if key:
            c[key] += n
        if not (parent_name or "").startswith("rng."):
            c["rng.delivered"] += n
    return hook


def _rng_advance(tr, result, args, kwargs, dt, parent_name):
    c = tr.counts()
    c["rng.calls"] += 1
    c["rng.small_calls"] += _lanes(args, kwargs, 2) <= NARROW_LANES


_poisson_draw = _rng_draw("rng.poisson_draws", 2)


def _rng_poissons(tr, result, args, kwargs, dt, parent_name):
    _poisson_draw(tr, result, args, kwargs, dt, parent_name)
    c = tr.counts()
    lam = np.broadcast_to(np.asarray(args[1], dtype=float), result.shape)
    c["rng.poisson_approx_draws"] += int(np.count_nonzero(lam > POISSON_APPROX))
    if parent_name == "sim.advance" and result.size:
        c["sim.jumps"] += int(result.sum())
        c["sim.dense_lane_steps"] += int(np.count_nonzero(result > DENSE_JUMPS))
        c["sim.jump_slots"] += int(result.max()) * result.size


def _quad_ok(tr, result, args, kwargs, dt, parent_name):
    c = tr.counts()
    c["quad.calls"] += 1
    c["quad.evals"] += result.evaluations


def _quad_error(tr, exc):
    c = tr.counts()
    c["quad.calls"] += 1
    c["quad.errors"] += 1
    partial = getattr(exc, "partial", None)
    if partial is not None:
        c["quad.evals"] += partial.evaluations
        c["quad.wasted_evals"] += partial.evaluations


def _calls(key):
    """Hooks that count every call, returned or raised."""
    def on_result(tr, result, args, kwargs, dt, parent_name):
        tr.counts()[key] += 1

    def on_error(tr, exc):
        tr.counts()[key] += 1
    return {"on_result": on_result, "on_error": on_error}


def _rate_call(tr, result, args, kwargs, dt, parent_name):
    c = tr.counts()
    c["model.rate_calls"] += 1
    c["model.rate_points"] += np.size(args[1])


def _advance(tr, result, args, kwargs, dt, parent_name):
    c = tr.counts()
    lanes = np.size(args[4])
    c["sim.iterations"] += 1
    c["sim.lane_steps"] += lanes
    if lanes <= NARROW_LANES:
        c["sim.narrow_iters"] += 1
        c["sim.narrow_time"] += dt
    if np.size(result[2]):
        tr.low("sim.min_dt", float(np.min(result[2])))


def _threads_arg(position):
    def attr(args, kwargs):
        return kwargs.get("threads", args[position] if len(args) > position else 1)
    return attr


def install(nb):
    """Wrap every layer boundary; returns the tracer (call uninstall())."""
    tr = Tracer()
    rng = nb.rng.StreamBundle
    tr.patch(rng, "uniforms", "rng.uniforms", on_result=_rng_draw(None))
    tr.patch(rng, "normals", "rng.normals",
             on_result=_rng_draw("rng.normal_draws"))
    tr.patch(rng, "poissons", "rng.poissons", on_result=_rng_poissons)
    tr.patch(rng, "uniforms_at", "rng.uniforms_at",
             on_result=_rng_draw("rng.jump_uniforms", 2))
    tr.patch(rng, "advance", "rng.advance", on_result=_rng_advance)
    for fn in ("integrate_semiinfinite", "integrate_truncated", "integrate_unit"):
        tr.patch(nb.criteria, fn, f"quad.{fn}", on_result=_quad_ok,
                 on_error=_quad_error)
    tr.patch(nb.model.PowerLaw, "__call__", "model.PowerLaw", on_result=_rate_call)
    tr.patch(nb.model.Tabulated, "__call__", "model.Tabulated", on_result=_rate_call)
    for fn in ("phi_with_scale", "stable_k_integral"):
        tr.patch(nb.criteria, fn, f"criteria.{fn}")
    tr.patch(nb.criteria, "h_rho", "criteria.h_rho",
             **_calls("criteria.h_rho_calls"))
    classify = tr.wrap("criteria.classify", nb.criteria.classify,
                       **_calls("criteria.classify_calls"))
    for owner in (nb.criteria, nb.cli, nb.montecarlo):
        tr._undo.append((owner, "classify", owner.classify))
        owner.classify = classify
    tr.patch(nb.simulator._Engine, "advance", "sim.advance", on_result=_advance)
    tr.patch(nb.montecarlo, "_run_block", "sim.run_block")
    for fn, pos in (("estimate_passage_prob", 7), ("extinction_explosion_rates", 6)):
        wrapped = tr.wrap(f"mc.{fn}", getattr(nb.montecarlo, fn),
                          attr=_threads_arg(pos))
        for owner in (nb.montecarlo, nb.cli):
            if hasattr(owner, fn):
                tr._undo.append((owner, fn, getattr(owner, fn)))
                setattr(owner, fn, wrapped)
    sweep = tr.wrap("mc.sweep", nb.montecarlo.sweep)
    for owner in (nb.montecarlo, nb.cli):
        tr._undo.append((owner, "sweep", owner.sweep))
        owner.sweep = sweep
    tr.patch(nb.cli, "parse_config", "config.parse_config")
    tr.patch(nb.cli, "main", "cli.main")
    return tr


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_times(spans):
    """(self seconds per layer, inclusive seconds per span name)."""
    children = defaultdict(list)
    for sid, parent, name, t0, t1, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive = defaultdict(float)
    for sid, parent, name, t0, t1, _ in spans:
        kids = children.get(sid)
        own = (t1 - t0) - (_covered(kids, t0, t1) if kids else 0.0)
        self_s[name.split(".", 1)[0]] += own
        inclusive[name] += t1 - t0
    return self_s, inclusive


def _parallel_eff(spans):
    """Block time summed over threads x estimate time, over the estimates."""
    by_id = {s[0]: s for s in spans}
    block_s = defaultdict(float)
    for sid, parent, name, t0, t1, _ in spans:
        if name == "sim.run_block" and parent in by_id:
            block_s[parent] += t1 - t0
    used = avail = 0.0
    for sid, parent, name, t0, t1, threads in spans:
        if name in ("mc.estimate_passage_prob", "mc.extinction_explosion_rates"):
            used += block_s[sid]
            avail += max(1, int(threads)) * (t1 - t0)
    return used / avail if avail else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(tracer, outcomes, passes, traced_wall, untraced_wall):
    """Per-pass counts and times of every layer, plus ratios."""
    c, mins = tracer.merged_counts()
    self_s, inclusive = layer_times(tracer.spans)
    k = float(passes)
    draws = c["rng.delivered"]
    m = {
        "rng.self_s": self_s["rng"] / k,
        "rng.share": _ratio(self_s["rng"], traced_wall),
        "rng.calls": c["rng.calls"] / k,
        "rng.small_calls": c["rng.small_calls"] / k,
        "rng.normal_draws": c["rng.normal_draws"] / k,
        "rng.poisson_draws": c["rng.poisson_draws"] / k,
        "rng.poisson_approx_draws": c["rng.poisson_approx_draws"] / k,
        "rng.jump_uniforms": c["rng.jump_uniforms"] / k,
        "rng.draws_per_s": _ratio(draws, self_s["rng"]),
        "quad.calls": c["quad.calls"] / k,
        "quad.evals": c["quad.evals"] / k,
        "quad.self_s": self_s["quad"] / k,
        "quad.evals_per_s": _ratio(c["quad.evals"], self_s["quad"]),
        "quad.errors": c["quad.errors"] / k,
        "quad.wasted_eval_ratio": _ratio(c["quad.wasted_evals"], c["quad.evals"]),
        "model.rate_calls": c["model.rate_calls"] / k,
        "model.rate_points": c["model.rate_points"] / k,
        "model.self_s": self_s["model"] / k,
        "criteria.classify_calls": c["criteria.classify_calls"] / k,
        "criteria.h_rho_calls": c["criteria.h_rho_calls"] / k,
        "criteria.self_s": self_s["criteria"] / k,
        "criteria.evals_per_classify": _ratio(c["quad.evals"],
                                              c["criteria.classify_calls"]),
        "sim.iterations": c["sim.iterations"] / k,
        "sim.lane_steps": c["sim.lane_steps"] / k,
        "sim.self_s": self_s["sim"] / k,
        "sim.lane_steps_per_s": _ratio(c["sim.lane_steps"],
                                       inclusive["sim.run_block"]),
        "sim.min_dt": mins.get("sim.min_dt", 0.0),
        "sim.narrow_iters": c["sim.narrow_iters"] / k,
        "sim.narrow_iter_us": 1e6 * _ratio(c["sim.narrow_time"],
                                           c["sim.narrow_iters"]),
        "sim.jumps": c["sim.jumps"] / k,
        "sim.dense_lane_steps": c["sim.dense_lane_steps"] / k,
        "sim.jump_slot_eff": _ratio(c["sim.jumps"], c["sim.jump_slots"]),
        "mc.blocks": sum(1 for s in tracer.spans if s[2] == "sim.run_block") / k,
        "mc.block_s": inclusive["sim.run_block"] / k,
        "mc.self_s": self_s["mc"] / k,
        "mc.parallel_eff": _parallel_eff(tracer.spans),
        "config.parse_s": inclusive["config.parse_config"] / k,
        "cli.self_s": self_s["cli"] / k,
        "trace_overhead": _ratio(traced_wall / k, untraced_wall),
    }
    for key, value in outcomes.items():
        m[f"sim.outcome.{key}"] = value / k
    return m
