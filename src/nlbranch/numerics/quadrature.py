"""Adaptive quadrature on (0,1) and (0,infinity).

The engine is a 15-point Kronrod rule with its embedded 7-point Gauss
estimate: each panel is evaluated once at 15 interior nodes, and the
absolute difference between the two rules is the panel error estimate.
Refinement runs in rounds until the summed estimate meets the relative
tolerance, the target falls below the roundoff floor of the panel sum,
the error of panels retired at the minimum width exceeds the target of
any value the open panels' error leaves within reach, or the evaluation
budget runs out.  A round bisects the worst panels, in heap order, until
the error left in the heap is at most 1/8 of the target (the batching
rule of scipy's ``quad_vec``).

A run refines jobs, integrals of f(z, job) over one domain, each as if
it ran alone, in lockstep rounds: a round evaluates the new panels of
every unfinished job in one call of the integrand, so numpy's per-call
overhead is paid once per round, not once per panel or per integral.

Semi-infinite integrands are split at z = 1 and both pieces are
integrated in logarithmic variables (z = exp(-y) below the split,
z = exp(+y) above), which turns any integrable power behavior z^p into a
decaying exponential.  Power envelopes close to the integrability
boundary concentrate visible mass at scales float arithmetic cannot
reach, so callers that know the envelope exponent can declare it
(``head_power`` for z -> 0, ``tail_power`` for z -> inf): the engine then
stops the mapped domain at exp(+-60) and adds the closed-form envelope
stub for the remainder, which is exact up to the first correction term of
the integrand at that scale (~1e-20 relative for the integrands in this
package).  Without a declared exponent the mapped domain extends to
exp(+-460) and the integrand must tolerate evaluation there.
"""

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate_unit",
           "integrate_semiinfinite", "integrate_truncated", "integrate_jobs"]

# Kronrod-15 abscissae/weights and the embedded Gauss-7 weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])
# one product gives the Kronrod value and its distance from the Gauss one
_RULES = np.stack([_WK, _WK - _WG15], axis=1)

_Y_DECLARED = 60.0    # mapped range when an envelope exponent is declared
_Y_BARE = 460.0       # mapped range without one (needs a decaying integrand)
_MIN_PANEL_FRACTION = 1e-14  # stop bisecting panels thinner than this
# roundoff share of the summed |panel values| (QUADPACK's 50 eps floor)
_ROUNDOFF = 50.0 * np.finfo(float).eps

_IDENTITY, _HEAD, _TAIL = 0, 1, 2


@dataclass
class QuadResult:
    """Value, error estimate and cost of one quadrature call."""
    value: float
    abs_error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when the budget runs out, the target is below roundoff, or
    error that refinement cannot reduce already exceeds every target.

    The best available estimate is attached as ``partial``.
    """

    def __init__(self, message: str, partial: QuadResult):
        super().__init__(message)
        self.partial = partial


def _evaluate(f, panels):
    """Value and error estimate of each (job, kind, scale, lo, hi) panel."""
    job, kind, scale, lo, hi = (np.array(c) for c in zip(*panels))
    half = 0.5 * (hi - lo)
    s = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    # y = -ln(z/scale) on the head, +ln(z/scale) on the tail; dz = z dy
    mapped = (kind != _IDENTITY)[:, None]
    sign = np.where(kind == _HEAD, -1.0, 1.0)[:, None]
    z = np.where(mapped, scale[:, None] * np.exp(sign * s), s)
    fx = np.asarray(f(z.ravel(), np.repeat(job, 15)), dtype=float)
    sums = (fx.reshape(s.shape) * np.where(mapped, z, 1.0)) @ _RULES
    values, errors = half * sums[:, 0], np.abs(half * sums[:, 1])
    bad = ~(np.isfinite(values) & np.isfinite(errors))
    if bad.any():
        i = int(np.argmax(bad))
        raise FloatingPointError(
            f"integrand returned non-finite values on panel ({lo[i]}, {hi[i]})")
    return values.tolist(), errors.tolist()


class _Job:
    """One integral under refinement: its panel heap and running sums."""

    def __init__(self):
        self.heap, self.seq, self.evals = [], 0, 0
        self.frozen_value = self.frozen_error = 0.0   # stubs, retired panels
        self.live_value = self.live_error = 0.0       # panels in the heap
        self.mass = 0.0   # summed |value| of the panels

    def split(self, tol, budget, min_width):
        """The next round's panels, the worst bisected; None once done."""
        value = self.frozen_value + self.live_value
        err = self.frozen_error + self.live_error
        target = tol * max(abs(value), 5e-324)
        if err <= target or not self.heap:
            return None
        floor = _ROUNDOFF * self.mass
        if target < floor or self.evals + 30 > budget:
            why = (f"target below the roundoff floor {floor:.3e}"
                   if target < floor else
                   f"no convergence within {budget} evaluations")
            raise QuadratureError(f"{why} (err {err:.3e}, target {target:.3e})",
                                  QuadResult(value, err, self.evals))
        splits = {}   # (kind, scale) -> panels, in pop order
        n_split = 0
        while self.heap and self.evals + 30 * (n_split + 1) <= budget:
            _, _, kind, scale, lo, hi, v, e = heapq.heappop(self.heap)
            self.live_value -= v
            self.live_error -= e
            if hi - lo < min_width:
                # panel cannot be meaningfully refined; retire it
                self.frozen_value += v
                self.frozen_error += e
                # the open panels can move the value by their error at most
                reach = abs(value) + err - self.frozen_error
                if self.frozen_error > tol * reach:
                    raise QuadratureError(
                        f"no convergence possible: error {self.frozen_error:.3e}"
                        f" that refinement cannot reduce exceeds the target "
                        f"{tol * reach:.3e} of any value within reach of the "
                        f"open panels' error",
                        QuadResult(value, err, self.evals))
            else:
                self.mass -= abs(v)
                mid = 0.5 * (lo + hi)
                splits.setdefault((kind, scale), []).extend(
                    [(kind, scale, lo, mid), (kind, scale, mid, hi)])
                n_split += 1
            if self.live_error <= target / 8:
                break
        return [p for group in splits.values() for p in group]

    def result(self):
        # deterministic final summation ordered by piece and position
        segs = sorted(self.heap, key=lambda it: (it[2], it[4]))
        value = self.frozen_value + sum(it[6] for it in segs)
        err = self.frozen_error + sum(it[7] for it in segs)
        return QuadResult(value, err, self.evals)


def _run_adaptive(f, n_jobs, pieces, stubs, tol, budget):
    """Refine n_jobs integrals of f(z, job) over the (kind, scale, lo, hi)
    pieces in lockstep rounds; every job adds the (z_ref, decay) stubs."""
    jobs = [_Job() for _ in range(n_jobs)]
    if stubs and jobs:
        z_ref = np.array([z for z, _ in stubs] * n_jobs)
        f_ref = np.asarray(f(z_ref, np.repeat(np.arange(n_jobs), len(stubs))),
                           dtype=float).tolist()
        for i, (z, decay) in enumerate(stubs * n_jobs):
            stub = f_ref[i] * z / decay
            job = jobs[i // len(stubs)]
            job.frozen_value += stub
            job.frozen_error += abs(stub) * 1e-13
    min_width = min((hi - lo) for _, _, lo, hi in pieces) * _MIN_PANEL_FRACTION
    todo = [pieces] * n_jobs   # each job's next panels, None once it is done
    while any(t is not None for t in todo):
        panels = [(j, *piece) for j, t in enumerate(todo) for piece in t or ()]
        if panels:   # a round that only retires panels evaluates none
            values, errors = _evaluate(f, panels)
            for (j, kind, scale, lo, hi), v, e in zip(panels, values, errors):
                job = jobs[j]
                heapq.heappush(job.heap,
                               (-e, job.seq, kind, scale, lo, hi, v, e))
                job.seq += 1
                job.evals += 15
                job.live_value += v
                job.live_error += e
                job.mass += abs(v)
        todo = [job.split(tol, budget, min_width) for job in jobs]
    return [job.result() for job in jobs]


def integrate_unit(f, tol: float = 1e-10, budget: int = 10 ** 6) -> QuadResult:
    """Integrate f over (0,1) to relative tolerance ``tol``.

    f must accept a numpy array of interior points; endpoints are never
    sampled, so integrable endpoint singularities are allowed.
    """
    return _run_adaptive(lambda z, _: f(z), 1, [(_IDENTITY, 1.0, 0.0, 1.0)],
                         [], tol, budget)[0]


def integrate_jobs(f, n_jobs: int, upper=None, tol: float = 1e-10,
                   head_power=None, tail_power=None,
                   budget: int = 10 ** 6) -> list[QuadResult]:
    """Integrate f(z, job) for job = 0 .. n_jobs-1 over (0, upper], or
    (0, infinity) if ``upper`` is None, in shared rounds; ``job`` gives the
    job of each point of z.  See ``integrate_semiinfinite`` for the rest."""
    if upper is not None and not upper > 0.0:
        raise ValueError("upper must be positive")
    pieces, stubs = [], []
    sides = [(_HEAD, -1.0, 1.0 if upper is None else float(upper), head_power)]
    if upper is None:
        sides.append((_TAIL, 1.0, 1.0, tail_power))
    for kind, sign, scale, power in sides:
        if power is None:
            pieces.append((kind, scale, 0.0, _Y_BARE))
            continue
        # the envelope C z^p has mass f(z_ref) z_ref / decay beyond z_ref
        decay = -sign * (float(power) + 1.0)
        if not decay > 0.0:
            raise ValueError(f"envelope exponent {power} is not integrable")
        pieces.append((kind, scale, 0.0, _Y_DECLARED))
        stubs.append((scale * np.exp(sign * _Y_DECLARED), decay))
    return _run_adaptive(f, n_jobs, pieces, stubs, tol, budget)


def integrate_semiinfinite(f, tol: float = 1e-10, head_power=None,
                           tail_power=None, budget: int = 10 ** 6) -> QuadResult:
    """Integrate f over (0, infinity) to relative tolerance ``tol``.

    The integrand must decay integrably at both ends (the callers in this
    package guarantee z^(-1-alpha) * O(z or z^2) behavior).  ``head_power``
    and ``tail_power`` are the known envelope exponents of f near zero and
    infinity; declaring them enables the closed-form corrections that
    exponents near the integrability boundary need (see module docstring).
    """
    return integrate_jobs(lambda z, _: f(z), 1, None, tol, head_power,
                          tail_power, budget)[0]


def integrate_truncated(f, upper: float, tol: float = 1e-10, head_power=None,
                        budget: int = 10 ** 6) -> QuadResult:
    """Integrate f over (0, upper] with the same head treatment."""
    return integrate_jobs(lambda z, _: f(z), 1, upper, tol, head_power,
                          budget=budget)[0]
