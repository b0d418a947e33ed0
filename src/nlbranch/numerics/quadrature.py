"""Adaptive quadrature on (0,1) and (0,infinity).

The engine is a 15-point Kronrod rule with its embedded 7-point Gauss
estimate: each panel is evaluated once at 15 interior nodes, and the
absolute difference between the two rules is the panel error estimate.
Refinement runs in rounds until the summed estimate meets the relative
tolerance or the evaluation budget runs out.  A round bisects the worst
panels, in heap order, until the error left in the heap is at most 1/8
of the target (the batching rule of scipy's ``quad_vec``), and evaluates
all new halves of one piece in a single call of the integrand, so the
per-call overhead of numpy is paid once per round, not once per panel.

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
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "QuadTally", "QuadratureError", "integrate_unit",
           "integrate_semiinfinite", "integrate_truncated"]

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

_IDENTITY, _HEAD, _TAIL = 0, 1, 2


@dataclass
class QuadResult:
    """Value, error estimate and cost of one quadrature call."""
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass
class QuadTally:
    """Evaluations and worst relative error estimate over several calls."""
    evaluations: int = 0
    worst_rel_error: float = 0.0

    def add(self, result: QuadResult) -> float:
        """Count one call's cost and error; returns its value."""
        self.evaluations += result.evaluations
        err, value = float(result.abs_error_estimate), abs(float(result.value))
        rel = err / value if value else (math.inf if err else 0.0)
        self.worst_rel_error = max(self.worst_rel_error, rel)
        return result.value


class QuadratureError(RuntimeError):
    """Raised when the evaluation budget is exhausted before convergence.

    The best available estimate is attached as ``partial``.
    """

    def __init__(self, message: str, partial: QuadResult):
        super().__init__(message)
        self.partial = partial


def _eval_panels(f, kind, scale, mids, halves):
    """Kronrod value and Kronrod-minus-Gauss difference, per unit half-width,
    of the panels mid +- half of one piece, from one call of f on all their
    nodes."""
    s = np.array(mids)[:, None] + np.array(halves)[:, None] * _NODES
    if kind == _IDENTITY:
        fx = np.asarray(f(s.ravel()), dtype=float).reshape(s.shape)
    else:
        # y = -ln(z/scale) on the head, +ln(z/scale) on the tail; dz = z dy
        z = scale * np.exp(-s if kind == _HEAD else s)
        fx = np.asarray(f(z.ravel()), dtype=float).reshape(s.shape) * z
    return (fx @ _RULES).tolist()


def _run_adaptive(f, pieces, tol, budget, base_value=0.0, base_error=0.0):
    """Refine a list of (kind, scale, lo, hi) pieces under one budget.

    Each round bisects the worst panels until the error left in the heap
    is at most 1/8 of the target, and evaluates all new halves of one
    piece in one call of f.
    """
    heap = []
    seq = 0
    evals = 0
    frozen_value = base_value
    frozen_error = base_error
    live_value = 0.0
    live_error = 0.0
    min_width = min((hi - lo) for _, _, lo, hi in pieces) * _MIN_PANEL_FRACTION

    def push(kind, scale, lows, highs):
        nonlocal seq, evals, live_value, live_error
        halves = [0.5 * (b - a) for a, b in zip(lows, highs)]
        sums = _eval_panels(f, kind, scale,
                            [0.5 * (a + b) for a, b in zip(lows, highs)],
                            halves)
        evals += 15 * len(sums)
        for a, b, h, (kronrod, gap) in zip(lows, highs, halves, sums):
            v, e = h * kronrod, abs(h * gap)
            if not (math.isfinite(v) and math.isfinite(e)):
                raise FloatingPointError(
                    f"integrand returned non-finite values on panel ({a}, {b})")
            heapq.heappush(heap, (-e, seq, kind, scale, a, b, v, e))
            seq += 1
            live_value += v
            live_error += e

    for kind, scale, lo, hi in pieces:
        push(kind, scale, [lo], [hi])

    while heap:
        value = frozen_value + live_value
        err = frozen_error + live_error
        target = tol * max(abs(value), 5e-324)
        if err <= target:
            break
        if evals + 30 > budget:
            result = QuadResult(value, err, evals)
            raise QuadratureError(
                f"no convergence within {budget} evaluations "
                f"(err {err:.3e} vs target {tol * abs(value):.3e})", result)
        splits = {}   # (kind, scale) -> (lows, highs), in pop order
        n_split = 0
        while heap and evals + 30 * (n_split + 1) <= budget:
            _, _, kind, scale, lo, hi, v, e = heapq.heappop(heap)
            live_value -= v
            live_error -= e
            if hi - lo < min_width:
                # panel cannot be meaningfully refined; retire it
                frozen_value += v
                frozen_error += e
            else:
                mid = 0.5 * (lo + hi)
                lows, highs = splits.setdefault((kind, scale), ([], []))
                lows += [lo, mid]
                highs += [mid, hi]
                n_split += 1
            if live_error <= target / 8:
                break
        for (kind, scale), (lows, highs) in splits.items():
            push(kind, scale, lows, highs)

    # deterministic final summation ordered by piece and position
    segs = sorted(heap, key=lambda it: (it[2], it[4]))
    value = frozen_value + sum(it[6] for it in segs)
    err = frozen_error + sum(it[7] for it in segs)
    return QuadResult(value, err, evals)


def integrate_unit(f, tol: float = 1e-10, budget: int = 10 ** 6) -> QuadResult:
    """Integrate f over (0,1) to relative tolerance ``tol``.

    f must accept a numpy array of interior points; endpoints are never
    sampled, so integrable endpoint singularities are allowed.
    """
    return _run_adaptive(f, [(_IDENTITY, 1.0, 0.0, 1.0)], tol, budget)


def _power_stub(f, z_ref, decay):
    """Mass of the envelope C z^p beyond z_ref, from one evaluation there.

    ``decay`` is p+1 on the head side and -(q+1) on the tail side; both
    reduce to f(z_ref) * z_ref / decay.
    """
    f_ref = float(np.asarray(f(np.array([z_ref])), dtype=float)[0])
    stub = f_ref * z_ref / decay
    return stub, abs(stub) * 1e-13


def _head_piece(f, upper, head_power):
    if head_power is None:
        return (_HEAD, upper, 0.0, _Y_BARE), 0.0, 0.0
    p = float(head_power)
    if p <= -1.0:
        raise ValueError("head envelope exponent must be > -1")
    stub, err = _power_stub(f, upper * np.exp(-_Y_DECLARED), p + 1.0)
    return (_HEAD, upper, 0.0, _Y_DECLARED), stub, err


def _tail_piece(f, lower, tail_power):
    if tail_power is None:
        return (_TAIL, lower, 0.0, _Y_BARE), 0.0, 0.0
    q = float(tail_power)
    if q >= -1.0:
        raise ValueError("tail envelope exponent must be < -1")
    stub, err = _power_stub(f, lower * np.exp(_Y_DECLARED), -(q + 1.0))
    return (_TAIL, lower, 0.0, _Y_DECLARED), stub, err


def integrate_semiinfinite(f, tol: float = 1e-10, head_power=None,
                           tail_power=None, budget: int = 10 ** 6) -> QuadResult:
    """Integrate f over (0, infinity) to relative tolerance ``tol``.

    The integrand must decay integrably at both ends (the callers in this
    package guarantee z^(-1-alpha) * O(z or z^2) behavior).  ``head_power``
    and ``tail_power`` are the known envelope exponents of f near zero and
    infinity; declaring them enables the closed-form corrections that
    exponents near the integrability boundary need (see module docstring).
    """
    hp, sh, eh = _head_piece(f, 1.0, head_power)
    tp, st, et = _tail_piece(f, 1.0, tail_power)
    return _run_adaptive(f, [hp, tp], tol, budget,
                         base_value=sh + st, base_error=eh + et)


def integrate_truncated(f, upper: float, tol: float = 1e-10, head_power=None,
                        budget: int = 10 ** 6) -> QuadResult:
    """Integrate f over (0, upper] with the same head treatment."""
    if upper <= 0.0:
        raise ValueError("upper must be positive")
    hp, stub, err = _head_piece(f, float(upper), head_power)
    return _run_adaptive(f, [hp], tol, budget,
                         base_value=stub, base_error=err)
