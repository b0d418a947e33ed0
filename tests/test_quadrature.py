import math

import numpy as np
import pytest

from nlbranch.numerics import (
    QuadratureError,
    gamma,
    integrate_semiinfinite,
    integrate_unit,
    x_minus_log1p,
)
from nlbranch.numerics.quadrature import integrate_jobs, integrate_truncated


def c_alpha(a):
    return a * (a - 1.0) / gamma(2.0 - a)


def test_unit_constant_and_linear():
    r = integrate_unit(lambda v: np.ones_like(v))
    assert r.value == pytest.approx(1.0, rel=1e-12)
    assert r.evaluations >= 1
    r = integrate_unit(lambda v: 1.0 - v)
    assert r.value == pytest.approx(0.5, rel=1e-12)


def test_unit_symbolic_antiderivatives():
    # int (1-v)(1+v)^-2 dv = 1 - ln 2; int v(1+v)^-2 dv = ln 2 - 1/2
    r = integrate_unit(lambda v: (1.0 - v) * (1.0 + v) ** -2)
    assert r.value == pytest.approx(1.0 - math.log(2.0), rel=1e-11)
    r = integrate_unit(lambda v: v * (1.0 + v) ** -2)
    assert r.value == pytest.approx(math.log(2.0) - 0.5, rel=1e-11)


def test_unit_error_estimate_is_honest():
    r = integrate_unit(lambda v: np.sin(13.0 * v) ** 2, tol=1e-10)
    exact = 0.5 - math.sin(26.0) / 52.0
    assert abs(r.value - exact) <= max(1e-10 * abs(exact), r.abs_error_estimate)


def test_semiinfinite_exponential():
    r = integrate_semiinfinite(lambda z: np.exp(-z), tol=1e-10)
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_semiinfinite_stable_moment():
    # (z ^ z^2) against the alpha=1.5 stable density: c_a (1/(2-a) + 1/(a-1))
    a = 1.5
    c = c_alpha(a)
    f = lambda z: np.minimum(z, z * z) * c * z ** (-1.0 - a)
    r = integrate_semiinfinite(f, tol=1e-10, head_power=1.0 - a,
                               tail_power=-a)
    assert r.value == pytest.approx(1.6925687506432690, rel=1e-9)
    assert r.value == pytest.approx(c * (1 / (2 - a) + 1 / (a - 1)), rel=1e-10)


def test_head_stub_handles_extreme_exponent():
    # almost non-integrable head: z^-0.99 over (0,1] has mass below 1e-200
    # that direct sampling cannot see
    p = -0.99
    r = integrate_truncated(lambda z: z ** p, upper=1.0, tol=1e-9, head_power=p)
    assert r.value == pytest.approx(1.0 / (1.0 + p), rel=1e-8)


def test_budget_error_carries_partial():
    # oscillatory integrand under an absurdly small budget
    f = lambda z: np.sin(500.0 * z) ** 2
    with pytest.raises(QuadratureError) as exc:
        integrate_unit(f, tol=1e-13, budget=90)
    partial = exc.value.partial
    assert partial.evaluations <= 90
    assert math.isfinite(partial.value)
    assert partial.abs_error_estimate > 0.0


def test_refinement_rounds_share_integrand_calls():
    # about 500 panels: one call per panel would be about 500 calls
    calls = []

    def f(v):
        calls.append(v.size)
        return np.sin(500.0 * v) ** 2

    r = integrate_unit(f, tol=1e-10)
    assert r.value == pytest.approx(0.5 - math.sin(1000.0) / 2000.0, rel=1e-10)
    assert sum(calls) == r.evaluations > 100 * 15
    assert len(calls) <= 20


def test_post_contract_on_known_integrals():
    # |value - true| <= max(tol |true|, reported error) on a mixed bag
    cases = [
        (lambda z: np.exp(-z) * z, 1.0, None),            # int = 1
        (lambda z: np.exp(-0.5 * z), 2.0, None),
        (lambda z: z ** -0.5 * np.exp(-z), math.sqrt(math.pi), -0.5),
    ]
    for f, truth, hp in cases:
        r = integrate_semiinfinite(f, tol=1e-10, head_power=hp)
        assert abs(r.value - truth) <= max(1e-10 * abs(truth),
                                           r.abs_error_estimate)


def test_x_minus_log1p_used_as_inner_closed_form():
    # (z/u - log1p(z/u))/z^2 equals the inner integral for a few (u, z)
    for u, z in [(1.0, 0.5), (10.0, 3.0), (4.0, 40.0)]:
        inner = integrate_unit(lambda v: (u + v * z) ** -2 * (1.0 - v),
                               tol=1e-13).value
        closed = x_minus_log1p(z / u) / z ** 2
        assert closed == pytest.approx(inner, rel=1e-10)


def test_jobs_equal_one_job_runs_and_share_calls():
    # three integrands refined in lockstep: each equals its own run bit
    # for bit, evaluations included, and the batch makes no more calls of
    # f than the longest of those runs
    a = np.array([0.5, 2.0, 40.0])
    calls = []

    def f(z, job):
        calls.append(z.size)
        return (1.0 + job) * z ** -0.5 * (1.0 + a[job] * z) ** -2.0

    envelope = {"head_power": -0.5, "tail_power": -2.5}
    for upper, kw in ((None, {}), (None, envelope),
                      (3.0, {"head_power": -0.5})):
        calls.clear()
        batched = integrate_jobs(f, 3, upper, 1e-10, **kw)
        n_batched = len(calls)
        n_single = []
        for j, got in enumerate(batched):
            calls.clear()
            one = (lambda z, j=j: f(z, np.full(z.size, j)))
            ref = (integrate_semiinfinite(one, 1e-10, **kw) if upper is None
                   else integrate_truncated(one, upper, 1e-10, **kw))
            assert (got.value, got.abs_error_estimate, got.evaluations) == (
                ref.value, ref.abs_error_estimate, ref.evaluations)
            n_single.append(len(calls))
        assert n_batched == max(n_single) < sum(n_single)


def test_budget_error_in_a_job_carries_its_partial():
    # the smooth job (integral 1) converges, the oscillatory one
    # (integral about 1/2) runs out of budget and reports its own partial
    def f(z, job):
        return np.where(job == 0, 3.0 * z * z, np.sin(500.0 * z) ** 2)

    with pytest.raises(QuadratureError, match="no convergence") as exc:
        integrate_jobs(f, 2, upper=1.0, tol=1e-13, budget=600)
    partial = exc.value.partial
    assert 0 < partial.evaluations <= 600
    assert partial.value == pytest.approx(0.5, abs=0.2)
    assert partial.abs_error_estimate > 1e-13 * abs(partial.value)


def test_target_below_roundoff_floor_raises_at_once():
    with pytest.raises(QuadratureError, match="roundoff floor") as exc:
        integrate_unit(lambda v: np.sin(500.0 * v) ** 2, tol=1e-18)
    assert exc.value.partial.evaluations < 10 ** 4


def test_rounds_that_only_retire_panels_keep_refining():
    # around an interior singularity panels shrink below the minimum width
    # and retire; the job must raise, not return unconverged
    def f(v):
        return np.abs(v - math.pi / 10.0) ** -0.9

    with pytest.raises(QuadratureError, match="no convergence"):
        integrate_unit(f, tol=1e-10, budget=200000)


def test_error_no_refinement_can_reduce_raises_at_once():
    # the panel holding the singularity reaches the minimum width carrying
    # a 3e-4 share of the value, far above tol; without the rule the run
    # spent its whole budget of 1e6 evaluations
    def f(v):
        return np.abs(v - math.pi / 10.0) ** -0.9

    with pytest.raises(QuadratureError, match="no convergence possible") as exc:
        integrate_unit(f, tol=1e-10)
    assert exc.value.partial.evaluations <= 100_000


def _job_with(panels):
    """A job whose heap holds the (lo, hi, value, error) panels."""
    import heapq
    from nlbranch.numerics.quadrature import _IDENTITY, _Job

    job = _Job()
    for lo, hi, v, e in panels:
        heapq.heappush(job.heap, (-e, job.seq, _IDENTITY, 1.0, lo, hi, v, e))
        job.seq += 1
        job.live_value += v
        job.live_error += e
        job.mass += abs(v)
    return job


def test_retired_error_the_value_can_still_outgrow_keeps_refining():
    # a panel at the minimum width retires with error 1e-9 while the value
    # reads 2, above tol * |value| = 4e-10; the open panel's error of 5
    # lets the value still grow to 7, where 1e-9 meets the target, so the
    # open panel is bisected
    from nlbranch.numerics.quadrature import _IDENTITY

    retired = (0.3, 0.3 + 1e-16, 1.0, 1e-9)
    job = _job_with([retired, (0.5, 1.0, 1.0, 5.0)])
    panels = job.split(tol=2e-10, budget=10 ** 6, min_width=1e-14)
    assert panels == [(_IDENTITY, 1.0, 0.5, 0.75), (_IDENTITY, 1.0, 0.75, 1.0)]
    assert job.frozen_error == 1e-9
    # with an open error of 0.5 no value within reach can meet it
    job = _job_with([retired, (0.5, 1.0, 1.0, 0.5)])
    with pytest.raises(QuadratureError, match="no convergence possible"):
        job.split(tol=2e-10, budget=10 ** 6, min_width=1e-14)
