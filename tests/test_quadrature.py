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
from nlbranch.numerics.quadrature import integrate_truncated


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
