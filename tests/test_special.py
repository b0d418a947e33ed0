import math

import numpy as np
import pytest
import scipy.special

from nlbranch.numerics import gamma, x_minus_log1p


def test_gamma_classical_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma(3.0) == pytest.approx(2.0, rel=1e-13)


def test_gamma_against_reference():
    for x in np.linspace(0.05, 3.0, 60):
        assert gamma(x) == pytest.approx(scipy.special.gamma(x), rel=1e-12)


def test_gamma_recurrence_grid():
    # |G(x+1) - x G(x)| / G(x+1) <= 1e-12 on x in {0.1, ..., 1.9}
    for x in np.arange(0.1, 1.95, 0.1):
        lhs = gamma(x + 1.0)
        assert abs(lhs - x * gamma(x)) / lhs <= 1e-12


def test_gamma_domain_errors():
    for bad in (0.0, -1.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gamma(bad)


def test_x_minus_log1p_matches_direct_and_series():
    xs = np.array([1e-12, 1e-8, 1e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.5, 3.0])
    ref = np.array([float(_mp_ref(x)) for x in xs])
    got = x_minus_log1p(xs)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
    assert x_minus_log1p(0.0) == 0.0


def _mp_ref(x):
    # independent route: series summed in exact fractions-of-float for tiny x,
    # direct for large x where no cancellation occurs
    if x > 1e-5:
        import decimal
        decimal.getcontext().prec = 50
        d = decimal.Decimal(x)
        return d - (d + 1).ln()
    total = 0.0
    for k in range(2, 12):
        total += (-1) ** k * x ** k / k
    return total


def _x_minus_log1p_both_branches(x):
    # the earlier form: both branches on every element, then a select
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    xs = np.where(small, x, 0.0)
    series = xs * xs * (1.0 / 2.0 + xs * (-1.0 / 3.0 + xs * (1.0 / 4.0 + xs * (
        -1.0 / 5.0 + xs * (1.0 / 6.0 + xs * (-1.0 / 7.0))))))
    direct = x - np.log1p(np.where(small, 0.0, x))
    return np.where(small, series, direct)


def test_x_minus_log1p_bitwise_equals_both_branch_form():
    edge = np.nextafter(1e-3, [0.0, 1.0])
    xs = np.concatenate([
        [0.0, -0.0, 1e-3, -1e-3], edge, -edge,
        np.geomspace(1e-300, 1e-3, 200), -np.geomspace(1e-300, 1e-3, 200),
        np.linspace(-0.999999, -1e-3, 200), np.geomspace(1e-3, 1e300, 200),
    ])
    got = x_minus_log1p(xs)
    assert got.dtype == float and got.shape == xs.shape
    assert got.tobytes() == _x_minus_log1p_both_branches(xs).tobytes()
    assert x_minus_log1p(xs.reshape(8, -1)).tobytes() == got.tobytes()
    for x in (0.0, 5e-4, -0.5, 7.0):
        assert x_minus_log1p(x) == float(_x_minus_log1p_both_branches(x))
