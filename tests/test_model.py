import numpy as np
import pytest

from nlbranch.model import (
    FiniteMeasure,
    ModelSpec,
    PowerLaw,
    StableMeasure,
    Tabulated,
    ValidationError,
    critical_deficit,
    validate,
)
from nlbranch.numerics import gamma


def make_spec(b0=1.0, r0=1.0, b1=0.0, r1=0.0, b2=0.0, r2=0.0,
              b3=0.0, r3=0.0, alpha=1.5, u_max=None, atoms=()):
    return ModelSpec(
        a0=PowerLaw(b0, r0), a1=PowerLaw(b1, r1),
        a2=PowerLaw(b2, r2), a3=PowerLaw(b3, r3),
        mu=StableMeasure(alpha=alpha, u_max=u_max),
        nu=FiniteMeasure(tuple(atoms)),
    )


def test_validate_minimal_spec():
    m = validate(make_spec())
    assert m.full_support and m.nu_empty
    assert m.gamma_alpha == pytest.approx(gamma(1.5), rel=1e-14)
    assert m.c_alpha == pytest.approx(0.4231421876608172, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5, float("nan")])
def test_alpha_out_of_range(alpha):
    with pytest.raises(ValidationError) as exc:
        validate(make_spec(alpha=alpha))
    assert exc.value.code == "alpha_out_of_range"


def test_atom_inside_full_support_rejected():
    with pytest.raises(ValidationError) as exc:
        validate(make_spec(atoms=[(0.5, 1.0)]))
    assert exc.value.code == "atom_inside_support"


def test_atom_inside_cut_support_rejected_and_outside_ok():
    with pytest.raises(ValidationError) as exc:
        validate(make_spec(u_max=2.0, atoms=[(1.5, 1.0)]))
    assert exc.value.code == "atom_inside_support"
    m = validate(make_spec(u_max=2.0, atoms=[(3.0, 0.5), (5.0, 0.25)]))
    assert m.nu_w.sum() == pytest.approx(0.75)


def test_negative_coefficient_and_zero_drift():
    with pytest.raises(ValidationError) as exc:
        validate(make_spec(b1=-1.0))
    assert exc.value.code == "negative_rate_coefficient"
    with pytest.raises(ValidationError) as exc:
        validate(make_spec(b0=0.0))
    assert exc.value.code == "zero_drift_coefficient"


def test_tabulated_validation_and_clamping():
    bad = ModelSpec(
        a0=PowerLaw(1.0, 1.0), a1=Tabulated(((2.0, 1.0), (1.0, 2.0))),
        a2=PowerLaw(0.0, 0.0), a3=PowerLaw(0.0, 0.0),
        mu=StableMeasure(1.5))
    with pytest.raises(ValidationError) as exc:
        validate(bad)
    assert exc.value.code == "unsorted_table"

    tab = Tabulated(((1.0, 2.0), (10.0, 4.0)))
    spec = ModelSpec(a0=PowerLaw(1.0, 1.0), a1=tab, a2=PowerLaw(0.0, 0.0),
                     a3=PowerLaw(0.0, 0.0), mu=StableMeasure(1.5))
    m = validate(spec)
    assert m.a1(0.5) == 2.0          # clamps below the first knot
    assert m.a1(100.0) == 4.0        # clamps above the last knot
    assert m.a1(5.5) == pytest.approx(3.0)


def test_tabulated_evaluates_through_stored_knot_arrays():
    knots = tuple((u, u * (1.0 + 0.1 * np.sin(i)))
                  for i, u in enumerate(np.logspace(-3.0, 8.0, 12)))
    tab = Tabulated(knots)
    u = np.logspace(-4.0, 9.0, 57)
    ref = np.interp(u, np.array([k[0] for k in knots]),
                    np.array([k[1] for k in knots]))
    assert tab(u).tolist() == ref.tolist()
    assert [tab(v) for v in u.tolist()] == ref.tolist()
    assert tab == Tabulated(knots) and hash(tab) == hash(Tabulated(knots))
    with pytest.raises(ValueError):
        tab._xs[0] = 0.0


def test_rates_finite_on_wide_range():
    m = validate(make_spec(b1=2.0, r1=2.0, b2=0.5, r2=1.5))
    u = np.logspace(-12, 12, 100)
    for f in (m.a0, m.a1, m.a2, m.a3):
        vals = f(u)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)


def test_critical_deficit_diffusion_family():
    # b0=1, b1=2, b2=0, r0=1, r1=2: on the critical manifold
    m = validate(make_spec(b0=1.0, r0=1.0, b1=2.0, r1=2.0))
    c = critical_deficit(m)
    assert c.coefficient_deficit == 0.0
    assert c.r1_residual == 0.0
    assert c.r2_residual is None
    assert c.is_critical


def test_critical_deficit_jump_family():
    g = gamma(1.5)
    m = validate(make_spec(b0=g, r0=1.0, b2=1.0, r2=1.5, alpha=1.5))
    c = critical_deficit(m)
    assert abs(c.coefficient_deficit) <= 1e-12 * g
    assert c.r2_residual == 0.0
    assert c.is_critical


def test_critical_deficit_drift_only_not_critical():
    m = validate(make_spec(b0=1.0, r0=1.0))
    c = critical_deficit(m)
    assert c.coefficient_deficit == pytest.approx(1.0)
    assert not c.is_critical
    assert c.r1_residual is None and c.r2_residual is None


def test_critical_deficit_scaling_invariance():
    # multiplying all b's by lam scales the deficit and keeps the verdict
    for lam in (1e-6, 3.7, 1e6):
        base = critical_deficit(validate(make_spec(b0=1.0, r0=1.0, b1=2.0, r1=2.0)))
        scaled = critical_deficit(
            validate(make_spec(b0=lam, r0=1.0, b1=2.0 * lam, r1=2.0)))
        assert scaled.coefficient_deficit == pytest.approx(
            lam * base.coefficient_deficit, abs=1e-12 * lam)
        assert scaled.is_critical == base.is_critical

        off = critical_deficit(
            validate(make_spec(b0=1.3 * lam, r0=1.0, b1=2.0 * lam, r1=2.0)))
        assert not off.is_critical


def test_critical_deficit_requires_power_law_full_support():
    m = validate(make_spec(u_max=5.0))
    with pytest.raises(ValidationError) as exc:
        critical_deficit(m)
    assert exc.value.code == "unsupported_rate_form"


def test_rate_end_terms():
    # (coefficient, exponent) terms near 0 and near infinity, zero terms
    # left out; a table is its first value below its first positive knot
    # unless a knot sits at u <= 0, and its last value past its last knot
    assert PowerLaw(2.0, 1.5).end_terms() == (((2.0, 1.5),), ((2.0, 1.5),))
    assert PowerLaw(0.0, 1.5).end_terms() == ((), ())
    assert Tabulated(((1.0, 2.0), (10.0, 4.0))).end_terms() \
        == (((2.0, 0.0),), ((4.0, 0.0),))
    assert Tabulated(((-2.0, 1.0), (2.0, 3.0), (5.0, 0.0))).end_terms() \
        == (((2.0, 0.0), (0.5, 1.0)), ())
    assert Tabulated(((0.0, 0.0), (4.0, 2.0))).end_terms() \
        == (((0.5, 1.0),), ((2.0, 0.0),))
    assert Tabulated(((-3.0, 1.0), (0.0, 7.0))).end_terms() \
        == (((7.0, 0.0),), ((7.0, 0.0),))
    tab = Tabulated(((-1.0, 3.0), (2.0, 0.0), (5.0, 4.0)))
    (c0, _), (c1, _) = tab.end_terms()[0]
    for u in (1e-6, 0.5, 1.9):
        assert c0 + c1 * u == pytest.approx(float(tab(u)), rel=1e-14,
                                            abs=1e-15)
