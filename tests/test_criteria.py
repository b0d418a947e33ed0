import math

import numpy as np
import pytest

from nlbranch.cli import CRITICAL_FAMILIES
from nlbranch.config import parse_config_text
from nlbranch.criteria import (
    BoundaryReport,
    InfinityBehavior,
    Verdict,
    apply_generator,
    classify,
    generator_values,
    h_rho,
    k_integral_bounds,
    ln_test_function,
    nested_jump_moment,
    phi,
    phi_by_quadrature,
    phi_with_scale,
    stable_k_integral,
    stable_k_integrals,
)
from nlbranch.criteria import _LARGE_U_GRID as LARGE_U_GRID
from nlbranch.criteria import _SMALL_U_GRID as SMALL_U_GRID
from nlbranch.model import FiniteMeasure, ModelSpec, PowerLaw, StableMeasure, Tabulated, validate
from nlbranch.numerics import gamma
from oracles import k_rho, linear_test_function, log_power_test_function


def make_model(b0=1.0, r0=1.0, b1=0.0, r1=0.0, b2=0.0, r2=0.0,
               b3=0.0, r3=0.0, alpha=1.5, u_max=None, atoms=()):
    return validate(ModelSpec(
        a0=PowerLaw(b0, r0), a1=PowerLaw(b1, r1),
        a2=PowerLaw(b2, r2), a3=PowerLaw(b3, r3),
        mu=StableMeasure(alpha=alpha, u_max=u_max),
        nu=FiniteMeasure(tuple(atoms)),
    ))


GBM_CRITICAL, JUMP_CRITICAL, MIXED_CRITICAL = CRITICAL_FAMILIES.values()

CUT_WITH_ATOMS = dict(b0=1.0, r0=1.0, b1=0.5, r1=2.0, b2=0.5, r2=1.5,
                      b3=0.7, r3=1.0, u_max=5.0,
                      atoms=((8.0, 0.5), (12.0, 0.3), (20.0, 0.2)))


def _tabulated_drift_model():
    # tabulated drift b0 u on [0.01, 100], clamped outside
    tab = Tabulated(tuple((u, 1.0 * u) for u in np.logspace(-2, 2, 41)))
    return validate(ModelSpec(a0=tab, a1=PowerLaw(0.0, 0.0),
                              a2=PowerLaw(0.0, 0.0), a3=PowerLaw(0.0, 0.0),
                              mu=StableMeasure(1.5)))


def _mixed_sign_model():
    # drift table falling then rising, with diffusion 2 u^2
    knots = ((0.001, 5.0), (0.01, 0.5), (1.0, 0.1), (10.0, 200.0))
    return validate(ModelSpec(a0=Tabulated(knots), a1=PowerLaw(2.0, 2.0),
                              a2=PowerLaw(0.0, 0.0), a3=PowerLaw(0.0, 0.0),
                              mu=StableMeasure(1.5)))


def _segment_at_zero_model():
    # knots at u <= 0: near zero a0 = 1 + u and a1 = 2 u, so phi is
    # -1/u - 1 + 1/u = -1 there, the u^-1 terms cancelling exactly
    a0 = Tabulated(((-1.0, 0.0), (1.0, 2.0), (4.0, 2.0)))
    a1 = Tabulated(((0.0, 0.0), (1.0, 2.0)))
    return validate(ModelSpec(a0=a0, a1=a1, a2=PowerLaw(0.0, 0.0),
                              a3=PowerLaw(0.0, 0.0), mu=StableMeasure(1.5)))


def _tabulated_jump_model(u_max=None):
    # tabulated drift near u on [1e-3, 1e8] with a critical-order jump
    # rate
    tab = Tabulated(tuple((u, u * (1.0 + 0.05 * math.sin(i)))
                          for i, u in enumerate(np.logspace(-3, 8, 12))))
    return validate(ModelSpec(
        a0=tab, a1=PowerLaw(0.0, 0.0), a2=PowerLaw(1.0 / gamma(1.5), 1.5),
        a3=PowerLaw(0.0, 0.0), mu=StableMeasure(1.5, u_max=u_max)))


def _segment_at_zero_cut_model():
    # a2 = 1 + u and a3 = 1 + u near zero, times the series of the cut
    # support's jump moment and of the atoms
    a2 = Tabulated(((-1.0, 0.0), (1.0, 2.0), (50.0, 2.0)))
    a3 = Tabulated(((0.0, 1.0), (2.0, 3.0)))
    return validate(ModelSpec(a0=PowerLaw(1.0, 1.0), a1=PowerLaw(0.0, 0.0),
                              a2=a2, a3=a3, mu=StableMeasure(1.5, u_max=5.0),
                              nu=FiniteMeasure(((8.0, 0.5),))))


def _tabulated_diffusion_model():
    # the table of test_model's clamping test as the diffusion rate
    return validate(ModelSpec(a0=PowerLaw(1.0, 1.0),
                              a1=Tabulated(((1.0, 2.0), (10.0, 4.0))),
                              a2=PowerLaw(0.0, 0.0), a3=PowerLaw(0.0, 0.0),
                              mu=StableMeasure(1.5)))


def _tabulated_jump_cut_model():
    return _tabulated_jump_model(5.0)


def _tab_a2_model():
    # a2 vanishes below u = 1, so part of the small grid has no jump term
    tab_a2 = Tabulated(((1e-3, 0.0), (1.0, 0.0), (1e8, 3e11)))
    return validate(ModelSpec(a0=PowerLaw(1.0, 1.0), a1=PowerLaw(0.0, 0.0),
                              a2=tab_a2, a3=PowerLaw(0.5, 0.0),
                              mu=StableMeasure(1.5, u_max=5.0),
                              nu=FiniteMeasure(((9.0, 0.4),))))


def _build(params):
    """A model from make_model's keywords or from a builder above."""
    return params() if callable(params) else make_model(**params)


# ---------------------------------------------------------------------------
# phi


def test_phi_vanishes_on_critical_manifold():
    m = make_model(**GBM_CRITICAL)
    for u in (7.3, 0.01, 1e6):
        v, scale = phi_with_scale(m, u)
        assert abs(v) <= 1e-13 * scale


def test_phi_drift_only_constant():
    m = make_model(b0=1.0, r0=1.0)
    for u in (0.5, 1.0, 123.0):
        assert phi(m, u) == pytest.approx(-1.0, rel=1e-14)


def test_phi_pure_jump_closed_form():
    m = make_model(b0=1e-12, r0=5.0, b2=1.0, r2=1.5, alpha=1.5)
    # at u=4 the b2 term is Gamma(1.5) * 4^0; the tiny drift term is noise
    expect = gamma(1.5) - 1e-12 * 4.0 ** 4
    assert phi(m, 4.0) == pytest.approx(expect, rel=1e-10)


def test_phi_quadrature_route_agrees_with_closed_form():
    models = [make_model(**GBM_CRITICAL),
              make_model(**JUMP_CRITICAL),
              make_model(b0=2.0, r0=0.5, b2=0.7, r2=2.1, alpha=1.2)]
    grid = [1e-4, 0.1, 1.0, 10.0, 1e3, 1e6]
    for m in models:
        for u in grid:
            v_closed, scale = phi_with_scale(m, u)
            v_quad = phi_by_quadrature(m, u, 1e-10)
            assert abs(v_quad - v_closed) <= 1e-8 * max(abs(v_closed), scale)


def test_phi_truncated_support_and_atoms():
    # truncated stable support plus one atom outside it
    m = make_model(b0=1.0, r0=1.0, b2=1.0, r2=1.5, b3=1.0, r3=0.0,
                   u_max=2.0, atoms=[(5.0, 0.3)])
    u = 4.0
    v = phi(m, u)
    # independent check assembled from quadrature route
    v_quad = phi_by_quadrature(m, u)
    _, scale = phi_with_scale(m, u)
    assert abs(v - v_quad) <= 1e-8 * scale
    # atom term alone: a3 w ln(1+z/u)
    drift_only = make_model(b0=1.0, r0=1.0, b3=1.0, r3=0.0,
                            u_max=2.0, atoms=[(5.0, 0.3)])
    expect = -1.0 - 0.3 * math.log1p(5.0 / 4.0)
    assert phi(drift_only, 4.0) == pytest.approx(expect, rel=1e-12)


def test_phi_scale_linearity():
    m1 = make_model(**GBM_CRITICAL)
    m2 = make_model(b0=3.0, r0=1.0, b1=6.0, r1=2.0)
    for u in (0.02, 5.0, 2e4):
        assert phi(m2, u) == pytest.approx(3.0 * phi(m1, u), abs=1e-12 * 3.0)


# ---------------------------------------------------------------------------
# k_rho


def test_k_rho_zero_jump():
    assert k_rho(10.0, 0.0, 1.0) == 0.0


def test_k_rho_closed_point():
    # u = e, z = e^2 - e gives y = 2: f(2) = 1/2 + 2 - 2 = 1/2
    u = math.e
    with pytest.raises(ValueError):
        k_rho(3.0, 1.0, 1.0)
    u = math.exp(1.2)  # need u > 3: use y=2 at a different base
    z = math.exp(2.4) - u
    assert k_rho(u, z, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_k_rho_positive_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(500):
        u = 3.0 + 10.0 ** rng.uniform(-2, 6)
        z = 10.0 ** rng.uniform(-8, 8)
        rho = 10.0 ** rng.uniform(-1, 1)
        v = k_rho(u, z, rho)
        assert v > 0.0


def _k_reference(d, rho):
    """Kernel at d in long double: the binomial series
    sum_{n>=2} C(-rho, n) d^n below 0.1, the direct form above."""
    d, rho = np.longdouble(d), np.longdouble(rho)
    if d >= 0.1:
        return (1 + d) ** -rho + rho * (1 + d) - (rho + 1)
    term, total = np.longdouble(1), np.longdouble(0)
    for n in range(1, 60):
        term *= (-rho - (n - 1)) / n * d
        if n >= 2:
            total += term
    return total


def test_k_rho_matches_long_double_reference():
    # a log grid of d at u = 100, then jumps far beyond u = 10, where at
    # rho = 10 and z = 1e300 expm1(-rho log1p(d)) rounds to -1
    cases = [(100.0, rho, 100.0 * math.expm1(d * math.log(100.0)))
             for rho in (0.5, 1.0, 2.0, 4.0) for d in np.logspace(-9, 1, 201)]
    cases += [(10.0, rho, z) for rho in (4.0, 10.0) for z in (1e30, 1e300)]
    worst = 0.0
    for u, rho, z in cases:
        d = math.log1p(z / u) / math.log(u)  # the d that k_rho sees
        with np.errstate(all="raise"):
            got = k_rho(u, z, rho)
        ref = _k_reference(d, rho)
        worst = max(worst, float(abs((np.longdouble(got) - ref) / ref)))
    assert worst <= 1e-12


def test_k_rho_domain_errors():
    with pytest.raises(ValueError):
        k_rho(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        k_rho(10.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        k_rho(10.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# h_rho and the k-integral sandwich


def test_h_rho_diffusion_only():
    m = make_model(b0=1e-12, r0=0.0, b1=2.0, r1=3.0)
    assert h_rho(m, 100.0, 1.0) == pytest.approx(100.0, rel=1e-12)


def test_h_rho_all_zero():
    m = make_model(b0=1.0, r0=1.0)
    assert h_rho(m, 50.0, 2.0) == 0.0


def test_h_rho_atoms_only():
    m = make_model(b0=1.0, r0=1.0, b3=2.0, r3=0.0,
                   u_max=1.0, atoms=[(3.0, 0.5), (7.0, 0.25)])
    u = 20.0
    expect = 2.0 * (0.5 * k_rho(u, 3.0, 1.0) + 0.25 * k_rho(u, 7.0, 1.0))
    # the truncated stable part contributes nothing here (a2 = 0)
    assert h_rho(m, u, 1.0) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("u", [10.0, 100.0, 1e4])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_k_integral_sandwich(u, rho, alpha):
    m = make_model(b0=1.0, r0=1.0, b2=1.0, r2=0.0, alpha=alpha)
    ki = stable_k_integral(m, u, rho, 1e-10)
    lo, up = k_integral_bounds(u, rho, alpha, m.c_alpha)
    assert lo <= ki <= up


def test_upper_bound_constant_is_sup_of_log_ratio():
    # sup over z > 0 of ln(1+z)/(z ^ sqrt z) equals 1, approached as z -> 0
    z = np.concatenate([np.logspace(-9, 0, 400), np.logspace(0, 6, 400)])
    ratio = np.log1p(z) / np.minimum(z, np.sqrt(z))
    assert ratio.max() <= 1.0 + 1e-12
    assert ratio[0] == pytest.approx(1.0, abs=1e-6)


def test_h_rho_between_bounds_with_pure_jump_model():
    m = make_model(b0=1e-12, r0=0.0, b2=1.0, r2=0.0, alpha=1.5)
    u, rho = 100.0, 1.0
    lo, up = k_integral_bounds(u, rho, 1.5, m.c_alpha)
    v = h_rho(m, u, rho)
    assert lo <= v <= up


# ---------------------------------------------------------------------------
# generator


def test_generator_ln_equals_minus_phi_on_critical_specs():
    for params in (GBM_CRITICAL, JUMP_CRITICAL, MIXED_CRITICAL):
        m = make_model(**params)
        g = ln_test_function()
        for u in (5.0, 100.0, 1e6):
            lg = apply_generator(m, g, u, 1e-10)
            ph = phi(m, u)
            assert abs(lg + ph) <= 1e-8 * (1.0 + abs(ph))


def test_generator_linear_on_drift_spec():
    m = make_model(b0=2.0, r0=1.0)
    g = linear_test_function()
    assert apply_generator(m, g, 5.0) == pytest.approx(10.0, rel=1e-14)


def test_generator_log_power_matches_decomposition():
    # for g = (ln u)^(-rho) the generator decomposes into the drift-index
    # part and the kernel part evaluated separately
    rho = 1.0
    m = make_model(**JUMP_CRITICAL)
    g = log_power_test_function(rho)
    u = 1e3
    lg = apply_generator(m, g, u, 1e-11)
    lnu = math.log(u)
    expected = (rho * lnu ** (-rho - 1.0) * phi(m, u)
                + 0.5 * rho * (rho + 1.0) * lnu ** (-rho - 2.0)
                * float(m.a1(u)) / u ** 2
                + lnu ** -rho * float(m.a2(u)) * stable_k_integral(m, u, rho, 1e-11))
    assert lg == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_test_function_derivative_checks():
    g = log_power_test_function(1.5)
    g.check_derivatives([2.5, 3.5, 10.0, 1e3])
    ln = ln_test_function()
    ln.check_derivatives([0.1, 1.0, 7.0, 1e5])
    bad = ln_test_function()
    bad.g1 = lambda u: 2.0 / u
    with pytest.raises(ValueError):
        bad.check_derivatives([1.0])


# ---------------------------------------------------------------------------
# classification


def verdicts(report: BoundaryReport):
    return (report.no_extinction, report.no_explosion, report.infinity_behavior)


def test_classify_critical_diffusion_stays_infinite():
    rep = classify(make_model(**GBM_CRITICAL))
    assert rep.method == "symbolic"
    assert verdicts(rep) == (Verdict.HOLDS, Verdict.HOLDS,
                             InfinityBehavior.STAYS_INFINITE)


def test_classify_critical_diffusion_comes_down():
    rep = classify(make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0))
    assert verdicts(rep) == (Verdict.HOLDS, Verdict.HOLDS,
                             InfinityBehavior.COMES_DOWN_FROM_INFINITY)


def test_classify_critical_jump_families():
    stay = classify(make_model(**JUMP_CRITICAL))
    assert verdicts(stay) == (Verdict.HOLDS, Verdict.HOLDS,
                              InfinityBehavior.STAYS_INFINITE)
    down = classify(make_model(b0=gamma(1.5), r0=2.0, b2=1.0, r2=2.5,
                               alpha=1.5))
    assert verdicts(down) == (Verdict.HOLDS, Verdict.HOLDS,
                              InfinityBehavior.COMES_DOWN_FROM_INFINITY)


def test_classify_phase_diagram_exact_on_critical_families():
    # 2x2 verdict table over {r1 <= 2, r1 > 2} x {r2 <= alpha, r2 > alpha}
    # plus the exact edge points; never inconclusive
    alpha = 1.5
    g = gamma(alpha)
    cases = []
    for r1, expect_1 in ((1.5, "stay"), (2.0, "stay"), (2.5, "down"), (3.0, "down")):
        cases.append((dict(b0=1.0, r0=r1 - 1.0, b1=2.0, r1=r1), expect_1))
    for r2, expect_2 in ((alpha - 0.2, "stay"), (alpha, "stay"),
                         (alpha + 0.2, "down"), (alpha + 0.5, "down")):
        cases.append((dict(b0=g, r0=r2 - alpha + 1.0, b2=1.0, r2=r2,
                           alpha=alpha), expect_2))
    for params, expect in cases:
        rep = classify(make_model(**params))
        assert rep.infinity_behavior != InfinityBehavior.INCONCLUSIVE
        want = (InfinityBehavior.STAYS_INFINITE if expect == "stay"
                else InfinityBehavior.COMES_DOWN_FROM_INFINITY)
        assert rep.infinity_behavior == want, params
        assert rep.no_extinction == Verdict.HOLDS
        assert rep.no_explosion == Verdict.HOLDS


def test_classify_mixed_critical_edge_point():
    # both fluctuation channels at their edge: still stays infinite
    rep = classify(make_model(**MIXED_CRITICAL))
    assert rep.infinity_behavior == InfinityBehavior.STAYS_INFINITE


def test_classify_drift_only():
    rep = classify(make_model(b0=1.0, r0=1.0))
    # phi < 0 everywhere: no extinction holds, no explosion inconclusive,
    # and the process trivially stays infinite (monotone drift up)
    assert rep.no_extinction == Verdict.HOLDS
    assert rep.no_explosion == Verdict.INCONCLUSIVE
    assert rep.infinity_behavior == InfinityBehavior.STAYS_INFINITE


def test_classify_supercritical_fluctuation():
    # diffusion dominating at infinity with r1 > 2: phi > 0 at infinity,
    # superlogarithmic h: comes down and no explosion
    rep = classify(make_model(b0=1.0, r0=1.0, b1=1.0, r1=4.0))
    assert rep.no_explosion == Verdict.HOLDS
    assert rep.infinity_behavior == InfinityBehavior.COMES_DOWN_FROM_INFINITY


def test_classify_scale_invariance():
    base = classify(make_model(**JUMP_CRITICAL))
    for lam in (1e-6, 13.0, 1e6):
        scaled = classify(make_model(b0=gamma(1.5) * lam, r0=1.0,
                                     b2=lam, r2=1.5, alpha=1.5))
        assert verdicts(scaled) == verdicts(base)


def test_classify_tabulated_exactly():
    # past the table the drift is the last value, below it the first:
    # phi reads -0.01 u^-1 near zero and -100 u^-1 near infinity, and no
    # channel feeds h_rho
    rep = classify(_tabulated_drift_model())
    ev = rep.evidence
    assert rep.method == "symbolic"
    assert verdicts(rep) == (Verdict.HOLDS, Verdict.INCONCLUSIVE,
                             InfinityBehavior.STAYS_INFINITE)
    assert ev["phi_terms"]["near_zero"] == [[-0.01, -1.0, 0]]
    assert ev["phi_terms"]["near_infinity"] == [[-100.0, -1.0, 0]]
    assert ev["h_growth"] is None and ev["rho"] is None
    assert len(ev["phi_small"]) == len(SMALL_U_GRID)
    assert len(ev["phi_large"]) == len(LARGE_U_GRID)


def test_classify_tabulated_mixed_sign_drift_holds():
    # the grid sees phi change sign, but below the first knot a0 is 5, so
    # phi is -5/u + 1 near zero: no extinction holds.  Past the last knot
    # it is -200/u + 1, and the diffusion's h_rho is bounded
    rep = classify(_mixed_sign_model())
    ev = rep.evidence
    signs = [v for _, v in ev["phi_small"]]
    assert min(signs) < 0.0 < max(signs)
    assert ev["phi_terms"]["near_zero"] == [[-5.0, -1.0, 0], [1.0, 0.0, 0]]
    assert verdicts(rep) == (Verdict.HOLDS, Verdict.HOLDS,
                             InfinityBehavior.INCONCLUSIVE)
    assert ev["infinity_gap"] == ("the rules leave a gap: phi > 0 near "
                                  "infinity with h_rho bounded")


def test_classify_tabulated_segment_spanning_zero():
    # a knot at u <= 0 gives the first segment's intercept and slope
    model = _segment_at_zero_model()
    assert model.spec.a0.end_terms() == (((1.0, 0.0), (1.0, 1.0)),
                                         ((2.0, 0.0),))
    assert model.spec.a1.end_terms() == (((2.0, 1.0),), ((2.0, 0.0),))
    rep = classify(model)
    ev = rep.evidence
    assert ev["phi_terms"]["near_zero"] == [[-1.0, 0.0, 0]]
    assert ev["phi_sign_near_zero"] == -1
    for u in SMALL_U_GRID[1:]:
        v, scale = phi_with_scale(model, u)
        assert abs(v + 1.0) <= 1e-12 * scale
    assert verdicts(rep) == (Verdict.HOLDS, Verdict.INCONCLUSIVE,
                             InfinityBehavior.STAYS_INFINITE)
    assert ev["h_growth"] == [-2.0, 0]


def test_classify_rate_zero_at_one_end():
    # tab_a2 is 0 below u = 1 and 3e11 past u = 1e8: the jumps enter
    # phi near infinity and h_rho, but not phi near zero
    model = _tab_a2_model()
    assert model.spec.a2.end_terms() == ((), ((3e11, 0.0),))
    no_jumps = validate(ModelSpec(a0=model.spec.a0, a1=model.spec.a1,
                                  a2=PowerLaw(0.0, 0.0), a3=model.spec.a3,
                                  mu=model.spec.mu, nu=model.spec.nu))
    rep, ref = classify(model), classify(no_jumps)
    terms, ref_terms = rep.evidence["phi_terms"], ref.evidence["phi_terms"]
    assert terms["near_zero"] == ref_terms["near_zero"]
    assert terms["near_infinity"] != ref_terms["near_infinity"]
    # u^(0-2) (ln u)^-2 from the jumps on the cut support and the atoms
    assert rep.evidence["h_growth"] == [-2.0, -2]
    assert verdicts(rep) == (Verdict.HOLDS, Verdict.INCONCLUSIVE,
                             InfinityBehavior.STAYS_INFINITE)


def _cut_grid():
    """(alpha, u_max, r2) of the 27 cut-support models a0 = Gamma(alpha) u,
    a2 = u^r2."""
    return [(alpha, u_max, r2) for alpha in (1.1, 1.5, 1.9)
            for u_max in (0.5, 5.0, 50.0)
            for r2 in (alpha - 0.5, alpha, alpha + 0.5)]


def test_classify_cut_support_models():
    # a power law on a cut support is decided exactly, from the series of
    # phi at both ends and the growth order of h_rho
    repro = make_model(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, u_max=5.0)
    assert classify(repro).infinity_behavior == InfinityBehavior.STAYS_INFINITE
    for alpha, u_max, r2 in _cut_grid():
        rep = classify(make_model(b0=gamma(alpha), r0=1.0, b2=1.0, r2=r2,
                                  alpha=alpha, u_max=u_max))
        ev = rep.evidence
        assert rep.method == "symbolic"
        assert ev["rho"] is None and "quad_evaluations" not in ev
        # near zero Gamma(alpha) u^(r2-alpha) leads below r2 = alpha; at
        # it the drift cancels it and -c u_max^(1-alpha) u^(r2-1) / (alpha-1)
        # leads, above it the drift does
        assert ev["phi_sign_near_zero"] == (1 if r2 < alpha else -1)
        assert rep.no_extinction == (Verdict.HOLDS if r2 >= alpha
                                     else Verdict.INCONCLUSIVE)
        # near infinity phi tends to -Gamma(alpha) + m2/2 u^(r2-2); h_rho
        # grows like u^(r2-2) (ln u)^-2
        assert ev["h_growth"] == [r2 - 2.0, -2]
        m2 = alpha * (alpha - 1.0) / gamma(2.0 - alpha) \
            * u_max ** (2.0 - alpha) / (2.0 - alpha)
        if r2 > 2.0:
            infinity = InfinityBehavior.COMES_DOWN_FROM_INFINITY
        elif r2 == 2.0 and m2 / 2.0 > gamma(alpha):
            infinity = InfinityBehavior.INCONCLUSIVE
            assert ev["infinity_gap"].startswith("the rules leave a gap")
        else:
            infinity = InfinityBehavior.STAYS_INFINITE
        assert rep.infinity_behavior == infinity, (alpha, u_max, r2)
        assert (rep.no_explosion == Verdict.HOLDS) == (r2 > 2.0 or (
            r2 == 2.0 and m2 / 2.0 > gamma(alpha)))


# the models whose quadrature h_rho is read against classify's growth order
# (exponent e, log power p): full-support jumps, jumps with diffusion,
# diffusion alone, cut-support jumps with atoms, steep diffusion, a steep
# cut-support jump rate
H_GROWTH_MODELS = [
    JUMP_CRITICAL, MIXED_CRITICAL, GBM_CRITICAL, CUT_WITH_ATOMS,
    dict(b0=1.0, r0=2.0, b1=2.0, r1=3.0),
    dict(b0=gamma(1.9), r0=1.0, b2=1.0, r2=2.4, alpha=1.9, u_max=5.0),
]


@pytest.mark.parametrize("params", H_GROWTH_MODELS)
def test_h_growth_is_the_order_of_quadrature_h_rho(params):
    # h_rho / (u^e (ln u)^p) settles to a positive constant: finite and
    # positive, and within 5 % from u = 1e10 to u = 1e12 (the full-support
    # jump channel's ratio still drifts like 1/ln u there)
    model = make_model(**params)
    e, p = classify(model).evidence["h_growth"]
    ratios = [h_rho(model, u, 1.0) / (u ** e * math.log(u) ** p)
              for u in (1e10, 1e12)]
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)
    assert abs(ratios[1] / ratios[0] - 1.0) < 0.05


def _moment(model, u):
    import nlbranch.criteria as crit
    return crit._quadratic_jump_moments(model, np.asarray(u, dtype=float))


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_cut_moment_matches_its_series_above_u_max(alpha):
    # sum_(n>=2) (-1)^n m_n / (n u^n), m_n = c u_max^(n-alpha) / (n-alpha),
    # summed from its smallest term
    for u_max in (0.5, 50.0, 1e4):
        m = make_model(b2=1.0, alpha=alpha, u_max=u_max)
        for u in u_max * np.array([2.0, 10.0, 1e3, 1e8]):
            x = u_max / u
            series = 0.0
            for n in range(200, 1, -1):
                series += (-1) ** n * x ** n / (n * (n - alpha))
            series *= m.c_alpha * u_max ** -alpha
            assert abs(_moment(m, [u])[0] - series) <= 1e-12 * series


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5, 1.95])
def test_cut_moment_matches_its_series_below_u_max(alpha):
    # Gamma(alpha) u^-alpha - c u_max^(1-alpha) / ((alpha-1) u)
    # + c u_max^-alpha [1/alpha^2 - ln(x) / alpha
    #                   + sum_(k>=1) (-1)^(k+1) x^k / (k (alpha+k))], x = u/u_max
    for u_max in (0.5, 50.0, 1e4):
        m = make_model(b2=1.0, alpha=alpha, u_max=u_max)
        c = m.c_alpha
        for x in (0.1, 1e-4, 1e-10):
            tail = 0.0
            for k in range(60, 0, -1):
                tail += (-1) ** (k + 1) * x ** k / (k * (alpha + k))
            u = x * u_max
            series = (gamma(alpha) * u ** -alpha
                      - c * u_max ** (1.0 - alpha) / ((alpha - 1.0) * u)
                      + c * u_max ** -alpha * (alpha ** -2 - math.log(x) / alpha
                                               + tail))
            assert abs(_moment(m, [u])[0] - series) <= 1e-12 * series


def test_cut_moment_matches_the_nested_double_integral():
    # below u_max, against the route that integrates both variables
    for alpha, u_max in ((1.1, 5.0), (1.5, 0.5), (1.9, 50.0)):
        m = make_model(b2=1.0, alpha=alpha, u_max=u_max)
        for u in u_max * np.array([1e-4, 0.1, 0.9]):
            ref = nested_jump_moment(m.spec.mu, u, 1e-11)
            assert _moment(m, [u])[0] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("params", [
    CUT_WITH_ATOMS,
    dict(b0=1.0, r0=1.0, b3=1.0, r3=0.0, u_max=2.0, atoms=[(5.0, 0.3)]),
    dict(b0=gamma(1.9), r0=1.0, b2=1.0, r2=2.4, alpha=1.9, u_max=5.0),
    dict(b0=1.0, r0=1.0, b2=1.0, r2=1.5, b3=1.0, r3=0.0, u_max=2.0,
         atoms=[(5.0, 0.3)]),
    _tabulated_drift_model, _mixed_sign_model, _segment_at_zero_model,
    _tabulated_jump_model, _tabulated_jump_cut_model, _tab_a2_model,
    _segment_at_zero_cut_model])
def test_phi_expansions_reproduce_phi(params):
    # the terms the verdicts are read from, summed well inside the range
    # of each series and below the first positive knot or beyond the last,
    # against the closed forms
    import nlbranch.criteria as crit
    m = _build(params)
    (zero, _), (inf, _) = crit._phi_expansions(m, *crit._rate_ends(m))
    knots = [f._xs for f in (m.spec.a0, m.spec.a1, m.spec.a2, m.spec.a3)
             if isinstance(f, Tabulated)]
    support = [] if m.full_support else [m.u_max]
    lowest = min([*support, *(x[x > 0.0][0] for x in knots if x[-1] > 0.0)])
    highest = max([*support, *m.nu_z.tolist(), *(x[-1] for x in knots)])
    for terms, us in ((zero, lowest * np.array([1e-4, 1e-3])),
                      (inf, highest * np.array([1e2, 1e3]))):
        for u in us:
            series = sum(c * u ** e * math.log(u) ** p for c, e, p in terms)
            value, scale = phi_with_scale(m, u)
            assert abs(series - value) <= 1e-12 * scale, (u, series, value)


def test_expansions_leave_out_the_order_after_the_lowest_rate_term():
    # near zero each series times a2 = 1 + u or a3 = 1 + u leaves out
    # u^(_SERIES_TERMS+1) times the rate's u^0; near infinity the atoms'
    # series times a3 = 3 leaves out u^-(_SERIES_TERMS+1)
    import nlbranch.criteria as crit
    m = _segment_at_zero_cut_model()
    (_, zero_cut), (_, inf_cut) = crit._phi_expansions(m, *crit._rate_ends(m))
    assert zero_cut == crit._SERIES_TERMS + 1
    assert inf_cut == -crit._SERIES_TERMS - 1


def test_leading_sign_reads_cancellation_to_every_carried_order():
    import nlbranch.criteria as crit

    def sign(terms, cut, toward_zero):
        return crit._leading_sign(crit._merge_power_terms(terms), cut,
                                  toward_zero)

    cancelling = [(1.0, 0.5, 0), (-1.0, 0.5, 0), (2.0, -1.0, 0), (-2.0, -1.0, 0)]
    # exact terms that cancel: phi vanishes; series terms that cancel down
    # to the first order left out (u^-3): unknown, not a guess
    assert sign(cancelling, None, False) == 0
    assert sign(cancelling, -3.0, False) is None
    # a term ahead of that order decides, one behind it does not
    assert sign([*cancelling, (-0.1, -2.0, 0)], -3.0, False) == -1
    assert sign([*cancelling, (-0.1, -3.5, 0)], -3.0, False) is None
    # near zero ln u < 0 flips a log term, which leads a plain power
    assert sign([(1.0, 0.0, 1), (5.0, 0.0, 0)], 7.0, True) == -1


NO_QUADRATURE_MODELS = {
    "full": JUMP_CRITICAL,
    "cut": dict(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, u_max=5.0),
    "atoms": dict(b0=1.0, r0=1.0, b3=1.0, r3=0.0, u_max=2.0,
                  atoms=[(5.0, 0.3)]),
    "cut+atoms": CUT_WITH_ATOMS,
    "tab-full": _tabulated_jump_model,
    "tab-cut": _tabulated_jump_cut_model,
    "tab-atoms": _tab_a2_model,
}


@pytest.mark.parametrize("name", list(NO_QUADRATURE_MODELS))
def test_power_law_classify_makes_no_quadrature_call(name, monkeypatch):
    import nlbranch.criteria as crit
    from nlbranch.numerics import quadrature

    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature called")

    # every integrate_* routine refines through _run_adaptive
    monkeypatch.setattr(crit, "integrate_jobs", forbidden)
    monkeypatch.setattr(quadrature, "_run_adaptive", forbidden)
    rep = classify(_build(NO_QUADRATURE_MODELS[name]))
    assert rep.method == "symbolic"
    assert rep.evidence["rho"] is None


H, S, D = (Verdict.HOLDS, InfinityBehavior.STAYS_INFINITE,
           InfinityBehavior.COMES_DOWN_FROM_INFINITY)
I = "inconclusive"

# The models of the test suite besides the cut-support grid, each with the
# verdicts the grid path reached on it before classify decided every model
# exactly: None where it read inconclusive.  That path read phi's sign
# and h_rho's trend on the small and large grids.
TEST_MODELS = [
    (GBM_CRITICAL, (H, H, S)), (JUMP_CRITICAL, (H, H, S)),
    (MIXED_CRITICAL, (H, H, S)), (CUT_WITH_ATOMS, (H, None, S)),
    (dict(b0=1e-12, r0=5.0, b2=1.0, r2=1.5), (None, None, None)),
    (dict(b0=2.0, r0=0.5, b2=0.7, r2=2.1, alpha=1.2), (H, H, D)),
    (dict(b0=1.0, r0=1.0, b2=1.0, r2=1.5, b3=1.0, r3=0.0, u_max=2.0,
          atoms=[(5.0, 0.3)]), (H, None, S)),
    (dict(b0=1.0, r0=1.0, b3=1.0, r3=0.0, u_max=2.0, atoms=[(5.0, 0.3)]),
     (H, None, S)),
    (dict(b0=3.0, r0=1.0, b1=6.0, r1=2.0), (H, H, S)),
    (dict(b0=1.0, r0=2.0, b1=2.0, r1=3.0), (H, H, D)),
    (dict(b0=gamma(1.5), r0=2.0, b2=1.0, r2=2.5), (H, H, D)),
    (dict(b0=1.0, r0=1.0), (H, None, S)),
    (dict(b0=1.0, r0=1.0, b1=1.0, r1=4.0), (H, H, D)),
    (dict(b0=1.0, r0=0.0), (H, None, S)),
    (dict(b0=1.0, r0=2.0), (H, None, S)),
    (dict(b0=2.0, r0=1.0), (H, None, S)),
    (dict(b0=1.0, r0=1.0, b1=0.5, r1=2.0), (H, None, S)),
    (dict(b0=1e-300, r0=0.0, b3=1.0, r3=0.0, u_max=1.0, atoms=[(5.0, 2.0)]),
     (H, None, S)),
    (dict(b0=1e-6, r0=1.0, b2=1.0, r2=0.0, alpha=1.2), (None, None, None)),
    (dict(b0=1.0, r0=1.0, b1=2.0, r1=2.0, b2=0.5, r2=1.0), (None, H, None)),
    (dict(b0=1e-3, r0=0.0, b2=1.0, r2=0.0, u_max=5.0), (None, None, None)),
    (dict(b0=1e-3, r0=0.0, b3=94_000.0, r3=0.0, u_max=0.05,
          atoms=[(0.1, 1.0), (0.7, 1.5), (1.3, 0.5)]), (H, None, S)),
    (dict(b0=1.0, r0=1.0, b1=0.5, r1=2.0, b2=0.5, r2=1.5, b3=0.3, r3=1.0,
          u_max=5.0, atoms=[(8.0, 0.5), (12.0, 0.3)]), (H, None, S)),
    *[(dict(b0=1.0, r0=r1 - 1.0, b1=2.0, r1=r1), grid)
      for r1, grid in ((1.5, (H, H, S)), (2.5, (H, H, D)), (3.0, (H, H, D)))],
    *[(dict(b0=gamma(1.5), r0=r2 - 0.5, b2=1.0, r2=r2), grid)
      for r2, grid in ((1.3, (H, H, S)), (1.7, (H, H, None)),
                       (2.0, (H, H, None)))],
    (_tabulated_drift_model, (H, None, S)),
    (_mixed_sign_model, (None, None, None)),
    (_tabulated_jump_model, (H, None, None)),
    (_tab_a2_model, (H, None, None)),
    (_tabulated_diffusion_model, (None, None, S)),
]

# the grid path's verdicts on the models of _cut_grid, in its order
CUT_GRID_VERDICTS = [
    *[(None, None, S), (H, None, S), (H, None, S)] * 4,
    (None, None, S), (H, None, S), (H, None, None),
    (None, None, S), (H, None, S), (H, H, None),
    *[(None, None, S), (H, None, S), (H, H, None)] * 3,
]

# Models whose phi changes sign near infinity only past the grid's last
# state, 1e8, with the grid's verdicts and the exact ones.  A drift of
# -1e-300 u^-1 overtakes the jump term only past u = 1e300 (Gamma(alpha)
# u^-alpha on full support, m2 / (2 u^2) past a cut at 1e8): the exact sign
# is -1, the grid read +1.  The drift table of _tabulated_jump_model ends
# at 1e8; past it the clamped -0.95 u^-1 falls below the cut-support
# jump term m2 / (2 Gamma(1.5)) u^-0.5 near u = 1e16: the exact sign is +1,
# the grid read -1.
BEYOND_THE_GRID = [
    (dict(b0=1e-300, r0=0.0, b2=1.0, r2=0.0), (None, H, None), (I, I, S)),
    (dict(b0=1e-300, r0=0.0, b2=1.0, r2=0.0, u_max=1e8), (None, H, None),
     (I, I, S)),
    (_tabulated_jump_cut_model, (H, None, S), (H, H, I)),
]


def test_exact_verdicts_agree_with_the_grid_path_where_it_decides():
    grid = [(dict(b0=gamma(alpha), r0=1.0, b2=1.0, r2=r2, alpha=alpha,
                  u_max=u_max), verdict)
            for (alpha, u_max, r2), verdict in zip(_cut_grid(),
                                                   CUT_GRID_VERDICTS)]
    for params, grid_verdicts in [*TEST_MODELS, *grid]:
        rep = classify(_build(params))
        assert rep.method == "symbolic"
        assert all(g is None or e == g for e, g in
                   zip(verdicts(rep), grid_verdicts)), params
    for params, grid_verdicts, exact in BEYOND_THE_GRID:
        rep = classify(_build(params))
        # phi at the grid's last state has the sign the grid read
        ev = rep.evidence
        assert ev["phi_sign_near_infinity"] * ev["phi_large"][-1][1] < 0.0
        assert verdicts(rep) == exact
        assert any(g is not None and e != g
                   for e, g in zip(exact, grid_verdicts))


def test_classify_report_serializes():
    rep = classify(make_model(**GBM_CRITICAL))
    d = rep.to_dict()
    assert d["infinity_behavior"] == "stays_infinite"
    import json
    json.dumps(d)


def test_h_rho_scale_linearity():
    base = make_model(**JUMP_CRITICAL)
    lam = 37.0
    scaled = make_model(b0=gamma(1.5) * lam, r0=1.0, b2=lam, r2=1.5,
                        alpha=1.5)
    for u, rho in ((10.0, 0.5), (100.0, 1.0), (1e4, 2.0)):
        hv = h_rho(base, u, rho, 1e-10)
        assert h_rho(scaled, u, rho, 1e-10) == pytest.approx(lam * hv,
                                                             rel=1e-9)


# ---------------------------------------------------------------------------
# batched quadrature in the k-integrals

RHO_SCAN = (0.5, 1.0, 2.0, 4.0)


def _h_pairs():
    """The 32 (u, rho) pairs of the large grid and RHO_SCAN."""
    return (list(LARGE_U_GRID) * len(RHO_SCAN),
            [rho for rho in RHO_SCAN for _ in LARGE_U_GRID])


@pytest.mark.parametrize("u_max", [None, 5.0])
def test_classify_batched_values_equal_one_point_calls(u_max):
    # every grid value of classify's evidence, and the k-integrals of 32
    # pairs in one batched run, equal the one-point calls bit for bit
    model = _tabulated_jump_model(u_max)
    ev = classify(model).evidence
    for key, grid in (("phi_small", SMALL_U_GRID), ("phi_large", LARGE_U_GRID)):
        assert ev[key] == [[u, phi_with_scale(model, u)[0]] for u in grid]
    us, rhos = _h_pairs()
    batched = stable_k_integrals(model, us, rhos, 1e-10)
    for u, rho, k in zip(us, rhos, batched):
        assert k == stable_k_integral(model, u, rho, 1e-10)
        assert h_rho(model, u, rho, 1e-10) == float(model.a2(u)) * k


def test_k_integrals_share_integrand_calls(monkeypatch):
    # 32 k-integrals in shared rounds: one kernel call for the envelope
    # stubs and one per round, against about 13 per integral run alone,
    # and together they evaluate the points they evaluate alone; classify
    # calls the kernel not at all
    import nlbranch.criteria as crit
    calls = []
    kernel = crit._k_kernel

    def counted(*args):
        calls.append(args[0].size)
        return kernel(*args)

    monkeypatch.setattr(crit, "_k_kernel", counted)
    model = _tabulated_jump_model()
    classify(model)
    assert calls == []
    us, rhos = _h_pairs()
    stable_k_integrals(model, us, rhos, 1e-10)
    batched = list(calls)
    calls.clear()
    for u, rho in zip(us, rhos):
        stable_k_integral(model, u, rho, 1e-10)
    assert sum(batched) == sum(calls)
    assert len(batched) <= 40 < len(calls)


# ---------------------------------------------------------------------------
# grid evaluation: each rate called once per grid


def _phi_values_per_point(model, us):
    """The drift index one state at a time, each rate called per point."""
    import nlbranch.criteria as crit
    moments = crit._quadratic_jump_moments(model, np.array(us))
    out = []
    for u, moment in zip(us, moments):
        a2 = float(model.a2(u))
        t_drift = -model.a0(u) / u
        t_diff = 0.5 * model.a1(u) / (u * u)
        t_jump = a2 * moment if a2 != 0.0 else 0.0
        t_atoms = 0.0 if model.nu_empty else -float(model.a3(u)) * float(
            (model.nu_w * np.log1p(model.nu_z / u)).sum())
        out.append((float(t_drift + t_diff + t_jump + t_atoms),
                    float(abs(t_drift) + abs(t_diff) + abs(t_jump)
                          + abs(t_atoms))))
    return out


def _h_values_per_point(model, us, rhos, tol):
    """The fluctuation functional one (u, rho) pair at a time."""
    out = []
    for u, rho in zip(us, rhos):
        total = 0.5 * float(model.a1(u)) / (u * u)
        a2 = float(model.a2(u))
        if a2 != 0.0:
            total += a2 * stable_k_integral(model, u, rho, tol)
        if not model.nu_empty:
            total += float(model.a3(u)) * float(
                (model.nu_w * k_rho(u, model.nu_z, rho)).sum())
        out.append(total)
    return out


# the README's run file: a0 = Gamma(alpha) u, a1 = 0, a2 = u^1.5
README_RUN = """
[model]
alpha = 1.5

[model.a0]
type = powerlaw
b = gamma(alpha)
r = 1.0

[model.a2]
type = powerlaw
b = b0/gamma(alpha)
r = 1.5
"""


def _readme_model():
    return parse_config_text(README_RUN).model


def _grid_models():
    # the last three have a zero rate whose term the grid skips: a1 (the
    # README model), a2 (pure diffusion) and a3 (atoms under a zero rate)
    return [make_model(**JUMP_CRITICAL), make_model(**MIXED_CRITICAL),
            _tabulated_jump_model(), _tabulated_jump_cut_model(),
            make_model(**CUT_WITH_ATOMS), _tab_a2_model(), _readme_model(),
            make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0),
            make_model(b0=1.0, r0=1.0, b1=0.5, r1=2.0, u_max=2.0,
                       atoms=[(5.0, 0.3)])]


def test_grid_values_equal_per_point_loops():
    # the grid's values and scales equal a loop over the states, and
    # classify's evidence equals phi_with_scale's values
    import nlbranch.criteria as crit
    us = [*SMALL_U_GRID, *LARGE_U_GRID]
    h_us, h_rhos = _h_pairs()
    for model in _grid_models():
        assert crit._phi_values(model, us) == _phi_values_per_point(model, us)
        ev = classify(model).evidence
        assert [v for _, v in ev["phi_small"] + ev["phi_large"]] \
            == [phi_with_scale(model, u)[0] for u in us]
        assert [h_rho(model, u, rho, 1e-10) for u, rho in zip(h_us, h_rhos)] \
            == _h_values_per_point(model, h_us, h_rhos, 1e-10)


def test_symbolic_classify_calls_each_rate_once(monkeypatch):
    calls = []
    rate = PowerLaw.__call__

    def counted(self, u):
        calls.append(np.size(u))
        return rate(self, u)

    monkeypatch.setattr(PowerLaw, "__call__", counted)
    rep = classify(make_model(**MIXED_CRITICAL))
    rep.evidence
    assert rep.method == "symbolic"
    assert len(calls) <= 4
    assert set(calls) == {len(SMALL_U_GRID) + len(LARGE_U_GRID)}
    # a zero rate is not called: the README model calls a0 and a2 only
    calls.clear()
    classify(_readme_model()).evidence
    assert calls == [len(SMALL_U_GRID) + len(LARGE_U_GRID)] * 2


def _count_rate_calls(monkeypatch):
    """Record (rate, number of states) of every PowerLaw and Tabulated call."""
    calls = []
    for cls in (PowerLaw, Tabulated):
        def counted(self, u, rate=cls.__call__):
            calls.append((id(self), np.size(u)))
            return rate(self, u)
        monkeypatch.setattr(cls, "__call__", counted)
    return calls


def test_classify_alone_calls_no_rate(monkeypatch):
    calls = _count_rate_calls(monkeypatch)
    for model in _grid_models():
        rep = classify(model)
        assert rep.method == "symbolic" and rep.infinity_behavior
    assert calls == []


def test_evidence_is_built_on_its_first_read_only(monkeypatch):
    calls = _count_rate_calls(monkeypatch)
    for model in _grid_models():
        rep = classify(model)
        spec = model.spec
        nonzero = [id(r) for r in (spec.a0, spec.a1, spec.a2, spec.a3)
                   if not r.is_zero]
        calls.clear()
        first = rep.evidence
        assert sorted(calls) == sorted(
            (r, len(SMALL_U_GRID) + len(LARGE_U_GRID)) for r in nonzero)
        calls.clear()
        assert rep.evidence is first and rep.to_dict()["evidence"] is first
        assert calls == []


def test_pickled_report_gives_the_same_dict(monkeypatch):
    # a report pickled before its evidence is read carries the model and
    # builds the evidence after it is restored
    import pickle
    calls = _count_rate_calls(monkeypatch)
    for model in _grid_models():
        calls.clear()
        restored = pickle.loads(pickle.dumps(classify(model)))
        assert calls == []
        assert restored.to_dict() == classify(model).to_dict()
        assert restored == classify(model)


@pytest.mark.parametrize("params", [JUMP_CRITICAL, MIXED_CRITICAL,
                                    CUT_WITH_ATOMS])
def test_generator_values_equal_one_state_calls(params):
    from nlbranch.criteria import TestFunction
    m = make_model(**params)
    us = np.array([0.5, 2.5, 3.0, 3.5, 7.0, 40.0, 1e3, 1e6])
    difference = TestFunction(g=np.sqrt, g1=lambda u: 0.5 / np.sqrt(u),
                              g2=lambda u: -0.25 / (u * np.sqrt(u)))
    for g in (ln_test_function(), linear_test_function(), difference,
              log_power_test_function(1.0)):
        assert generator_values(m, g, us, 1e-8).tolist() \
            == [apply_generator(m, g, u, 1e-8) for u in us]


def test_log_power_jump_delta_is_elementwise():
    # on the pure branch ln u and its power come from scalar math, as in
    # the one-state closed form; below u = 3 the plain difference
    rho = 1.5
    g = log_power_test_function(rho)
    us = np.array([1.0, 2.5, 3.0, 3.5, 10.0, 1e3, 1e6])
    z = np.array([1e-9, 0.3, 2.0, 8.0, 12.0, 1e4])
    deltas = g.jump_delta(us[:, None], z)
    for row, u in zip(deltas, us):
        if u > 3.0:
            lnu = math.log(u)
            ref = lnu ** -rho * np.expm1(-rho * np.log1p(np.log1p(z / u) / lnu))
        else:
            ref = g.g(u + z) - g.g(u)
        assert row.tolist() == ref.tolist()
    assert g.jump_delta(10.0, 2.0) == deltas[4, 2]
