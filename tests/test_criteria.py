import math

import numpy as np
import pytest

from nlbranch.cli import CRITICAL_FAMILIES
from nlbranch.criteria import (
    RHO_SCAN,
    BoundaryReport,
    CriteriaConfig,
    InfinityBehavior,
    Verdict,
    apply_generator,
    classify,
    generator_values,
    h_rho,
    k_integral_bounds,
    k_rho,
    linear_test_function,
    ln_test_function,
    log_power_test_function,
    nested_jump_moment,
    phi,
    phi_by_quadrature,
    phi_with_scale,
    stable_k_integral,
)
from nlbranch.model import FiniteMeasure, ModelSpec, PowerLaw, StableMeasure, Tabulated, validate
from nlbranch.numerics import gamma
from nlbranch.numerics.quadrature import QuadTally


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


def test_classify_numeric_path_tabulated():
    # tabulated drift approximating b0 u on [0.01, 100], clamped outside:
    # the grid heuristic must not overreach; verdicts carry evidence
    tab = Tabulated(tuple((u, 1.0 * u) for u in np.logspace(-2, 2, 41)))
    spec = ModelSpec(a0=tab, a1=PowerLaw(0.0, 0.0), a2=PowerLaw(0.0, 0.0),
                     a3=PowerLaw(0.0, 0.0), mu=StableMeasure(1.5))
    rep = classify(validate(spec))
    assert rep.method == "numeric"
    assert rep.no_extinction == Verdict.HOLDS     # phi < 0 on the small grid
    assert "phi_small" in rep.evidence and "h_large" in rep.evidence
    assert len(rep.evidence["phi_large"]) == len(CriteriaConfig().large_u_grid)


def test_classify_numeric_mixed_sign_is_inconclusive():
    # drift table rising then falling produces a mixed phi sign on the
    # small grid: extinction verdict must downgrade
    knots = ((0.001, 5.0), (0.01, 0.5), (1.0, 0.1), (10.0, 200.0))
    spec = ModelSpec(a0=Tabulated(knots), a1=PowerLaw(2.0, 2.0),
                     a2=PowerLaw(0.0, 0.0), a3=PowerLaw(0.0, 0.0),
                     mu=StableMeasure(1.5))
    rep = classify(validate(spec))
    assert rep.method == "numeric"
    signs = [v for _, v in rep.evidence["phi_small"]]
    assert min(signs) < 0.0 < max(signs)
    assert rep.no_extinction == Verdict.INCONCLUSIVE


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
         atoms=[(5.0, 0.3)])])
def test_phi_expansions_reproduce_phi(params):
    # the terms the verdicts are read from, summed well inside the range
    # of each series, against the closed forms
    import nlbranch.criteria as crit
    m = make_model(**params)
    (zero, _), (inf, _) = crit._phi_expansions(m, m.power_coefficients())
    lowest, highest = m.u_max, max([m.u_max, *m.nu_z.tolist()])
    for terms, us in ((zero, lowest * np.array([1e-4, 1e-3])),
                      (inf, highest * np.array([1e2, 1e3]))):
        for u in us:
            series = sum(c * u ** e * math.log(u) ** p for c, e, p in terms)
            value, scale = phi_with_scale(m, u)
            assert abs(series - value) <= 1e-12 * scale, (u, series, value)


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
    rep = classify(make_model(**NO_QUADRATURE_MODELS[name]))
    assert rep.method == "symbolic"
    assert rep.evidence["rho"] is None


# the power-law models of the test suite, besides the cut-support grid
TEST_POWER_LAWS = [
    GBM_CRITICAL, JUMP_CRITICAL, MIXED_CRITICAL, CUT_WITH_ATOMS,
    dict(b0=1e-12, r0=5.0, b2=1.0, r2=1.5),
    dict(b0=2.0, r0=0.5, b2=0.7, r2=2.1, alpha=1.2),
    dict(b0=1.0, r0=1.0, b2=1.0, r2=1.5, b3=1.0, r3=0.0, u_max=2.0,
         atoms=[(5.0, 0.3)]),
    dict(b0=1.0, r0=1.0, b3=1.0, r3=0.0, u_max=2.0, atoms=[(5.0, 0.3)]),
    dict(b0=3.0, r0=1.0, b1=6.0, r1=2.0), dict(b0=1.0, r0=2.0, b1=2.0, r1=3.0),
    dict(b0=gamma(1.5), r0=2.0, b2=1.0, r2=2.5), dict(b0=1.0, r0=1.0),
    dict(b0=1.0, r0=1.0, b1=1.0, r1=4.0), dict(b0=1.0, r0=0.0),
    dict(b0=1.0, r0=2.0), dict(b0=2.0, r0=1.0),
    dict(b0=1.0, r0=1.0, b1=0.5, r1=2.0),
    dict(b0=1e-300, r0=0.0, b3=1.0, r3=0.0, u_max=1.0, atoms=[(5.0, 2.0)]),
    dict(b0=1e-6, r0=1.0, b2=1.0, r2=0.0, alpha=1.2),
    dict(b0=1.0, r0=1.0, b1=2.0, r1=2.0, b2=0.5, r2=1.0),
    dict(b0=1e-3, r0=0.0, b2=1.0, r2=0.0, u_max=5.0),
    dict(b0=1e-3, r0=0.0, b3=94_000.0, r3=0.0, u_max=0.05,
         atoms=[(0.1, 1.0), (0.7, 1.5), (1.3, 0.5)]),
    dict(b0=1.0, r0=1.0, b1=0.5, r1=2.0, b2=0.5, r2=1.5, b3=0.3, r3=1.0,
         u_max=5.0, atoms=[(8.0, 0.5), (12.0, 0.3)]),
    *[dict(b0=1.0, r0=r1 - 1.0, b1=2.0, r1=r1) for r1 in (1.5, 2.5, 3.0)],
    *[dict(b0=gamma(1.5), r0=r2 - 0.5, b2=1.0, r2=r2)
      for r2 in (1.3, 1.7, 2.0)],
]

# a drift of -1e-300 u^-1 overtakes the jump term near infinity only past
# u = 1e300 (Gamma(alpha) u^-alpha on full support, m2 / (2 u^2) past a cut
# at 1e8), where no grid reaches: the exact sign there is -1, the grid
# reads +1
BEYOND_THE_GRID = [
    dict(b0=1e-300, r0=0.0, b2=1.0, r2=0.0),
    dict(b0=1e-300, r0=0.0, b2=1.0, r2=0.0, u_max=1e8),
]


def test_exact_verdicts_agree_with_the_grid_path_where_it_decides():
    import nlbranch.criteria as crit
    cfg = CriteriaConfig()
    grid = [dict(b0=gamma(alpha), r0=1.0, b2=1.0, r2=r2, alpha=alpha,
                 u_max=u_max) for alpha, u_max, r2 in _cut_grid()]
    for params in [*TEST_POWER_LAWS, *grid, *BEYOND_THE_GRID]:
        model = make_model(**params)
        exact, numeric = classify(model, cfg), crit._classify_numeric(model, cfg)
        assert exact.method == "symbolic"
        decided = [(e, n) for e, n in zip(verdicts(exact), verdicts(numeric))
                   if n.value != "inconclusive"]
        if params in BEYOND_THE_GRID:
            assert exact.evidence["phi_sign_near_infinity"] == -1
            assert numeric.evidence["phi_sign_near_infinity"] == 1
        else:
            assert all(e == n for e, n in decided), params


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
# batched quadrature in the numeric classifier


def _tabulated_jump_model(u_max=None):
    # tabulated drift near u with a critical-order jump rate: the numeric
    # path, with the k-integrals by quadrature
    tab = Tabulated(tuple((u, u * (1.0 + 0.05 * math.sin(i)))
                          for i, u in enumerate(np.logspace(-3, 8, 12))))
    return validate(ModelSpec(
        a0=tab, a1=PowerLaw(0.0, 0.0), a2=PowerLaw(1.0 / gamma(1.5), 1.5),
        a3=PowerLaw(0.0, 0.0), mu=StableMeasure(1.5, u_max=u_max)))


@pytest.mark.parametrize("u_max", [None, 5.0])
def test_classify_batched_values_equal_one_point_calls(u_max):
    # every grid value and the summed cost of classify's batched runs
    # equal the one-point calls bit for bit
    model = _tabulated_jump_model(u_max)
    cfg = CriteriaConfig()
    ev = classify(model, cfg).evidence
    tally = QuadTally()
    for key, grid in (("phi_small", cfg.small_u_grid),
                      ("phi_large", cfg.large_u_grid)):
        assert ev[key] == [[u, phi_with_scale(model, u)[0]] for u in grid]
    k_tally = QuadTally()
    for rho in RHO_SCAN:
        assert ev["h_large"][str(rho)] == [
            [u, h_rho(model, u, rho, cfg.quad_tol, tally)] for u in cfg.large_u_grid]
        for u, h in ev["h_large"][str(rho)]:
            k = stable_k_integral(model, u, rho, cfg.quad_tol, k_tally)
            assert h == float(model.a2(u)) * k
    assert ev["quad_evaluations"] == tally.evaluations
    assert ev["quad_worst_rel_error"] == tally.worst_rel_error
    if u_max is None:
        assert k_tally.evaluations == tally.evaluations


def test_numeric_classify_shares_integrand_calls(monkeypatch):
    # 32 k-integrals in shared rounds: one kernel call for the envelope
    # stubs and one per round, against about 13 per integral run alone
    import nlbranch.criteria as crit
    calls = []
    kernel = crit._k_kernel

    def counted(*args):
        calls.append(args[0].size)
        return kernel(*args)

    monkeypatch.setattr(crit, "_k_kernel", counted)
    rep = classify(_tabulated_jump_model())
    assert rep.method == "numeric"
    assert sum(calls) == rep.evidence["quad_evaluations"] + 32
    assert len(calls) <= 40


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


def _grid_models():
    # a2 vanishes below u = 1 on the last one, so part of its grid has
    # no jump term
    tab_a2 = Tabulated(((1e-3, 0.0), (1.0, 0.0), (1e8, 3e11)))
    return [make_model(**JUMP_CRITICAL), make_model(**MIXED_CRITICAL),
            _tabulated_jump_model(), _tabulated_jump_model(5.0),
            make_model(**CUT_WITH_ATOMS),
            validate(ModelSpec(a0=PowerLaw(1.0, 1.0), a1=PowerLaw(0.0, 0.0),
                               a2=tab_a2, a3=PowerLaw(0.5, 0.0),
                               mu=StableMeasure(1.5, u_max=5.0),
                               nu=FiniteMeasure(((9.0, 0.4),))))]


def test_grid_values_equal_per_point_loops():
    import nlbranch.criteria as crit
    cfg = CriteriaConfig()
    us = [*cfg.small_u_grid, *cfg.large_u_grid]
    h_us = list(cfg.large_u_grid) * len(RHO_SCAN)
    h_rhos = [rho for rho in RHO_SCAN for _ in cfg.large_u_grid]
    for model in _grid_models():
        assert crit._phi_values(model, us) == _phi_values_per_point(model, us)
        assert crit._h_values(model, h_us, h_rhos, cfg.quad_tol, None) \
            == _h_values_per_point(model, h_us, h_rhos, cfg.quad_tol)


def test_symbolic_classify_calls_each_rate_once(monkeypatch):
    calls = []
    rate = PowerLaw.__call__

    def counted(self, u):
        calls.append(np.size(u))
        return rate(self, u)

    monkeypatch.setattr(PowerLaw, "__call__", counted)
    cfg = CriteriaConfig()
    rep = classify(make_model(**MIXED_CRITICAL), cfg)
    assert rep.method == "symbolic"
    assert len(calls) <= 4
    assert set(calls) == {len(cfg.small_u_grid) + len(cfg.large_u_grid)}


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
