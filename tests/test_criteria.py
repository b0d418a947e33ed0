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
    h_rho,
    k_integral_bounds,
    k_rho,
    linear_test_function,
    ln_test_function,
    log_power_test_function,
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


def test_classify_cut_support_models():
    # a support cut at u_max takes the numeric path; no model of the grid
    # may raise, and the evidence carries the quadrature cost
    tol = CriteriaConfig().quad_tol
    repro = make_model(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, u_max=5.0)
    assert classify(repro).infinity_behavior == InfinityBehavior.STAYS_INFINITE
    for alpha in (1.1, 1.5, 1.9):
        for u_max in (0.5, 5.0, 50.0):
            for r2 in (alpha - 0.5, alpha, alpha + 0.5):
                rep = classify(make_model(b0=gamma(alpha), r0=1.0, b2=1.0,
                                          r2=r2, alpha=alpha, u_max=u_max))
                assert rep.method == "numeric"
                assert rep.no_extinction in set(Verdict)
                assert rep.no_explosion in set(Verdict)
                assert rep.infinity_behavior in set(InfinityBehavior)
                assert rep.evidence["quad_evaluations"] > 0
                assert 0.0 < rep.evidence["quad_worst_rel_error"] <= tol


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
    # path, with the k-integrals (and on a cut support the phi moments)
    # all by quadrature
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
        assert ev[key] == [[u, phi_with_scale(model, u, cfg.quad_tol, tally)[0]]
                           for u in grid]
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
