import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nlbranch.criteria import linear_test_function, ln_test_function
from nlbranch.model import FiniteMeasure, ModelSpec, PowerLaw, StableMeasure, validate
from nlbranch.numerics import RngStream, StreamBundle
from nlbranch.simulator import (
    PathState,
    SimConfig,
    _Engine,
    _generator_values,
    _run_block,
    martingale_residual,
    simulate_until,
    stable_step_params,
    step,
    trace_path,
)
from nlbranch.numerics import gamma


def make_model(b0=1.0, r0=1.0, b1=0.0, r1=0.0, b2=0.0, r2=0.0,
               b3=0.0, r3=0.0, alpha=1.5, u_max=None, atoms=()):
    return validate(ModelSpec(
        a0=PowerLaw(b0, r0), a1=PowerLaw(b1, r1),
        a2=PowerLaw(b2, r2), a3=PowerLaw(b3, r3),
        mu=StableMeasure(alpha=alpha, u_max=u_max),
        nu=FiniteMeasure(tuple(atoms)),
    ))


# ---------------------------------------------------------------------------
# cutoff constants


def test_stable_step_params_closed_form():
    p = stable_step_params(1.5, 0.01)
    assert p.lam_eps == pytest.approx(282.0948, rel=1e-6)
    assert p.m_eps == pytest.approx(8.462844, rel=1e-6)
    assert p.sigma2_eps == pytest.approx(0.08462844, rel=1e-6)


def test_stable_step_params_vanishing_tail():
    # both tail constants decay to zero as the cutoff grows
    p0 = stable_step_params(1.5, 1e2)
    p1 = stable_step_params(1.5, 1e6)
    p2 = stable_step_params(1.5, 1e10)
    assert p0.lam_eps > p1.lam_eps > p2.lam_eps
    assert p0.m_eps > p1.m_eps > p2.m_eps
    assert p2.lam_eps < 1e-14 and p2.m_eps < 1e-4


def test_stable_step_params_pareto_mean_identity():
    # lam * E[jump | jump > eps] = lam * (alpha eps / (alpha-1)) = m
    for alpha in (1.2, 1.5, 1.9):
        for eps in (1e-4, 0.1, 2.0):
            p = stable_step_params(alpha, eps)
            assert p.lam_eps * alpha * eps / (alpha - 1.0) == \
                pytest.approx(p.m_eps, rel=1e-12)


def test_stable_step_params_truncated_support():
    full = stable_step_params(1.5, 0.01)
    trunc = stable_step_params(1.5, 0.01, u_max=10.0)
    assert trunc.lam_eps < full.lam_eps
    assert trunc.m_eps < full.m_eps
    assert trunc.sigma2_eps == full.sigma2_eps
    # cutoff above the support cut leaves no heavy jumps
    none = stable_step_params(1.5, 20.0, u_max=10.0)
    assert none.lam_eps == 0.0 and none.m_eps == 0.0
    assert none.sigma2_eps == pytest.approx(
        0.4231421876608172 * 10.0 ** 0.5 / 0.5, rel=1e-12)


def test_cutoff_terms_per_lane_match_scalar_params():
    from nlbranch.simulator import _cutoff_terms
    c = 0.4231421876608172
    eps = np.array([1e-3, 0.5, 10.0, 20.0])
    lam, m, s2 = _cutoff_terms(1.5, c, eps, 10.0)
    for k, e in enumerate(eps):
        p = stable_step_params(1.5, float(e), u_max=10.0, c_alpha=c)
        assert (lam[k], m[k], s2[k]) == (p.lam_eps, p.m_eps, p.sigma2_eps)


def test_stable_step_params_domain():
    with pytest.raises(ValueError):
        stable_step_params(2.5, 0.01)
    with pytest.raises(ValueError):
        stable_step_params(1.5, -1.0)


# ---------------------------------------------------------------------------
# stepping basics


def test_step_deterministic_drift():
    # a0 = 1 (constant), no noise: Euler gives x + dt exactly
    m = make_model(b0=1.0, r0=0.0)
    cfg = SimConfig(dt=0.1, eps_cut=1e-4, horizon_t=10.0)
    s = step(PathState(t=0.0, x=1.0), m, cfg, RngStream(1))
    assert s.x == pytest.approx(1.1, rel=1e-15)
    assert s.t == pytest.approx(0.1)
    assert not s.frozen


def test_step_absorbs_at_zero_and_freezes():
    m = make_model(b0=1.0, r0=0.0)
    cfg = SimConfig(dt=0.1, eps_cut=1e-4, horizon_t=10.0, floor_zero=2.0)
    s = step(PathState(t=0.0, x=1.0), m, cfg, RngStream(1))
    assert s.absorbed_zero and s.x == 0.0
    with pytest.raises(ValueError):
        step(s, m, cfg, RngStream(1))


def test_compensation_kills_mean_increment():
    # pure compensated stable noise: mean one-step increment is 0
    m = make_model(b0=1e-300, r0=0.0, b2=1.0, r2=0.0, alpha=1.5)
    cfg = SimConfig(dt=0.01, eps_cut=0.01, horizon_t=1e9, cap_b=1e15)
    n = 100_000
    bundle = StreamBundle(7, np.arange(n, dtype=np.uint64))
    from nlbranch.simulator import _Engine
    eng = _Engine(m, cfg)
    x = np.full(n, 10.0)
    idx = np.arange(n)
    x_new, _, dt, _ = eng.advance(x, np.zeros(n), bundle, idx)
    incr = x_new - x
    # per-step increment variance: a2 (sigma2_eps + tail second moment) dt
    p = stable_step_params(1.5, 0.01)
    tail_second = 0.4231421876608172 * 0.01 ** 0.5 / 0.5  # c eps^(2-a)/(a... )
    var = (p.sigma2_eps + tail_second) * 0.01
    se = math.sqrt(var / n)
    assert abs(incr.mean()) <= 4.0 * se + 1e-12


def test_absorbing_states_stay_frozen_in_block_run():
    m = make_model(b0=1.0, r0=2.0)  # explodes
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=10.0, cap_b=1e6,
                    adaptive=True)
    out = _run_block(m, cfg, x0=1.0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(3, np.arange(4, dtype=np.uint64)))
    assert np.all(out["capped"])
    assert np.all(out["x"] >= 1e6)
    assert np.all(~np.isnan(out["capped_at"]))
    # blow-up of dx = x^2 dt from 1: ODE reaches the cap just after t = 1
    assert np.all(out["capped_at"] > 0.9) and np.all(out["capped_at"] < 1.6)


def test_critical_log_martingale_steps_without_drift():
    # a0 = x^2, a1 = 2x^3: the Ito drift of ln X vanishes, so each step
    # is exactly ln x' = ln x + sqrt(a1 dt / x^2) N1 with the lane's
    # first normal, at any state up to the cap (a1 itself overflows
    # above about 5.6e102)
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=1.0, adaptive=True)
    from nlbranch.simulator import _Engine
    eng = _Engine(m, cfg, levels=(10.0, np.inf))
    n = 1000
    for x0 in (1e6, 1e200):
        x = np.full(n, x0)
        with np.errstate(all="raise"):
            x_new, _, dt, _ = eng.advance(
                x, np.zeros(n), StreamBundle(5, np.arange(n, dtype=np.uint64)),
                np.arange(n))
        n1 = StreamBundle(5, np.arange(n, dtype=np.uint64)).normals()
        assert np.all(dt > 0.0)
        assert np.allclose(np.log(x_new / x), np.sqrt(2.0 * x0 * dt) * n1,
                           rtol=1e-9, atol=1e-12)


def test_steps_near_a_far_cap_neither_stall_nor_explode():
    # from 1e250 toward a cap at 1e300 the adaptive dt falls far below
    # 1e-15, yet every lane ends at a or at the cap within the step
    # budget, in the proportion of the driftless scale-function law
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=1.0, adaptive=True,
                    step_budget=10_000)
    n, x0, a = 200, 1e250, 10.0
    out = _run_block(m, cfg, x0=x0, a=a, b=np.inf,
                     bundle=StreamBundle(8, np.arange(n, dtype=np.uint64)))
    assert np.all(out["capped"] | ~np.isnan(out["tau_a"]))
    assert np.all(out["x"][out["capped"]] >= 1e300)
    p_cap = math.log(x0 / a) / math.log(1e300 / a)
    se = math.sqrt(p_cap * (1.0 - p_cap) / n)
    assert abs(out["capped"].mean() - p_cap) <= 4.0 * se


def test_simulate_until_drift_only_upward():
    m = make_model(b0=1.0, r0=1.0)  # dx = x dt: x(t) = e^t
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=3.0)
    rec = simulate_until(m, cfg, x0=10.0, a=5.0, b=100.0, rng=RngStream(11))
    assert rec.tau_a_minus is None
    assert rec.tau_b_plus == pytest.approx(math.log(10.0), abs=0.01)
    assert rec.final.x > 100.0


def test_simulate_until_precondition():
    m = make_model()
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=1.0)
    with pytest.raises(ValueError):
        simulate_until(m, cfg, x0=1.0, a=2.0, b=10.0, rng=RngStream(0))


def test_trace_path_thinned_and_deterministic():
    m = make_model(b0=1.0, r0=1.0, b1=0.5, r1=2.0)
    cfg = SimConfig(dt=1e-4, eps_cut=1e-4, horizon_t=2.0)
    t1, x1 = trace_path(m, cfg, 1.0, RngStream(42, stream_id=0), max_points=500)
    t2, x2 = trace_path(m, cfg, 1.0, RngStream(42, stream_id=0), max_points=500)
    assert len(t1) <= 501
    assert np.array_equal(t1, t2) and np.array_equal(x1, x2)
    assert t1[0] == 0.0 and x1[0] == 1.0


def test_atom_jumps_only():
    # deterministic drift plus rare upward atoms: counts match Poisson rate
    m = make_model(b0=1e-300, r0=0.0, b3=1.0, r3=0.0,
                   u_max=1.0, atoms=[(5.0, 2.0)])
    cfg = SimConfig(dt=0.01, eps_cut=2.0, horizon_t=10.0)
    n = 2000
    out = _run_block(m, cfg, x0=1.0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(17, np.arange(n, dtype=np.uint64)))
    # each atom adds exactly 5; total added mass / 5 / T estimates rate 2.0
    jumps_per_path = (out["x"] - 1.0) / 5.0
    rate = jumps_per_path.mean() / 10.0
    assert rate == pytest.approx(2.0, rel=0.05)


def test_adaptive_stable_steps_keep_the_scale_target():
    # full support: the stable step enters x linearly, so its scale over
    # x, (a2 dt)^(1/alpha)/x, keeps the near-level target 0.14 even far
    # from every level; on the driftless jump-critical model at a coarse
    # dt no path then reaches zero (0.6 of them did under the far-level
    # target d/10)
    m = make_model(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, alpha=1.5)
    cfg = SimConfig(dt=1.0, eps_cut=0.05, horizon_t=10.0, adaptive=True)
    from nlbranch.simulator import _Engine
    x = np.array([1e-3, 1.0, 1e3, 1e100])
    _, _, dt, _ = _Engine(m, cfg).advance(
        x, np.zeros(4), StreamBundle(1, np.arange(4, dtype=np.uint64)),
        np.arange(4))
    assert np.allclose((x ** 1.5 * dt) ** (1.0 / 1.5) / x, 0.14, rtol=1e-12)
    out = _run_block(m, cfg, x0=1.0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(18, np.arange(2000, dtype=np.uint64)))
    assert not np.any(out["absorbed"])


# ---------------------------------------------------------------------------
# one-step distribution vs an independent stable sampler


def cms_one_sided_stable(alpha: float, n: int, rng: np.random.Generator):
    """Independent oracle: spectrally positive stable increments with
    Laplace transform exp(s**alpha), by the classical trigonometric
    construction from a uniform angle and an exponential clock."""
    B = math.atan(math.tan(math.pi * alpha / 2.0)) / alpha
    S = (1.0 + math.tan(math.pi * alpha / 2.0) ** 2) ** (1.0 / (2.0 * alpha))
    V = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    W = rng.exponential(1.0, n)
    X = (S * np.sin(alpha * (V + B)) / np.cos(V) ** (1.0 / alpha)
         * (np.cos(V - alpha * (V + B)) / W) ** ((1.0 - alpha) / alpha))
    sigma = abs(math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)
    return sigma * X


def test_cms_oracle_matches_laplace_transform():
    # the oracle, and the engine's own sampler out to the ends of (1, 2)
    from nlbranch.simulator import _stable_unit
    rng = np.random.default_rng(123)
    bundle = StreamBundle(123, np.arange(200_000, dtype=np.uint64))
    u1, u2 = bundle.uniforms(), bundle.uniforms()
    draws = [(a, cms_one_sided_stable(a, 200_000, rng))
             for a in (1.3, 1.5, 1.8)]
    draws += [(a, _stable_unit(a, u1, u2)) for a in (1.01, 1.5, 1.99)]
    for alpha, x in draws:
        for s in (0.3, 0.7):
            emp = float(np.mean(np.exp(-s * x)))
            ref = math.exp(s ** alpha)
            assert emp == pytest.approx(ref, rel=0.02)
    # finite at the extreme uniforms the streams can return
    u = np.array([2.0 ** -54, 0.5, 1.0 - 2.0 ** -53])
    with np.errstate(all="raise"):
        for alpha in (1.01, 1.5, 1.99):
            assert np.all(np.isfinite(_stable_unit(alpha, u[:, None], u)))


def test_one_step_increments_match_cms_oracle():
    # a2 = 1, dt = 1: compensated one-step increments vs the independent
    # sampler, two-sample KS <= 0.02 at n = 1e4.  The support is cut at
    # 1e8, far beyond any bulk draw, so this runs the cutoff scheme (the
    # acceptance suite checks the exact full-support draw).
    alpha = 1.5
    m = make_model(b0=1e-300, r0=0.0, b2=1.0, r2=0.0, alpha=alpha,
                   u_max=1e8)
    cfg = SimConfig(dt=1.0, eps_cut=1e-3, horizon_t=2.0, cap_b=1e300)
    n = 10_000
    bundle = StreamBundle(2718, np.arange(n, dtype=np.uint64))
    from nlbranch.simulator import _Engine
    eng = _Engine(m, cfg)
    x0 = 1e6  # far from the floor so no clamping distorts the law
    x_new, _, _, _ = eng.advance(np.full(n, x0), np.zeros(n), bundle,
                                 np.arange(n))
    increments = x_new - x0
    oracle = cms_one_sided_stable(alpha, n, np.random.default_rng(999))
    stat = ks_2samp(increments, oracle).statistic
    assert stat <= 0.02


# ---------------------------------------------------------------------------
# martingale residuals


def test_martingale_residual_constant_function():
    from nlbranch.criteria import TestFunction
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=2.0)
    const = TestFunction(g=lambda u: np.full_like(np.asarray(u, float), 3.0),
                         g1=lambda u: np.zeros_like(np.asarray(u, float)),
                         g2=lambda u: np.zeros_like(np.asarray(u, float)))
    out = martingale_residual(m, cfg, const, x0=10.0, t=1.0, a=1.0, b=1e4,
                              n_paths=200, seed=5)
    assert out["residual"] == 0.0


def test_martingale_residual_linear_drift_only():
    # g(u) = u on dx = 2x dt: deterministic, residual is pure O(dt) bias
    m = make_model(b0=2.0, r0=1.0)
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=2.0)
    out = martingale_residual(m, cfg, linear_test_function(), x0=1.0, t=1.0,
                              a=0.1, b=1e6, n_paths=100, seed=5)
    assert out["stderr"] == pytest.approx(0.0, abs=1e-12)
    assert abs(out["residual"]) <= 0.02  # e^2 * O(dt)


def test_martingale_residual_log_on_critical_diffusion():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=2.0)
    out = martingale_residual(m, cfg, ln_test_function(), x0=10.0, t=1.0,
                              a=1.0, b=1e4, n_paths=4000, seed=21)
    assert abs(out["residual"]) <= 3.0 * out["stderr"] + 0.01


@pytest.mark.slow
def test_martingale_residual_log_on_jump_critical():
    # relative cutoff at 20% keeps the per-step jump budget small without
    # adaptive stepping, so the per-step generator quadratures stay cheap
    m = make_model(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, alpha=1.5)
    cfg = SimConfig(dt=5e-3, eps_cut=0.2, horizon_t=1.0, eps_rule="relative")
    out = martingale_residual(m, cfg, ln_test_function(), x0=10.0, t=0.3,
                              a=1.0, b=1e4, n_paths=200, seed=9,
                              quad_tol=1e-7)
    assert abs(out["residual"]) <= 3.0 * out["stderr"] + 0.02


def test_paths_stay_nonnegative_with_heavy_compensation():
    # compensation drift pushes down between jumps; states must clamp at
    # zero and freeze rather than go negative
    m = make_model(b0=1e-6, r0=1.0, b2=1.0, r2=0.0, alpha=1.2)
    cfg = SimConfig(dt=0.05, eps_cut=0.5, horizon_t=5.0)
    n = 500
    out = _run_block(m, cfg, x0=0.05, a=-1.0, b=np.inf,
                     bundle=StreamBundle(23, np.arange(n, dtype=np.uint64)))
    assert np.all(out["x"] >= 0.0)
    assert np.any(out["absorbed"])  # this setup does absorb some paths
    assert np.all(out["x"][out["absorbed"]] == 0.0)
    assert np.all(out["tau_zero"][out["absorbed"]] <= 5.0)


def test_block_run_equals_independent_single_paths():
    # lane i of a block run is bit-identical to a standalone run that
    # owns stream i: results cannot depend on batching
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0, b2=0.5, r2=1.0)
    cfg = SimConfig(dt=5e-3, eps_cut=0.05, horizon_t=0.5)
    block = _run_block(m, cfg, x0=10.0, a=1.0, b=1e6,
                       bundle=StreamBundle(314, np.arange(8, dtype=np.uint64)))
    for i in range(8):
        rec = simulate_until(m, cfg, x0=10.0, a=1.0, b=1e6,
                             rng=RngStream(314, stream_id=i))
        assert rec.final.x == block["x"][i]
        assert rec.final.t == block["t"][i]
        tau = block["tau_a"][i]
        assert (rec.tau_a_minus is None) == bool(np.isnan(tau))
        if rec.tau_a_minus is not None:
            assert rec.tau_a_minus == tau


def _reference_lane(m, cfg, x0, a, b, seed, i, horizon=None, g=None):
    """Lane i alone, stepped by the engine on its own RngStream until its
    first event or the step budget: the plain loop a block run must
    reproduce.  Returns the lane's outputs, its stream counter and its
    step count."""
    h = cfg.horizon_t if horizon is None else horizon
    eng = _Engine(m, replace(cfg, horizon_t=h), levels=(a, b))
    rng = RngStream(seed, stream_id=i)
    x, t = np.array([float(x0)]), np.zeros(1)
    lg_integral = np.zeros(1)
    nan = float("nan")
    lane = dict(tau_a=nan, tau_b=nan, tau_zero=nan, capped_at=nan,
                absorbed=False, capped=False, unfinished=True)
    steps = 0
    while steps < cfg.step_budget:
        steps += 1
        if g is not None:
            lg = _generator_values(m, g, x, 1e-8)
        x, t, dt, hit = eng.advance(x, t, rng.bundle, np.array([0]))
        if g is not None:
            lg_integral = lg_integral + lg * dt
        xv, tv = float(x[0]), float(t[0])
        absorbed = xv <= cfg.floor_zero
        if absorbed:
            xv, x = 0.0, np.zeros(1)
        capped = xv >= cfg.cap_b
        events = dict(tau_a=xv < a, tau_b=xv > b, tau_zero=absorbed,
                      capped_at=capped)
        if any(events.values()) or hit[0]:
            lane.update({k: tv for k, v in events.items() if v})
            lane.update(absorbed=absorbed, capped=capped, unfinished=False)
            break
    lane.update(x=x[0], t=t[0], lg_integral=lg_integral[0])
    return lane, rng.counter, steps


def _assert_lanes_match_single_runs(m, cfg, x0, a, b, n, seed, **kwargs):
    """Every lane of a block run, its final stream counter included,
    equals the reference loop on its own stream; returns the block and
    the lanes' step counts."""
    bundle = StreamBundle(seed, np.arange(n, dtype=np.uint64))
    block = _run_block(m, cfg, x0, a, b, bundle, **kwargs)
    counters = bundle.counters()
    steps = []
    for i in range(n):
        lane, counter, k = _reference_lane(m, cfg, x0, a, b, seed, i, **kwargs)
        for key, value in lane.items():
            if key in block:
                np.testing.assert_array_equal(block[key][i], value,
                                              err_msg=f"lane {i} {key}")
        assert counters[i] == counter > 0
        steps.append(k)
    # the live set shrinks as lanes finish: each lane steps only while live
    assert block["lane_steps"] == sum(steps)
    assert block["iterations"] == max(steps)
    return block, steps


def test_ragged_lanes_equal_single_paths_adaptive():
    # c6a-style comes-down model: adaptive steps, lanes finish at crossing
    # or cap at many different iterations
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=1.0, adaptive=True)
    block, steps = _assert_lanes_match_single_runs(m, cfg, 1e6, 10.0, np.inf,
                                                   12, 7)
    assert len(set(steps)) >= 6
    assert not block["unfinished"].any()


@pytest.mark.parametrize("eps_rule", ["absolute", "relative"])
def test_ragged_lanes_equal_single_paths_cut_support_with_atoms(eps_rule):
    m = make_model(b0=1.0, r0=1.0, b1=0.5, r1=2.0, b2=0.5, r2=1.5,
                   b3=0.3, r3=1.0, u_max=5.0, atoms=[(8.0, 0.5), (12.0, 0.3)])
    cfg = SimConfig(dt=1e-2, eps_cut=0.2, horizon_t=1.0, eps_rule=eps_rule)
    block, steps = _assert_lanes_match_single_runs(m, cfg, 3.0, 2.0, 6.0,
                                                   12, 41)
    assert len(set(steps)) >= 8
    assert np.any(~np.isnan(block["tau_a"])) and np.any(~np.isnan(block["tau_b"]))


def test_ragged_lanes_equal_single_paths_cut_by_the_budget():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=1.0, step_budget=50)
    block, steps = _assert_lanes_match_single_runs(m, cfg, 3.0, 1.0, 10.0,
                                                   16, 8)
    assert block["iterations"] == 50
    assert 0 < np.count_nonzero(block["unfinished"]) < 16
    assert np.all(np.isnan(block["tau_a"][block["unfinished"]]))
    assert len(set(steps)) >= 3


def test_ragged_lanes_equal_single_paths_with_generator_integral():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=2.0)
    block, steps = _assert_lanes_match_single_runs(
        m, cfg, 3.0, 1.0, 10.0, 16, 21, horizon=1.0, g=ln_test_function())
    assert len(set(steps)) >= 3
    assert np.all(block["lg_integral"] != 0.0)


def test_engine_counts_steps_and_lane_steps():
    # a fixed-step GBM block with no barrier: every lane runs to t
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=1.0)
    n = 300
    out = _run_block(m, cfg, x0=10.0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(4, np.arange(n, dtype=np.uint64)))
    assert isinstance(out["iterations"], int)
    assert isinstance(out["lane_steps"], int)
    assert out["iterations"] in (100, 101)
    assert out["lane_steps"] == n * out["iterations"]
    cut = _run_block(m, replace(cfg, step_budget=3), x0=10.0, a=-1.0,
                     b=np.inf,
                     bundle=StreamBundle(4, np.arange(n, dtype=np.uint64)))
    assert (cut["iterations"], cut["lane_steps"]) == (3, 3 * n)
    assert cut["unfinished"].all()
