import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nlbranch.criteria import generator_values, ln_test_function
from nlbranch.model import (
    FiniteMeasure,
    ModelSpec,
    PowerLaw,
    StableMeasure,
    Tabulated,
    ValidationError,
    validate,
)
from nlbranch import simulator
from nlbranch.numerics import StreamBundle
from nlbranch.simulator import (
    SimConfig,
    _cutoff_terms,
    _Engine,
    _jump_sums,
    _run_block,
    _Scaled,
    martingale_residual,
    trace_path,
)
from nlbranch.numerics import gamma
from oracles import cms_one_sided_stable, linear_test_function


def one_lane(seed, stream_id=0):
    """Stream ``stream_id`` of ``seed`` alone, as a one-lane bundle."""
    return StreamBundle(seed, np.array([stream_id], dtype=np.uint64))


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

C15 = StableMeasure(1.5).c_alpha()


def test_cutoff_terms_closed_form():
    m, s2 = _cutoff_terms(1.5, C15, 0.01, None)
    assert m == pytest.approx(8.462844, rel=1e-6)
    assert s2 == pytest.approx(0.08462844, rel=1e-6)


def test_cutoff_terms_vanishing_tail():
    # the tail mean decays to zero as the cutoff grows
    (m0, _), (m1, _), (m2, _) = (
        _cutoff_terms(1.5, C15, eps, None) for eps in (1e2, 1e6, 1e10))
    assert m0 > m1 > m2
    assert m2 < 1e-4


def test_cutoff_terms_truncated_support():
    full = _cutoff_terms(1.5, C15, 0.01, None)
    trunc = _cutoff_terms(1.5, C15, 0.01, 10.0)
    assert trunc[0] < full[0]
    assert trunc[1] == full[1]
    # cutoff above the support cut leaves no heavy jumps
    m, s2 = _cutoff_terms(1.5, C15, 20.0, 10.0)
    assert m == 0.0
    assert s2 == pytest.approx(
        0.4231421876608172 * 10.0 ** 0.5 / 0.5, rel=1e-12)


def test_cutoff_terms_per_lane_match_scalar_params():
    c = 0.4231421876608172
    eps = np.array([1e-3, 0.5, 10.0, 20.0])
    m, s2 = _cutoff_terms(1.5, c, eps, 10.0)
    for k, e in enumerate(eps):
        assert (m[k], s2[k]) == _cutoff_terms(1.5, c, float(e), 10.0)


# ---------------------------------------------------------------------------
# stepping basics


def test_sim_config_rejects_an_infinite_horizon():
    # a run to t = inf would stop only at the step budget
    for horizon in (np.inf, np.nan, 0.0):
        with pytest.raises(ValidationError) as exc:
            SimConfig(horizon_t=horizon)
        assert exc.value.code == "horizon_t"
    assert "finite" in str(exc.value)


def test_step_deterministic_drift():
    # a0 = 1 (constant), no noise: Euler gives x + dt exactly
    m = make_model(b0=1.0, r0=0.0)
    cfg = SimConfig(dt=0.1, horizon_t=10.0)
    x, t, _, hit = _Engine(m, cfg).advance(np.array([1.0]), np.zeros(1),
                                           one_lane(1))
    assert x[0] == pytest.approx(1.1, rel=1e-15)
    assert t[0] == pytest.approx(0.1)
    assert not hit[0]


def test_step_absorbs_at_zero_and_freezes():
    # the first step lands below the floor: the lane is absorbed at 0 and
    # steps no further
    m = make_model(b0=1.0, r0=0.0)
    cfg = SimConfig(dt=0.1, horizon_t=10.0, floor_zero=2.0)
    out = _run_block(m, cfg, x0=1.0, a=-1.0, b=np.inf,
                     bundle=one_lane(1))
    assert out["absorbed"][0] and out["x"][0] == 0.0
    assert out["t"][out["absorbed"]][0] == pytest.approx(0.1)
    assert (out["iterations"], out["lane_steps"]) == (1, 1)


def test_compensation_kills_mean_increment():
    # pure compensated stable noise: mean one-step increment is 0
    m = make_model(b0=1e-300, r0=0.0, b2=1.0, r2=0.0, alpha=1.5)
    cfg = SimConfig(dt=0.01, eps_cut=0.01, horizon_t=1e9, cap_b=1e15)
    n = 100_000
    bundle = StreamBundle(7, np.arange(n, dtype=np.uint64))
    eng = _Engine(m, cfg)
    x = np.full(n, 10.0)
    x_new, _, dt, _ = eng.advance(x, np.zeros(n), bundle)
    incr = x_new - x
    # per-step increment variance: a2 (sigma2_eps + tail second moment) dt
    _, sigma2_eps = _cutoff_terms(1.5, C15, 0.01, None)
    tail_second = 0.4231421876608172 * 0.01 ** 0.5 / 0.5  # c eps^(2-a)/(a... )
    var = (sigma2_eps + tail_second) * 0.01
    se = math.sqrt(var / n)
    assert abs(incr.mean()) <= 4.0 * se + 1e-12


def test_absorbing_states_stay_frozen_in_block_run():
    m = make_model(b0=1.0, r0=2.0)  # explodes
    cfg = SimConfig(dt=1e-3, horizon_t=10.0, cap_b=1e6,
                    adaptive=True)
    out = _run_block(m, cfg, x0=1.0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(3, np.arange(4, dtype=np.uint64)))
    assert np.all(out["capped"])
    assert np.all(out["x"] >= 1e6)
    capped_at = out["t"][out["capped"]]
    assert np.all(~np.isnan(capped_at))
    # blow-up of dx = x^2 dt from 1: ODE reaches the cap just after t = 1
    assert np.all(capped_at > 0.9) and np.all(capped_at < 1.6)


def test_critical_log_martingale_steps_without_drift():
    # a0 = x^2, a1 = 2x^3: the Ito drift of ln X vanishes, so each step
    # is exactly ln x' = ln x + sqrt(a1 dt / x^2) N1 with the lane's
    # first normal, at any state up to the cap (a1 itself overflows
    # above about 5.6e102)
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, horizon_t=1.0, adaptive=True)
    from nlbranch.simulator import _Engine
    eng = _Engine(m, cfg, levels=(10.0, np.inf))
    n = 1000
    for x0 in (1e6, 1e200):
        x = np.full(n, x0)
        with np.errstate(all="raise"):
            x_new, _, dt, _ = eng.advance(
                x, np.zeros(n), StreamBundle(5, np.arange(n, dtype=np.uint64)))
        n1 = StreamBundle(5, np.arange(n, dtype=np.uint64)).normals()
        assert np.all(dt > 0.0)
        assert np.allclose(np.log(x_new / x), np.sqrt(2.0 * x0 * dt) * n1,
                           rtol=1e-9, atol=1e-12)


def test_steps_near_a_far_cap_neither_stall_nor_explode():
    # from 1e250 toward a cap at 1e300 the adaptive dt falls far below
    # 1e-15, yet every lane ends at a or at the cap within the step
    # budget, in the proportion of the driftless scale-function law
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, horizon_t=1.0, adaptive=True,
                    step_budget=10_000)
    n, x0, a = 200, 1e250, 10.0
    out = _run_block(m, cfg, x0=x0, a=a, b=np.inf,
                     bundle=StreamBundle(8, np.arange(n, dtype=np.uint64)))
    assert np.all(out["capped"] | ~np.isnan(out["tau_a"]))
    assert np.all(out["x"][out["capped"]] >= 1e300)
    p_cap = math.log(x0 / a) / math.log(1e300 / a)
    se = math.sqrt(p_cap * (1.0 - p_cap) / n)
    assert abs(out["capped"].mean() - p_cap) <= 4.0 * se


def test_block_run_drift_only_upward():
    m = make_model(b0=1.0, r0=1.0)  # dx = x dt: x(t) = e^t
    cfg = SimConfig(dt=1e-3, horizon_t=3.0)
    out = _run_block(m, cfg, x0=10.0, a=5.0, b=100.0,
                     bundle=one_lane(11))
    assert np.isnan(out["tau_a"][0])
    assert out["tau_b"][0] == pytest.approx(math.log(10.0), abs=0.01)
    assert out["x"][0] > 100.0


def test_trace_path_thinned_and_deterministic():
    m = make_model(b0=1.0, r0=1.0, b1=0.5, r1=2.0)
    cfg = SimConfig(dt=1e-4, horizon_t=2.0)
    t1, x1, cut1 = trace_path(m, cfg, 1.0, 42, max_points=500)
    t2, x2, cut2 = trace_path(m, cfg, 1.0, 42, max_points=500)
    assert not cut1 and not cut2
    assert len(t1) <= 501
    assert np.array_equal(t1, t2) and np.array_equal(x1, x2)
    assert t1[0] == 0.0 and x1[0] == 1.0
    with pytest.raises(ValueError, match="max_points"):
        trace_path(m, cfg, 1.0, 42, max_points=1)


def test_atom_jumps_only():
    # deterministic drift plus rare upward atoms: counts match Poisson rate
    m = make_model(b0=1e-300, r0=0.0, b3=1.0, r3=0.0,
                   u_max=1.0, atoms=[(5.0, 2.0)])
    cfg = SimConfig(dt=0.01, horizon_t=10.0)
    n = 2000
    out = _run_block(m, cfg, x0=1.0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(17, np.arange(n, dtype=np.uint64)))
    # each atom adds exactly 5; total added mass / 5 / T estimates rate 2.0
    jumps_per_path = (out["x"] - 1.0) / 5.0
    rate = jumps_per_path.mean() / 10.0
    assert rate == pytest.approx(2.0, rel=0.05)


def test_adaptive_stable_steps_keep_the_scale_target():
    # the stable step enters x linearly, so its scale over x,
    # (a2 dt)^(1/alpha)/x, keeps the near-level target 0.14 even far from
    # every level; on a cut support it bounds the compensation and the
    # Gaussian stand-in, and no heavy-jump count limit shrinks the step.
    # On the driftless jump-critical model at a coarse dt no path then
    # reaches zero (0.6 of them did under the far-level target d/10)
    cfg = SimConfig(dt=1.0, horizon_t=10.0, adaptive=True)
    x = np.array([1e-3, 1.0, 1e3, 1e100])
    for u_max in (5.0, None):
        m = make_model(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, alpha=1.5,
                       u_max=u_max)
        _, _, dt, _ = _Engine(m, cfg).advance(
            x, np.zeros(4), StreamBundle(1, np.arange(4, dtype=np.uint64)))
        assert np.allclose((x ** 1.5 * dt) ** (1.0 / 1.5) / x, 0.14,
                           rtol=1e-12)
    out = _run_block(m, cfg, x0=1.0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(18, np.arange(2000, dtype=np.uint64)))
    assert not np.any(out["absorbed"])


def test_tabulated_feller_diffusion_reaches_zero_as_its_power_law():
    # a0 = 0.5 x and a1 = x, tabulated and as power laws: below about
    # x = 1.5e-162 x**2 underflows to 0 and a1 / x**2 read inf, which
    # turned 457 of these adaptive lanes into nan.  Scaled in log space
    # there, the tabulated form absorbs as the power law does, with no
    # warning
    tabulated = validate(ModelSpec(
        a0=Tabulated(((0.0, 0.0), (1.0, 0.5), (1e9, 5e8))),
        a1=Tabulated(((0.0, 0.0), (1.0, 1.0), (1e9, 1e9))),
        a2=PowerLaw(0.0, 0.0), a3=PowerLaw(0.0, 0.0),
        mu=StableMeasure(alpha=1.5), nu=FiniteMeasure(())))
    power_law = make_model(b0=0.5, r0=1.0, b1=1.0, r1=1.0)
    n = 2000
    for adaptive in (False, True):
        cfg = SimConfig(dt=1e-2, adaptive=adaptive, step_budget=2_000)
        tab, pw = (_run_block(m, cfg, 0.5, -1.0, np.inf,
                              StreamBundle(1, np.arange(n, dtype=np.uint64)))
                   for m in (tabulated, power_law))
        assert not tab["unfinished"].any() and not np.isnan(tab["x"]).any()
        p, q = (np.count_nonzero(out["absorbed"]) / n for out in (tab, pw))
        assert q > 0.05
        assert abs(p - q) <= 4.0 * math.sqrt((p * (1 - p) + q * (1 - q)) / n)



@pytest.mark.parametrize("k", [0.0, 1.0, 2.0, 1.5])
def test_tabulated_rates_scale_as_their_power_law(k):
    # 0.5 x as one table segment: exp(ln f(x) - k ln x) reads what the
    # power law's 0.5 exp((1 - k) ln x) does, from 1e-300 to 1e300
    x = np.geomspace(1e-300, 1e300, 601)
    table = Tabulated(((0.0, 0.0), (1e300, 5e299)))
    power_law = PowerLaw(0.5, 1.0)
    tab, pw = (_Scaled(x)(f, k) for f in (table, power_law))
    np.testing.assert_allclose(tab, pw, rtol=1e-12, atol=0.0)
    # a rate that is 0 up to x = 1 stays 0 there, with no warning
    rate = _Scaled(x)(Tabulated(((1.0, 0.0), (2.0, 1.0))), k)
    assert np.all(rate[x <= 1.0] == 0.0)

def test_a_state_that_turns_nan_raises(monkeypatch):
    # nan fails every end test: such a lane would run to the step budget
    advance = _Engine.advance
    steps = []

    def nan_in_lane_3_on_step_2(self, x, t, bundle, row=None):
        out = advance(self, x, t, bundle, row)
        steps.append(None)
        if len(steps) == 2:
            out[0][3] = np.nan
        return out

    monkeypatch.setattr(_Engine, "advance", nan_in_lane_3_on_step_2)
    m = make_model(b0=1.0, r0=1.0, b1=1.0, r1=2.5)
    with pytest.raises(FloatingPointError,
                       match=r"lane 3 stepped from x = 10\.\d+ to nan at "
                             r"step 2 \(t = 0\.002"):
        _run_block(m, SimConfig(dt=1e-3), 10.0, 1.0, 100.0,
                   StreamBundle(1, np.arange(8, dtype=np.uint64)))


# ---------------------------------------------------------------------------
# cut support: each step sets its own cutoff


def test_cut_support_step_expects_one_heavy_jump_whatever_eps_knobs_say():
    # the cutoff comes from the step: a Poisson(1) heavy-jump count per
    # lane-step over eleven decades of x, and eps_cut and eps_rule change
    # no bit
    m = make_model(b0=1.0, r0=1.0, b2=1.0, r2=1.5, u_max=5.0)
    n = 20_000
    x = np.geomspace(1e-3, 1e8, n)
    steps = []
    for cfg in (SimConfig(dt=1e-2),
                SimConfig(dt=1e-2, eps_cut=0.5, eps_rule="relative")):
        bundle = StreamBundle(6, np.arange(n, dtype=np.uint64))
        steps.append((_Engine(m, cfg).advance(x, np.zeros(n), bundle)[0],
                      bundle.counters()))
    assert np.array_equal(steps[0][0], steps[1][0])
    assert np.array_equal(steps[0][1], steps[1][1])
    counts = steps[0][1] - 2   # past the small-jump normal and the count
    assert abs(counts.mean() - 1.0) <= 4.0 / math.sqrt(n)


def test_cut_support_steps_are_not_bound_by_the_jump_count():
    # two rows that a limit of 0.01 expected heavy jumps per step held to
    # 175k and about 6k lane-steps per path
    m = make_model(b0=gamma(1.9), r0=1.0, b2=1.0, r2=2.4, alpha=1.9,
                   u_max=5.0)
    cfg = SimConfig(dt=1e-2, horizon_t=1.0, adaptive=True)
    out = _run_block(m, cfg, 100.0, 10.0, np.inf,
                     StreamBundle(3, np.arange(200, dtype=np.uint64)))
    assert out["lane_steps"] <= 5_000 * 200
    assert not out["unfinished"].any()
    m = make_model(b0=1.0, r0=1.0, b1=0.5, r1=2.0, b2=0.5, r2=1.5,
                   b3=0.3, r3=1.0, u_max=5.0, atoms=[(8.0, 0.5), (12.0, 0.3)])
    cfg = SimConfig(dt=1e-2, horizon_t=0.5, adaptive=True)
    out = _run_block(m, cfg, 3.0, 1.0, 20.0,
                     StreamBundle(1, np.arange(300, dtype=np.uint64)))
    assert out["lane_steps"] <= 600 * 300


def test_no_jumps_where_a2_vanishes():
    # a2 = 0 up to x = 5: a lane there takes no heavy jump and no
    # Gaussian stand-in, so it steps as the model without a2 steps it
    spec = ModelSpec(
        a0=PowerLaw(1.0, 1.0), a1=PowerLaw(1.0, 2.0),
        a2=Tabulated(((0.0, 0.0), (5.0, 0.0), (6.0, 3.0), (1e9, 3.0))),
        a3=PowerLaw(0.0, 0.0), mu=StableMeasure(alpha=1.5, u_max=5.0),
        nu=FiniteMeasure(()))
    m, bare = validate(spec), validate(replace(spec, a2=PowerLaw(0.0, 0.0)))
    x = np.array([0.5, 3.0, 5.0])
    for adaptive in (False, True):
        cfg = SimConfig(dt=1e-2, horizon_t=0.5, adaptive=adaptive)
        got, want = (_Engine(model, cfg).advance(
            x, np.zeros(3), StreamBundle(4, np.arange(3, dtype=np.uint64)))
            for model in (m, bare))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[2], want[2])
        out = _run_block(m, cfg, 6.0, 2.0, np.inf,
                         StreamBundle(9, np.arange(500, dtype=np.uint64)))
        assert not out["unfinished"].any()
        assert 0 < np.count_nonzero(~np.isnan(out["tau_a"])) < 500


# P(T_7 <= 1) from x0 = 10 on u_max = 5 with a0 = 0.1 x and a2 = 20 x, at
# fixed dt = 1e-3: (alpha, estimate, SE) of the scheme with an absolute
# cutoff 1e-2 (row A) or 6e-3 (row B), over ten times below the one the
# step sets at x0, pooled over seeds 29-32 of 10,000 paths each
CUT_SUPPORT_ROWS = {"A": (1.5, 0.901225, 0.0014918),
                    "B": (1.2, 0.8411, 0.0018279)}


@pytest.mark.parametrize("row", sorted(CUT_SUPPORT_ROWS))
def test_cut_support_passage_agrees_with_a_finer_fixed_cutoff(row):
    alpha, ref, ref_se = CUT_SUPPORT_ROWS[row]
    m = make_model(b0=0.1, r0=1.0, b2=20.0, r2=1.0, alpha=alpha, u_max=5.0)
    n = 10_000
    out = _run_block(m, SimConfig(dt=1e-3, horizon_t=1.0), 10.0, 7.0, np.inf,
                     StreamBundle(29, np.arange(n, dtype=np.uint64)))
    p = np.count_nonzero(~np.isnan(out["tau_a"])) / n
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(p - ref) <= 4.0 * math.hypot(se, ref_se)


# ---------------------------------------------------------------------------
# atoms: one Poisson count per atom location


# P(T_a <= t) of two atom models at fixed dt = 1e-3, 20,000 paths, read
# with one Poisson count of draws from the normalized nu per step and at
# most 0.01 expected atoms per adaptive step: (model, x0, a, t, seed,
# estimate).  Row A is atom-dense (about 1,000 atoms per unit time at
# x0); row B has every channel.
ATOM_ROWS = {
    "A": (dict(b0=0.1, r0=1.0, b1=1.0, r1=2.0, b3=1.0, r3=1.0, u_max=0.1,
               atoms=[(0.5, 1.0)]), 1e3, 500.0, 0.2, 5, 0.1053),
    "B": (dict(b0=1.0, r0=1.0, b1=0.5, r1=2.0, b2=0.5, r2=1.5, b3=0.3,
               r3=1.0, u_max=5.0, atoms=[(8.0, 0.5), (12.0, 0.3)]),
          3.0, 2.0, 1.0, 7, 0.3799),
}


@pytest.mark.parametrize("row, n", [("A", 10_000), ("B", 4_000)])
def test_atom_passage_agrees_with_a_count_of_draws_from_nu(row, n):
    # Poisson splitting: the per-location counts have the law of one
    # count of draws from nu, and adaptive steps capped at dt = 1e-3 keep
    # the fixed-step figure
    params, x0, a, t, seed, ref = ATOM_ROWS[row]
    cfg = SimConfig(dt=1e-3, horizon_t=t, adaptive=True)
    out = _run_block(make_model(**params), cfg, x0, a, np.inf,
                     StreamBundle(seed, np.arange(n, dtype=np.uint64)))
    p = np.count_nonzero(~np.isnan(out["tau_a"])) / n
    se = math.sqrt(p * (1.0 - p) / n + ref * (1.0 - ref) / 20_000)
    assert abs(p - ref) <= 4.0 * se


def test_atom_steps_are_not_bound_by_the_atom_count():
    # row A at adaptive dt <= 1e-2: 0.01 expected atoms per step held it
    # to about 21,000 lane-steps per path, against 19.5 at fixed dt = 1e-2
    params, x0, a, t, seed, _ = ATOM_ROWS["A"]
    cfg = SimConfig(dt=1e-2, horizon_t=t, adaptive=True)
    out = _run_block(make_model(**params), cfg, x0, a, np.inf,
                     StreamBundle(seed, np.arange(200, dtype=np.uint64)))
    assert out["lane_steps"] <= 1_000 * 200
    assert not out["unfinished"].any()


def test_jump_sums_above_256_jumps_do_not_depend_on_the_block():
    counts = np.array([0, 1, 300, 5])
    bundle = StreamBundle(3, np.arange(4, dtype=np.uint64))
    sums = _jump_sums(bundle, counts, lambda u: -np.log(u))
    assert np.array_equal(bundle.counters(), counts)
    for i in range(4):
        lane = one_lane(3, i)
        alone = _jump_sums(lane, counts[i:i + 1], lambda u: -np.log(u))
        assert alone[0] == sums[i], f"lane {i}"
        assert lane.counters()[0] == counts[i]


# ---------------------------------------------------------------------------
# one-step distribution vs an independent stable sampler


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
    cfg = SimConfig(dt=1.0, horizon_t=2.0, cap_b=1e300)
    n = 10_000
    bundle = StreamBundle(2718, np.arange(n, dtype=np.uint64))
    from nlbranch.simulator import _Engine
    eng = _Engine(m, cfg)
    x0 = 1e6  # far from the floor so no clamping distorts the law
    x_new, _, _, _ = eng.advance(np.full(n, x0), np.zeros(n), bundle)
    increments = x_new - x0
    oracle = cms_one_sided_stable(alpha, n, np.random.default_rng(999))
    stat = ks_2samp(increments, oracle).statistic
    assert stat <= 0.02


# ---------------------------------------------------------------------------
# martingale residuals


def test_martingale_residual_constant_function():
    from nlbranch.criteria import TestFunction
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, horizon_t=2.0)
    const = TestFunction(g=lambda u: np.full_like(np.asarray(u, float), 3.0),
                         g1=lambda u: np.zeros_like(np.asarray(u, float)),
                         g2=lambda u: np.zeros_like(np.asarray(u, float)))
    out = martingale_residual(m, cfg, const, x0=10.0, t=1.0, a=1.0, b=1e4,
                              n_paths=200, seed=5)
    assert out["residual"] == 0.0
    # one path has no standard error
    with pytest.raises(ValueError, match="n_paths"):
        martingale_residual(m, cfg, const, x0=10.0, t=1.0, a=1.0, b=1e4,
                            n_paths=1, seed=5)


def test_martingale_residual_linear_drift_only():
    # g(u) = u on dx = 2x dt: deterministic, residual is pure O(dt) bias
    m = make_model(b0=2.0, r0=1.0)
    cfg = SimConfig(dt=1e-3, horizon_t=2.0)
    out = martingale_residual(m, cfg, linear_test_function(), x0=1.0, t=1.0,
                              a=0.1, b=1e6, n_paths=100, seed=5)
    assert out["stderr"] == pytest.approx(0.0, abs=1e-12)
    assert abs(out["residual"]) <= 0.02  # e^2 * O(dt)


def test_martingale_residual_log_on_critical_diffusion():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-3, horizon_t=2.0)
    out = martingale_residual(m, cfg, ln_test_function(), x0=10.0, t=1.0,
                              a=1.0, b=1e4, n_paths=4000, seed=21)
    assert abs(out["residual"]) <= 3.0 * out["stderr"] + 0.01


@pytest.mark.slow
def test_martingale_residual_log_on_jump_critical():
    # full support: each step takes one exact stable draw; the
    # generator's jump quadrature runs at every state of every step,
    # which quad_tol = 1e-7 keeps cheap
    m = make_model(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5, alpha=1.5)
    cfg = SimConfig(dt=5e-3, horizon_t=1.0)
    out = martingale_residual(m, cfg, ln_test_function(), x0=10.0, t=0.3,
                              a=1.0, b=1e4, n_paths=200, seed=9,
                              quad_tol=1e-7)
    assert abs(out["residual"]) <= 3.0 * out["stderr"] + 0.02


def test_paths_stay_nonnegative_with_heavy_compensation():
    # compensation drift pushes down between jumps; states must clamp at
    # zero and freeze rather than go negative
    m = make_model(b0=1e-6, r0=1.0, b2=1.0, r2=0.0, alpha=1.2)
    cfg = SimConfig(dt=0.05, horizon_t=5.0)
    n = 500
    out = _run_block(m, cfg, x0=0.05, a=-1.0, b=np.inf,
                     bundle=StreamBundle(23, np.arange(n, dtype=np.uint64)))
    assert np.all(out["x"] >= 0.0)
    assert np.any(out["absorbed"])  # this setup does absorb some paths
    assert np.all(out["x"][out["absorbed"]] == 0.0)
    assert np.all(out["t"][out["absorbed"]] <= 5.0)


def _reference_lane(m, cfg, x0, a, b, seed, i, horizon=None, g=None):
    """Lane i alone, stepped by the engine on its own stream until its
    first event or the step budget: the plain loop a block run must
    reproduce.  Returns the lane's outputs, its stream counter and its
    step count."""
    h = cfg.horizon_t if horizon is None else horizon
    eng = _Engine(m, replace(cfg, horizon_t=h), levels=(a, b))
    rng = one_lane(seed, i)
    x, t = np.array([float(x0)]), np.zeros(1)
    lg_integral = np.zeros(1)
    nan = float("nan")
    lane = dict(tau_a=nan, tau_b=nan, absorbed=False, capped=False,
                unfinished=True)
    steps = 0
    while steps < cfg.step_budget:
        steps += 1
        if g is not None:
            lg = generator_values(m, g, x, 1e-8)
        x, t, dt, hit = eng.advance(x, t, rng)
        if g is not None:
            lg_integral = lg_integral + lg * dt
        xv, tv = float(x[0]), float(t[0])
        absorbed = xv <= cfg.floor_zero
        if absorbed:
            xv, x = 0.0, np.zeros(1)
        capped = xv >= cfg.cap_b
        crossed = dict(tau_a=xv < a, tau_b=xv > b)
        if any(crossed.values()) or absorbed or capped or hit[0]:
            lane.update({k: tv for k, v in crossed.items() if v})
            lane.update(absorbed=absorbed, capped=capped, unfinished=False)
            break
    lane.update(x=x[0], t=t[0])
    if g is not None:
        lane.update(lg_integral=lg_integral[0])
    return lane, int(rng.counters()[0]), steps


def _assert_lanes_match_single_runs(m, cfg, x0, a, b, n, seed, horizon=None,
                                    g=None):
    """Every lane of a block run, its final stream counter included,
    equals the reference loop on its own stream; with g, so does the
    generator integral that a step callback adds up at each step's left
    endpoint.  Returns the block and the lanes' step counts."""
    bundle = StreamBundle(seed, np.arange(n, dtype=np.uint64))
    lg_integral = np.zeros(n)

    def integrate(lanes, x_left, x, t, dt):
        lg_integral[lanes] += generator_values(m, g, x_left, 1e-8) * dt

    block = _run_block(m, cfg, x0, a, b, bundle, horizon=horizon,
                       on_step=None if g is None else integrate)
    block["lg_integral"] = lg_integral
    counters = bundle.counters()
    steps = []
    for i in range(n):
        lane, counter, k = _reference_lane(m, cfg, x0, a, b, seed, i,
                                           horizon=horizon, g=g)
        # every output of the reference lane is compared, none skipped
        for key, value in lane.items():
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
    cfg = SimConfig(dt=1e-3, horizon_t=1.0, adaptive=True)
    block, steps = _assert_lanes_match_single_runs(m, cfg, 1e6, 10.0, np.inf,
                                                   12, 7)
    assert len(set(steps)) >= 6
    assert not block["unfinished"].any()


def test_block_run_equals_independent_single_paths():
    # full support: one exact stable draw per lane-step beside the
    # diffusion; results cannot depend on batching
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0, b2=0.5, r2=1.0)
    cfg = SimConfig(dt=5e-3, horizon_t=0.5)
    _assert_lanes_match_single_runs(m, cfg, 10.0, 1.0, 1e6, 8, 314)


@pytest.mark.parametrize("jumps", ["heavy", "atoms"])
def test_lane_jump_sums_do_not_depend_on_the_block(jumps):
    # heavy jumps: a Poisson(1) count per lane-step, which the block sums
    # in lockstep up to its largest count.  Atoms: about 282 per
    # lane-step, drawn as one count per atom location on the lane's next
    # words in location order, so the lane's counts are those of its own
    # stream.  Either way a lane must give the bits it gives alone.
    atoms = [(0.1, 1.0), (0.7, 1.5), (1.3, 0.5)]
    if jumps == "heavy":
        m = make_model(b0=1e-3, r0=0.0, b2=1.0, r2=0.0, u_max=5.0)
    else:
        m = make_model(b0=1e-3, r0=0.0, b3=94_000.0, r3=0.0, u_max=0.05,
                       atoms=atoms)
    cfg = SimConfig(dt=1e-3)
    n = 400
    bundle = StreamBundle(5, np.arange(n, dtype=np.uint64))
    x, _, _, _ = _Engine(m, cfg).advance(np.ones(n), np.zeros(n), bundle)
    counters = bundle.counters()
    if jumps == "heavy":
        counts = counters - 2  # past the small-jump normal and the count
        assert min(counts) == 0 and max(counts) >= 4
    else:
        # one word per location, every rate below one piece's 500
        assert np.all(counters == len(atoms))
        rng = StreamBundle(5, np.arange(n, dtype=np.uint64))
        jump = sum(z * rng.poissons(w * (94_000.0 * 1e-3)) for z, w in atoms)
        assert np.allclose(x, 1.0 + 1e-6 + jump, rtol=1e-12, atol=0.0)
    for i in range(n):
        rng = one_lane(5, i)
        xi, _, _, _ = _Engine(m, cfg).advance(np.ones(1), np.zeros(1), rng)
        assert xi[0] == x[i], f"lane {i}"
        assert rng.counters()[0] == counters[i]


@pytest.mark.parametrize("eps_rule", ["absolute", "relative"])
def test_ragged_lanes_equal_single_paths_cut_support_with_atoms(eps_rule):
    # either accepted eps_rule: the step sets its own cutoff, and a lane
    # gives the same bits in a ragged block as alone
    m = make_model(b0=1.0, r0=1.0, b1=0.5, r1=2.0, b2=0.5, r2=1.5,
                   b3=0.3, r3=1.0, u_max=5.0, atoms=[(8.0, 0.5), (12.0, 0.3)])
    cfg = SimConfig(dt=1e-2, eps_cut=0.2, horizon_t=1.0, eps_rule=eps_rule)
    block, steps = _assert_lanes_match_single_runs(m, cfg, 3.0, 2.0, 6.0,
                                                   12, 41)
    assert len(set(steps)) >= 8
    assert np.any(~np.isnan(block["tau_a"])) and np.any(~np.isnan(block["tau_b"]))


def test_ragged_lanes_equal_single_paths_cut_by_the_budget():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, horizon_t=1.0, step_budget=50)
    block, steps = _assert_lanes_match_single_runs(m, cfg, 3.0, 1.0, 10.0,
                                                   16, 8)
    assert block["iterations"] == 50
    assert 0 < np.count_nonzero(block["unfinished"]) < 16
    assert np.all(np.isnan(block["tau_a"][block["unfinished"]]))
    assert len(set(steps)) >= 3



def test_ragged_lanes_equal_single_paths_ending_every_way():
    # a positive zero floor, a finite b and cap, and a budget: lanes cross
    # a, cross a into the floor, cross b, cross b onto the cap, reach the
    # horizon and are cut off, each at its own adaptive step
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0, b2=0.5, r2=2.5)
    cfg = SimConfig(dt=0.1, horizon_t=0.5, adaptive=True, floor_zero=0.5,
                    cap_b=12.0, step_budget=120)
    block, steps = _assert_lanes_match_single_runs(m, cfg, 3.0, 0.55, 10.0,
                                                   24, 3)
    crossed_a, crossed_b = (~np.isnan(block[k]) for k in ("tau_a", "tau_b"))
    absorbed, capped = block["absorbed"], block["capped"]
    unfinished = block["unfinished"]
    censored = ~(crossed_a | crossed_b | unfinished)
    for ended in (crossed_a & ~absorbed, absorbed, crossed_b & ~capped,
                  capped, censored, unfinished):
        assert ended.any()
    assert np.array_equal(absorbed, crossed_a & (block["x"] == 0.0))
    assert np.all(crossed_b[capped])
    assert len(set(steps)) >= 8

README_MODEL = dict(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5)
MIXED_CRITICAL = dict(b0=0.5 + 0.5 * gamma(1.5), r0=1.0, b1=1.0, r1=2.0,
                      b2=0.5, r2=1.5)

# scale-free fixed-step blocks, which step a whole drawn-ahead buffer at
# once: (model, cfg, x0, a, b, lanes, seed)
SCALE_FREE_BLOCKS = {
    "readme-both-barriers": (README_MODEL, SimConfig(dt=1e-3, horizon_t=0.3),
                             10.0, 9.0, 12.0, 24, 5),
    "mixed-critical": (MIXED_CRITICAL, SimConfig(dt=1e-2, horizon_t=2.0),
                       10.0, 4.0, 25.0, 24, 13),
    "jump-critical-coarse": (README_MODEL, SimConfig(dt=0.5, horizon_t=10.0),
                             1.0, -1.0, np.inf, 40, 18),
    "readme-budget": (README_MODEL, SimConfig(dt=1e-3, step_budget=40),
                      10.0, 9.0, 11.0, 24, 6),
}


@pytest.mark.parametrize("case", SCALE_FREE_BLOCKS)
def test_scale_free_fixed_step_lanes_equal_single_paths(case):
    params, cfg, x0, a, b, n, seed = SCALE_FREE_BLOCKS[case]
    m = make_model(**params)
    assert _Engine(m, cfg).free_rates is not None
    block, steps = _assert_lanes_match_single_runs(m, cfg, x0, a, b, n, seed)
    assert len(set(steps)) >= 4
    if case == "jump-critical-coarse":
        assert 0 < np.count_nonzero(block["absorbed"]) < n
    if case == "readme-budget":
        assert block["iterations"] == 40
        assert 0 < np.count_nonzero(block["unfinished"]) < n
    else:
        assert not block["unfinished"].any()


def test_only_scale_free_fixed_steps_skip_the_per_step_engine(monkeypatch):
    # a README-model block without a callback steps no lane through
    # advance; an adaptive block and a state-dependent one (r1 = 3) still
    # call it once per step
    calls = []
    advance = _Engine.advance

    def counted(self, *args):
        calls.append(1)
        return advance(self, *args)

    monkeypatch.setattr(_Engine, "advance", counted)
    readme = make_model(**README_MODEL)
    fixed = SimConfig(dt=1e-3, horizon_t=0.2)
    for m, cfg, steps in ((readme, fixed, 0),
                          (readme, replace(fixed, adaptive=True), None),
                          (make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0), fixed,
                           None)):
        calls.clear()
        out = _run_block(m, cfg, 10.0, 9.0, 12.0,
                         StreamBundle(3, np.arange(16, dtype=np.uint64)))
        assert out["iterations"] > 0
        assert len(calls) == (out["iterations"] if steps is None else steps)


def test_ragged_lanes_equal_single_paths_with_generator_integral():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, horizon_t=2.0)
    block, steps = _assert_lanes_match_single_runs(
        m, cfg, 3.0, 1.0, 10.0, 16, 21, horizon=1.0, g=ln_test_function())
    assert len(set(steps)) >= 3
    assert np.all(block["lg_integral"] != 0.0)


def _run_logged(m, cfg, x0, a, b, bundle, monkeypatch):
    """A block run, with the log of its draw-ahead refills (as
    ("draw", depth)) and of its steps (as the live lane count) in order."""
    log = []
    draw_ahead = _Engine.draw_ahead

    def logged_draw(self, bundle, k):
        log.append(("draw", k))
        return draw_ahead(self, bundle, k)

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "draw_ahead", logged_draw)
        out = _run_block(m, cfg, x0, a, b, bundle,
                         on_step=lambda lanes, *_: log.append(lanes.size))
    return out, log


def _assert_blocks_match(m, cfg, x0, a, b, n, size, seed, monkeypatch):
    """A block of n lanes, final stream counters included, equals bit for
    bit the same streams run as blocks of ``size`` lanes, and the block
    run again with a refill before every step.  Returns the n-lane
    block's refill depths and how many of its steps ran on a buffer
    compacted after lanes left it."""
    bundle = StreamBundle(seed, np.arange(n, dtype=np.uint64))
    block, log = _run_logged(m, cfg, x0, a, b, bundle, monkeypatch)
    lane_keys = [key for key, value in block.items() if np.ndim(value)]
    parts = []
    for lo in range(0, n, size):
        part = StreamBundle(seed, np.arange(lo, lo + size, dtype=np.uint64))
        parts.append((lo, _run_block(m, cfg, x0, a, b, part),
                      part.counters()))
    every = StreamBundle(seed, np.arange(n, dtype=np.uint64))
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_AHEAD_BUDGET", 1)
        every_step, every_log = _run_logged(m, cfg, x0, a, b, every,
                                            monkeypatch)
    assert every_log[::2] == [("draw", 1)] * (len(every_log) // 2)
    parts.append((0, every_step, every.counters()))
    for lo, part, counters in parts:
        lanes = slice(lo, lo + counters.size)
        for key in lane_keys:
            np.testing.assert_array_equal(block[key][lanes], part[key],
                                          err_msg=f"lanes from {lo}: {key}")
        np.testing.assert_array_equal(bundle.counters()[lanes], counters)
    depths, mid = [], 0
    for prev, event in zip([None] + log, log):
        if isinstance(event, tuple):
            depths.append(event[1])
        elif isinstance(prev, int) and event < prev:
            mid += 1
    return depths, mid


def test_draw_ahead_depth_changes_no_bit_c6a(monkeypatch):
    # the c6a run: 5,000 lanes draw one step ahead while more than 2,048
    # are live and 64 steps ahead in their tail, lanes leave with rows of
    # their buffer unread; 100-lane blocks start 40 steps ahead
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, horizon_t=1.0, adaptive=True,
                    cap_b=1e12)
    depths, mid = _assert_blocks_match(m, cfg, 1e6, 10.0, np.inf, 5000,
                                       100, 3, monkeypatch)
    assert depths[0] == 1 and depths[-1] == 64
    assert mid > 0


def test_draw_ahead_depth_changes_no_bit_readme_model(monkeypatch):
    # the README model, a stable pair per step: 256 lanes draw 16 steps
    # ahead, one-lane blocks 64
    m = make_model(b0=gamma(1.5), r0=1.0, b2=1.0, r2=1.5)
    cfg = SimConfig(dt=1e-3, horizon_t=0.2)
    depths, mid = _assert_blocks_match(m, cfg, 10.0, 9.0, 12.0, 256, 1, 5,
                                       monkeypatch)
    assert depths[0] == 16 and max(depths) == 64
    assert mid > 0


def test_scale_free_refills_draw_no_row_past_the_horizon(monkeypatch):
    # the benchmark's README block: 256 lanes to t = 0.05 refill 16 steps
    # ahead, and the refill that reaches the horizon draws only the 2 rows
    # left, 50 in all; every lane still equals its own per-step run
    m = make_model(**README_MODEL)
    cfg = SimConfig(dt=1e-3, horizon_t=0.05)
    depths = []
    draw_ahead = _Engine.draw_ahead

    def logged_draw(self, bundle, k):
        depths.append(k)
        return draw_ahead(self, bundle, k)

    with monkeypatch.context() as patch:
        patch.setattr(_Engine, "draw_ahead", logged_draw)
        out = _run_block(m, cfg, 10.0, 1.0, np.inf,
                         StreamBundle(11, np.arange(256, dtype=np.uint64)))
    assert depths == [16, 16, 16, 2]
    assert out["iterations"] == 50 and not out["unfinished"].any()
    _assert_lanes_match_single_runs(m, cfg, 10.0, 1.0, np.inf, 256, 11)


def _assert_callback_sees_every_lane_step(m, cfg, x0, a, b):
    """On a ragged 12-lane block the callback runs once per iteration on
    the lanes live in it, each step starts where the lane's last one
    ended, and a lane's dts add up to its final t bit for bit."""
    n = 12
    t_sum = np.zeros(n)
    x_last = np.full(n, x0)
    live = []

    def on_step(lanes, x_left, x, t, dt):
        live.append(lanes.size)
        np.testing.assert_array_equal(x_left, x_last[lanes])
        x_last[lanes] = x
        t_sum[lanes] += dt

    out = _run_block(m, cfg, x0, a, b,
                     StreamBundle(7, np.arange(n, dtype=np.uint64)),
                     on_step=on_step)
    assert len(set(live)) >= 6
    np.testing.assert_array_equal(t_sum, out["t"])
    assert len(live) == out["iterations"]
    assert sum(live) == out["lane_steps"]


def test_step_callback_sees_every_lane_step():
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, horizon_t=1.0, adaptive=True)
    _assert_callback_sees_every_lane_step(m, cfg, 1e6, 10.0, np.inf)


def test_step_callback_sees_every_lane_step_of_a_buffer_stepped_at_once():
    m = make_model(**README_MODEL)
    assert _Engine(m, SimConfig()).free_rates is not None
    _assert_callback_sees_every_lane_step(
        m, SimConfig(dt=1e-3, horizon_t=0.3), 10.0, 9.0, 12.0)


def test_engine_counts_steps_and_lane_steps():
    # a fixed-step GBM block with no barrier: every lane runs to t
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, horizon_t=1.0)
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
