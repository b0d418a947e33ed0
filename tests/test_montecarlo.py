import math
import os

import numpy as np
import pytest

from nlbranch.model import FiniteMeasure, ModelSpec, PowerLaw, StableMeasure, validate
from nlbranch.montecarlo import (
    SWEEP_COLUMNS,
    estimate_passage_prob,
    extinction_explosion_rates,
    sweep,
    wilson_interval,
)
from nlbranch.numerics import StreamBundle
from nlbranch.simulator import SimConfig, _run_block


def make_model(b0=1.0, r0=1.0, b1=0.0, r1=0.0, b2=0.0, r2=0.0, alpha=1.5):
    return validate(ModelSpec(
        a0=PowerLaw(b0, r0), a1=PowerLaw(b1, r1), a2=PowerLaw(b2, r2),
        a3=PowerLaw(0.0, 0.0), mu=StableMeasure(alpha=alpha),
        nu=FiniteMeasure(()),
    ))


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_passage_prob_drift_only_upward_is_zero():
    m = make_model(b0=1.0, r0=1.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=2.0)
    est = estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=1.0,
                                n_paths=200, seed=3)
    assert est.p_hat == 0.0
    assert est.ci95_low == 0.0
    assert est.ci95_low <= est.p_hat <= est.ci95_high
    assert (est.n_capped, est.n_censored, est.n_unfinished) == (0, 200, 0)


def test_passage_counts_paths_cut_off_by_the_step_budget():
    # three steps of 1e-2 reach neither the barrier (about 9 s.d. away) nor t
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=1.0, step_budget=3)
    est = estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=1.0,
                                n_paths=200, seed=1)
    assert est.p_hat == 0.0
    assert (est.n_capped, est.n_censored, est.n_unfinished) == (0, 0, 200)


def test_passage_counts_crossings_on_the_last_step():
    # the run stops at t, so a drop below a on the step that lands on t is
    # a crossing by t; on this grid 243 of 1247 crossings happen there
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=0.25, eps_cut=1e-4, horizon_t=1.0)
    est = estimate_passage_prob(m, cfg, x0=3.0, a=1.0, t=1.0,
                                n_paths=4000, seed=5)
    out = _run_block(m, cfg, 3.0, 1.0, np.inf,
                     StreamBundle(5, np.arange(4000, dtype=np.uint64)),
                     horizon=1.0)
    tau = out["tau_a"]
    assert np.count_nonzero(tau > 0.75) == 243
    assert est.p_hat == np.count_nonzero(~np.isnan(tau)) / 4000 == 0.31175
    assert (est.n_capped, est.n_censored, est.n_unfinished) == (0, 2753, 0)


def test_passage_counts_engine_steps_summed_over_blocks(monkeypatch):
    # no lane reaches the barrier: each of the 4 blocks takes 100 steps
    import nlbranch.montecarlo as mc
    monkeypatch.setattr(mc, "_BLOCK", 64)
    m = make_model(b0=1.0, r0=1.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=2.0)
    est = estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=1.0,
                                n_paths=200, seed=3)
    assert (est.iterations, est.lane_steps) == (400, 200 * 100)
    rates = extinction_explosion_rates(m, cfg, x0=10.0, horizon=1.0,
                                       n_paths=200, seed=3)
    assert (rates.iterations, rates.lane_steps) == (400, 200 * 100)


def test_passage_prob_preconditions():
    m = make_model()
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=2.0)
    with pytest.raises(ValueError):
        estimate_passage_prob(m, cfg, x0=1.0, a=2.0, t=1.0, n_paths=200, seed=0)
    with pytest.raises(ValueError):
        estimate_passage_prob(m, cfg, x0=2.0, a=1.0, t=5.0, n_paths=200, seed=0)
    with pytest.raises(ValueError):
        estimate_passage_prob(m, cfg, x0=2.0, a=1.0, t=1.0, n_paths=50, seed=0)


def test_passage_prob_gbm_oracle_small():
    # log state is a driftless Brownian motion with variance 2t: the
    # reflection principle gives p = erfc(ln(x0/a) / (2 sqrt t))
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=8.0)
    est = estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=4.0,
                                n_paths=2000, seed=11)
    p_true = math.erfc(math.log(10.0) / math.sqrt(8.0) / math.sqrt(2.0))
    assert est.p_hat == pytest.approx(p_true, abs=0.035)


def test_passage_prob_deterministic_across_threads(monkeypatch):
    # small blocks force the multi-block threaded gather path
    import nlbranch.montecarlo as mc
    monkeypatch.setattr(mc, "_BLOCK", 1024)
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=2.0)
    ests = [estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=1.0,
                                  n_paths=9000, seed=42, threads=k)
            for k in (1, 2, 8)]
    assert ests[0] == ests[1] == ests[2]


def test_extinction_explosion_rates_blowup_control():
    # dx = x^2 dt from 1 blows up at t=1: every path caps by t=2
    m = make_model(b0=1.0, r0=2.0)
    cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=2.0, cap_b=1e6,
                    adaptive=True)
    rates = extinction_explosion_rates(m, cfg, x0=1.0, horizon=2.0,
                                       n_paths=200, seed=1)
    assert rates.frac_capped == 1.0
    assert rates.frac_zero == 0.0
    assert rates.ci_capped[1] == 1.0


def test_extinction_explosion_rates_critical_gbm():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=3.0)
    rates = extinction_explosion_rates(m, cfg, x0=1.0, horizon=3.0,
                                       n_paths=500, seed=10)
    assert rates.frac_zero == 0.0
    assert rates.frac_capped == 0.0
    assert rates.n_unfinished == 0


def test_absorption_rates_count_paths_cut_off_by_the_step_budget():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=1.0, step_budget=3)
    rates = extinction_explosion_rates(m, cfg, x0=1.0, horizon=1.0,
                                       n_paths=200, seed=1)
    assert (rates.frac_zero, rates.frac_capped) == (0.0, 0.0)
    assert rates.n_unfinished == 200


def test_sweep_phase_diagram_predictions():
    template = dict(b0=1.0, r0=1.0, b1=2.0, r1=2.0, b2=0.0, r2=0.0,
                    alpha=1.5, x0=100.0, a=1.0, t=1.0)
    grid = []
    for r1 in (1.5, 2.0, 2.5, 3.0):
        grid.append(dict(r0=r1 - 1.0, r1=r1))
    rows = sweep(template, grid, SimConfig(dt=1e-2, eps_cut=1e-4,
                                           horizon_t=2.0),
                 n_paths=0, seed=7, skip_simulation=True)
    preds = [r.predicted for r in rows]
    assert preds == ["stays_infinite", "stays_infinite",
                     "comes_down_from_infinity", "comes_down_from_infinity"]
    assert [r.index for r in rows] == [0, 1, 2, 3]


def test_sweep_invalid_point_flagged_not_fatal():
    template = dict(b0=1.0, r0=1.0, b1=2.0, r1=2.0, b2=0.0, r2=0.0,
                    alpha=1.5, x0=10.0, a=1.0, t=0.5)
    grid = [dict(), dict(alpha=2.5), dict(r1=3.0)]
    rows = sweep(template, grid, SimConfig(dt=1e-2, eps_cut=1e-4,
                                           horizon_t=1.0),
                 n_paths=200, seed=7)
    assert rows[0].error is None and rows[0].estimate is not None
    assert rows[1].predicted == "invalid" and rows[1].estimate is None
    assert rows[1].error is not None
    assert rows[2].error is None


def test_sweep_empty_grid():
    rows = sweep(dict(), [], SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=1.0),
                 n_paths=100, seed=0)
    assert rows == []


def test_sweep_rows_are_deterministic_tables():
    template = dict(b0=1.0, r0=1.0, b1=2.0, r1=2.0, b2=0.0, r2=0.0,
                    alpha=1.5, x0=10.0, a=1.0, t=0.5)
    grid = [dict(), dict(r0=2.0, r1=3.0)]
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=1.0)
    tables = []
    for threads in (1, 4):
        rows = sweep(template, grid, cfg, n_paths=2000, seed=5,
                     threads=threads)
        tables.append([r.csv_values(2000, 5) for r in rows])
    assert tables[0] == tables[1]
    assert len(SWEEP_COLUMNS) == len(tables[0][0])


def test_passage_monotone_in_x0_for_stays_infinite():
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=2.0)
    ps = [estimate_passage_prob(m, cfg, x0=x0, a=1.0, t=1.0,
                                n_paths=3000, seed=8).p_hat
          for x0 in (10.0, 100.0, 1000.0)]
    assert ps[0] >= ps[1] >= ps[2]


@pytest.mark.slow
def test_capped_passage_matches_scale_function_law():
    # In the critical comes-down family the log state is a driftless
    # martingale, so with an absorbing cap C the exact crossing
    # probability is 1 - ln(x0/a)/ln(C/a) (upward excursions that reach C
    # first are frozen there).  This pins the simulator against the exact
    # law: a spurious drift in the stepping scheme shows as a gap of
    # several standard errors, so the bound is 4 binomial standard errors.
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    x0, a, n = 1e4, 10.0, 4000
    for cap in (1e8, 1e12):
        cfg = SimConfig(dt=1e-3, eps_cut=1e-4, horizon_t=1.0, cap_b=cap,
                        adaptive=True)
        est = estimate_passage_prob(m, cfg, x0=x0, a=a, t=1.0,
                                    n_paths=n, seed=13, threads=4)
        p_exact = 1.0 - math.log(x0 / a) / math.log(cap / a)
        se = math.sqrt(p_exact * (1.0 - p_exact) / n)
        assert est.p_hat == pytest.approx(p_exact, abs=4.0 * se), \
            (cap, p_exact)


@pytest.mark.slow
def test_passage_estimate_stable_under_dt_refinement():
    # halving dt moves the passage estimate by less than the width of its
    # 95% interval on the oracle case
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    est = {}
    for dt in (1e-3, 5e-4):
        cfg = SimConfig(dt=dt, eps_cut=1e-4, horizon_t=4.0)
        est[dt] = estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=4.0,
                                        n_paths=10_000, seed=29, threads=4)
    width = est[1e-3].ci95_high - est[1e-3].ci95_low
    assert abs(est[1e-3].p_hat - est[5e-4].p_hat) < width


@pytest.mark.meta
@pytest.mark.skipif("NLBRANCH_META_TESTS" not in os.environ,
                    reason="weekly-tier coverage meta-test")
def test_wilson_interval_coverage_on_gbm_oracle():
    # 95% interval contains the closed-form value in >= 90 of 100
    # independent meta-runs
    m = make_model(b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = SimConfig(dt=5e-3, eps_cut=1e-4, horizon_t=4.0)
    p_true = math.erfc(math.log(10.0) / math.sqrt(8.0) / math.sqrt(2.0))
    hits = 0
    for rep in range(100):
        est = estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=4.0,
                                    n_paths=1000, seed=1000 + rep, threads=4)
        # widen by the dt-bias allowance: grid detection misses excursions
        if est.ci95_low - 0.02 <= p_true <= est.ci95_high + 0.02:
            hits += 1
    assert hits >= 90
