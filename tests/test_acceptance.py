"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Each test states its requirement as given and reports
the measured value.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nlbranch.cli import (
    CRITICAL_FAMILIES,
    check_generator_consistency,
    check_k_sandwich,
    check_stable_identity,
    main as cli_main,
)
from nlbranch.criteria import InfinityBehavior, Verdict, classify, ln_test_function
from nlbranch.montecarlo import (
    _model_from_params,
    estimate_passage_prob,
    extinction_explosion_rates,
)
from nlbranch.numerics import StreamBundle, gamma
from nlbranch.simulator import SimConfig, martingale_residual
from nlbranch.simulator import _Engine
from oracles import cms_one_sided_stable

_TIMINGS = {}


def make_model(**params):
    return _model_from_params(params)


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>3}: {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


GBM, JUMP, MIXED = CRITICAL_FAMILIES.values()


def test_criterion_01_stable_integral_identity():
    started = time.monotonic()
    chk = check_stable_identity()
    elapsed = time.monotonic() - started
    _verdict(1, "stable-integral-identity", chk["passed"] and elapsed < 5.0,
             f"worst rel/tol={chk['worst']:.3f}, elapsed={elapsed:.2f}s (<5s)")


def test_criterion_02_k_integral_sandwich():
    started = time.monotonic()
    chk = check_k_sandwich()
    elapsed = time.monotonic() - started
    _verdict(2, "k-integral-sandwich", chk["passed"] and elapsed < 10.0,
             f"27 combos, {chk['worst']} violations, "
             f"elapsed={elapsed:.2f}s (<10s)")


def test_criterion_03_generator_identity():
    started = time.monotonic()
    chk = check_generator_consistency()
    elapsed = time.monotonic() - started
    _verdict(3, "generator-identity", chk["passed"] and elapsed < 5.0,
             f"max |L(ln)+phi|/(1+|phi|)={chk['worst']:.2e} (<=1e-8), "
             f"elapsed={elapsed:.2f}s (<5s)")


def test_criterion_04_corollary_phase_diagram():
    alpha = 1.5
    g = gamma(alpha)
    mismatches = []
    cases = []
    for r1 in (1.5, 2.0):
        cases.append((dict(b0=1.0, r0=r1 - 1.0, b1=2.0, r1=r1),
                      InfinityBehavior.STAYS_INFINITE))
    for r1 in (2.5, 3.0):
        cases.append((dict(b0=1.0, r0=r1 - 1.0, b1=2.0, r1=r1),
                      InfinityBehavior.COMES_DOWN_FROM_INFINITY))
    for r2 in (alpha - 0.2, alpha):
        cases.append((dict(b0=g, r0=r2 - alpha + 1.0, b2=1.0, r2=r2,
                           alpha=alpha), InfinityBehavior.STAYS_INFINITE))
    for r2 in (alpha + 0.2, alpha + 0.5):
        cases.append((dict(b0=g, r0=r2 - alpha + 1.0, b2=1.0, r2=r2,
                           alpha=alpha),
                      InfinityBehavior.COMES_DOWN_FROM_INFINITY))
    # both-channel edge point (r1=2, r2=alpha) stays infinite
    cases.append((MIXED, InfinityBehavior.STAYS_INFINITE))
    for params, want in cases:
        rep = classify(make_model(**params))
        good = (rep.infinity_behavior == want
                and rep.no_extinction == Verdict.HOLDS
                and rep.no_explosion == Verdict.HOLDS
                and rep.infinity_behavior != InfinityBehavior.INCONCLUSIVE)
        if not good:
            mismatches.append((params, rep.infinity_behavior.value))
    _verdict(4, "corollary-phase-diagram", not mismatches,
             f"{len(cases)} cases, {len(mismatches)} mismatches")


def test_criterion_05_gbm_passage_oracle():
    started = time.monotonic()
    m = make_model(**GBM)
    cfg = SimConfig(dt=1e-3, horizon_t=4.0)
    est = estimate_passage_prob(m, cfg, x0=10.0, a=1.0, t=4.0,
                                n_paths=10_000, seed=20240501, threads=1)
    p_true = math.erfc(math.log(10.0) / math.sqrt(8.0) / math.sqrt(2.0))
    elapsed = time.monotonic() - started
    ok = abs(est.p_hat - p_true) <= 0.02 and elapsed < 60.0
    _verdict(5, "gbm-passage-oracle", ok,
             f"p_hat={est.p_hat:.4f} vs {p_true:.4f} (|diff|<=0.02), "
             f"elapsed={elapsed:.1f}s (<60s, single-threaded)")


def test_criterion_06a_comes_down_passage():
    # Stated requirement: p_hat(x0=1e6, a=10, t=1) >= 0.95 on the
    # comes-down spec.  The uncapped process satisfies it: ln X is a
    # time-changed Brownian motion and P(T_a > 1) is about 1e-6.  The
    # explosion proxy absorbs at cap_b and the log-state is a driftless
    # martingale here, so a fraction ln(x0/a)/ln(cap/a) of paths hits the
    # cap first and is counted as non-crossing: about 1.7% at the default
    # cap, which the log-state stepping reaches without overflowing a1.
    started = time.monotonic()
    m = make_model(b0=1.0, r0=2.0, b1=2.0, r1=3.0)
    cfg = SimConfig(dt=1e-3, horizon_t=1.0, adaptive=True)
    est = estimate_passage_prob(m, cfg, x0=1e6, a=10.0, t=1.0,
                                n_paths=10_000, seed=7, threads=4)
    _TIMINGS["c6a"] = time.monotonic() - started
    cap_loss = math.log(1e6 / 10.0) / math.log(cfg.cap_b / 10.0)
    _verdict("6a", "comes-down-passage", est.p_hat >= 0.95,
             f"p_hat={est.p_hat:.4f} (stated threshold 0.95; exact capped "
             f"value is ~{1.0 - cap_loss:.3f} because the absorbing cap at "
             f"{cfg.cap_b:.0e} removes ~{100 * cap_loss:.1f}% of paths)")


def test_criterion_06b_stays_infinite_passage_decay():
    started = time.monotonic()
    m = make_model(**GBM)
    cfg = SimConfig(dt=1e-3, horizon_t=1.0)
    ps = []
    for x0 in (1e2, 1e3, 1e4):
        est = estimate_passage_prob(m, cfg, x0=x0, a=1.0, t=1.0,
                                    n_paths=10_000, seed=61, threads=4)
        ps.append(est.p_hat)
    elapsed = time.monotonic() - started
    total = elapsed + _TIMINGS.get("c6a", 0.0)
    ok = ps[0] >= ps[1] >= ps[2] and ps[2] <= 0.01 and total < 300.0
    _verdict("6b", "stays-infinite-passage-decay", ok,
             f"p_hat over x0 in (1e2,1e3,1e4) = {ps} decreasing, "
             f"p(1e4)={ps[2]:.4f} <= 0.01; criterion-6 total "
             f"elapsed={total:.0f}s (<300s, 4 workers)")


def test_criterion_07_no_absorption_in_critical_cases():
    results = []
    m_gbm = make_model(**GBM)
    cfg_gbm = SimConfig(dt=1e-2, horizon_t=10.0)
    r = extinction_explosion_rates(m_gbm, cfg_gbm, x0=1.0, horizon=10.0,
                                   n_paths=10_000, seed=17, threads=4)
    results.append(("diffusion-critical", r.frac_zero, r.frac_capped))

    m_jump = make_model(**JUMP)
    cfg_jump = SimConfig(dt=1e-2, horizon_t=10.0, adaptive=True)
    r = extinction_explosion_rates(m_jump, cfg_jump, x0=1.0, horizon=10.0,
                                   n_paths=10_000, seed=18, threads=4)
    results.append(("jump-critical", r.frac_zero, r.frac_capped))

    ok = all(fz == 0.0 and fc == 0.0 for _, fz, fc in results)

    # contrast control: supercritical drift blows up by t=2
    m_ctl = make_model(b0=1.0, r0=2.0)
    cfg_ctl = SimConfig(dt=1e-3, horizon_t=2.0, cap_b=1e6,
                        adaptive=True)
    r_ctl = extinction_explosion_rates(m_ctl, cfg_ctl, x0=1.0, horizon=2.0,
                                       n_paths=1000, seed=19, threads=4)
    ok = ok and r_ctl.frac_capped == 1.0 and r_ctl.frac_zero == 0.0
    _verdict(7, "no-absorption-critical-cases", ok,
             f"critical fractions {results} (all 0 of 1e4); "
             f"control frac_capped={r_ctl.frac_capped:.3f} (=1)")


def test_criterion_08_stable_increment_distribution():
    # one step with a2 = 1, dt = 1 on full support (one exact stable draw;
    # the cutoff is unused) vs the independent trigonometric sampler
    alpha = 1.5
    m = make_model(b0=1e-300, r0=0.0, b2=1.0, r2=0.0, alpha=alpha)
    cfg = SimConfig(dt=1.0, eps_cut=1e-4, horizon_t=2.0, cap_b=1e300)
    n = 10_000
    bundle = StreamBundle(2718, np.arange(n, dtype=np.uint64))
    eng = _Engine(m, cfg)
    x0 = 1e6
    x_new, _, _, _ = eng.advance(np.full(n, x0), np.zeros(n), bundle)
    increments = x_new - x0
    oracle = cms_one_sided_stable(alpha, n, np.random.default_rng(999))
    stat = float(ks_2samp(increments, oracle).statistic)
    _verdict(8, "stable-increment-distribution", stat <= 0.02,
             f"two-sample KS={stat:.4f} (<=0.02) at n=1e4, dt=1")


def test_criterion_09_martingale_residual():
    m = make_model(**GBM)
    cfg = SimConfig(dt=1e-3, horizon_t=1.0)
    out = martingale_residual(m, cfg, ln_test_function(), x0=10.0, t=1.0,
                              a=1.0, b=1e4, n_paths=10_000, seed=23)
    bound = 3.0 * out["stderr"] + 0.01
    ok = abs(out["residual"]) <= bound
    _verdict(9, "martingale-residual", ok,
             f"|residual|={abs(out['residual']):.5f} <= "
             f"3*stderr+0.01={bound:.5f}")


def test_criterion_10_sweep_determinism(tmp_path, monkeypatch):
    # small blocks so every thread count really exercises parallel gather
    import nlbranch.montecarlo as mc
    monkeypatch.setattr(mc, "_BLOCK", 256)
    cfg_text = """
[model]
alpha = 1.5

[model.a0]
type = powerlaw
b = 1.0
r = 1.0

[model.a1]
type = powerlaw
b = 2.0
r = 2.0

[sim]
dt = 1e-2
horizon_t = 1.0

[mc]
n_paths = 2000
seed = 99
"""
    cfg = tmp_path / "run.ini"
    cfg.write_text(cfg_text)
    grid = tmp_path / "grid.csv"
    grid.write_text("r0,r1,x0,a,t\n0.5,1.5,100,1,1\n1.0,2.0,100,1,1\n"
                    "1.5,2.5,100,1,1\n2.0,3.0,100,1,1\n")
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"sweep_{threads}.csv"
        code = cli_main(["sweep", "--config", str(cfg), "--grid", str(grid),
                         "--threads", str(threads), "--format", "csv",
                         "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(10, "sweep-thread-determinism", ok,
             f"{len(outputs[0])} bytes identical across threads 1/4/8")
