"""Fast tests of the benchmark itself: tiny workloads, the result line,
the reference checks and the output digests.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import measure
import run
import workloads
from hostspeed import HostSpeed
from measure import count_check, gap_check, tail
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_correct_and_reports_every_metric(name, tmp_path):
    record = run.run_workload(WORKLOADS[name], seed=5, seconds=0.01,
                              size="tiny", workdir=tmp_path / name)
    assert record["correct"], record["problems"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    for metric, _ in run.END_TO_END:
        value = record["metrics"][metric]
        assert math.isfinite(value) and value > 0, metric


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric_with_its_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "passage_jump",
         "--seed", "2", "--seconds", "0.01", "--trace", str(trace),
         "--size", "tiny"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[key]}
    for name, _ in (run.END_TO_END if trace == 0 else []):
        assert f"  {name} " in proc.stdout


def test_benchmark_json_lists_the_run_metrics_and_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == [n for n in WORKLOADS if n in names]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    import tracing
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


def test_gap_and_count_checks_fail_on_perturbed_references():
    se = measure.passage_se(0.40, 10_000, 0.40)
    assert gap_check("x", 0.40, se, 0.40 + 0.5 * se).ok
    assert not gap_check("x", 0.40, se, 0.40 + 10 * se).ok
    assert count_check("x", 0, 0).ok and not count_check("x", 0, 1).ok


def test_workload_reference_checks_fail_on_perturbed_references(
        tmp_path, monkeypatch):
    real = workloads.gbm_passage
    monkeypatch.setattr(workloads, "gbm_passage",
                        lambda *a, **k: min(1.0, real(*a, **k) + 0.2))
    monkeypatch.setattr(workloads, "STAYS", workloads.COMES_DOWN)
    record = run.run_workload(WORKLOADS["passage_diffusion"], 5, 0.01,
                              size="tiny", workdir=tmp_path / "d")
    assert not record["correct"]
    assert any("c5:erfc" in p for p in record["problems"])
    assert any("verdict:gbm" in p for p in record["problems"])
    record = run.run_workload(WORKLOADS["cli_batch"], 5, 0.01, size="tiny",
                              workdir=tmp_path / "c")
    assert any("sweep:r1=2 erfc" in p for p in record["problems"])


def test_log_martingale_check_moves_with_its_reference(tmp_path):
    nb = run.Nb()
    wl = WORKLOADS["passage_jump"]
    state = wl.setup(nb, 3, "tiny", tmp_path)
    capture = run.BlockCapture(nb.montecarlo)
    try:
        op, est, blocks = workloads.passage_op(
            nb, capture, "j", state.rc.model, state.rc.sim, 10.0, 1.0, 0.005,
            128, 3, 1, jump_critical=True)
    finally:
        capture.uninstall()
    assert workloads.log_martingale_check("m", blocks, 10.0).ok
    assert not workloads.log_martingale_check("m", blocks, 10.5).ok


def test_passage_diffusion_digest_is_the_same_at_one_and_two_threads(tmp_path):
    digests = []
    for threads in (1, 2):
        nb = run.Nb()
        nb.montecarlo._BLOCK = 128   # four blocks, so the pool really runs
        wl = WORKLOADS["passage_diffusion"]
        state = wl.setup(nb, 7, "tiny", tmp_path, threads=threads)
        capture = run.BlockCapture(nb.montecarlo)
        try:
            ops = wl.run_pass(nb, state, capture, HostSpeed())
        finally:
            capture.uninstall()
        assert ops[1].outcomes and sum(ops[1].outcomes.values()) == 512
        digests.append(ops[1].digest)
    assert digests[0] == digests[1]


def test_lanes_cut_off_by_the_step_budget_fail_the_operation():
    nb = run.Nb()
    model = workloads.power_model(nb, b0=1.0, r0=1.0, b1=2.0, r1=2.0)
    cfg = nb.simulator.SimConfig(dt=1e-2, eps_cut=1e-4, horizon_t=1.0,
                                 step_budget=3)
    capture = run.BlockCapture(nb.montecarlo)
    try:
        op, est, _ = workloads.passage_op(nb, capture, "budget", model, cfg,
                                          10.0, 1.0, 1.0, 200, 1, 1)
    finally:
        capture.uninstall()
    assert op.failed and op.outcomes["unfinished"] == 200


def test_cli_exit_code_fails_the_operation(tmp_path):
    nb = run.Nb()
    op = workloads.cli_op(nb, HostSpeed(), "classify", "missing",
                          ["classify", "--config", str(tmp_path / "none.ini")])
    assert op.failed and op.error.startswith("exit 1")


def test_timing_is_scaled_by_the_kernel_samples_around_it(monkeypatch):
    host = HostSpeed()
    ref = hostspeed.REFERENCE_S
    speeds = iter([2.0 * ref, 4.0 * ref, ref, ref])
    monkeypatch.setattr(host, "sample", lambda: next(speeds))
    with host.timing() as t:
        sum(range(100_000))
    assert t.raw > 0.0 and t.seconds == pytest.approx(t.raw / 3.0)
    with pytest.raises(ZeroDivisionError):
        with host.timing() as t:
            1 / 0
    assert t.raw > 0.0 and t.seconds == pytest.approx(t.raw)


def test_tail_is_the_order_statistic_with_ten_samples_above():
    value, pct, n = tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "passage_jump", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
