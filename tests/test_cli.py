import json
import os
import subprocess
import sys

import pytest

from nlbranch.cli import main
from nlbranch.config import (
    ConfigError,
    config_echo,
    echo_to_ini,
    parse_config_text,
)
from nlbranch.model import StableMeasure

GBM_CONFIG = """
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
eps_cut = 1e-4
horizon_t = 2.0
adaptive = true

[mc]
n_paths = 400
seed = 77
threads = 1

[output]
format = json
"""

JUMP_CONFIG = """
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

[sim]
dt = 1e-2
eps_cut = 0.05
eps_rule = relative
horizon_t = 1.0
adaptive = true
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_resolves_expressions():
    rc = parse_config_text(JUMP_CONFIG)
    from nlbranch.numerics import gamma
    assert rc.model_params["a0"]["b"] == pytest.approx(gamma(1.5), rel=1e-15)
    assert rc.model_params["a2"]["b"] == pytest.approx(1.0, rel=1e-15)
    from nlbranch.model import critical_deficit
    assert critical_deficit(rc.model).is_critical


def test_parse_config_field_precise_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(GBM_CONFIG.replace("alpha = 1.5", "alpha = wide"))
    assert exc.value.section == "model" and exc.value.key == "alpha"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(GBM_CONFIG.replace("alpha = 1.5", "alpha = 2.0"))
    assert "alpha" in str(exc.value)


def test_config_round_trip():
    rc = parse_config_text(JUMP_CONFIG)
    rc2 = parse_config_text(echo_to_ini(config_echo(rc)))
    assert rc2.model.spec == rc.model.spec
    assert rc2.sim == rc.sim
    assert rc2.criteria == rc.criteria
    assert (rc2.n_paths, rc2.seed, rc2.threads) == \
        (rc.n_paths, rc.seed, rc.threads)


def test_config_default_cap_is_the_simulator_default():
    from nlbranch.simulator import SimConfig
    rc = parse_config_text(GBM_CONFIG)
    assert rc.sim.cap_b == SimConfig(dt=1.0, eps_cut=1.0, horizon_t=1.0).cap_b
    rc = parse_config_text(GBM_CONFIG.replace("adaptive = true",
                                              "adaptive = true\ncap_b = 1e8"))
    assert rc.sim.cap_b == 1e8


def test_cli_classify_gbm(tmp_path, capsys):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    out = str(tmp_path / "rep.json")
    assert main(["classify", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["command"] == "classify"
    assert rep["results"]["infinity_behavior"] == "stays_infinite"
    assert rep["results"]["no_extinction"] == "holds"
    assert rep["config"]["model"]["a1"]["b"] == 2.0
    assert "wall_clock_s" in rep and "versions" in rep


def test_cli_classify_comes_down(tmp_path):
    text = GBM_CONFIG.replace("b = 1.0\nr = 1.0", "b = 1.0\nr = 2.0") \
                     .replace("b = 2.0\nr = 2.0", "b = 2.0\nr = 3.0")
    cfg = write(tmp_path, "down.ini", text)
    out = str(tmp_path / "rep.json")
    assert main(["classify", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["results"]["infinity_behavior"] == "comes_down_from_infinity"


def test_cli_config_error_exit_code(tmp_path):
    cfg = write(tmp_path, "bad.ini", GBM_CONFIG.replace("1.5", "2.5"))
    assert main(["classify", "--config", cfg]) == 1
    assert main(["classify", "--config", str(tmp_path / "missing.ini")]) == 1


def test_cli_passage_gbm(tmp_path):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    out = str(tmp_path / "p.json")
    code = main(["passage", "--config", cfg, "--x0", "10", "--a", "1",
                 "--t", "1.0", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    r = rep["results"]
    assert 0.0 <= r["ci95_low"] <= r["p_hat"] <= r["ci95_high"] <= 1.0
    assert r["query"] == {"x0": 10.0, "a": 1.0, "t": 1.0}
    crossed = round(r["p_hat"] * r["n_paths"])
    assert r["n_unfinished"] == 0
    assert crossed + r["n_capped"] + r["n_censored"] == r["n_paths"]
    assert 0 < r["iterations"] and r["n_paths"] <= r["lane_steps"]
    assert r["lane_steps"] <= r["iterations"] * r["n_paths"]


def test_cli_simulate_trace_deterministic(tmp_path):
    cfg = write(tmp_path, "gbm.ini",
                GBM_CONFIG.replace("format = json", "format = csv"))
    t1 = str(tmp_path / "t1.csv")
    t2 = str(tmp_path / "t2.csv")
    assert main(["simulate", "--config", cfg, "--x0", "5", "--out", t1]) == 0
    assert main(["simulate", "--config", cfg, "--x0", "5", "--out", t2]) == 0
    body1, body2 = open(t1).read(), open(t2).read()
    assert body1 == body2
    assert body1.startswith("t,x\n0.0,5.0")
    assert len(body1.splitlines()) <= 10_002


def test_cli_sweep_csv_and_thread_determinism(tmp_path):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    grid = write(tmp_path, "grid.csv",
                 "r0,r1,x0,a,t\n"
                 "0.5,1.5,1000,10,2\n"
                 "1.0,2.0,1000,10,2\n"
                 "1.5,2.5,1000,10,2\n"
                 "2.0,3.0,1000,10,2\n")
    outs = []
    for k, threads in enumerate((1, 4, 8)):
        out = str(tmp_path / f"sweep{k}.csv")
        code = main(["sweep", "--config", cfg, "--grid", grid,
                     "--threads", str(threads), "--format", "csv",
                     "--out", out])
        assert code == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].decode().splitlines()
    assert lines[0] == ",".join(
        ("r0", "r1", "r2", "alpha", "b0", "b1", "b2", "x0", "a", "t",
         "predicted", "p_hat", "ci_low", "ci_high", "n_paths", "seed"))
    assert len(lines) == 5
    preds = [ln.split(",")[10] for ln in lines[1:]]
    assert preds == ["stays_infinite", "stays_infinite",
                     "comes_down_from_infinity", "comes_down_from_infinity"]
    # estimates agree with the predicted labels: staying-infinite rows
    # rarely descend from x0=1000 within t=2, coming-down rows mostly do
    # (the absorbing cap keeps their fraction below 1; see montecarlo's
    # scale-law test)
    p_hats = [float(ln.split(",")[11]) for ln in lines[1:]]
    assert p_hats[0] < 0.2 and p_hats[1] < 0.2
    assert p_hats[2] > 0.4 and p_hats[3] > 0.4


def test_cli_sweep_env_threads(tmp_path, monkeypatch):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    grid = write(tmp_path, "grid.csv", "r0,r1\n1.0,2.0\n")
    ref = str(tmp_path / "ref.csv")
    env = str(tmp_path / "env.csv")
    assert main(["sweep", "--config", cfg, "--grid", grid, "--format", "csv",
                 "--threads", "1", "--out", ref]) == 0
    monkeypatch.setenv("NLBRANCH_THREADS", "4")
    assert main(["sweep", "--config", cfg, "--grid", grid, "--format", "csv",
                 "--out", env]) == 0
    assert open(ref).read() == open(env).read()


def test_cli_selftest_passes(tmp_path):
    out = str(tmp_path / "selftest.json")
    assert main(["selftest", "--out", out]) == 0
    rep = json.loads(open(out).read())
    names = {c["name"] for c in rep["results"]}
    assert names == {"stable_integral_identity", "k_integral_sandwich",
                     "generator_consistency", "rng_determinism"}
    assert all(c["passed"] for c in rep["results"])


def test_cli_selftest_detects_perturbed_constant(tmp_path, monkeypatch):
    # a stable density constant 1% off: the identity check must fail and
    # the exit code must be 3
    true_c_alpha = StableMeasure.c_alpha
    monkeypatch.setattr(StableMeasure, "c_alpha",
                        lambda self: 1.01 * true_c_alpha(self))
    out = str(tmp_path / "selftest.json")
    assert main(["selftest", "--out", out]) == 3
    rep = json.loads(open(out).read())
    by_name = {c["name"]: c["passed"] for c in rep["results"]}
    assert by_name["stable_integral_identity"] is False


def test_cli_entry_point_subprocess(tmp_path):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "nlbranch.cli", "classify", "--config", cfg],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["results"]["infinity_behavior"] == "stays_infinite"


TABULATED_CONFIG = """
[model]
alpha = 1.5

[model.a0]
type = tabulated
knots = 0.001:5.0 0.01:0.5 1.0:0.1 10.0:200.0

[model.a1]
type = powerlaw
b = 2.0
r = 2.0

[sim]
dt = 1e-2
eps_cut = 1e-4
horizon_t = 1.0
"""


def test_cli_classify_tabulated_inconclusive(tmp_path):
    # mixed-sign drift index on the small grid downgrades the verdict
    cfg = write(tmp_path, "tab.ini", TABULATED_CONFIG)
    out = str(tmp_path / "rep.json")
    assert main(["classify", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["results"]["method"] == "numeric"
    assert rep["results"]["no_extinction"] == "inconclusive"
    assert rep["results"]["evidence"]["phi_small"]
    assert rep["config"]["model"]["a0"]["type"] == "tabulated"


CUT_SUPPORT_CONFIG = """
[model]
alpha = 1.5
u_max = 5.0

[model.a0]
type = powerlaw
b = gamma(alpha)
r = 1.0

[model.a2]
type = powerlaw
b = 1.0
r = 1.5

[sim]
dt = 1e-2
eps_cut = 1e-4
horizon_t = 1.0
"""


def test_cli_classify_cut_support(tmp_path):
    cfg = write(tmp_path, "cut.ini", CUT_SUPPORT_CONFIG)
    out = str(tmp_path / "rep.json")
    assert main(["classify", "--config", cfg, "--out", out]) == 0
    results = json.loads(open(out).read())["results"]
    assert results["method"] == "numeric"
    assert results["infinity_behavior"] == "stays_infinite"
    assert results["evidence"]["quad_evaluations"] > 0
    assert 0.0 < results["evidence"]["quad_worst_rel_error"] <= 1e-10


def test_cli_numeric_failure_exit_code(tmp_path, monkeypatch):
    # a quadrature that cannot converge surfaces as exit code 2
    import nlbranch.cli as cli_mod
    from nlbranch.numerics import QuadratureError, QuadResult

    def boom(*a, **k):
        raise QuadratureError("no convergence", QuadResult(0.0, 1.0, 10))

    monkeypatch.setattr(cli_mod, "classify", boom)
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    assert main(["classify", "--config", cfg]) == 2
