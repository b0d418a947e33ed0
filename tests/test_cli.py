import json
import math
import os
import subprocess
import sys

import pytest

from nlbranch.cli import build_parser, main
from nlbranch.criteria import classify
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


# a key nothing reads: (run file, section, key) of the error
UNREAD_KEYS = [
    (GBM_CONFIG.replace("horizon_t = 2.0", "horizon = 4.0"), "sim", "horizon"),
    (GBM_CONFIG.replace("adaptive = true", "adaptve = true"), "sim", "adaptve"),
    (GBM_CONFIG + "\n[simulation]\ndt = 1e-3\n", "simulation", ""),
    # the classifier reads no settings: [criteria] is an unknown section
    (GBM_CONFIG + "\n[criteria]\nsmall_u_grid = 1 0.1\n", "criteria", ""),
    (GBM_CONFIG.replace("[model.a1]\ntype = powerlaw\n",
                        "[model.a1]\ntype = powerlaw\nknots = 1:2\n"),
     "model.a1", "knots"),
]


def test_parse_config_field_precise_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(GBM_CONFIG.replace("alpha = 1.5", "alpha = wide"))
    assert exc.value.section == "model" and exc.value.key == "alpha"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(GBM_CONFIG.replace("alpha = 1.5", "alpha = 2.0"))
    assert "alpha" in str(exc.value)
    for text, section, key in UNREAD_KEYS:
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert (exc.value.section, exc.value.key) == (section, key)
        assert f"[{section}]" in str(exc.value) and key in str(exc.value)


# a value each SimConfig or [mc] check rejects:
# (section, key, value, a word of the check's message)
FAILED_CHECKS = [
    ("sim", "dt", "-1", "positive"),
    ("sim", "eps_cut", "0", "positive"),
    ("sim", "horizon_t", "0", "positive"),
    ("sim", "cap_b", "-1e10", "positive"),
    ("sim", "floor_zero", "-1", ">= 0"),
    ("sim", "floor_zero", "nan", ">= 0"),
    ("sim", "floor_zero", "1e300", "below cap_b"),
    ("sim", "step_budget", "0", ">= 1"),
    ("sim", "eps_rule", "proportional", "relative"),
    ("mc", "threads", "0", ">= 1"),
    ("mc", "n_paths", "0", ">= 100"),
    ("mc", "n_paths", "99", ">= 100"),
]


@pytest.mark.parametrize("section, key, value, word", FAILED_CHECKS)
def test_parse_config_failed_check_names_its_key(section, key, value, word):
    model_only = GBM_CONFIG.split("[sim]")[0]
    with pytest.raises(ConfigError) as exc:
        parse_config_text(model_only + f"[{section}]\n{key} = {value}\n")
    assert (exc.value.section, exc.value.key) == (section, key)
    assert str(exc.value).startswith(f"[{section}] {key}: {key}")
    assert word in str(exc.value)


# a pair list that does not parse: (section, key, value, message)
BAD_PAIRS = [
    ("model.a1", "knots", "0.1:1 2", "expected u:value pairs, got '2'"),
    ("model.a1", "knots", "0.1:x", "not a number: 'x'"),
    ("model.nu", "atoms", "8/0.5", "expected z:weight pairs, got '8/0.5'"),
    ("model.nu", "atoms", "8:w", "not a number: 'w'"),
]


@pytest.mark.parametrize("section, key, value, message", BAD_PAIRS)
def test_parse_config_pair_lists_name_their_key(section, key, value, message):
    kind = "type = tabulated\n" if key == "knots" else ""
    with pytest.raises(ConfigError) as exc:
        parse_config_text(GBM_CONFIG.split("[model.a1]")[0]
                          + f"[{section}]\n{kind}{key} = {value}\n")
    assert (exc.value.section, exc.value.key) == (section, key)
    assert str(exc.value) == f"[{section}] {key}: {message}"


def test_parse_config_reads_percent_literally():
    rc = parse_config_text(GBM_CONFIG.replace(
        "format = json", "path = out%d.json\nformat = json"))
    assert rc.output_path == "out%d.json"


# every [sim], [mc] and [output] key away from its default
ALL_KEYS_CONFIG = GBM_CONFIG.replace("""
[sim]
dt = 1e-2
eps_cut = 1e-4
horizon_t = 2.0
adaptive = true
""", """
[sim]
dt = 2e-3
eps_cut = 5e-4
horizon_t = 3.0
cap_b = 1e12
floor_zero = 1e-9
adaptive = yes
eps_rule = relative
step_budget = 12345
""").replace("format = json", """path = rows.csv
format = CSV
""")


def test_config_round_trip():
    from dataclasses import fields
    every = parse_config_text(ALL_KEYS_CONFIG)
    for f in fields(every.sim):
        assert getattr(every.sim, f.name) != f.default, f.name
    assert (every.n_paths, every.seed, every.threads, every.output_path,
            every.output_format) == (400, 77, 1, "rows.csv", "csv")
    for text in (JUMP_CONFIG, ALL_KEYS_CONFIG):
        rc = parse_config_text(text)
        echo = json.loads(json.dumps(config_echo(rc)))
        rc2 = parse_config_text(echo_to_ini(echo))
        assert rc2.model.spec == rc.model.spec
        assert rc2.sim == rc.sim
        assert (rc2.n_paths, rc2.seed, rc2.threads, rc2.output_path,
                rc2.output_format) == (rc.n_paths, rc.seed, rc.threads,
                                       rc.output_path, rc.output_format)


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
    assert rep["results"]["evidence"]["rho"] is None   # symbolic: no rho
    assert "wall_clock_s" in rep and "versions" in rep


def test_cli_classify_comes_down(tmp_path):
    text = GBM_CONFIG.replace("b = 1.0\nr = 1.0", "b = 1.0\nr = 2.0") \
                     .replace("b = 2.0\nr = 2.0", "b = 2.0\nr = 3.0")
    cfg = write(tmp_path, "down.ini", text)
    out = str(tmp_path / "rep.json")
    assert main(["classify", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["results"]["infinity_behavior"] == "comes_down_from_infinity"


def _strict_json(text):
    """RFC 8259 JSON: Infinity, -Infinity and NaN are rejected."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


def test_cli_classify_writes_strict_json_where_phi_overflows(tmp_path):
    # phi's drift term -2 u^59 overflows at the last three grid states; the
    # library's evidence keeps -inf there, the report writes null
    text = """
[model]
alpha = 1.5

[model.a0]
type = powerlaw
b = 2.0
r = 60.0

[model.a1]
type = powerlaw
b = 1.0
r = 2.0
"""
    cfg = write(tmp_path, "steep.ini", text)
    out = str(tmp_path / "rep.json")
    assert main(["classify", "--config", cfg, "--out", out]) == 0
    ev = _strict_json(open(out).read())["results"]["evidence"]
    assert [u for u, v in ev["phi_large"] if v is None] == [1e6, 1e7, 1e8]
    assert all(v is not None for _, v in ev["phi_small"])
    lib = classify(parse_config_text(text).model).evidence
    assert [v for _, v in lib["phi_large"][-3:]] == [-math.inf] * 3


def test_cli_simulate_writes_strict_json_when_the_path_explodes(tmp_path):
    # a0 = u^3 from x0 = 10 blows up within 0.1 time units
    cfg = write(tmp_path, "blowup.ini", """
[model]
alpha = 1.5

[model.a0]
type = powerlaw
b = 1.0
r = 3.0

[sim]
dt = 0.01
""")
    out = str(tmp_path / "trace.json")
    assert main(["simulate", "--config", cfg, "--x0", "10", "--out", out]) == 0
    trace = _strict_json(open(out).read())["results"]["trace"]
    assert trace[-1][1] is None
    assert all(math.isfinite(x) for _, x in trace[:-1])


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", GBM_CONFIG.replace("1.5", "2.5"))
    assert main(["classify", "--config", cfg]) == 1
    assert main(["classify", "--config", str(tmp_path / "missing.ini")]) == 1
    for text, section, key in UNREAD_KEYS:
        cfg = write(tmp_path, "unread.ini", text)
        assert main(["classify", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"[{section}]" in err and key in err


def test_cli_usage_error_exit_code(capsys):
    # 2 is reserved for numeric failures
    assert main(["classify"]) == 1
    assert main(["classfy", "--config", "run.ini"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_builds_one_parser_for_many_calls(tmp_path):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    build_parser.cache_clear()
    for _ in range(3):
        assert main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "rep.json")]) == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_cli_calls_share_no_arguments(tmp_path):
    # a --seed given once does not stick to the parser: the next call
    # echoes the run file's seed (77)
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    query = ["passage", "--config", cfg, "--x0", "10", "--a", "1", "--t", "1"]
    seeds = []
    for extra in (["--seed", "7"], []):
        out = tmp_path / "p.json"
        assert main([*query, *extra, "--out", str(out)]) == 0
        seeds.append(json.loads(out.read_text())["config"]["mc"]["seed"])
    assert seeds == [7, 77]


def test_cli_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    out = tmp_path / "rep.json"
    good = ["classify", "--config", cfg, "--out", str(out)]
    assert main(good) == 0
    first = json.loads(out.read_text())["results"]
    out.unlink()
    assert main(["classify"]) == 1
    assert main(good) == 0
    assert json.loads(out.read_text())["results"] == first


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: nlbranch" in capsys.readouterr().out


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


# a start or a horizon no path can run from: (command, query, the
# argument the error names); GBM_CONFIG sets horizon_t = 2
BAD_QUERIES = [
    ("simulate", ["--x0", "-5"], "x0"),
    ("simulate", ["--x0", "0"], "x0"),
    ("simulate", ["--x0", "nan"], "x0"),
    ("simulate", ["--x0", "inf"], "x0"),
    ("simulate", ["--x0", "1e300"], "x0"),
    ("passage", ["--x0", "inf", "--a", "1", "--t", "1"], "x0"),
    ("passage", ["--x0", "10", "--a", "1", "--t", "0"], "t"),
    ("passage", ["--x0", "10", "--a", "1", "--t", "-1"], "t"),
    ("passage", ["--x0", "10", "--a", "1", "--t", "nan"], "t"),
    ("passage", ["--x0", "10", "--a", "1", "--t", "3"], "t"),
    ("passage", ["--x0", "10", "--a", "1", "--t", "1", "--threads", "0"],
     "threads"),
    ("passage", ["--x0", "10", "--a", "1", "--t", "1", "--threads", "-2"],
     "threads"),
]


@pytest.mark.parametrize("command, query, name", BAD_QUERIES,
                         ids=[f"{c} {' '.join(q)}" for c, q, _ in BAD_QUERIES])
def test_cli_rejects_a_start_or_horizon_no_path_runs_from(tmp_path, capsys,
                                                          command, query,
                                                          name):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    out = tmp_path / "out.json"
    assert main([command, "--config", cfg, *query, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be")
    assert not out.exists()


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


def test_cli_sweep_env_threads(tmp_path, monkeypatch, capsys):
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
    monkeypatch.setenv("NLBRANCH_THREADS", "0")
    os.remove(env)
    assert main(["sweep", "--config", cfg, "--grid", grid, "--format", "csv",
                 "--out", env]) == 1
    assert "[env] NLBRANCH_THREADS: must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(env)


def test_cli_sweep_names_each_failed_row_on_stderr(tmp_path, capsys):
    # row 0 asks for t = 5 past horizon_t = 2: its estimate fails, the
    # CSV keeps its nan row, stderr says why, and the sweep still exits 0
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    grid = write(tmp_path, "grid.csv",
                 "r0,r1,x0,a,t\n1.0,2.0,100,1,5\n1.0,2.0,100,1,1\n")
    for fmt in ("csv", "json"):
        out = tmp_path / f"rows.{fmt}"
        assert main(["sweep", "--config", cfg, "--grid", grid,
                     "--format", fmt, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("row 0: t must be in (0, horizon_t")
        if fmt == "csv":
            lines = out.read_text().splitlines()
            p_hats = [float(ln.split(",")[11]) for ln in lines[1:]]
        else:
            rows = json.loads(out.read_text())["results"]
            p_hats = [float(row["p_hat"]) for row in rows]
        assert p_hats[0] != p_hats[0] and 0.0 <= p_hats[1] <= 1.0


def test_cli_sweep_rejects_too_few_paths(tmp_path, capsys):
    # below 100 paths no row can be estimated: the run file is refused
    # before any row is written
    cfg = write(tmp_path, "gbm.ini",
                GBM_CONFIG.replace("n_paths = 400", "n_paths = 99"))
    grid = write(tmp_path, "grid.csv", "r0,r1\n1.0,2.0\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--grid", grid, "--format", "csv",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [mc] n_paths: ")
    assert not out.exists()


@pytest.mark.parametrize("header, body, key, message", [
    ("r_1,x0,a,t", "3.0,100,1,1", "r_1", "unknown column; known: r0, r1,"),
    ("r0,r1", "1.0,2.0,3.0", "", "more values than columns"),
], ids=["misspelt column", "extra value"])
def test_cli_sweep_rejects_a_grid_it_cannot_read(tmp_path, capsys, header,
                                                 body, key, message):
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    grid = write(tmp_path, "grid.csv", f"{header}\n{body}\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--grid", grid,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [grid] {key}".rstrip()) and message in err
    assert not out.exists()


SWEEP_REJECTS = [
    # a support cut with atoms names the atoms, a cut alone names u_max
    ("alpha = 1.5\n", "alpha = 1.5\nu_max = 5\n\n[model.nu]\natoms = 8:0.5\n",
     "model.nu", "atoms"),
    ("alpha = 1.5\n", "alpha = 1.5\nu_max = 5\n", "model", "u_max"),
    ("[model.a0]\ntype = powerlaw\nb = 1.0\nr = 1.0\n",
     "[model.a0]\ntype = tabulated\nknots = 0.1:0.1 10:10\n",
     "model.a0", "type"),
    ("[model.a1]\ntype = powerlaw\nb = 2.0\nr = 2.0\n",
     "[model.a1]\ntype = tabulated\nknots = 0.1:0.02 10:200\n",
     "model.a1", "type"),
    ("[model.a1]", "[model.a2]\ntype = tabulated\nknots = 0.1:0.1 10:1\n\n"
     "[model.a1]", "model.a2", "type"),
]


@pytest.mark.parametrize("old, new, section, key", SWEEP_REJECTS,
                         ids=["atoms", "u_max", "a0", "a1", "a2"])
def test_cli_sweep_rejects_what_a_row_cannot_carry(tmp_path, capsys, old, new,
                                                    section, key):
    # a sweep row is a full-support power-law model: a run file with a
    # support cut, atoms or a tabulated rate exits 1 naming the key, and
    # writes no rows
    assert old in GBM_CONFIG
    cfg = write(tmp_path, "run.ini", GBM_CONFIG.replace(old, new, 1))
    assert main(["classify", "--config", cfg]) == 0
    grid = write(tmp_path, "grid.csv", "r0,r1\n1.0,2.0\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", cfg, "--grid", grid, "--format", "csv",
                 "--out", str(out)]) == 1
    assert f"[{section}] {key}:" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_classify_tabulated(tmp_path):
    # the drift table is 5 below its first knot, so phi is -5/u + 1 near
    # zero although it changes sign on the small grid; past the last knot
    # phi is -200/u + 1 > 0 with a bounded h_rho, which the rules leave open
    cfg = write(tmp_path, "tab.ini", TABULATED_CONFIG)
    out = str(tmp_path / "rep.json")
    assert main(["classify", "--config", cfg, "--out", out]) == 0
    rep = json.loads(open(out).read())
    results = rep["results"]
    assert results["method"] == "symbolic"
    assert (results["no_extinction"], results["no_explosion"],
            results["infinity_behavior"]) == ("holds", "holds", "inconclusive")
    signs = [v for _, v in results["evidence"]["phi_small"]]
    assert min(signs) < 0.0 < max(signs)
    assert results["evidence"]["phi_terms"]["near_zero"][0] == [-5.0, -1.0, 0]
    assert "quad_evaluations" not in results["evidence"]
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
    # a power law on a cut support is decided exactly, with no quadrature
    assert results["method"] == "symbolic"
    assert results["infinity_behavior"] == "stays_infinite"
    evidence = results["evidence"]
    assert evidence["rho"] is None
    assert "quad_evaluations" not in evidence
    assert evidence["phi_sign_near_infinity"] == -1
    assert evidence["h_growth"] == [-0.5, -2]
    assert len(evidence["phi_large"]) == 8


def test_cli_numeric_failure_exit_code(tmp_path, monkeypatch):
    # a quadrature that cannot converge surfaces as exit code 2
    import nlbranch.cli as cli_mod
    from nlbranch.numerics import QuadratureError, QuadResult

    def boom(*a, **k):
        raise QuadratureError("no convergence", QuadResult(0.0, 1.0, 10))

    monkeypatch.setattr(cli_mod, "classify", boom)
    cfg = write(tmp_path, "gbm.ini", GBM_CONFIG)
    assert main(["classify", "--config", cfg]) == 2
