"""Run the benchmark on several seeds and report each metric's median,
quartiles and spread (interquartile distance over the median) against
its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload passage_jump --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 \
        --out perfbench/baseline.json

Runs are sequential subprocesses of run.py.  --out writes the record:
environment, per-run results and elapsed seconds, and the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), elapsed, lines[:-1]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" \
        else args.workload.split(",")
    spec = {m["name"]: m for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    record = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            result, elapsed, detail = run_once(name, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "elapsed_s": elapsed, "result": result,
                         "detail": detail[:1]})
            print(f"{name} seed={seed} elapsed={elapsed:.1f}s "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        summary = {}
        for metric, m in spec.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = summarize(values) if len(values) > 1 else \
                {"median": values[0]}
            s = summary[metric]
            bound = m.get("bound")
            flag = "" if bound is None or s.get("spread", 0) <= bound / 3 else \
                "  over a third of the bound" if s["spread"] <= bound else "  OVER BOUND"
            print(f"  {metric:<28} median={s['median']:<12.6g} "
                  f"spread={s.get('spread', 0):.4f} bound={bound}{flag}")
        fail = [r["result"]["failed"] / r["result"]["attempted"] for r in runs]
        summary["fail_ratio"] = {"median": statistics.median(fail)}
        print(f"  fail_ratio median={summary['fail_ratio']['median']:.4f}  "
              f"max elapsed={max(r['elapsed_s'] for r in runs):.1f}s")
        record["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
