#!/usr/bin/env python3
"""Steadiness check for the gridctl benchmark.

    python3 gridbench/steady.py

Runs every workload at seeds 1..10 in two sets of the same build,
through run.py exactly as BENCHMARK.json's command does. The sets are
interleaved (seed 1 of set 1, seed 1 of set 2, seed 2 of set 1, ...),
so a slow or fast spell of the host does not line up with one set. For
each end-to-end metric and workload it reports the median and the
quartile spread (Q3 - Q1) / median of each set, and

  * gate: each set's spread stays within the metric's bound, set 2's
    median is no worse than set 1's by more than the bound, and the
    deterministic outputs (cost, volatility, over-budget energy and,
    from one traced run per set at seed 1, the solver counters) repeat
    exactly at each seed;
  * target: every spread is below a third of the bound.

Writes the table, the raw values and the host context to
gridbench/results/steady.json. Exits 1 when a gate check fails.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "results" / "steady.json"
RUNS = 10
SETS = 2
DETERMINISTIC = ("cost_usd", "volatility_mw", "over_budget_mwh")
DETERMINISTIC_LAYERS = ("solvers.qp_iters_per_tick", "solvers.qp_iters_max",
                        "solvers.warm_start_hit_frac",
                        "control.reference_calls_per_tick",
                        "controlplane.factor_cache_misses", "check.violations")


def run_once(spec, workload, seed, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")),
                "")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, host


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def worse_by(metric, first, later):
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    raw = {w: [[] for _ in range(SETS)] for w in workloads}
    layers = {w: [] for w in workloads}
    host = ""
    for seed in range(1, RUNS + 1):
        for s in range(SETS):
            for workload in workloads:
                values, host = run_once(spec, workload, seed, 0)
                raw[workload][s].append(values)
                print(f"set {s + 1} {workload} seed {seed}: " +
                      ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      flush=True)
                if seed == 1:
                    values, _ = run_once(spec, workload, seed, 1)
                    layers[workload].append(values)

    ok = True
    table = []
    for workload in workloads:
        sets = raw[workload]
        for name, metric in metrics.items():
            row = {"workload": workload, "metric": name,
                   "bound": metric["bound"], "sets": []}
            for runs in sets:
                median, iqr = spread([r[name] for r in runs])
                row["sets"].append({"median": median, "spread": iqr})
            row["median_change"] = worse_by(metric, row["sets"][0]["median"],
                                            row["sets"][1]["median"])
            spread_ok = all(x["spread"] <= metric["bound"] for x in row["sets"])
            median_ok = row["median_change"] <= metric["bound"]
            repeat_ok = name not in DETERMINISTIC or all(
                runs[i][name] == sets[0][i][name]
                for runs in sets for i in range(RUNS))
            row["ok"] = spread_ok and median_ok and repeat_ok
            row["target"] = all(x["spread"] < metric["bound"] / 3
                                for x in row["sets"])
            ok &= row["ok"]
            table.append(row)
            spreads = " ".join(f"{x['spread']:7.4f}" for x in row["sets"])
            print(f"{'ok ' if row['ok'] else 'BAD'} "
                  f"{'target' if row['target'] else 'wide  '} {workload:12s} "
                  f"{name:16s} median {row['sets'][0]['median']:<12.6g} "
                  f"spread {spreads} (bound {metric['bound']}) "
                  f"median change {row['median_change']:+.4f}"
                  + ("" if repeat_ok else " NOT REPEATED"))
    for workload, runs in layers.items():
        for name in DETERMINISTIC_LAYERS:
            same = all(r.get(name) == runs[0].get(name) for r in runs)
            ok &= same
            print(f"{'ok ' if same else 'BAD'} {workload:12s} {name} "
                  f"{runs[0].get(name)} repeats across sets: {same}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"host": host, "runs": RUNS, "sets": SETS,
                               "ok": ok, "table": table, "traced": layers,
                               "raw": raw}, indent=1) + "\n")
    print(f"steady: {'all checks pass' if ok else 'CHECKS FAILED'}; "
          f"written to {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
