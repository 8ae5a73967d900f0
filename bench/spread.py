"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the repository root:

    python3 bench/spread.py --seeds 1-10 --out bench/results/baseline.json

Each (workload, seed) run is a separate ``bench/run.py`` process, workloads
interleaved seed by seed. For every end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound in BENCHMARK.json. Op
latencies are pooled over all runs for the percentiles a single run has too
few samples for. ``--trace`` adds one traced run per workload. The output
file keeps every raw sample, the workload definitions and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "result": result, "env": record["env"],
            "definition": record["definition"],
            "setup_s_samples": record["setup_s_samples"],
            "pass_seconds": [p["seconds"] for p in record["passes"]],
            "op_seconds": [p["op_seconds"] for p in record["passes"]]}


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def pooled(samples: list[float]) -> dict:
    """Median, and p90 (nearest rank) when at least ten samples lie beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "p50": statistics.median(s)}
    rank = math.ceil(0.9 * len(s)) - 1
    out["beyond_p90"] = len(s) - rank - 1
    out["p90"] = s[rank] if out["beyond_p90"] >= 10 else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = metrics.load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {w: [] for w in workloads}
    definitions = {}
    for seed in args.seeds:
        for w in workloads:
            r = run(w, seed, spec["run_seconds"], 0)
            definitions[w] = r.pop("definition")
            runs[w].append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["result"]["metrics"].items())
            print(f"{w} seed {seed}: correct={r['result']['correct']} "
                  f"failed={r['result']['failed']}/{r['result']['attempted']} {vals}",
                  flush=True)

    summary, op_pools = {}, {}
    for w, rs in runs.items():
        summary[w] = {m: summarise([r["result"]["metrics"][m]["value"] for r in rs], b)
                      for m, b in bounds.items()}
        op_pools[w] = pooled([t for r in rs for p in r["op_seconds"] for t in p])
        for m, s in summary[w].items():
            status = "ok" if s["spread"] <= s["bound"] / 3 else (
                "within bound" if s["spread"] <= s["bound"] else "WIDE")
            print(f"{w:12s} {m:12s} median {s['median']:.5g}  IQR/median "
                  f"{s['spread']:.4f}  bound {s['bound']}  {status}")
        print(f"{w:12s} pooled op latency: {json.dumps(op_pools[w])}")

    layers = {}
    if args.trace:
        for w in workloads:
            r = run(w, args.seeds[0], spec["run_seconds"], 1)
            layers[w] = {"seed": r["seed"], "correct": r["result"]["correct"],
                         "metrics": r["result"]["metrics"]}
            print(f"{w} traced: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["result"]["metrics"].items()))

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "env": runs[workloads[0]][0]["env"],
            "benchmark": spec,
            "metrics": metrics.table(spec),
            "workloads": definitions,
            "summary": summary, "pooled_op_s": op_pools, "layers": layers, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
