"""photongate benchmark: one workload in a fresh process, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload bare_sweep --seed 1 --seconds 35 --trace 0

The seed draws the workload's op parameters inside fixed strata. The load is
a closed loop with one client: ops run back to back in this process, with no
thread or process pool. The run repeats passes over the op list for
``--seconds`` (see ``measure``), times every step of every op while
sampling the host's speed (``hostspeed``), then checks every output (check
and sampling time are not part of any timing). With ``--trace 0`` it
first times set-up in
several fresh probe processes, and the last line of stdout is a JSON object
with every end-to-end metric. With ``--trace 1`` every pass is traced and
the last line holds every per-layer metric. A full record of the run
(samples, op parameters, outputs, check results, environment, spans) goes
to ``bench/out/``.

Exits 0 after printing a result, even when checks failed (``correct`` is
then false); exits nonzero without a result when the program cannot run,
for example when ``src/photongate`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # Before numpy and photongate load: one BLAS thread and this checkout's
    # sources, in this process and in the set-up probes it starts.
    if not (SRC / "photongate" / "__init__.py").is_file():
        sys.exit(f"no photongate sources under {SRC}")
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"), PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import photongate  # noqa: E402
import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = BENCH / "reference.json"


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "photongate": photongate.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def setup_times(workload: str, seed: int) -> list[float]:
    """Time from starting a fresh set-up process to the end of its set-up,
    on the system-wide monotonic clock. The first process, which fills the
    file and bytecode caches, is not counted."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                              cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if i:
            times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_pass(workload, ops, workdir: Path, watch, tracer=None, fits=None):
    """Runs ``ops`` in order, each timed by ``watch``, while ``fits(i)`` says
    op ``i`` is expected to end in time. Returns the raw results of the ops
    run and the wall time each took, speed sampling included. A failed op
    is counted, and the pass goes on."""
    raws, walls = [], []
    for i, op in enumerate(ops):
        if fits is not None and not fits(i):
            break
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        with watch.op(i):
            try:
                raw = workload.run(op, workdir / f"op-{i}.csv", watch.lap)
            except Exception:
                raw = {"exception": traceback.format_exc(limit=3)}
        raws.append(raw)
        walls.append(time.perf_counter() - t0)
    return raws, walls


def collect(workload, ops, workdir: Path, raws) -> list[dict]:
    outs = []
    for i, (op, raw) in enumerate(zip(ops, raws)):
        if isinstance(raw, dict) and "exception" in raw:
            outs.append(raw)
            continue
        try:
            outs.append(workload.collect(op, workdir / f"op-{i}.csv", raw))
        except (OSError, ValueError, KeyError) as exc:
            outs.append({"exception": f"unreadable output: {exc!r}"})
    return outs


def find_failures(workload: str, ops, outputs, refs=None) -> list[dict]:
    """One entry per op output, in any pass, that fails a check."""
    if refs is not None and len(refs) != len(ops):
        return [{"pass": p, "op": i, "problems": [
                    f"reference has {len(refs)} entries for {len(ops)} ops"]}
                for p, outs in enumerate(outputs) for i in range(len(outs))]
    failures = []
    for p, outs in enumerate(outputs):
        for i, (op, out) in enumerate(zip(ops, outs)):
            problems = checks.check(workload, op, out, refs[i] if refs else None)
            if problems:
                failures.append({"pass": p, "op": i, "problems": problems})
    return failures


def measure(workload, ops, seconds: float, traced: bool, workdir: Path) -> dict:
    """Passes over ``ops`` for ``seconds``. The first pass always runs whole;
    after it, an op starts only if its previous run says it ends in time, so
    the last pass may stop part way."""
    # a traced run does not sample the host's speed: its spans would hold the samples
    watch = hostspeed.Stopwatch(sampling=not traced)
    passes, tracers, outputs, walls = [], [], [], []
    start = time.perf_counter()

    def fits(i: int) -> bool:
        return not passes or time.perf_counter() - start + walls[i] <= seconds

    while True:
        tracer = spans.Tracer() if traced else None
        first = len(watch.segments)
        with tracer or contextlib.nullcontext():
            raws, pass_walls = run_pass(workload, ops, workdir, watch, tracer, fits)
        if not raws:
            break
        walls[:len(pass_walls)] = pass_walls
        segments = watch.segments[first:]
        outs = collect(workload, ops[:len(raws)], workdir, raws)
        record = {"complete": len(raws) == len(ops),
                  "seconds": sum(seg["seconds"] for seg in segments),
                  "op_seconds": [sum(seg["seconds"] for seg in segments if seg["op"] == i)
                                 for i in range(len(raws))],
                  "csv_bytes": sum(o.get("csv_bytes", 0) for o in outs)}
        if tracer and record["complete"]:
            # layer self times plus the time outside every span make up the pass
            record.update(layer_self_s=spans.self_times(tracer.spans),
                          outside_spans_s=record["seconds"] - spans.root_time(tracer.spans),
                          counts=spans.layer_counts(tracer.spans))
            tracers.append(tracer)
        if not passes:
            # peak memory through one pass, so it does not depend on how many fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(record)
        outputs.append(outs)
        if not record["complete"]:
            break
    return {"passes": passes, "tracers": tracers, "outputs": outputs,
            "segments": watch.segments, "peak_rss_mb": peak_rss_mb}


def layer_metrics(passes: list[dict], wrapper_cost: dict) -> dict:
    """Per-layer metrics of the whole traced passes: self times are medians
    over those passes, counts (equal in every pass) come from the first. The
    tracing overhead is the span count times the per-wrapper cost, as a
    share of the pass time without it."""
    passes = [p for p in passes if "counts" in p]
    c = passes[0]["counts"]
    if any(p["counts"] != c for p in passes):
        raise RuntimeError("work counts differ between traced passes of one op list")

    def self_s(layer):
        return statistics.median(p["layer_self_s"][layer] for p in passes)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = c["calls"][layer]
        m[f"{layer}.self_s"] = self_s(layer)
    m["reflection.step_traj"] = c["step_traj"]
    m["reflection.steps_per_s"] = rate(c["step_traj"], m["reflection.self_s"])
    m["reflection.traj_bytes"] = c["traj_bytes"]
    m["gate.reflect_calls_per_sim"] = c["gate_reflect_calls"] / c["sims"] if c["sims"] else 0
    m["gate.step_traj_per_sim"] = c["gate_step_traj"] / c["sims"] if c["sims"] else 0
    m["cluster.attempts"] = c["attempts"]
    m["cluster.attempts_per_s"] = rate(c["attempts"], m["cluster.self_s"])
    m["cluster.floored_share"] = c["floored_attempts"] / c["attempts"] if c["attempts"] else 0.0
    m["cli.csv_bytes"] = passes[0]["csv_bytes"]
    overhead = spans.overhead_seconds(c, wrapper_cost)
    m["trace.overhead_frac"] = overhead / (
        statistics.median(p["seconds"] for p in passes) - overhead)
    return m


def write_spans(path: Path, tracers) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps({"pass": n, **asdict(span)}) + "\n")


def main(argv=None) -> int:
    spec = metrics.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(photongate.__file__).resolve().parent.parent != SRC:
        print(f"photongate imported from {photongate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = OUT / f"{name}.json"
    record_path.unlink(missing_ok=True)
    try:
        setup = [] if args.trace else setup_times(args.workload, args.seed)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        # the CLI reports each file it writes on stdout, whose last line is ours
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            run = measure(workload, ops, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    refs = references.get(args.workload, {}).get(str(args.seed))
    failures = find_failures(args.workload, ops, run["outputs"], refs)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "definition": {"why": next(w["why"] for w in spec["workloads"]
                                   if w["name"] == args.workload),
                       "op": workload.op, "strata": workload.strata},
        "env": environment(), "ops": ops, "reference_checked": refs is not None,
        "attempted": sum(len(outs) for outs in run["outputs"]),
        "failed": len(failures), "failures": failures,
        "passes": run["passes"], "segments": run["segments"],
        "outputs": run["outputs"][0],
        "peak_rss_mb": run["peak_rss_mb"], "setup_s_samples": setup,
    }
    if args.trace:
        record["wrapper_cost_s"] = spans.wrapper_cost()
        values = layer_metrics(run["passes"], record["wrapper_cost_s"])
        write_spans(OUT / f"{name}.spans.jsonl", run["tracers"])
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {"setup_s": statistics.median(setup),
                  "pass_ref_s": hostspeed.pass_ref_s(run["segments"]),
                  "peak_rss_mb": run["peak_rss_mb"]}
        record["raw_wall_s"] = statistics.median(p["seconds"] for p in run["passes"]
                                                 if p["complete"])
        names = [m["name"] for m in spec["end_to_end"]]
    units = metrics.units(spec)
    result = {"correct": not failures, "attempted": record["attempted"],
              "failed": len(failures),
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}
    record["result"] = result
    record_path.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(record['passes'])} passes, {len(setup)} set-up samples, "
          f"{record['attempted']} ops attempted, {record['failed']} failed, "
          f"reference checked: {record['reference_checked']}")
    print(f"# env: {json.dumps(record['env'], sort_keys=True)}")
    for failure in failures[:10]:
        print(f"# FAILED op {failure['op']} (pass {failure['pass']}): "
              f"{'; '.join(failure['problems'])}")
    if "raw_wall_s" in record:
        print(f"# median wall time of a whole pass, not rescaled: {record['raw_wall_s']:.6g} s")
    for n in names:
        print(f"# {n} = {values[n]:.6g} {units[n]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
