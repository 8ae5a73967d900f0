"""Record reference outputs that later runs of the same seed must reproduce.

Run from the repository root with this checkout's sources:

    PYTHONPATH=src python3 bench/reference.py 0 1 2

For each seed and workload it runs one pass, refuses to record an output
that fails its checks, and stores the compared fields in
``bench/reference.json`` (merged with what is there).
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import hostspeed
from run import REFERENCE, collect, run_pass
from workloads import WORKLOADS


def reference_fields(workload: str, out: dict) -> dict:
    ref = {k: out[k] for k in checks.REFERENCE_FIELDS[workload]}
    ref.update({k: out[k] for k in ("growth", "floored") if k in out})
    return ref


def main(seeds) -> int:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            ops = workload.ops(seed)
            with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
                raws, _ = run_pass(workload, ops, Path(tmp), hostspeed.Stopwatch(sampling=False))
                outs = collect(workload, ops, Path(tmp), raws)
            for i, (op, out) in enumerate(zip(ops, outs)):
                problems = checks.check(name, op, out)
                if problems:
                    print(f"{name} seed {seed} op {i}: {problems}", file=sys.stderr)
                    return 1
            table.setdefault(name, {})[str(seed)] = [reference_fields(name, o) for o in outs]
            print(f"recorded {name} seed {seed}", flush=True)
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0]))
