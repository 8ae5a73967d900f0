"""What each metric means beyond its name and unit, which ``BENCHMARK.json``
at the repository root gives.

A per-layer metric's layer is the part of its name before the first dot.
"""

import json
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: End-to-end metrics, untraced run, every workload.
DESCRIPTION = {
    "setup_s": "median over fresh processes of the time from process start "
               "through import photongate and the first op's grid and pulse",
    "pass_ref_s": "time of one pass over the workload's op list at the reference "
                  "host speed: each op step's time rescaled by the speed sampled "
                  "while it ran (bench/hostspeed.py), median over the run per "
                  "step, summed over the steps",
    "peak_rss_mb": "peak resident memory of the workload's process through "
                   "its first pass",
}

_ALL = ("bare_sweep", "coupled_avg", "gate_chain")
_SWEEPS = ("bare_sweep", "coupled_avg")
_GATE = ("gate_chain",)
_WALL = ("pass_ref_s",)

#: Per-layer metrics, traced run: (end-to-end metrics a change in the layer
#: should move, workloads it should move them on).
SHOULD_MOVE = {
    "core.calls": (("setup_s",), _ALL),
    "core.self_s": (("setup_s",), _ALL),
    "reflection.calls": (_WALL, _ALL),
    "reflection.self_s": (_WALL, _ALL),
    "reflection.step_traj": (_WALL, _ALL),
    "reflection.steps_per_s": (_WALL, _ALL),
    "reflection.traj_bytes": (("peak_rss_mb",), ("coupled_avg",)),
    "gate.calls": (_WALL, _GATE),
    "gate.self_s": (_WALL, _GATE),
    "gate.reflect_calls_per_sim": (_WALL, _GATE),
    "gate.step_traj_per_sim": (_WALL, _GATE),
    "cluster.calls": (_WALL, _GATE),
    "cluster.self_s": (_WALL, _GATE),
    "cluster.attempts": (_WALL, _GATE),
    "cluster.attempts_per_s": (_WALL, _GATE),
    "cluster.floored_share": (_WALL, _GATE),
    "cli.calls": (_WALL, _SWEEPS),
    "cli.self_s": (_WALL, _SWEEPS),
    "cli.csv_bytes": (_WALL, _SWEEPS),
    "trace.overhead_frac": ((), _ALL),
}


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text())


def units(spec: dict) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def table(spec: dict) -> dict:
    """The metric definitions as JSON-able data, for result files."""
    return {
        "end_to_end": [{"name": m["name"], "unit": m["unit"],
                        "what": DESCRIPTION[m["name"]]} for m in spec["end_to_end"]],
        "per_layer": [{"name": m["name"], "unit": m["unit"],
                       "layer": m["name"].split(".")[0],
                       "should_move": list(SHOULD_MOVE[m["name"]][0]),
                       "on": list(SHOULD_MOVE[m["name"]][1])} for m in spec["per_layer"]],
    }
