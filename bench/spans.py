"""Spans around the public functions of photongate, recorded from outside.

A layer is one module of the package. While a ``Tracer`` is installed, every
public function of ``core``, ``reflection``, ``gate``, ``cluster`` and ``cli``
is replaced, in every ``photongate.*`` namespace that binds it, by a wrapper
that records a span: name, layer, start, end, parent span and op id. Spans
stay in memory; run.py writes them once, at the end of a run.

Work counts are computed from the call arguments (grid size, phase count,
attempt count), never from timings, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("core", "reflection", "gate", "cluster", "cli")

#: Bytes of trajectory storage per step and trajectory: c and e, complex128.
TRAJ_BYTES_PER_STEP = 2 * 16


def _reflect_envelope_work(args) -> dict:
    return {"step_traj": args["f_in"].grid.n_steps}


def _motion_averaged_work(args) -> dict:
    return {"step_traj": args["f_in"].grid.n_steps * args["n_phi"]}


def _growth_work(args) -> dict:
    m, start = args["m"], args["start_length"]
    floored = start is not None and start <= 2 * m
    attempts = m * args["n_trials"]
    return {"attempts": attempts, "floored_attempts": attempts if floored else 0}


#: Functions that call the integrator directly, or run the growth walk, and
#: the work each call does, as a function of its bound arguments.
WORK = {
    ("reflection", "reflect_envelope"): _reflect_envelope_work,
    ("reflection", "reflect_coupled_motion_averaged"): _motion_averaged_work,
    ("cluster", "monte_carlo_growth"): _growth_work,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    work: dict = field(default_factory=dict)


def public_functions(module) -> list:
    """Module-level functions defined in ``module`` whose names are public."""
    return [
        obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, work=None):
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(fn.__name__, layer, 0.0,
                        parent=self._stack[-1] if self._stack else -1, op=self.op)
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound.arguments)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"photongate.{layer}"]
            for fn in public_functions(module):
                originals[id(fn)] = self._wrap(layer, fn, WORK.get((layer, fn.__name__)))
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "photongate" or name.startswith("photongate.")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[Span]) -> dict:
    """Self time per layer: each span's duration minus its direct children's.

    Summed over a layer this is the time spent in that layer's own code,
    with nested calls into the same layer counted once. The totals plus the
    untraced time between root spans (pass time minus ``root_time``) add up
    to the pass time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals = {layer: 0.0 for layer in LAYERS}
    for span, inner in zip(spans, child_time):
        totals[span.layer] += (span.end - span.start) - inner
    return totals


def root_time(spans: list[Span]) -> float:
    """Total duration of spans with no traced parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def layer_counts(spans: list[Span]) -> dict:
    """Per-layer call counts and the work counters derived from the inputs."""
    calls = {layer: 0 for layer in LAYERS}
    for span in spans:
        calls[span.layer] += 1

    def under_gate(i: int) -> bool:
        while i >= 0:
            if spans[i].name == "gate_from_simulation":
                return True
            i = spans[i].parent
        return False

    sims = sum(1 for s in spans if s.name == "gate_from_simulation")
    gate_reflects = [s for s in spans
                     if s.name == "reflect_envelope" and under_gate(s.parent)]
    step_traj = sum(s.work.get("step_traj", 0) for s in spans)
    attempts = sum(s.work.get("attempts", 0) for s in spans)
    floored = sum(s.work.get("floored_attempts", 0) for s in spans)
    return {
        "spans": len(spans),
        "counted_spans": sum(1 for s in spans if s.work),
        "calls": calls,
        "step_traj": step_traj,
        "traj_bytes": step_traj * TRAJ_BYTES_PER_STEP,
        "sims": sims,
        "gate_reflect_calls": len(gate_reflects),
        "gate_step_traj": sum(s.work["step_traj"] for s in gate_reflects),
        "attempts": attempts,
        "floored_attempts": floored,
    }


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> dict:
    """Seconds a tracer wrapper adds to one call, measured on a no-op.

    ``plain`` is a wrapper that records a span, ``counted`` one that also
    binds the arguments to count the work. Each is the median over
    ``repeats`` loops of ``calls`` wrapped calls, less the same loop of
    bare calls.
    """
    def noop(f_in, n_phi=1):
        return None

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(None)
        return time.perf_counter() - start

    tracer = Tracer()
    wrappers = {"plain": tracer._wrap("core", noop),
                "counted": tracer._wrap("core", noop, lambda args: {"n": 1})}
    cost = {}
    for kind, wrapped in wrappers.items():
        samples = []
        for _ in range(repeats):
            tracer.spans.clear()
            samples.append((loop(wrapped) - loop(noop)) / calls)
        cost[kind] = statistics.median(samples)
    return cost


def overhead_seconds(counts: dict, cost: dict) -> float:
    """Estimated time the wrappers add to a pass with these span counts."""
    plain = counts["spans"] - counts["counted_spans"]
    return plain * cost["plain"] + counts["counted_spans"] * cost["counted"]
