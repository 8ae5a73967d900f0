import math

import pytest

import photongate
from photongate import cli, core, reflection
import spans
from spans import Span


def tree():
    # cli.main [0, 10] -> reflection.sweep [1, 9] -> core.grid [2, 3]
    #                                             -> reflection.reflect [4, 8]
    #                                                -> reflection.integrate [5, 7]
    #                  -> reflection.write_csv [9.5, 9.75]
    return [
        Span("main", "cli", 0.0, 10.0, parent=-1),
        Span("sweep", "reflection", 1.0, 9.0, parent=0),
        Span("default_time_grid", "core", 2.0, 3.0, parent=1),
        Span("reflect_bare", "reflection", 4.0, 8.0, parent=1),
        Span("reflect_envelope", "reflection", 5.0, 7.0, parent=3),
        Span("write_sweep_csv", "reflection", 9.5, 9.75, parent=0),
        Span("main", "cli", 12.0, 13.0, parent=-1),
    ]


def test_self_times_of_a_synthetic_tree():
    selfs = spans.self_times(tree())
    assert selfs["cli"] == pytest.approx((10.0 - 8.0 - 0.25) + 1.0)
    assert selfs["core"] == pytest.approx(1.0)
    # same-layer nesting counted once: sweep [1, 9] minus the core child
    assert selfs["reflection"] == pytest.approx(8.0 - 1.0 + 0.25)
    assert selfs["gate"] == selfs["cluster"] == 0.0


def test_self_times_and_outside_time_account_for_the_pass():
    s = tree()
    pass_time = 14.0
    outside = pass_time - spans.root_time(s)
    assert outside == pytest.approx(3.0)
    assert sum(spans.self_times(s).values()) + outside == pytest.approx(pass_time)


def test_tracer_wraps_every_binding_and_restores_it():
    original = core.default_time_grid
    assert reflection.default_time_grid is original
    tracer = spans.Tracer()
    with tracer:
        assert core.default_time_grid is not original
        assert reflection.default_time_grid is core.default_time_grid
        assert photongate.default_time_grid is core.default_time_grid
        assert cli.default_time_grid is core.default_time_grid
        grid = reflection.default_time_grid(10.0)
        reflection.reflect_bare(core.CavityParams(), core.make_sech_pulse(10.0, grid))
    assert core.default_time_grid is original
    assert reflection.default_time_grid is original
    names = [(s.layer, s.name) for s in tracer.spans]
    assert names == [("core", "default_time_grid"), ("core", "make_sech_pulse"),
                     ("reflection", "reflect_bare"), ("reflection", "reflect_envelope")]
    assert tracer.spans[3].parent == 2
    counts = spans.layer_counts(tracer.spans)
    assert counts["step_traj"] == grid.n_steps
    assert counts["traj_bytes"] == grid.n_steps * 32
    assert counts["calls"] == {"core": 2, "reflection": 2, "gate": 0, "cluster": 0, "cli": 0}
    assert (counts["spans"], counts["counted_spans"]) == (4, 1)


def test_growth_work_counts_floored_attempts():
    tracer = spans.Tracer()
    with tracer:
        photongate.cluster.monte_carlo_growth(0.7, 50, 4, seed=1)
        photongate.cluster.monte_carlo_growth(0.7, 50, 6, seed=1, start_length=10)
    counts = spans.layer_counts(tracer.spans)
    assert counts["attempts"] == 50 * 10
    assert counts["floored_attempts"] == 50 * 6
    assert math.isclose(counts["floored_attempts"] / counts["attempts"], 0.6)


def test_overhead_is_the_span_count_times_the_wrapper_cost():
    counts = {"spans": 10, "counted_spans": 3}
    cost = {"plain": 1e-6, "counted": 4e-6}
    assert spans.overhead_seconds(counts, cost) == pytest.approx(7 * 1e-6 + 3 * 4e-6)
    measured = spans.wrapper_cost(calls=2000, repeats=3)
    assert measured["plain"] > 0 and measured["counted"] > 0
