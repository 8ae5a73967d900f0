import copy

import pytest

from photongate import cluster, core, reflection
import checks
import hostspeed
from run import collect, find_failures, run_pass
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def bare_run(tmp_path_factory):
    w = WORKLOADS["bare_sweep"]
    ops = w.ops(0)[:2]
    workdir = tmp_path_factory.mktemp("bare")
    raws, _ = run_pass(w, ops, workdir, hostspeed.Stopwatch(sampling=False))
    return ops, collect(w, ops, workdir, raws)


def test_bare_oracle_accepts_the_solver():
    p = core.CavityParams(kappa_l=0.1)
    rec = reflection.reflect_bare(p, core.make_sech_pulse(10.0, core.default_time_grid(10.0, p)))
    want = checks.bare_oracle(10.0, 0.1)
    assert abs(rec.P - want["P"]) <= checks.ORACLE_TOL["P"]
    assert abs(rec.F - want["F"]) <= checks.ORACLE_TOL["F"]
    assert checks._wrapped(rec.phase - want["phase"]) <= checks.ORACLE_TOL["phase"]


@pytest.mark.parametrize("start_length", [None, 10, 0])
def test_growth_recount_matches_the_program(start_length):
    stats = cluster.monte_carlo_growth(0.66, 400, 25, seed=7, start_length=start_length)
    want = checks.growth_recount(0.66, 400, 25, 7, start_length)
    assert (stats.mean_delta, stats.std_err, stats.floor_hits) == (
        want["mean_delta"], want["std_err"], want["floor_hits"])
    if start_length is not None:
        assert want["floor_hits"] > 0


def test_solver_outputs_pass_every_check(bare_run):
    ops, outs = bare_run
    assert find_failures("bare_sweep", ops, [outs, outs]) == []


@pytest.mark.parametrize("key,delta", [("P", 1e-6), ("F", 1e-7), ("phase", 1e-6),
                                       ("loss_cavity", 2e-6)])
def test_a_perturbed_output_is_counted_as_failed(bare_run, key, delta):
    ops, outs = bare_run
    bad = copy.deepcopy(outs)
    bad[1][key] += delta
    failures = find_failures("bare_sweep", ops, [outs, bad])
    assert [(f["pass"], f["op"]) for f in failures] == [(1, 1)]


def test_row_errors_exceptions_and_reference_drift_are_failures(bare_run):
    ops, outs = bare_run
    errored = dict(outs[0], error="integrator diverged")
    raised = {"exception": "SolverError"}
    assert checks.check("bare_sweep", ops[0], errored)
    assert checks.check("bare_sweep", ops[0], raised)
    ref = {k: outs[0][k] for k in checks.REFERENCE_FIELDS["bare_sweep"]}
    assert checks.check("bare_sweep", ops[0], outs[0], ref) == []
    ref["F"] += 2e-8
    assert checks.check("bare_sweep", ops[0], outs[0], ref)


def test_a_reference_for_another_op_list_fails_every_op(bare_run):
    ops, outs = bare_run
    refs = [{k: o[k] for k in checks.REFERENCE_FIELDS["bare_sweep"]} for o in outs]
    assert find_failures("bare_sweep", ops, [outs], refs) == []
    assert len(find_failures("bare_sweep", ops, [outs, outs], refs[:1])) == 4


def test_perturbed_growth_statistics_fail_the_gate_check():
    op = {"T_f": 10.0, "A": {"kappa_l": 0.05}}
    P0 = checks.bare_oracle(10.0, 0.05)["P"]
    stats = cluster.monte_carlo_growth(0.68, 300, 20, seed=3, start_length=10)
    growth = cluster.monte_carlo_growth(0.68, 300, 20, seed=3)
    out = {"rc": 0, "P_L": 0.4, "P_R": 0.28, "P_total": 0.68, "F_L": 0.9, "F_R": 0.9,
           "F_avg": 0.9, "P0": P0, "P1": 0.8,
           "growth": {"P": "0.68", "m": "300", "n_trials": "20", "seed": "3",
                      "mean_delta": f"{growth.mean_delta:.12g}",
                      "std_err": f"{growth.std_err:.12g}",
                      "floor_hits": str(growth.floor_hits)},
           "floored": {"P": 0.68, "m": 300, "n_trials": 20, "seed": 3, "start_length": 10,
                       "mean_delta": stats.mean_delta, "std_err": stats.std_err,
                       "floor_hits": stats.floor_hits}}
    assert checks.check("gate_chain", op, out) == []
    bad = copy.deepcopy(out)
    bad["floored"]["floor_hits"] += 1
    assert checks.check("gate_chain", op, bad)
    bad = copy.deepcopy(out)
    bad["growth"]["mean_delta"] = "0"
    assert checks.check("gate_chain", op, bad)
    bad = copy.deepcopy(out)
    bad["growth"]["P"] = "0.680000000001"
    assert checks.check("gate_chain", op, bad)
    bad = copy.deepcopy(out)
    bad["P0"] += 1e-6
    assert checks.check("gate_chain", op, bad)
