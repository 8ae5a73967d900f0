import pytest

from workloads import GATE_MAX_TF_G0, N_PHI, WORKLOADS

SEEDS = range(40)


def step_traj(workload, ops):
    """Grid points times trajectories of one pass; the gate reflects 16 branches."""
    per_op = {"bare_sweep": 1, "coupled_avg": N_PHI, "gate_chain": 16}[workload.name]
    return sum(workload.grid_and_pulse(op)[0].n_steps * per_op for op in ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ops_are_deterministic_per_seed(name):
    w = WORKLOADS[name]
    assert w.ops(3) == w.ops(3)
    assert w.ops(3) != w.ops(4)
    assert len(w.ops(3)) == len(w.strata)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_step_count_spread_between_seeds_is_a_few_percent(name):
    w = WORKLOADS[name]
    totals = [step_traj(w, w.ops(seed)) for seed in SEEDS]
    assert max(totals) / min(totals) - 1.0 <= 0.03


def test_ops_stay_inside_their_strata():
    for seed in SEEDS:
        for name in ("bare_sweep", "coupled_avg"):
            w = WORKLOADS[name]
            for stratum, op in zip(w.strata, w.ops(seed)):
                for key, bounds in stratum.items():
                    if isinstance(bounds, tuple):
                        assert bounds[0] <= op[key] <= bounds[1]
                    else:
                        assert op[key] == bounds
        (op,) = WORKLOADS["gate_chain"].ops(seed)
        assert 10.0 <= op["T_f"] <= 30.0
        assert op["A"] != op["B"]
        for node in (op["A"], op["B"]):
            assert 2.0 <= node["g_avg"] <= 5.0
            assert op["T_f"] * node["g0"] <= GATE_MAX_TF_G0 + 1e-9
            assert 0.0 <= node["kappa_l"] <= 0.1
            assert node["T_g"] in (50.0, 125.0)


def test_coupled_ops_include_the_top_coupling_stratum_at_the_long_pulse():
    for seed in SEEDS:
        ops = WORKLOADS["coupled_avg"].ops(seed)
        assert any(op["T_f"] == 50.0 and op["g_avg"] >= 4.85 for op in ops)
