import time

import pytest

import hostspeed
from run import measure
from workloads import Workload


def seg(op, step, seconds, slowness=1.0, samples=1):
    return {"op": op, "step": step, "seconds": seconds,
            "speed_samples": samples if slowness else 0, "slowness": slowness}


def test_pass_time_sums_the_per_step_medians_of_rescaled_times():
    segments = [seg(0, 0, 1.0), seg(1, 0, 2.0), seg(1, 1, 0.5),
                seg(0, 0, 1.2), seg(1, 0, 2.0, slowness=2.0), seg(1, 1, 0.7),
                seg(0, 0, 5.0)]
    # op 0: median(1.0, 1.2, 5.0); op 1 step 0: median(2.0, 1.0), the second
    # at half speed; step 1: median(0.5, 0.7)
    assert hostspeed.pass_ref_s(segments) == pytest.approx(1.2 + 1.5 + 0.6)


def test_a_step_without_samples_takes_the_runs_mean_speed():
    segments = [seg(0, 0, 3.0, slowness=2.0, samples=3), seg(0, 1, 0.01, slowness=None),
                seg(0, 0, 1.0, slowness=1.0, samples=1)]
    # step 0: median(3.0 / 2, 1.0); step 1 at the run's mean slowness,
    # (3 * 2 + 1) / 4 = 1.75
    assert hostspeed.pass_ref_s(segments) == pytest.approx(1.25 + 0.01 / 1.75)


def _fake(steps, sleep=0.0):
    def run(op, path, lap):
        for _ in range(steps - 1):
            time.sleep(sleep)
            lap()
        time.sleep(sleep)
        return {"op": op}

    return Workload(name="fake", op="", strata=(), draw=None, grid_and_pulse=None,
                    run=run, collect=lambda op, path, raw: raw)


def test_the_first_pass_runs_whole_and_each_step_is_a_segment(tmp_path):
    run = measure(_fake(steps=2), [1, 2, 3], 0.0, False, tmp_path)
    assert len(run["passes"]) == 1 and run["passes"][0]["complete"]
    assert [(s["op"], s["step"]) for s in run["segments"]] == [
        (i, j) for i in range(3) for j in range(2)]


def test_speed_is_sampled_while_a_step_runs_and_its_time_is_left_out(tmp_path):
    run = measure(_fake(steps=1, sleep=0.3), [0], 0.0, False, tmp_path)
    (s,) = run["segments"]
    assert s["speed_samples"] >= 0.3 / hostspeed.INTERVAL_S / 2
    assert s["slowness"] > 0
    assert s["seconds"] == pytest.approx(0.3, abs=0.05)
