import re

import metrics

SPEC = metrics.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_benchmark_json_has_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    for section, keys in (("workloads", {"name", "why"}),
                          ("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for row in SPEC[section]:
            assert set(row) == keys
            assert NAME.match(row["name"])
    names = [r["name"] for s in ("workloads", "end_to_end", "per_layer") for r in SPEC[s]]
    assert len(names) == len(set(names))


def test_bounds_are_within_the_limit_and_setup_has_the_largest():
    bounds = {r["name"]: r["bound"] for r in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
