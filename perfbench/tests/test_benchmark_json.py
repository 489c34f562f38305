import json

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_the_runner():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_workloads_match_the_runner():
    import workloads
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WHY)
