import json
import random

import run
import workloads


def _doubling_task(radii):
    cfg = workloads._extension_task(1, "doubling", 18, random.Random(0), 0)
    cfg["task_params"]["radii"] = radii
    task = workloads.Task(1, "doubling@n18", cfg, {})
    task.files[task.config_name] = json.dumps(cfg)
    return task


def _run(task, tmp_path, name):
    workloads.write_inputs([task], tmp_path)
    record = run.run_process(task, tmp_path, run.child_env())
    run.check(task, record, tmp_path, tmp_path / name)
    assert (tmp_path / name / task.output_dir / "manifest.json").exists()
    return record


def test_unresolvable_doubling_radius_exits_3_and_counts_as_failed(tmp_path):
    # no cell centre of the 16 x 16 dof grid lies within 0.05 of the origin
    bad = _run(_doubling_task([0.05]), tmp_path, "bad")
    assert bad["exit"] == 3
    assert not bad["passed"]
    assert "manifest status numerical_error" in bad["problems"]
    good = _run(_doubling_task([2.0, 1.0]), tmp_path, "good")
    assert good["passed"], good["problems"]
    metrics, detail = run.end_to_end([bad, good], wall=10.0, setup_times=[1.0])
    assert detail["failed_fraction"] == 0.5
    assert metrics["tasks_per_s"] == 0.1
    assert metrics["task_cpu_s_p50"] > 0
