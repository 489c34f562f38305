import filecmp

import pytest

import run
import workloads


def _write(workload, seed, directory):
    shipped = workloads.shipped_configs(run.ROOT)
    tasks = workloads.generate(workload, seed, 3, shipped)
    workloads.write_inputs(tasks, directory)
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_same_seed_gives_byte_identical_configs(tmp_path, workload):
    names = _write(workload, 7, tmp_path / "a")
    assert names == _write(workload, 7, tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(names) >= 3 * workloads.BLOCK_SIZE[workload]


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_other_seed_gives_other_configs(tmp_path, workload):
    names = _write(workload, 7, tmp_path / "a")
    _write(workload, 8, tmp_path / "b")
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert len(mismatch) > len(names) // 2


def _shape(task):
    """What a task costs apart from its seeded values: kind, grid and counts."""
    params = task.config.get("task_params", {})
    return (task.label, task.config["task"], task.config["grid"],
            len(params.get("alphas", ())), params.get("n_pairs"), params.get("dt") and
            round(params["t_final"] / params["dt"]), len(params.get("epsilons", ())),
            len(params.get("radii", ())))


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_schedule_does_not_depend_on_the_seed(workload):
    shipped = workloads.shipped_configs(run.ROOT)
    shapes = [[_shape(t) for t in workloads.generate(workload, seed, 5, shipped)]
              for seed in (1, 2)]
    assert shapes[0] == shapes[1]


def test_short_tasks_block_runs_every_shipped_config():
    shipped = workloads.shipped_configs(run.ROOT)
    block = workloads.generate("short_tasks", 1, 1, shipped)[1:]
    assert sorted(t.label for t in block if t.label.startswith("shipped:")) == \
        sorted(f"shipped:{name}" for name, _ in shipped)


def test_doubling_radii_stay_where_the_ratio_is_defined():
    for seed in range(20):
        for task in workloads.generate("extension_2d", seed, 2):
            if task.config["task"] == "doubling":
                n = task.config["grid"]["n"]
                h = 2 * workloads.X / (n - 1)
                for r in task.config["task_params"]["radii"]:
                    assert 2 * h <= r and 2 * r <= workloads.X
