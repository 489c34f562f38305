"""fracspec benchmark: generated tasks run as separate ``fracspec run`` processes.

Usage, from the repository root:

    python3 perfbench/run.py --workload extension_2d --seed 1 --seconds 30 --trace 0

One client runs the workload's tasks in a closed loop, one task in flight:
each task is a fresh interpreter that imports fracspec from ``src/`` and runs
one JSON config, timed from spawn to reap. Outputs are checked against
references computed here (see checks.py). With ``--trace 1`` the same tasks
run twice more after an untraced pass: each in its own child through
traced_task.py, which records a span around every call into fracspec, and the
one holding the largest eigendecomposition again with a single BLAS thread.

The report goes to standard output, every metric by name and unit, and its
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A full report (header, per-task results with the sha256 of every
data artifact) is written under .perfbench_work/reports/, and every task's
outputs are kept under .perfbench_work/artifacts/ until the next run of the
same workload; compare two runs with compare.py.
"""

import time

T_BEGIN = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TRACED_TASK = Path(__file__).resolve().parent / "traced_task.py"
# what the ``fracspec`` console script runs
ENTRY = "import sys; from fracspec.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
MAX_BLOCKS = 40  # more than a run can hold before the hard limit
HARD_LIMIT_S = 170.0  # every child is killed by then, so the run ends within 180 s

END_TO_END = (("tasks_per_s", "1/s"), ("task_s_p50", "s"), ("task_cpu_s_p50", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    [(f"{name}_s", "s") for name in spans.RESULT_TIMES]
    + [("spectral.eigh_s_largest", "s"), ("spectral.eigh_s_1t", "s"),
       ("spectral.eigh_gflops", "GFLOP/s"), ("machine.gemm_gflops", "GFLOP/s"),
       ("trace.wall_s", "s"), ("trace.tasks", "count"), ("gridop.dofs", "count"),
       ("cli.artifact_mb", "MB")]
)


class SetupError(RuntimeError):
    """The program cannot be run here; no result is printed."""


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so children's timestamps compare with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def run_process(task, rundir: Path, env: dict, tag: str = "plain") -> dict:
    """Spawn one task, wait for it, and return its wall and CPU time, peak RSS and exit code.

    The ``plain`` pass runs what the ``fracspec`` console script runs; any other
    pass runs the task through traced_task.py and keeps its spans.
    """
    traced = tag != "plain"
    spans_path = rundir / f"spans{task.index:04d}{tag}.json"
    argv = [sys.executable]
    argv += [str(TRACED_TASK), task.config_name, spans_path.name] if traced else \
        ["-c", ENTRY, "run", task.config_name]
    limit = max(HARD_LIMIT_S - (now() - T_BEGIN), 1.0)
    with open(rundir / f"task{task.index:04d}{tag}.log", "wb") as log:
        start = now()
        proc = subprocess.Popen(argv, cwd=rundir, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    record = {"index": task.index, "label": task.label, "output_dir": task.output_dir,
              "pass": tag, "wall_s": wall,
              "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
              "exit": proc.returncode, "spawn": start}
    if traced:
        trace = json.loads(spans_path.read_text()) if spans_path.exists() else None
        record["trace"] = trace
        spans_path.unlink(missing_ok=True)
    return record


def check(task, record: dict, rundir: Path, keep: Path | None) -> None:
    """Check a finished task's outputs into its record, then move them under ``keep``
    (or remove them when ``keep`` is None)."""
    outdir = rundir / task.output_dir
    result = checks.check_task(task.config, outdir, record["exit"])
    if record["pass"] != "plain" and record["trace"] is None:
        result.problems.append("no span file")
    record.update(passed=result.passed, ratios=result.ratios, problems=result.problems,
                  artifacts=result.artifacts, artifact_bytes=result.artifact_bytes)
    if keep is not None and outdir.exists():
        keep.mkdir(parents=True, exist_ok=True)
        shutil.move(str(outdir), keep / task.output_dir)
    shutil.rmtree(outdir, ignore_errors=True)


def setup(workload: str, seed: int, rundir: Path, env: dict):
    """Generate the inputs and run the untimed warm-up; repeated, the median is setup_s."""
    if not (ROOT / "src" / "fracspec" / "__init__.py").exists():
        raise SetupError(f"fracspec sources not found under {ROOT / 'src'}")
    shipped = workloads.shipped_configs(ROOT) if workload == "short_tasks" else ()
    times = []
    for _ in range(SETUP_REPEATS):
        start = now()
        shutil.rmtree(rundir, ignore_errors=True)
        tasks = workloads.generate(workload, seed, MAX_BLOCKS, shipped)
        workloads.write_inputs(tasks, rundir)
        warm = run_process(tasks[0], rundir, env)
        check(tasks[0], warm, rundir, None)
        if not warm["passed"]:
            log = (rundir / "task0000plain.log").read_text(errors="replace")[-2000:]
            raise SetupError(f"warm-up task failed: {warm['problems']}\n{log}")
        times.append(now() - start)
    return tasks, times


def closed_loop(tasks, block, rundir, env, seconds, keep: Path):
    """Run whole blocks of tasks, one task at a time, until ``seconds`` have passed.

    Every block has the same mix of task kinds and sizes, so the metrics do not
    depend on how many blocks fit; each task's outputs are checked afterwards.
    """
    records = []
    start = now()
    for first in range(1, len(tasks), block):
        if records and now() - start >= seconds:
            break
        for task in tasks[first:first + block]:
            records.append(run_process(task, rundir, env))
    wall = now() - start
    for task, record in zip(tasks[1:], records):
        check(task, record, rundir, keep / record["pass"])
    return records, wall


def traced_pass(tasks, rundir, env, keep: Path, tag):
    records = []
    for task in tasks:
        record = run_process(task, rundir, env, tag)
        check(task, record, rundir, keep / tag)
        records.append(record)
    return records


def end_to_end(records, wall, setup_times) -> tuple:
    walls = [r["wall_s"] for r in records]
    ok = [r for r in records if r["passed"]]
    metrics = {
        "tasks_per_s": len(ok) / wall,
        "task_s_p50": statistics.median(walls),
        # user + system time of all the task's threads; time the machine gives to
        # other guests while the task waits is not charged to it, unlike wall time
        "task_cpu_s_p50": statistics.median(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "setup_s": statistics.median(setup_times),
    }
    worst = max(((v, f"{k} (task {r['index']})") for r in records for k, v in r["ratios"].items()),
                default=(0.0, "no numeric check"))
    detail = {
        "task_s_tail": stats.tail(walls),
        "tasks": len(records),
        "failed_fraction": (len(records) - len(ok)) / len(records),
        "accuracy_worst": worst[0],
        "accuracy_worst_check": worst[1],
        "wall_s": wall,
        "setup_times_s": setup_times,
    }
    return metrics, detail


def traced_run(tasks, plain, rundir, keep):
    """Run the untraced pass's tasks again traced, then the one holding the largest
    eigendecomposition with a single BLAS thread; return per-layer metrics."""
    ran = tasks[1:1 + len(plain)]
    traced = traced_pass(ran, rundir, child_env(), keep, "traced")
    for p, t in zip(plain, traced):
        if p["passed"] and t["passed"] and p["artifacts"] != t["artifacts"]:
            t["passed"] = False
            t["problems"].append("artifacts differ from the untraced run")
    largest = [(spans.largest_eigh(r["trace"]["spans"]) if r["trace"] else None) or (0, 0.0)
               for r in traced]
    biggest = max(range(len(ran)), key=lambda i: largest[i][0])
    single = traced_pass([ran[biggest]], rundir, child_env({"OPENBLAS_NUM_THREADS": "1"}),
                         keep, "blas1")[0]
    single_eigh = spans.largest_eigh(single["trace"]["spans"]) if single["trace"] else None
    dofs, eigh_s = largest[biggest]
    metrics, detail = spans.layer_metrics(
        [{"wall": r["wall_s"], "import_s": r["trace"]["t_imported"] - r["spawn"],
          "spans": r["trace"]["spans"], "counts": r["trace"]["counts"]}
         for r in traced if r["trace"]])
    metrics.update({
        "spectral.eigh_s_largest": eigh_s,
        "spectral.eigh_gflops": spans.eigh_flops(dofs) / eigh_s / 1e9,
        "machine.gemm_gflops": machine.gemm_gflops(),
        "cli.artifact_mb": sum(r["artifact_bytes"] for r in traced) / 1e6,
    })
    if single_eigh:  # otherwise the blas1 task has failed ("no span file")
        metrics["spectral.eigh_s_1t"] = single_eigh[1]
    # per task, traced minus untraced wall; the two runs of a task are a whole pass
    # apart on a machine whose process times vary, so this is printed, not a metric
    paired = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
    detail.update({"eigh_largest_dofs": dofs, "eigh_1t_task": single["index"],
                   "trace.overhead_s": sum(paired),
                   "trace.overhead_task_median_s": statistics.median(paired)})
    return traced + [single], metrics, detail


def print_report(args, head, metrics, units, detail, records) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    blas = head["numpy_blas"]
    print(f"header: commit={head['git_commit']} src_sha256={head['src_sha256'][:16]} "
          f"python={head['python']} numpy={head['numpy']} scipy={head['scipy']} "
          f"blas={blas['name']} {blas['version']} threads={head['blas_threads']} "
          f"nproc={head['nproc']} loadavg={head['loadavg_start']}")
    for line in workloads.LIMITS[args.workload]:
        print(f"limit: {line}")
    failed = [r for r in records if not r["passed"]]
    for r in failed:
        over = {k: v for k, v in r["ratios"].items() if v > 1}
        print(f"failed: task {r['index']} {r['label']} ({r['pass']}) exit={r['exit']} "
              f"{r['problems']} {over}")
    for name, unit in units:
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    tail = detail.pop("task_s_tail")
    print(f"task_s_tail = {tail[1]:.6g} s (p{tail[0]:g} of {detail['tasks']} tasks, "
          f"{tail[2]} beyond)" if tail else
          f"task_s_tail = omitted ({detail['tasks']} tasks; p50 needs 20 with 10 beyond)")
    print(f"failed_fraction = {detail.pop('failed_fraction'):.6g} 1")
    print(f"accuracy_worst = {detail.pop('accuracy_worst'):.6g} 1 "
          f"({detail.pop('accuracy_worst_check')}; <= 1 passes)")
    for name, value in detail.items():
        if isinstance(value, dict):
            for key, item in value.items():
                print(f"  {name}.{key}: {item}")
        else:
            print(f"  {name}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = WORK / "runs" / f"{name}-{os.getpid()}"
    # every task's outputs, for compare.py; only the latest run of a workload keeps
    # them, which bounds the disk they take
    keep = WORK / "artifacts" / name
    for old in (WORK / "artifacts").glob(f"{args.workload}-seed*-trace{args.trace}"):
        shutil.rmtree(old, ignore_errors=True)
    env = child_env()
    head = machine.header(ROOT)
    try:
        tasks, setup_times = setup(args.workload, args.seed, rundir, env)
        plain, wall = closed_loop(tasks, workloads.BLOCK_SIZE[args.workload], rundir, env,
                                  args.seconds, keep)
        metrics, detail = end_to_end(plain, wall, setup_times)
        records, units = plain, END_TO_END
        if args.trace:
            more, layers, layer_detail = traced_run(tasks, plain, rundir, keep)
            detail.update(layer_detail, untraced_metrics=metrics)
            metrics, records, units = layers, plain + more, PER_LAYER
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = sum(not r["passed"] for r in records)
    reports = WORK / "reports"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "header": head, "metrics": metrics, "detail": detail,
              "artifact_dir": os.path.relpath(keep, reports),
              "tasks": [{k: v for k, v in r.items() if k != "trace"} for r in records]}
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        spans_out = [{k: r[k] for k in ("index", "pass", "trace")}
                     for r in records if r.get("trace")]
        (reports / f"{name}-spans.json").write_text(json.dumps(spans_out) + "\n")
    print_report(args, head, metrics, units, detail, records)
    print(f"report: {(reports / f'{name}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
