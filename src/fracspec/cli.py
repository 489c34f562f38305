"""Command line front: ``fracspec run`` and ``fracspec validate`` on one JSON config.

It imports only the standard library, so that it chooses a run's BLAS thread count before
numpy loads OpenBLAS; the parser and the task runners are in ``fracspec.tasks``. Exit codes:
0 success, 1 invariant failure, 2 config error, 3 numerical error (non-convergence, blow-up,
degenerate input, failed self-check), 4 internal error.
"""

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

# Below this many grid points a second OpenBLAS thread bought no wall time and, spinning idle,
# took 39-45 % of a run's CPU (258-676 points, 1-D and 2-D, 2 vCPUs, OpenBLAS 0.3.31); from
# 1024 points one thread was level to 12 % slower in wall time, at 2500 points 33 % slower.
THREADED_BLAS_MIN_POINTS = 1024
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
pinned_at_load = False  # whether main has started OpenBLAS on one thread, by the environment


def one_blas_thread(config) -> bool:
    """Whether a run of ``config`` (its JSON) takes one BLAS thread: no caller has set a thread
    count, and its grid has fewer than THREADED_BLAS_MIN_POINTS points, ``n ** dim`` with 2n
    for a ``norm_equiv`` that refines. False for a config it cannot read; parsing refuses it."""
    if any(name in os.environ for name in THREAD_VARIABLES):
        return False
    try:
        dim, n = config["grid"]["dim"], config["grid"]["n"]
        if (config["task"] == "norm_equiv" and config.get("task_params", {}).get("refine", True)
                and config["coefficients"]["kind"] != "tabulated"):
            n = 2 * n
        return dim in (1, 2) and n**dim < THREADED_BLAS_MIN_POINTS
    except (LookupError, TypeError, AttributeError, ArithmeticError):  # parsing names it
        return False


def main(argv=None) -> int:
    global pinned_at_load
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description="Spectral calculus experiments for variable-coefficient "
                    "elliptic operators: fractional powers, extension problems, "
                    "dispersive schemes, and unique-continuation probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the task described by a JSON config")
    run_p.add_argument("config", help="path to the JSON run configuration")
    val_p = sub.add_parser("validate", help="parse and validate a config without running")
    val_p.add_argument("config", help="path to the JSON run configuration")
    args = parser.parse_args(argv)

    if "numpy" not in sys.modules:  # OpenBLAS reads its thread count when numpy loads it
        with contextlib.suppress(OSError, ValueError, RecursionError):  # parsing reports it
            pinned_at_load = one_blas_thread(json.loads(Path(args.config).read_text()))
        if pinned_at_load:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .tasks import ConfigError, parse_config, run

    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"config ok: task={cfg.task}, grid={cfg.grid.dim}d "
              f"n={cfg.grid.points_per_axis} boundary={cfg.grid.boundary}")
        return 0
    code = run(cfg)
    print(f"task {cfg.task}: exit {code} (artifacts in {cfg.output_dir})")
    return code


if __name__ == "__main__":
    sys.exit(main())
