"""Command line front: ``fracspec run`` and ``fracspec validate`` on one JSON config.

It imports only the standard library, so that numpy's OpenBLAS loads on one thread and starts
no idle worker; ``fracspec.tasks.run`` then sets the count the run takes. The parser and the
task runners are in ``fracspec.tasks``. Exit codes: 0 success, 1 invariant failure, 2 config
error, 3 numerical error (non-convergence, blow-up, degenerate input, failed self-check),
4 internal error.
"""

import argparse
import os
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
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

    # OpenBLAS reads its thread count once, when numpy loads it; the variable goes again, so
    # that run tells a caller's setting from this pin
    pin = "numpy" not in sys.modules and not any(name in os.environ for name in THREAD_VARIABLES)
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from .tasks import ConfigError, parse_config, run
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]

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
