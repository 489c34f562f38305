"""Compare the outputs recorded in two benchmark reports.

Usage: python3 perfbench/compare.py REPORT_A REPORT_B

States whether every data artifact of the tasks both reports ran stayed
byte-identical (same sha256). Otherwise it names the artifacts that
changed and gives the largest numeric difference between them, read from
the outputs run.py keeps under .perfbench_work/artifacts/. A run keeps them
until the next run of the same workload in the same checkout, so compare
reports before running that workload again. Exits 0 when the outputs are
byte-identical and 1 otherwise.
"""

import json
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def numbers(path: Path) -> list:
    return [float(token) for token in NUMBER.findall(path.read_text())]


def max_difference(a: Path, b: Path):
    """(largest absolute difference, largest relative difference) between the
    numbers of two files, or None when their numbers do not pair up."""
    xs, ys = numbers(a), numbers(b)
    if len(xs) != len(ys):
        return None
    worst_abs = worst_rel = 0.0
    for x, y in zip(xs, ys):
        if x == y:
            continue
        diff = abs(x - y)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def artifact_path(report: dict, record: dict, name: str):
    out = Path(report["artifact_dir"]) / record["pass"] / record["output_dir"] / name
    return out if out.exists() else None


def compare(a: dict, b: dict) -> tuple:
    """(identical, lines of findings) for the tasks both reports ran."""
    index_a = {(r["index"], r["pass"]): r for r in a["tasks"]}
    index_b = {(r["index"], r["pass"]): r for r in b["tasks"]}
    shared = sorted(set(index_a) & set(index_b))
    lines, identical, count = [], True, 0
    for key in shared:
        ra, rb = index_a[key], index_b[key]
        for name in sorted(set(ra["artifacts"]) | set(rb["artifacts"])):
            count += 1
            ha, hb = ra["artifacts"].get(name), rb["artifacts"].get(name)
            if ha == hb:
                continue
            identical = False
            pa, pb = artifact_path(a, ra, name), artifact_path(b, rb, name)
            if ha is None or hb is None:
                detail = "present in one report only"
            elif pa is None or pb is None:
                detail = "differs (outputs replaced by a later run of the workload)"
            else:
                diff = max_difference(pa, pb)
                detail = ("differs in its number count" if diff is None else
                          f"max abs diff {diff[0]:.3e}, max rel diff {diff[1]:.3e}")
            lines.append(f"task {key[0]} ({key[1]}, {ra['label']}) {name}: {detail}")
    if a["workload"] != b["workload"] or a["seed"] != b["seed"]:
        lines.insert(0, "note: the reports ran different workloads or seeds")
    lines.append(f"{'byte-identical' if identical else 'outputs differ'}: {count} artifacts "
                 f"in {len(shared)} shared tasks")
    return identical, lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for path in map(Path, argv):
        report = json.loads(path.read_text())
        # stored relative to the report, so that reports from two checkouts compare
        report["artifact_dir"] = str(path.parent / report["artifact_dir"])
        reports.append(report)
    a, b = reports
    identical, lines = compare(a, b)
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
