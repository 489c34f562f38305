"""Span arithmetic and the per-layer metrics of a traced run.

A span is ``(id, parent, metric, function, start, end, size)``; ``parent``
is the id of the span that was open when it started (None at the root)
and ``size`` is the dof count of an eigendecomposition (None otherwise).
Self time is a span's duration minus the part of it that its child spans
cover; children on worker threads may overlap each other, so the covered
part is the union of their intervals. Summed over threads, self times can
exceed the wall time, which makes the report's ``unspanned_s`` negative.
"""

from collections import defaultdict

SPAN_ID, SPAN_PARENT, SPAN_METRIC, SPAN_FUNCTION, SPAN_START, SPAN_END, SPAN_SIZE = range(7)

MODULES = ("cli", "gridop", "spectral", "extension", "evolution", "ucprobe")

# Layer times in the result line. Every workload passes through each of these
# layers, so none reads 0 on every run; the seconds of the single metrics some
# workloads never reach (extension.extend, evolution.picard, spectral.bessel_warm,
# ...) are in the printed report and the saved report, not in the result line.
# spectral.functions sums the spectral module after the decomposition (apply,
# Bessel norms, norm equivalence) and task.kernel the task modules.
LAYER_TIMES = ("cli.import", "cli.parse", "cli.run", "cli.write", "gridop.assemble",
               "spectral.eigh", "spectral.validate")
RESULT_TIMES = LAYER_TIMES + ("spectral.functions", "task.kernel")
KERNEL_MODULES = ("extension", "evolution", "ucprobe")
# exact counts of the traced run, printed (name in the report, key in the spans)
COUNTS = (("spectral.bessel_calls_computed", "spectral.bessel_calls"),
          ("evolution.picard_sweeps", "evolution.picard_sweeps"),
          ("evolution.steps", "evolution.steps"), ("ucprobe.alphas", "ucprobe.alphas"),
          ("extension.tensor_mb_computed", "extension.tensor_mb_max"))


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[SPAN_PARENT] is not None:
            children[span[SPAN_PARENT]].append((span[SPAN_START], span[SPAN_END]))
    out = {}
    for span in spans:
        start, end = span[SPAN_START], span[SPAN_END]
        out[span[SPAN_ID]] = (end - start) - covered(children[span[SPAN_ID]], start, end)
    return out


def metric_self_times(spans) -> dict:
    """Metric name -> summed self time of the spans attributed to it."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    for span in spans:
        totals[span[SPAN_METRIC]] += selfs[span[SPAN_ID]]
    return dict(totals)


def largest_eigh(spans):
    """(size, self time) of the largest operator eigendecomposition, or None."""
    selfs = self_times(spans)
    best = None
    for span in spans:
        if span[SPAN_METRIC] == "spectral.eigh" and span[SPAN_SIZE]:
            key = (span[SPAN_SIZE], selfs[span[SPAN_ID]])
            if best is None or key[0] > best[0]:
                best = key
    return best


def eigh_flops(n: int) -> float:
    """Computed flop count of a dense symmetric eigendecomposition with vectors:
    4/3 n^3 for the tridiagonal reduction plus 2 n^3 for the back-transform."""
    return (4.0 / 3.0 + 2.0) * n**3


def layer_metrics(tasks) -> tuple:
    """Per-layer metrics over traced tasks, plus the report's extra detail.

    ``tasks`` holds one dict per traced task with keys ``wall`` (spawn to
    reap), ``import_s``, ``spans`` and ``counts``.
    """
    wall = sum(t["wall"] for t in tasks)
    selfs = defaultdict(float)
    counts = defaultdict(float)
    warm_calls, warm_time = 0, 0.0
    for task in tasks:
        for name, value in metric_self_times(task["spans"]).items():
            selfs[name] += value
        selfs["cli.import"] += task["import_s"]
        for name, value in task["counts"].items():
            if name.endswith("_max"):
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
        for span in task["spans"]:
            if (span[SPAN_FUNCTION] == "spectral.bessel_apply"
                    and span[SPAN_METRIC] == "spectral.bessel_warm"):
                warm_calls += 1
                warm_time += span[SPAN_END] - span[SPAN_START]
    spanned = sum(selfs.values())

    def total(keep):
        return sum(v for k, v in selfs.items() if keep(k))

    metrics = {f"{name}_s": selfs.get(name, 0.0) for name in LAYER_TIMES}
    metrics["spectral.functions_s"] = total(
        lambda k: k.startswith("spectral.") and k not in ("spectral.eigh", "spectral.validate"))
    metrics["task.kernel_s"] = total(lambda k: k.split(".")[0] in KERNEL_MODULES)
    metrics.update({
        "trace.wall_s": wall,
        "trace.tasks": len(tasks),
        "gridop.dofs": counts["gridop.dofs"],
    })
    detail = {
        "layers": {f"{name}_s": f"{value:.6g} s self, share {value / wall:.4f}"
                   for name, value in sorted(selfs.items())},
        "modules": {f"{module}.share": round(total(lambda k: k.split(".")[0] == module) / wall, 4)
                    for module in MODULES},
        "counts": {name: counts[key] for name, key in COUNTS},
        "unspanned_s": wall - spanned,
        "bessel_apply_us": 1e6 * warm_time / warm_calls if warm_calls else None,
        "bessel_warm_calls": warm_calls,
    }
    return metrics, detail
