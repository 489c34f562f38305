"""Run one ``fracspec run`` task in this process, with spans around calls into fracspec.

Usage: python3 traced_task.py CONFIG SPANS_JSON  (PYTHONPATH must hold fracspec's src)

Every public function of the modules cli, gridop, spectral, extension,
evolution and ucprobe is wrapped, together with the artifact writers and
``SpectralDecomposition.validate``. Spans stay in memory and are written to
SPANS_JSON when the task ends; the exit code is the task's own.

Attribution: a function named in METRICS starts its own metric. Any other
function inherits the metric of the span it was called from when that
span is in the same module, and goes to ``<module>.other`` otherwise.
Everything under a ``bessel_apply`` call belongs to it (the first call on
a grid includes the cached identity decomposition), and the viscous solves
inside ``viscosity_convergence`` belong to it.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

# run as a script, this file's directory leads sys.path; drop it so that the
# benchmark's own modules cannot shadow a module fracspec or its libraries import
del sys.path[0]

import functools  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import threading  # noqa: E402

from fracspec import cli, evolution, extension, gridop, spectral, ucprobe  # noqa: E402

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

MODULES = {"cli": cli, "gridop": gridop, "spectral": spectral, "extension": extension,
           "evolution": evolution, "ucprobe": ucprobe}

METRICS = {
    "cli.main": "cli.run",
    "cli.run": "cli.run",
    "cli.parse_config": "cli.parse",
    "cli._write_csv": "cli.write",
    "pathlib.Path.write_text": "cli.write",
    "extension.ExtensionField.export_csv": "cli.write",
    "evolution.Trajectory.export_csv": "cli.write",
    "evolution.Trajectory.export_monitors_csv": "cli.write",
    "ucprobe.sweep_to_csv": "cli.write",
    "gridop.build_grid": "gridop.assemble",
    "gridop.make_coefficients": "gridop.assemble",
    "gridop.load_coefficients_csv": "gridop.assemble",
    "gridop.assemble": "gridop.assemble",
    "spectral.eigendecompose": "spectral.eigh",
    "spectral.SpectralDecomposition.validate": "spectral.validate",
    "spectral.norm_equivalence": "spectral.norm_equiv",
    "spectral.apply_function": "spectral.apply",
    "spectral.fractional_power": "spectral.apply",
    "spectral.unitary_propagate": "spectral.apply",
    "spectral.viscous_propagate": "spectral.apply",
    "extension.extend": "extension.extend",
    "extension.conormal_recover": "extension.recover",
    "extension.energy_report": "extension.energy",
    "extension.doubling_ratio": "extension.doubling",
    "evolution.picard_solve": "evolution.picard",
    "evolution.viscous_solve": "evolution.viscous",
    "evolution.viscosity_convergence": "evolution.vconv",
    "evolution.kato_ponce_check": "evolution.kp",
    "ucprobe.dichotomy_sweep": "ucprobe.sweep",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.main_stack = []
        self.bessel_grids = set()

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self.local.stack = self.main_stack if main else []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread's first call belongs to the span that started the pool
        if stack is not self.main_stack and self.main_stack:
            return self.main_stack[-1]
        return None

    def _classify(self, name, module, parent, args):
        parent_metric = parent[1] if parent else None
        if parent_metric and parent_metric.startswith("spectral.bessel"):
            return parent_metric
        if name == "spectral.bessel_apply":
            grid = args[0]
            first = grid not in self.bessel_grids
            self.bessel_grids.add(grid)
            return "spectral.bessel_first" if first else "spectral.bessel_warm"
        if name == "evolution.viscous_solve" and parent_metric == "evolution.vconv":
            return parent_metric
        if name in METRICS:
            return METRICS[name]
        if parent and parent[2] == module:
            return parent_metric
        return f"{module}.other"

    def count(self, name, value, combine=lambda a, b: a + b):
        self.counts[name] = combine(self.counts[name], value) if name in self.counts else value

    def wrap(self, name, module, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            entry = (next(self.ids), self._classify(name, module, parent, args), module)
            size = None
            if name == "spectral.eigendecompose":
                size = args[0].matrix.shape[0]
            stack.append(entry)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((entry[0], parent[0] if parent else None, entry[1], name,
                                   start, end, size))
            self._annotate(name, result)
            return result
        return traced

    def _annotate(self, name, result):
        if name == "gridop.assemble":
            self.count("gridop.dofs", result.n_dof)
        elif name == "spectral.bessel_apply":
            self.count("spectral.bessel_calls", 1)
        elif name == "evolution.picard_solve":
            self.count("evolution.picard_sweeps", len(result.picard_residual_history))
            self.count("evolution.steps", len(result.times) - 1)
        elif name == "evolution.viscous_solve":
            self.count("evolution.steps", len(result.times) - 1)
        elif name == "ucprobe.dichotomy_sweep":
            self.count("ucprobe.alphas", len(result))
        elif name == "extension.extend":
            # the (n_dof, n_y, n_quad) float64 tensor of the heat-kernel quadrature
            n_quad = result.quadrature.n_nodes if result.quadrature else 0
            mb = result.values.shape[0] * len(result.y_nodes) * n_quad * 8 / 1e6
            self.count("extension.tensor_mb_max", mb, max)

    def install(self):
        """Replace every traced function wherever a fracspec module refers to it."""
        targets = {}
        for short, module in MODULES.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
                        not attr.startswith("_") or f"{short}.{attr}" in METRICS):
                    targets[obj] = self.wrap(f"{short}.{attr}", short, obj)
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "fracspec"]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(namespace, attr, targets[obj])
        methods = [(spectral.SpectralDecomposition, "validate", "spectral"),
                   (extension.ExtensionField, "export_csv", "extension"),
                   (evolution.Trajectory, "export_csv", "evolution"),
                   (evolution.Trajectory, "export_monitors_csv", "evolution"),
                   (pathlib.Path, "write_text", "cli")]
        for cls, attr, short in methods:
            prefix = "pathlib" if cls is pathlib.Path else short
            setattr(cls, attr, self.wrap(f"{prefix}.{cls.__name__}.{attr}", short,
                                         getattr(cls, attr)))


def main(argv) -> int:
    config, spans_path = argv
    tracer = Tracer()
    tracer.install()
    code = cli.main(["run", config])
    record = {
        "t_start": T_START,
        "t_imported": T_IMPORTED,
        "exit": code,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    with open(spans_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
