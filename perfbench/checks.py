"""Output checks against references the benchmark computes itself.

Each check yields either a ratio (measured error / tolerance, <= 1 passes)
or a problem string. A task passes when it exited 0, its manifest reports
status ``ok`` with every invariant true, and every check passes.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RECOVERY_TOL = 1e-3          # README: conormal recovery of L^a u to 1e-3
SPECTRUM_TOL = 1e-8          # README: closed-form spectra to 1e-8
NONLOCALITY_FLOOR = 1e-6     # fracspec.ucprobe's floor for the fractional mass ratio
TRACE_ENVELOPE = 10.0        # |U(., y0) - u| <= 10 y0^min(2a, 1) |u|, fracspec's envelope
MASS_TOL = 1e-10


def residual_bound(dt: float) -> float:
    """The bound of picard's ``equation_residual_ok`` invariant: 10 dt^2."""
    return 10.0 * dt * dt


@dataclass
class CheckResult:
    ratios: dict = field(default_factory=dict)    # check name -> error / tolerance
    problems: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)  # name -> sha256
    artifact_bytes: int = 0

    @property
    def passed(self) -> bool:
        return not self.problems and all(r <= 1.0 for r in self.ratios.values())

    def ratio(self, name, measured, tolerance):
        value = float(measured) / float(tolerance) if tolerance > 0 else math.inf
        self.ratios[name] = value if math.isfinite(value) else math.inf

    def require(self, name, condition):
        if not condition:
            self.problems.append(name)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def dof_nodes(grid: dict) -> np.ndarray:
    """Degree-of-freedom coordinates, row-major with the first axis slowest."""
    n, x, periodic = grid["n"], grid["half_length"], grid["boundary"] == "periodic"
    h = 2 * x / n if periodic else 2 * x / (n - 1)
    axis = -x + h * np.arange(n)
    if not periodic:
        axis = axis[1:-1]
    if grid["dim"] == 1:
        return axis[:, None]
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g0.ravel(), g1.ravel()])


def spacing(grid: dict) -> float:
    n, x = grid["n"], grid["half_length"]
    return 2 * x / n if grid["boundary"] == "periodic" else 2 * x / (n - 1)


def gaussian_state(cfg: dict) -> np.ndarray:
    spec = cfg["task_params"]["u0"]
    x = dof_nodes(cfg["grid"])
    center = np.asarray(spec.get("center", [0.0] * cfg["grid"]["dim"]), dtype=float)
    width = spec.get("width", 2.0)
    return spec.get("amp", 1.0) * np.exp(-((x - center) ** 2).sum(axis=1) / width**2)


def identity_spectrum(grid: dict) -> np.ndarray:
    """Closed-form eigenvalues of the flux-form Laplacian with a = I, c = 0."""
    n, h = grid["n"], spacing(grid)
    if grid["boundary"] == "periodic":
        k = np.arange(n)
        axis = (2.0 - 2.0 * np.cos(2 * np.pi * k / n)) / h**2
    else:
        k = np.arange(1, n - 1)
        axis = (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / h**2
    lam = axis if grid["dim"] == 1 else (axis[:, None] + axis[None, :]).ravel()
    return np.sort(lam)


def _csv(path: Path, max_rows=None):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            rows.append([float(v) for v in line.split(",")])
            if max_rows is not None and len(rows) == max_rows:
                break
    return header, np.asarray(rows)


def _column(path: Path, name: str, max_rows=None) -> np.ndarray:
    header, rows = _csv(path, max_rows)
    return rows[:, header.index(name)]


def check_task(cfg: dict, outdir: Path, exit_code: int) -> CheckResult:
    result = CheckResult()
    result.require(f"exit code {exit_code}", exit_code == 0)
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        result.problems.append("no manifest")
        return result
    manifest = json.loads(manifest_path.read_text())
    result.require(f"manifest status {manifest['status']}", manifest["status"] == "ok")
    for name, value in manifest["invariants"].items():
        result.require(f"invariant {name}", value is True)
    for name in manifest["artifacts"]:
        path = outdir / name
        result.artifacts[name] = sha256(path)
        result.artifact_bytes += path.stat().st_size
    if exit_code != 0 or manifest["status"] != "ok":
        return result
    try:
        TASK_CHECKS.get(cfg["task"], lambda *a: None)(cfg, outdir, result)
    except (OSError, ValueError, KeyError, IndexError) as err:
        result.problems.append(f"unreadable output: {type(err).__name__}: {err}")
    return result


def _spectrum(cfg, outdir, result):
    lam = _column(outdir / "eigenvalues.csv", "lambda")
    result.require("eigenvalues nondecreasing", bool(np.all(np.diff(lam) >= 0)))
    if cfg["coefficients"]["kind"] == "identity":
        exact = identity_spectrum(cfg["grid"])
        result.require("eigenvalue count", len(exact) == len(lam))
        if len(exact) == len(lam):
            result.ratio("spectrum.closed_form", np.abs(lam - exact).max() / exact.max(),
                         SPECTRUM_TOL)


def _funcalc(cfg, outdir, result):
    with open(outdir / "funcalc.csv") as fh:
        next(fh)
        for line in fh:
            name, measured, tolerance, _ = line.strip().split(",")
            result.ratio(f"funcalc.{name}", float(measured), float(tolerance))


def _norm_equiv(cfg, outdir, result):
    reports = json.loads((outdir / "norm_equiv.json").read_text())["reports"]
    for rep in reports:
        result.require("norm bracket ordered",
                       0 < rep["ratio_min"] <= rep["ratio_max"] < math.inf)
        if cfg["task_params"].get("refine", True):
            result.require("refinement drift finite", math.isfinite(rep["refinement_drift"]))


def _extension_trace(cfg, outdir, result):
    u0 = gaussian_state(cfg)
    trace = _column(outdir / "extension.csv", "U", max_rows=len(u0))
    y0 = _column(outdir / "extension.csv", "y", max_rows=1)[0]
    envelope = TRACE_ENVELOPE * y0 ** min(2 * cfg["alpha"], 1.0) * np.linalg.norm(u0)
    result.ratio("extend.trace", np.linalg.norm(trace - u0), envelope)


def _recover(cfg, outdir, result):
    header, rows = _csv(outdir / "recover.csv")
    spectral, recovered = rows[:, header.index("spectral")], rows[:, header.index("recovered")]
    rel = np.linalg.norm(recovered - spectral) / np.linalg.norm(spectral)
    result.ratio("recover.relative_error", rel, RECOVERY_TOL)


def _energy(cfg, outdir, result):
    rep = json.loads((outdir / "energy.json").read_text())
    u0 = gaussian_state(cfg)
    mass = float((u0**2).sum() * spacing(cfg["grid"]) ** cfg["grid"]["dim"])
    result.ratio("energy.base_mass", abs(rep["base_mass"] - mass) / mass, MASS_TOL)
    result.require("energy positive and finite", 0 < rep["energy"] < math.inf)
    result.require("extension mass contracts", rep["sup_trace_ratio"] <= 1 + 1e-8)


def _doubling(cfg, outdir, result):
    header, rows = _csv(outdir / "doubling.csv")
    radii, ratios = rows[:, 0], rows[:, 1]
    result.require("one row per radius", list(radii) == list(cfg["task_params"]["radii"]))
    # nested half balls: B(2R) holds at least the mass of B(R)
    result.require("doubling ratio >= 1", bool(np.all(ratios >= 1.0)))
    result.require("doubling ratio finite", bool(np.all(np.isfinite(ratios))))


def _monitors(cfg, outdir, result):
    """The picard invariant's residual bound, re-measured from monitors.csv. The
    viscous manifest carries no residual bound, so its residual is not checked."""
    resid = _column(outdir / "monitors.csv", "equation_residual")
    if len(resid) > 2:
        result.ratio("monitors.equation_residual", resid[1:-1].max(),
                     residual_bound(cfg["task_params"].get("dt", 1e-3)))


def _viscosity_convergence(cfg, outdir, result):
    fit = json.loads((outdir / "viscosity_fit.json").read_text())
    result.require("linear rate fit R^2 >= 0.9", fit["r_squared"] >= 0.9)
    _, rows = _csv(outdir / "viscosity_pairs.csv")
    n_eps = len(cfg["task_params"]["epsilons"])
    result.require("one row per viscosity pair", len(rows) == n_eps * (n_eps - 1) // 2)


def _uc_probe(cfg, outdir, result):
    header, rows = _csv(outdir / "uc_sweep.csv")
    alphas = cfg["task_params"].get("alphas", [0.25, 0.5, 0.75, 1.0])
    result.require("one row per alpha", len(rows) == len(alphas))
    for alpha, ratio in zip(rows[:, 0], rows[:, header.index("ratio")]):
        if alpha == 1.0:
            result.require("integer power leaves exactly zero mass", ratio == 0.0)
        else:
            # above the floor passes: error / tolerance = floor / ratio <= 1
            result.ratio(f"uc_probe.nonlocal_mass@{alpha:g}", NONLOCALITY_FLOOR, ratio)


def _kp_check(cfg, outdir, result):
    ratios = _column(outdir / "kp_ratios.csv", "ratio")
    result.require("one row per pair", len(ratios) == cfg["task_params"].get("n_pairs", 20))
    result.require("Kato-Ponce ratios finite and positive",
                   bool(np.all(np.isfinite(ratios) & (ratios > 0))))


TASK_CHECKS = {
    "spectrum": _spectrum,
    "funcalc": _funcalc,
    "norm_equiv": _norm_equiv,
    "extend": _extension_trace,
    "recover": _recover,
    "energy": _energy,
    "doubling": _doubling,
    "picard": _monitors,
    "viscosity_convergence": _viscosity_convergence,
    "uc_probe": _uc_probe,
    "kp_check": _kp_check,
}
