"""Configuration-driven command line runner.

One JSON config describes one task: grid and coefficients, the fractional
order(s), task parameters, output directory, and the seed for random test
states. Each run writes its data files plus a manifest recording the
config echo, library versions, wall time, and the pass/fail of the task's
built-in invariants.

Exit codes: 0 success, 1 invariant failure, 2 config error, 3 numerical
error (non-convergence, blow-up, degenerate input).
"""

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .evolution import (
    BlowUpError,
    PicardConvergenceError,
    gradient_nonlinearity,
    kato_ponce_check,
    picard_solve,
    polynomial_nonlinearity,
    viscosity_convergence,
    viscous_solve,
)
from .extension import (
    DegenerateInputError,
    ExtrapolationError,
    QuadratureConvergenceError,
    QuadratureRule,
    conormal_recover,
    doubling_ratio,
    energy_report,
    extend,
    geometric_ladder,
)
from .gridop import (
    Grid,
    _write_csv,
    assemble,
    build_grid,
    load_coefficients_csv,
    make_coefficients,
)
from .spectral import (
    apply_function,
    eigendecompose,
    fractional_power,
    identity_map,
    norm_equivalence,
    power,
    unitary_propagate,
)
from .ucprobe import NONLOCALITY_FLOOR, VanishingSpec, dichotomy_sweep, sweep_to_csv

TASKS = (
    "spectrum", "funcalc", "norm_equiv", "extend", "recover", "energy",
    "doubling", "picard", "viscous", "viscosity_convergence", "uc_probe",
    "kp_check",
)

NUMERICAL_ERRORS = (
    PicardConvergenceError,
    BlowUpError,
    QuadratureConvergenceError,
    ExtrapolationError,
    DegenerateInputError,
)


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    coefficients_kind: str
    coefficients_params: dict
    table_path: str | None
    alpha: list
    task: str
    task_params: dict
    output_dir: Path
    seed: int
    echo: dict


def _check_keys(mapping: dict, required: tuple, optional: tuple, context: str) -> None:
    for key in mapping:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {context}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key {key!r} in {context}")


def _typed(mapping: dict, key: str, kind, context: str, default=None):
    if key not in mapping:
        return default
    value = mapping[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"key {key!r} in {context} must be {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def parse_config(path: str | Path) -> RunConfig:
    """Load and strictly validate a JSON run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON (line {err.lineno}): {err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(raw, ("grid", "coefficients", "task"),
                ("alpha", "task_params", "output_dir", "seed"), "config root")

    gdict = _typed(raw, "grid", dict, "config root")
    _check_keys(gdict, ("dim", "n", "half_length", "boundary"), (), "grid")
    try:
        grid = build_grid(
            _typed(gdict, "dim", int, "grid"),
            _typed(gdict, "n", int, "grid"),
            _typed(gdict, "half_length", float, "grid"),
            _typed(gdict, "boundary", str, "grid"),
        )
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    cdict = _typed(raw, "coefficients", dict, "config root")
    _check_keys(cdict, ("kind",), ("params", "table_path"), "coefficients")
    kind = _typed(cdict, "kind", str, "coefficients")
    params = _typed(cdict, "params", dict, "coefficients", default={})
    table_path = _typed(cdict, "table_path", str, "coefficients", default=None)
    if kind == "tabulated" and table_path is None:
        raise ConfigError("coefficients of kind 'tabulated' need 'table_path'")

    alpha_raw = raw.get("alpha", 0.5)
    alphas = alpha_raw if isinstance(alpha_raw, list) else [alpha_raw]
    for a in alphas:
        if not isinstance(a, (int, float)) or isinstance(a, bool):
            raise ConfigError("alpha must be a number or list of numbers")
        if a < 0:
            raise ConfigError("alpha must be >= 0")
    alphas = [float(a) for a in alphas]

    task = _typed(raw, "task", str, "config root")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    task_params = _typed(raw, "task_params", dict, "config root", default={})
    output_dir = Path(_typed(raw, "output_dir", str, "config root", default="fracspec_out"))
    seed = _typed(raw, "seed", int, "config root", default=0)

    return RunConfig(
        grid=grid,
        coefficients_kind=kind,
        coefficients_params=params,
        table_path=table_path,
        alpha=alphas,
        task=task,
        task_params=task_params,
        output_dir=output_dir,
        seed=seed,
        echo=raw,
    )


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _field_for(cfg: RunConfig):
    if cfg.coefficients_kind == "tabulated":
        return load_coefficients_csv(cfg.grid, cfg.table_path)
    return make_coefficients(cfg.grid, cfg.coefficients_kind, cfg.coefficients_params)


def _build_state(cfg: RunConfig, dec, rng) -> np.ndarray:
    spec = dict(cfg.task_params.get("u0", {"kind": "gaussian"}))
    kind = spec.pop("kind", "gaussian")
    x = cfg.grid.dof_nodes()
    if kind == "gaussian":
        amp = float(spec.pop("amp", 1.0))
        width = float(spec.pop("width", 2.0))
        center = np.asarray(spec.pop("center", [0.0] * cfg.grid.dim), dtype=float)
        state = amp * np.exp(-((x - center) ** 2).sum(axis=1) / width**2)
    elif kind == "eigenmode":
        state = dec.eigenvectors[:, int(spec.pop("index", 0))].copy()
    elif kind == "random_smooth":
        # spectrally damped white noise: smooth, deterministic under the seed
        scale = float(spec.pop("scale", 1.0))
        raw = rng.standard_normal(dec.n_dof)
        damping = np.exp(-dec.eigenvalues / max(dec.eigenvalues[-1] / 16.0, 1e-12))
        state = scale * (dec.eigenvectors @ (damping * (dec.eigenvectors.T @ raw)))
    else:
        raise ConfigError(f"unknown u0 kind {kind!r}")
    if spec:
        raise ConfigError(f"unknown u0 parameter {sorted(spec)[0]!r}")
    return state


def _terms_from_config(raw_terms, n_vars: int):
    terms = []
    for item in raw_terms:
        _check_keys(item, ("powers",), ("coeff_re", "coeff_im"), "nonlinearity term")
        coeff = complex(item.get("coeff_re", 0.0), item.get("coeff_im", 0.0))
        terms.append((coeff, tuple(item["powers"])))
    if any(len(p) != n_vars for _, p in terms):
        raise ConfigError(f"nonlinearity powers must have length {n_vars}")
    return terms


def _ladder_from_params(p: dict) -> np.ndarray:
    return geometric_ladder(
        float(p.get("y0", 1e-3)), float(p.get("y_ratio", 1.2)), int(p.get("y_count", 55))
    )


# ---------------------------------------------------------------------------
# task runners: return (invariants dict, artifact names)
# ---------------------------------------------------------------------------

def _run_spectrum(cfg, dec, rng, outdir):
    lam = dec.eigenvalues
    _write_csv(outdir / "eigenvalues.csv", "k,lambda", [np.arange(len(lam)), lam])
    probe = rng.standard_normal(dec.n_dof)
    recon = dec.eigenvectors @ (lam * (dec.eigenvectors.T @ probe))
    resid = np.linalg.norm(recon - dec.source.matrix @ probe)
    scale = max(abs(lam[-1]), 1e-300)
    inv = {
        "eigenvalues_nonnegative": bool(lam[0] >= -1e-10 * scale),
        "reconstruction_residual_ok": bool(resid <= 1e-8 * scale * np.linalg.norm(probe)),
    }
    return inv, ["eigenvalues.csv"]


def _run_funcalc(cfg, dec, rng, outdir):
    alpha = cfg.alpha[0]
    f = rng.standard_normal(dec.n_dof)
    checks = []
    ident = apply_function(dec, identity_map(), f)
    checks.append(("identity", float(np.linalg.norm(ident - f) / np.linalg.norm(f)), 1e-12))
    lf = apply_function(dec, power(1.0), f)
    checks.append(("power_one_vs_matrix",
                   float(np.linalg.norm(lf - dec.source.matrix @ f)
                         / max(np.linalg.norm(lf), 1e-300)), 1e-10))
    half = fractional_power(dec, alpha / 2.0, fractional_power(dec, alpha / 2.0, f))
    whole = fractional_power(dec, alpha, f)
    checks.append(("power_semigroup",
                   float(np.linalg.norm(half - whole) / max(np.linalg.norm(whole), 1e-300)),
                   1e-9))
    u = unitary_propagate(dec, alpha, 1.0, f)
    checks.append(("unitarity", float(abs(np.linalg.norm(u) / np.linalg.norm(f) - 1.0)), 1e-10))
    names, vals, tols = zip(*checks)
    passed = [int(val <= tol) for val, tol in zip(vals, tols)]
    _write_csv(outdir / "funcalc.csv", "check,measured,tolerance,passed",
               [names, vals, tols, passed])
    return {name: bool(ok) for name, ok in zip(names, passed)}, ["funcalc.csv"]


def _run_norm_equiv(cfg, dec, rng, outdir):
    reports = []
    for alpha in cfg.alpha:
        rep = norm_equivalence(
            dec.source, alpha,
            n_bumps=int(cfg.task_params.get("n_bumps", 12)),
            seed=cfg.seed, dec=dec,
            refine=bool(cfg.task_params.get("refine", True)),
        )
        reports.append(rep.to_json_dict())
    (outdir / "norm_equiv.json").write_text(json.dumps({"reports": reports}, indent=2) + "\n")
    ok = all(0.0 < r["ratio_min"] <= r["ratio_max"] < np.inf for r in reports)
    return {"ratio_bracket_finite": bool(ok)}, ["norm_equiv.json"]


def _extension_for(cfg, dec, rng):
    alpha = cfg.alpha[0]
    ys = _ladder_from_params(cfg.task_params)
    nq = int(cfg.task_params.get("quad_nodes", 0))
    rule = QuadratureRule.for_spectrum(dec.eigenvalues, n_nodes=nq) if nq else None
    u0 = _build_state(cfg, dec, rng)
    return extend(dec, alpha, u0, ys, rule)


def _run_extend(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    ext.export_csv(outdir / "extension.csv")
    (outdir / "extension_meta.json").write_text(ext.metadata_json() + "\n")
    norms = np.linalg.norm(ext.values, axis=0)
    inv = {
        "trace_mass_contracts": bool(norms.max() <= np.linalg.norm(ext.base) * (1 + 1e-8)),
        "mass_nonincreasing_in_y": bool(np.all(np.diff(norms) <= 1e-12 * max(norms[0], 1e-300))),
    }
    return inv, ["extension.csv", "extension_meta.json"]


def _run_recover(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    rec = conormal_recover(ext)
    oracle = fractional_power(dec, ext.alpha, ext.base)
    rel = float(np.linalg.norm(rec - oracle) / max(np.linalg.norm(oracle), 1e-300))
    _write_csv(outdir / "recover.csv", "node,spectral,recovered,abs_diff",
               [np.arange(len(rec)), oracle, rec, np.abs(rec - oracle)])
    return {"recovery_within_tolerance": bool(rel <= 1e-3)}, ["recover.csv"]


def _run_energy(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    rep = energy_report(ext)
    payload = {
        "energy": rep.energy,
        "base_mass": rep.base_mass,
        "fractional_mass": rep.fractional_mass,
        "bound_ratio": rep.bound_ratio,
        "sup_trace_ratio": rep.sup_trace_ratio,
    }
    (outdir / "energy.json").write_text(json.dumps(payload, indent=2) + "\n")
    return {"energy_ratio_finite": bool(np.isfinite(rep.bound_ratio))}, ["energy.json"]


def _run_doubling(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    if "radii" in cfg.task_params:
        radii = [float(r) for r in cfg.task_params["radii"]]
    else:
        # every half ball of radius >= h holds the dof node nearest the center, at most
        # h sqrt(dim)/2 off; keep the radii whose double fits the sampled half space
        h = cfg.grid.spacing
        fits = min(cfg.grid.half_length, float(ext.y_nodes[-1])) / 2.0
        radii = [r for r in (4.0 * h, 2.0 * h, h) if r <= fits] or [h]
    center = cfg.task_params.get("center", 0.0)
    rows = doubling_ratio(ext, radii, center=center)
    ratios = [r for _, r in rows]
    _write_csv(outdir / "doubling.csv", "radius,ratio", [radii, ratios])
    return {"doubling_ratios_finite": bool(all(np.isfinite(r) and r > 0 for r in ratios))}, \
        ["doubling.csv"]


def _run_picard(cfg, dec, rng, outdir):
    p = cfg.task_params
    nl = polynomial_nonlinearity(_terms_from_config(p.get("nonlinearity", []), 2))
    u0 = _build_state(cfg, dec, rng)
    dt = float(p.get("dt", 1e-3))
    traj = picard_solve(
        dec, cfg.alpha[0], u0, nl,
        t_final=float(p.get("t_final", 0.1)), dt=dt,
        tol=float(p.get("tol", 1e-10)), max_iter=int(p.get("max_iter", 60)),
        grid=cfg.grid, s=float(p.get("s", 2.0)),
        c_est=p.get("c_est"),
    )
    traj.export_csv(outdir / "trajectory.csv")
    traj.export_monitors_csv(outdir / "monitors.csv")
    resid = traj.monitors["equation_residual"]
    inv = {
        "picard_converged": True,
        "equation_residual_ok": bool(resid[1:-1].max() <= 10.0 * dt**2) if len(resid) > 2 else True,
    }
    return inv, ["trajectory.csv", "monitors.csv"]


def _run_viscous(cfg, dec, rng, outdir):
    p = cfg.task_params
    nl = gradient_nonlinearity(
        _terms_from_config(p.get("nonlinearity", []), 2 + 2 * cfg.grid.dim),
        dim=cfg.grid.dim, seed=cfg.seed,
    )
    u0 = _build_state(cfg, dec, rng)
    traj = viscous_solve(
        dec, cfg.alpha[0], float(p.get("eps", 0.05)), u0, nl,
        t_final=float(p.get("t_final", 0.1)), dt=float(p.get("dt", 1e-3)),
        grid=cfg.grid, s=int(p.get("s", 2)), c_est=float(p.get("c_est", 1.0)),
    )
    traj.export_csv(outdir / "trajectory.csv")
    traj.export_monitors_csv(outdir / "monitors.csv")
    inv = {
        "no_blowup": True,
        "no_energy_flags": not traj.energy_flags,
    }
    return inv, ["trajectory.csv", "monitors.csv"]


def _run_viscosity_convergence(cfg, dec, rng, outdir):
    p = cfg.task_params
    nl = gradient_nonlinearity(
        _terms_from_config(p.get("nonlinearity", []), 2 + 2 * cfg.grid.dim),
        dim=cfg.grid.dim, seed=cfg.seed,
    )
    u0 = _build_state(cfg, dec, rng)
    table = viscosity_convergence(
        dec, cfg.alpha[0], u0, nl,
        t_final=float(p.get("t_final", 0.1)),
        epsilons=[float(e) for e in p.get("epsilons", [0.1, 0.05, 0.025, 0.0125])],
        dt=float(p.get("dt", 1e-3)), grid=cfg.grid, s=int(p.get("s", 2)),
        c_est=float(p.get("c_est", 1.0)),
    )
    _write_csv(outdir / "viscosity_pairs.csv", "eps,eps_prime,sup_diff", zip(*table.rows))
    (outdir / "viscosity_fit.json").write_text(
        json.dumps({"k_est": table.k_est, "r_squared": table.r_squared}, indent=2) + "\n"
    )
    distinct = len({e for e, _, _ in table.rows} | {e for _, e, _ in table.rows}) > 1
    inv = {"linear_rate_fit": bool(table.r_squared >= 0.9) if distinct else True}
    return inv, ["viscosity_pairs.csv", "viscosity_fit.json"]


def _run_uc_probe(cfg, dec, rng, outdir):
    p = cfg.task_params
    spec = VanishingSpec.create(
        theta=p.get("theta", (-1.0, 0.0)),
        f_support=p.get("f_support", (1.0, 2.0)),
        dim=cfg.grid.dim,
    )
    alphas = [float(a) for a in p.get("alphas", [0.25, 0.5, 0.75, 1.0])]
    rows = dichotomy_sweep(dec, spec, alphas)
    sweep_to_csv(rows, outdir / "uc_sweep.csv")
    ok = all(
        (ratio == 0.0 if alpha == 1.0 else ratio > NONLOCALITY_FLOOR)
        for alpha, _, _, ratio in rows
    )
    return {"dichotomy_holds": bool(ok)}, ["uc_sweep.csv"]


def _run_kp_check(cfg, dec, rng, outdir):
    p = cfg.task_params
    order = float(p.get("l", 2.0))
    n_pairs = int(p.get("n_pairs", 20))
    x = cfg.grid.dof_nodes()
    ratios = []
    for _ in range(n_pairs):
        c = rng.uniform(-cfg.grid.half_length / 2, cfg.grid.half_length / 2, size=(2, cfg.grid.dim))
        w = rng.uniform(0.5, 3.0, size=2)
        f = np.exp(-((x - c[0]) ** 2).sum(axis=1) / w[0] ** 2)
        g = np.exp(-((x - c[1]) ** 2).sum(axis=1) / w[1] ** 2)
        ratios.append(kato_ponce_check(cfg.grid, order, f, g))
    _write_csv(outdir / "kp_ratios.csv", "trial,ratio", [np.arange(n_pairs), ratios])
    worst = max(ratios)
    return {"kp_ratio_finite": bool(np.isfinite(worst) and worst > 0)}, ["kp_ratios.csv"]


_RUNNERS = {
    "spectrum": _run_spectrum,
    "funcalc": _run_funcalc,
    "norm_equiv": _run_norm_equiv,
    "extend": _run_extend,
    "recover": _run_recover,
    "energy": _run_energy,
    "doubling": _run_doubling,
    "picard": _run_picard,
    "viscous": _run_viscous,
    "viscosity_convergence": _run_viscosity_convergence,
    "uc_probe": _run_uc_probe,
    "kp_check": _run_kp_check,
}


def run(cfg: RunConfig) -> int:
    """Execute one task; write artifacts and the manifest; return the exit code."""
    started = time.perf_counter()
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": cfg.echo,
        "versions": {
            "fracspec": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "seed": cfg.seed,
        "invariants": {},
        "artifacts": [],
        "status": "ok",
        "error": None,
    }
    code = 0
    try:
        field = _field_for(cfg)
        dec = eigendecompose(assemble(cfg.grid, field))
        rng = np.random.default_rng(cfg.seed)
        invariants, artifacts = _RUNNERS[cfg.task](cfg, dec, rng, outdir)
        manifest["invariants"] = invariants
        manifest["artifacts"] = artifacts
        if not all(invariants.values()):
            manifest["status"] = "invariant_failure"
            code = 1
    except NUMERICAL_ERRORS as err:
        manifest["status"] = "numerical_error"
        manifest["error"] = f"{type(err).__name__}: {err}"
        code = 3
    except (ConfigError, ValueError) as err:
        manifest["status"] = "config_error"
        manifest["error"] = f"{type(err).__name__}: {err}"
        code = 2
    manifest["wall_time_s"] = time.perf_counter() - started
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return code


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
