"""Configuration-driven runner: parses a run configuration and executes its task.

One JSON config describes one task: grid and coefficients, the fractional order(s), task
parameters, output directory, and the seed for random test states. Each run writes its data
files plus a manifest: the config echo, library versions, the BLAS setup, wall time, peak RSS,
the coefficient field's structural hypotheses, the eigensolver's driver and residuals, and the
pass/fail of the task's built-in invariants. The exit codes are those of ``fracspec.cli``.
"""

import json
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, cli, spectral
from .evolution import (
    PICARD_WORKING_SET,
    VISCOUS_WORKING_SET,
    Nonlinearity,
    check_picard,
    check_time_grid,
    check_viscosities,
    check_viscous,
    gradient_nonlinearity,
    kato_ponce_check,
    picard_solve,
    polynomial_nonlinearity,
    viscosity_convergence,
    viscous_solve,
)
from .extension import (EXTENSION_WORKING_SET, RECOVERY_TOL, conormal_constant,
                        conormal_recover, doubling_radii, doubling_ratio, energy_report, extend,
                        geometric_ladder)
from .gridop import (
    CoefficientField,
    Grid,
    NumericalError,
    _write_csv,
    assemble,
    build_grid,
    load_coefficients_csv,
    make_coefficients,
)
from .spectral import (
    DEFAULT_DOF_CAP,
    NORM_EQUIV_WORKING_SET,
    _sample_bump,
    apply_function,
    check_alpha,
    check_dof_cap,
    eigendecompose,
    fractional_power,
    norm_equivalence,
    norm_test_count,
    refinement,
    unitary_propagate,
)
from .ucprobe import (
    NONLOCALITY_FLOOR,
    UC_PROBE_WORKING_SET,
    VanishingSpec,
    dichotomy_sweep,
    sweep_alphas,
)

TASKS = {}  # task name -> (runner, parameter table); filled by @_task
# Below this many grid points a second OpenBLAS thread bought no wall time and, spinning idle,
# took 39-45 % of a run's CPU (258-676 points, 1-D and 2-D, 2 vCPUs, OpenBLAS 0.3.31); from
# 1024 points one thread was level to 12 % slower in wall time, at 2500 points 33 % slower.
THREADED_BLAS_MIN_POINTS = 1024
_REQUIRED = object()  # table default of a key that must be present


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    field: CoefficientField
    alpha: list
    task: str
    task_params: dict
    output_dir: Path
    seed: int
    echo: dict
    # built at parse time by the library constructors that own their rules
    ladder: np.ndarray | None = None
    nonlinearity: Nonlinearity | None = None
    spec: VanishingSpec | None = None
    refined: Grid | None = None  # the doubled grid that norm_equiv decomposes as well


def _kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_kind_name, kind))
    if isinstance(kind, list):
        return f"list of {_kind_name(kind[0])}"
    return "dict" if isinstance(kind, dict) else kind.__name__


def _conform(value, kind, key: str):
    """``value`` of ``key`` as ``kind``; TypeError if it does not have that kind."""
    if isinstance(kind, tuple):
        for alternative in kind:
            try:
                return _conform(value, alternative, key)
            except TypeError:
                pass
        raise TypeError
    if isinstance(kind, (list, dict)) and not isinstance(value, type(kind)):
        raise TypeError
    if isinstance(kind, list):
        return [_conform(item, kind[0], key) for item in value]
    if isinstance(kind, dict):
        return _params(value, kind, key)
    if isinstance(value, bool) and kind is not bool:
        raise TypeError
    if kind is float and isinstance(value, (int, float)):
        if not abs(value) <= sys.float_info.max:  # json reads NaN, Infinity and 1e400
            raise ConfigError(f"key {key!r} must be a finite number, got {value}")
        return float(value)
    if not isinstance(value, kind):
        raise TypeError
    return value


def _typed(mapping: dict, key: str, kind, context: str, default=None):
    """``mapping[key]`` checked against ``kind``, or ``default`` when the key is absent.

    A kind is a type (an int passes as a float, a bool as nothing else),
    ``[kind]`` for a list whose entries all have that kind, a table (see
    ``_params``) for a nested object, or a tuple of alternative kinds.
    """
    if key not in mapping:
        return default
    try:
        return _conform(mapping[key], kind, key)
    except TypeError:
        raise ConfigError(f"key {key!r} in {context} must be {_kind_name(kind)}, "
                          f"got {type(mapping[key]).__name__}") from None


def _params(mapping: dict, table: dict, context: str) -> dict:
    """Every key of ``table`` (key -> (kind, default)) typed from ``mapping``.

    Unknown keys and absent required keys are rejected by name; other absent
    keys take their defaults.
    """
    for key in mapping:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in {context}")
    for key, (_, default) in table.items():
        if default is _REQUIRED and key not in mapping:
            raise ConfigError(f"missing key {key!r} in {context}")
    return {key: _typed(mapping, key, kind, context, default)
            for key, (kind, default) in table.items()}


def _task(name: str, params: dict):
    """Register a runner under ``name`` with its task_params table."""
    def register(runner):
        TASKS[name] = (runner, params)
        return runner
    return register


_ROOT = {
    "grid": ({"dim": (int, _REQUIRED), "n": (int, _REQUIRED),
              "half_length": (float, _REQUIRED), "boundary": (str, _REQUIRED)}, _REQUIRED),
    "coefficients": ({"kind": (str, _REQUIRED), "params": (dict, {}),
                      "table_path": (str, None)}, _REQUIRED),
    "alpha": ((float, [float]), 0.5),
    "task": (str, _REQUIRED),
    "task_params": (dict, {}),
    "output_dir": (str, "fracspec_out"),
    "seed": (int, 0),
}
# coefficient params by kind; make_coefficients holds their defaults
_FIELD_PARAMS = {
    "identity": {},
    "radial_bump": {"s": (float, None), "w": (float, None), "c_amp": (float, None),
                    "c_w": (float, None), "M": ((float, [float], [[float]]), None)},
    "tabulated": {},
}
# u0 params by u0 kind
_U0 = {
    "gaussian": {"amp": (float, 1.0), "width": (float, 2.0), "center": ((float, [float]), 0.0)},
    "eigenmode": {"index": (int, 0)},
    "random_smooth": {"scale": (float, 1.0)},
}


def _built(keys: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, the library function that owns the rules of the values it
    reads; a ValueError or OSError it raises becomes a ConfigError led by ``keys``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as err:
        raise ConfigError(f"{keys}: {err}") from None


def _within_memory(keys: str, held: float, grid: Grid) -> None:
    if held * grid.n_dof > DEFAULT_DOF_CAP**2:
        raise ConfigError(f"{keys} give {held:.4g} arrays of {grid.n_dof} dofs held at once, "
                          f"over the memory guard of {DEFAULT_DOF_CAP}^2 entries")


def _task_inputs(task: str, p: dict, grid: Grid, field: CoefficientField, alpha: float) -> dict:
    """Check the task's values before any assembly or state-sized allocation, each by the
    library function that owns its rule; return its ladder, nonlinearity or vanishing set."""
    for key, center in (("'center'", p.get("center")),
                        ("u0 'center'", p.get("u0", {}).get("center"))):
        if isinstance(center, list) and len(center) != grid.dim:
            raise ConfigError(f"{key} must be one number or {grid.dim} numbers, got {center}")
    inputs = {}
    if "y0" in p:  # the extension tasks
        _built(f"'alpha' of {task}", conormal_constant, alpha)
        _within_memory(f"'y_count' of {task}", p["y_count"] * EXTENSION_WORKING_SET, grid)
        ladder = inputs["ladder"] = _built(f"'y0' / 'y_ratio' / 'y_count' of {task}",
                                           geometric_ladder, p["y0"], p["y_ratio"], p["y_count"])
        if task == "doubling":  # None picks the default radii, here and in the run
            _built("'radii' of doubling", doubling_radii, p["radii"], grid, float(ladder[-1]))
    if "dt" in p:  # the evolution tasks; each further viscosity run adds its states
        if task == "picard":
            _built("'tol' / 'max_iter' / 'c_est' of picard", check_picard, p["tol"],
                   p["max_iter"], p["c_est"])
        elif task == "viscous":
            _built("'eps' / 's' / 'c_est' of viscous", check_viscous, p["eps"], p["s"], p["c_est"])
        else:
            _built(f"'epsilons' / 's' / 'c_est' of {task}", check_viscosities, p["epsilons"],
                   p["s"], p["c_est"])
        keys = f"'t_final' / 'dt' of {task}"
        held = (PICARD_WORKING_SET if task == "picard"
                else VISCOUS_WORKING_SET + len(p.get("epsilons", [0])) - 1)
        _built(keys, check_time_grid, p["t_final"], p["dt"])
        _within_memory(keys, (p["t_final"] / p["dt"] + 1) * held, grid)
        terms = [(complex(term["coeff_re"], term["coeff_im"]), term["powers"])
                 for term in p["nonlinearity"]]
        keys = f"'nonlinearity' of {task}"
        inputs["nonlinearity"] = (
            _built(keys, polynomial_nonlinearity, terms) if task == "picard"
            else _built(keys, gradient_nonlinearity, terms, dim=grid.dim))
    if task == "norm_equiv":
        tests = _built("'n_bumps' of norm_equiv", norm_test_count, p["n_bumps"])
        refined = _built("task_params 'refine' doubles the grid", refinement, grid, field,
                         p["refine"])
        if refined:  # the tests are held on the doubled grid
            grid = inputs["refined"] = refined[0]
        _within_memory("'n_bumps' of norm_equiv", tests * NORM_EQUIV_WORKING_SET, grid)
    if task == "kp_check":  # empty functions: only kato_ponce_check's rule on l runs
        _built("'l' of kp_check", kato_ponce_check, grid, p["l"], [], [])
        if p["n_pairs"] < 1:
            raise ConfigError(f"'n_pairs' of kp_check must be >= 1, got {p['n_pairs']}")
    if task == "uc_probe":
        _, fractional = _built("'alphas' of uc_probe", sweep_alphas, p["alphas"])
        _within_memory("'alphas' of uc_probe", len(fractional) * UC_PROBE_WORKING_SET, grid)
        keys = "'theta' / 'f_support' of uc_probe"
        spec = inputs["spec"] = _built(keys, VanishingSpec.create, p["theta"], p["f_support"],
                                       grid.dim)
        _built(keys, spec.check_inside, grid)
        if 1.0 in p["alphas"]:  # dichotomy_sweep shrinks theta by the stencil width
            _built("'theta' of uc_probe with alpha 1", spec.shrunk_theta, grid.spacing)
    return inputs


def _field(grid: Grid, coefficients: dict) -> CoefficientField:
    """The coefficient field, made or loaded and checked by gridop."""
    kind, table_path = coefficients["kind"], coefficients["table_path"]
    if kind not in _FIELD_PARAMS:
        raise ConfigError(f"unknown coefficients kind {kind!r}; "
                          f"expected one of {tuple(_FIELD_PARAMS)}")
    given = coefficients["params"]
    params = _params(given, _FIELD_PARAMS[kind], f"params of coefficients kind {kind!r}")
    if (kind == "tabulated") != (table_path is not None):
        raise ConfigError("coefficients need 'table_path' exactly when their kind is 'tabulated'")
    if table_path is not None:
        return _built(f"coefficients 'table_path' {table_path}", load_coefficients_csv,
                      grid, table_path)
    # only the given params: make_coefficients holds the defaults
    return _built(f"coefficients 'params' of kind {kind!r}", make_coefficients, grid, kind,
                  {key: value for key, value in params.items() if key in given})


def _u0(spec: dict, n_dof: int) -> dict:
    kind = _typed(spec, "kind", str, "u0", default="gaussian")
    if kind not in _U0:
        raise ConfigError(f"unknown u0 kind {kind!r}; expected one of {tuple(_U0)}")
    u0 = _params(spec, {"kind": (str, kind), **_U0[kind]}, f"u0 of kind {kind!r}")
    if kind == "eigenmode" and not 0 <= u0["index"] < n_dof:
        raise ConfigError(f"u0 'index' must lie in 0..{n_dof - 1}, got {u0['index']}")
    if kind == "gaussian" and not u0["width"] > 0:
        raise ConfigError(f"u0 'width' must be > 0, got {u0['width']}")
    return u0


def parse_config(path: str | Path) -> RunConfig:
    """Load and strictly validate a JSON run configuration."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config path is not a file: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON (line {err.lineno}): {err.msg}") from err
    except (ValueError, RecursionError) as err:  # past CPython's int-digit or nesting limit
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    root = _params(raw, _ROOT, "config root")
    grid = _built("grid", build_grid, **root["grid"])
    _built(f"grid with 'n' = {grid.points_per_axis}", check_dof_cap, grid.n_dof)
    field = _field(grid, root["coefficients"])

    alphas = root["alpha"] if isinstance(root["alpha"], list) else [root["alpha"]]
    if not alphas:
        raise ConfigError("'alpha' must be a number or a nonempty list of numbers, got []")
    _built("alpha must be >= 0", check_alpha, min(alphas))

    task = root["task"]
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    if len(alphas) > 1 and task != "norm_equiv":  # only norm_equiv reads every alpha
        raise ConfigError(f"'alpha' of {task} must be one number, got {alphas}")
    task_params = _params(root["task_params"], TASKS[task][1], "task_params")
    if "u0" in task_params:
        task_params["u0"] = _u0(task_params["u0"], grid.n_dof)
    inputs = _task_inputs(task, task_params, grid, field, alphas[0])
    _built("'seed'", np.random.SeedSequence, root["seed"])
    output_dir = Path(root["output_dir"])
    try:  # a file, or a symlink to nothing, cannot lead to the run's directory
        if any((part.exists() or part.is_symlink()) and not part.is_dir()
               for part in (output_dir, *output_dir.parents)):
            raise ConfigError(f"'output_dir' is not a directory path: {output_dir}")
        manifest = output_dir / "manifest.json"
        if manifest.exists() and not manifest.is_file():
            raise ConfigError(f"'output_dir' holds a manifest.json that is not a file: {manifest}")
    except OSError as err:  # e.g. a component longer than the file system allows
        raise ConfigError(f"'output_dir' cannot be looked up: {err.strerror}") from None

    return RunConfig(
        grid=grid,
        field=field,
        alpha=alphas,
        task=task,
        task_params=task_params,
        output_dir=output_dir,
        seed=root["seed"],
        echo=raw,
        **inputs,
    )


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _build_state(cfg: RunConfig, dec, rng) -> np.ndarray:
    u0 = cfg.task_params["u0"]
    if u0["kind"] == "gaussian":
        return u0["amp"] * _sample_bump(cfg.grid, u0["center"], u0["width"])
    if u0["kind"] == "eigenmode":
        unit = np.zeros(dec.n_dof)
        unit[u0["index"]] = 1.0
        return dec.from_modes(unit)
    # random_smooth: spectrally damped white noise, smooth and deterministic under the seed
    raw = rng.standard_normal(dec.n_dof)
    damping = np.exp(-dec.eigenvalues / max(dec.eigenvalues[-1] / 16.0, 1e-12))
    return u0["scale"] * apply_function(dec, damping, raw)


_LADDER = {"u0": (dict, {}), "y0": (float, 1e-3), "y_ratio": (float, 1.2), "y_count": (int, 55)}
_TERM = {"powers": ([int], _REQUIRED), "coeff_re": (float, 0.0), "coeff_im": (float, 0.0)}
_EVOLUTION = {"u0": (dict, {}), "nonlinearity": ([_TERM], []),
              "t_final": (float, 0.1), "dt": (float, 1e-3)}
_VISCOUS = {**_EVOLUTION, "s": (int, 2), "c_est": (float, 1.0)}


# ---------------------------------------------------------------------------
# task runners: return (invariants dict, artifact names)
# ---------------------------------------------------------------------------

@_task("spectrum", {})
def _run_spectrum(cfg, dec, rng, outdir):
    # validate has checked the nonnegativity and the reconstruction; eigensolve holds both
    lam = dec.eigenvalues
    _write_csv(outdir / "eigenvalues.csv", "k,lambda", [np.arange(len(lam)), lam])
    return {}, ["eigenvalues.csv"]


@_task("funcalc", {})
def _run_funcalc(cfg, dec, rng, outdir):
    alpha = cfg.alpha[0]
    f = rng.standard_normal(dec.n_dof)
    checks = []
    ident = apply_function(dec, np.ones(dec.n_dof), f)
    checks.append(("identity", float(np.linalg.norm(ident - f) / np.linalg.norm(f)), 1e-12))
    lf = fractional_power(dec, 1.0, f)
    checks.append(("power_one_vs_matrix",
                   float(np.linalg.norm(lf - dec.source.apply(f))
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


@_task("norm_equiv", {"n_bumps": (int, 12), "refine": (bool, True)})
def _run_norm_equiv(cfg, dec, rng, outdir):
    p = cfg.task_params
    reports = [asdict(r) for r in norm_equivalence(
        dec, cfg.alpha, n_bumps=p["n_bumps"], seed=cfg.seed, refine=p["refine"])]
    (outdir / "norm_equiv.json").write_text(json.dumps({"reports": reports}, indent=2) + "\n")
    ok = all(0.0 < r["ratio_min"] <= r["ratio_max"] < np.inf for r in reports)
    return {"ratio_bracket_finite": bool(ok)}, ["norm_equiv.json"]


def _extension_for(cfg, dec, rng):
    return extend(dec, cfg.alpha[0], _build_state(cfg, dec, rng), cfg.ladder)


@_task("extend", _LADDER)
def _run_extend(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    ext.export_csv(outdir / "extension.csv")
    meta = {"alpha": ext.alpha, "y_nodes": ext.y_nodes.tolist()}
    (outdir / "extension_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    norms = np.linalg.norm(ext.values, axis=0)  # extend has checked that none exceeds |u|
    inv = {"mass_nonincreasing_in_y": bool(np.all(np.diff(norms) <= 1e-12 * max(norms[0], 1e-300)))}
    return inv, ["extension.csv", "extension_meta.json"]


@_task("recover", _LADDER)
def _run_recover(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    rec = conormal_recover(ext)
    oracle = fractional_power(dec, ext.alpha, ext.base)
    rel = float(np.linalg.norm(rec - oracle) / max(np.linalg.norm(oracle), 1e-300))
    _write_csv(outdir / "recover.csv", "node,spectral,recovered,abs_diff",
               [np.arange(len(rec)), oracle, rec, np.abs(rec - oracle)])
    return {"recovery_within_tolerance": bool(rel <= RECOVERY_TOL)}, ["recover.csv"]


@_task("energy", _LADDER)
def _run_energy(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    rep = energy_report(ext)
    (outdir / "energy.json").write_text(json.dumps(asdict(rep), indent=2) + "\n")
    return {"energy_ratio_finite": bool(np.isfinite(rep.bound_ratio))}, ["energy.json"]


@_task("doubling", {**_LADDER, "radii": ([float], None), "center": ((float, [float]), 0.0)})
def _run_doubling(cfg, dec, rng, outdir):
    ext = _extension_for(cfg, dec, rng)
    rows = doubling_ratio(ext, cfg.task_params["radii"], center=cfg.task_params["center"])
    radii, ratios = zip(*rows)
    _write_csv(outdir / "doubling.csv", "radius,ratio", [radii, ratios])
    return {"doubling_ratios_finite": bool(all(np.isfinite(r) and r > 0 for r in ratios))}, \
        ["doubling.csv"]


@_task("picard", {**_EVOLUTION, "tol": (float, 1e-10), "max_iter": (int, 60),
                  "s": (float, 2.0), "c_est": (float, None)})
def _run_picard(cfg, dec, rng, outdir):
    p = cfg.task_params
    traj = picard_solve(
        dec, cfg.alpha[0], _build_state(cfg, dec, rng), cfg.nonlinearity,
        t_final=p["t_final"], dt=p["dt"], tol=p["tol"], max_iter=p["max_iter"],
        s=p["s"], c_est=p["c_est"],
    )
    traj.export_csv(outdir / "trajectory.csv")
    traj.export_monitors_csv(outdir / "monitors.csv")
    resid = traj.monitors["equation_residual"]
    ok = bool(resid[1:-1].max() <= 10.0 * p["dt"]**2) if len(resid) > 2 else True
    return {"equation_residual_ok": ok}, ["trajectory.csv", "monitors.csv"]


@_task("viscous", {**_VISCOUS, "eps": (float, 0.05)})
def _run_viscous(cfg, dec, rng, outdir):
    p = cfg.task_params
    traj = viscous_solve(
        dec, cfg.alpha[0], p["eps"], _build_state(cfg, dec, rng), cfg.nonlinearity,
        t_final=p["t_final"], dt=p["dt"], s=p["s"], c_est=p["c_est"],
    )
    traj.export_csv(outdir / "trajectory.csv")
    traj.export_monitors_csv(outdir / "monitors.csv")
    return {"no_energy_flags": not traj.energy_flags}, ["trajectory.csv", "monitors.csv"]


@_task("viscosity_convergence", {**_VISCOUS, "epsilons": ([float], [0.1, 0.05, 0.025, 0.0125])})
def _run_viscosity_convergence(cfg, dec, rng, outdir):
    p = cfg.task_params
    table = viscosity_convergence(
        dec, cfg.alpha[0], _build_state(cfg, dec, rng), cfg.nonlinearity,
        t_final=p["t_final"], epsilons=p["epsilons"], dt=p["dt"], s=p["s"], c_est=p["c_est"],
    )
    _write_csv(outdir / "viscosity_pairs.csv", "eps,eps_prime,sup_diff", zip(*table.rows))
    (outdir / "viscosity_fit.json").write_text(
        json.dumps({"k_est": table.k_est, "r_squared": table.r_squared}, indent=2) + "\n"
    )
    return ({"linear_rate_fit": bool(table.r_squared >= 0.9)},
            ["viscosity_pairs.csv", "viscosity_fit.json"])


@_task("uc_probe", {"theta": (([float], [[float]]), [-1.0, 0.0]),
                    "f_support": (([float], [[float]]), [1.0, 2.0]),
                    "alphas": ([float], [0.25, 0.5, 0.75, 1.0])})
def _run_uc_probe(cfg, dec, rng, outdir):
    rows = dichotomy_sweep(dec, cfg.spec, cfg.task_params["alphas"])
    _write_csv(outdir / "uc_sweep.csv", "alpha,mass_theta,mass_total,ratio", zip(*rows))
    ok = all(
        (ratio == 0.0 if alpha == 1.0 else ratio > NONLOCALITY_FLOOR)
        for alpha, _, _, ratio in rows
    )
    return {"dichotomy_holds": bool(ok)}, ["uc_sweep.csv"]


@_task("kp_check", {"l": (float, 2.0), "n_pairs": (int, 20)})
def _run_kp_check(cfg, dec, rng, outdir):
    n_pairs = cfg.task_params["n_pairs"]
    ratios = []
    for _ in range(n_pairs):
        c = rng.uniform(-cfg.grid.half_length / 2, cfg.grid.half_length / 2, size=(2, cfg.grid.dim))
        w = rng.uniform(0.5, 3.0, size=2)
        f, g = (_sample_bump(cfg.grid, c[i], w[i]) for i in (0, 1))
        ratios.append(kato_ponce_check(cfg.grid, cfg.task_params["l"], f, g))
    _write_csv(outdir / "kp_ratios.csv", "trial,ratio", [np.arange(n_pairs), ratios])
    worst = max(ratios)
    return {"kp_ratio_finite": bool(np.isfinite(worst) and worst > 0)}, ["kp_ratios.csv"]


def _blas(cfg: RunConfig):
    """The manifest's ``blas`` record, and the call that restores numpy's OpenBLAS thread count.

    Unless the caller has set a thread variable, the run takes one thread on a grid of fewer
    than THREADED_BLAS_MIN_POINTS points (the doubled grid where norm_equiv refines), and on a
    larger one OpenBLAS's default of one per processor."""
    build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {name: os.environ.get(name) for name in cli.THREAD_VARIABLES}
    lib = spectral._openblas()
    get, put, procs = lib[:3] if lib else (lambda: None, lambda threads: None, lambda: None)
    previous, caller = get(), any(value is not None for value in env.values())
    if not caller:
        put(1 if (cfg.refined or cfg.grid).n_nodes < THREADED_BLAS_MIN_POINTS else procs())
    return ({"name": build.get("name"), "version": build.get("version"), **env, "threads": get(),
             "threads_set_by": None if previous is None else "caller" if caller else "runtime"},
            lambda: put(previous))


def run(cfg: RunConfig) -> int:
    """Execute one task; write artifacts and the manifest; return the exit code."""
    started = time.perf_counter()
    outdir = cfg.output_dir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"no manifest written: {err}", file=sys.stderr)
        return 4
    blas, restore = _blas(cfg)
    manifest = {
        "config": cfg.echo,
        "versions": {
            "fracspec": __version__,
            "numpy": np.__version__,
            "python": "{}.{}.{}".format(*sys.version_info),
        },
        "blas": blas,
        "seed": cfg.seed,
        "hypotheses": asdict(cfg.field.hypotheses),  # measured once, when parsing made the field
        "eigensolve": None,
        "invariants": {},
        "artifacts": [],
        "status": "ok",
        "error": None,
    }
    code = 0
    try:
        runner, _ = TASKS[cfg.task]
        # the run's net: an overflow, invalid operation or division by zero that no guard
        # caught fails it as a numerical error; underflow stays silent (e^{-z} in K_nu)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            dec = eigendecompose(assemble(cfg.grid, cfg.field))
            manifest["eigensolve"] = dec.eigensolve
            rng = np.random.default_rng(cfg.seed)
            invariants, artifacts = runner(cfg, dec, rng, outdir)
        manifest.update(invariants=invariants, artifacts=artifacts)
        if not all(invariants.values()):
            manifest["status"] = "invariant_failure"
            code = 1
    except FloatingPointError as err:  # numpy names the operation, so the message names the task
        manifest["error"] = f"FloatingPointError in task {cfg.task}: {err}"
        code, manifest["status"] = 3, "numerical_error"
    except Exception as err:  # every failure writes the manifest, its status names the kind
        manifest["error"] = f"{type(err).__name__}: {err}"
        code, manifest["status"] = ((3, "numerical_error") if isinstance(err, NumericalError)
                                    else (4, "internal_error"))
        if code == 4:  # parsing caught every config error, so this is a fault
            import traceback  # only a fault loads it
            traceback.print_exc()
    finally:
        restore()
    manifest["wall_time_s"] = time.perf_counter() - started
    manifest["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as err:
        print(f"no manifest written: {err}", file=sys.stderr)
        return 4
    return code
