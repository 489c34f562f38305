import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from fracspec import cli, spectral, tasks
from fracspec.cli import main
from fracspec.tasks import TASKS, ConfigError, _kind_name, parse_config, run
from fracspec.evolution import (
    PICARD_WORKING_SET,
    VISCOUS_WORKING_SET,
    gradient_nonlinearity,
    kato_ponce_check,
    picard_solve,
    polynomial_nonlinearity,
    viscosity_convergence,
    viscous_solve,
)
from fracspec.extension import (EXTENSION_WORKING_SET, DegenerateInputError, doubling_ratio,
                                extend, geometric_ladder)
from fracspec.gridop import (
    NumericalError,
    assemble,
    build_grid,
    check_hypotheses,
    make_coefficients,
    min_eigenvalues,
)
from fracspec.spectral import (
    EIGENVECTOR_SAMPLE_INDICES,
    NORM_EQUIV_WORKING_SET,
    SpectrumCapError,
    eigendecompose,
    norm_equivalence,
)
from fracspec.ucprobe import UC_PROBE_WORKING_SET, VanishingSpec, dichotomy_sweep
from oracles import eigenvectors, use_lookup

ROOT = Path(__file__).resolve().parents[1]

BASE = {
    "grid": {"dim": 1, "n": 64, "half_length": 8.0, "boundary": "dirichlet"},
    "coefficients": {"kind": "identity"},
    "alpha": 0.5,
    "task": "spectrum",
}


def write_config(tmp_path, overrides=None, name="config.json", **top):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides or {})
    cfg.update(top)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.task == "spectrum"
    assert cfg.alpha == [0.5]
    assert cfg.grid.points_per_axis == 64
    assert cfg.seed == 0


def test_parse_rejects_negative_alpha(tmp_path):
    with pytest.raises(ConfigError, match="alpha must be >= 0"):
        parse_config(write_config(tmp_path, alpha=-0.5))


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="alhpa"):
        parse_config(write_config(tmp_path, alhpa=0.5))


def test_parse_rejects_missing_key(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"grid": BASE["grid"], "task": "spectrum"}))
    with pytest.raises(ConfigError, match="missing key 'coefficients'"):
        parse_config(path)


def test_parse_rejects_type_mismatch(tmp_path):
    with pytest.raises(ConfigError, match="'n' in grid"):
        parse_config(write_config(tmp_path, overrides={
            "grid": {"dim": 1, "n": "sixty-four", "half_length": 8.0,
                     "boundary": "dirichlet"}}))


def test_parse_reports_json_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n "grid": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_parse_unknown_task(tmp_path):
    with pytest.raises(ConfigError, match="unknown task"):
        parse_config(write_config(tmp_path, task="frobnicate"))


def test_config_echo_roundtrips(tmp_path):
    path = write_config(tmp_path, seed=7, output_dir=str(tmp_path / "out"))
    cfg = parse_config(path)
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(cfg.echo))
    cfg2 = parse_config(echo_path)
    assert cfg2.echo == cfg.echo


def test_run_spectrum_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(tmp_path, output_dir=str(out)))
    assert run(cfg) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    # validate's checks are not restated as invariants: eigensolve holds the residuals
    assert manifest["invariants"] == {}
    assert all(manifest["eigensolve"][name]["measured"] <= manifest["eigensolve"][name]["bound"]
               for name in ("orthonormality", "reconstruction"))
    assert "wall_time_s" in manifest
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "k,lambda"
    assert len(lines) == 63  # 62 interior dofs


def test_run_norm_equiv_report_schema(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="norm_equiv",
        alpha=[0.5, 1.0],
        overrides={"grid": {"dim": 1, "n": 32, "half_length": 8.0,
                            "boundary": "dirichlet"},
                   "task_params": {"n_bumps": 4, "refine": False}},
    ))
    assert run(cfg) == 0
    data = json.loads((out / "norm_equiv.json").read_text())
    assert len(data["reports"]) == 2
    for rep in data["reports"]:
        assert {"alpha", "ratio_min", "ratio_max", "lambda_min", "lambda_max",
                "refinement_drift", "n_samples"} == set(rep)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("skip", ["refine_false", "tabulated"])
def test_run_norm_equiv_skipped_refinement_writes_strict_json(tmp_path, skip):
    grid_n = 17
    coefficients = {"kind": "identity"}
    task_params = {"n_bumps": 4}
    if skip == "tabulated":
        x = np.linspace(-8.0, 8.0, grid_n)
        rows = np.column_stack([np.arange(grid_n), 1 + 0.5 * np.exp(-x**2), np.zeros(grid_n)])
        table = tmp_path / "field.csv"
        np.savetxt(table, rows, delimiter=",")
        coefficients = {"kind": "tabulated", "table_path": str(table)}
    else:
        task_params["refine"] = False
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="norm_equiv",
        overrides={"grid": {"dim": 1, "n": grid_n, "half_length": 8.0,
                            "boundary": "dirichlet"},
                   "coefficients": coefficients, "task_params": task_params},
    ))
    assert run(cfg) == 0
    data = json.loads((out / "norm_equiv.json").read_text(), parse_constant=_reject_constant)
    assert [rep["refinement_drift"] for rep in data["reports"]] == [None]


def test_run_uc_probe_standard_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="uc_probe",
        overrides={"grid": {"dim": 1, "n": 128, "half_length": 8.0,
                            "boundary": "dirichlet"}},
    ))
    assert run(cfg) == 0
    lines = (out / "uc_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,mass_theta,mass_total,ratio"
    table = [row.split(",") for row in lines[1:]]
    assert [len(row) for row in table] == [4] * 4  # the four default alphas
    assert all(f"{float(cell):.17e}" == cell for row in table for cell in row)
    assert float(table[-1][0]) == 1.0
    assert float(table[-1][3]) == 0.0
    for row in table[:-1]:
        assert float(row[3]) > 1e-6


def test_run_is_deterministic_under_seed(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = parse_config(write_config(
            tmp_path, name=f"{name}.json", output_dir=str(out), seed=11,
            task="kp_check",
            overrides={"grid": {"dim": 1, "n": 32, "half_length": 8.0,
                                "boundary": "periodic"},
                       "task_params": {"n_pairs": 5}},
        ))
        assert run(cfg) == 0
        outs.append(out)
    csv_a = (outs[0] / "kp_ratios.csv").read_bytes()
    csv_b = (outs[1] / "kp_ratios.csv").read_bytes()
    assert csv_a == csv_b
    m_a = json.loads((outs[0] / "manifest.json").read_text())
    m_b = json.loads((outs[1] / "manifest.json").read_text())
    for m in (m_a, m_b):  # the two measurements of the process
        m.pop("wall_time_s")
        m.pop("peak_rss_mb")
        m["config"].pop("output_dir")
    assert m_a == m_b


def test_run_picard_task(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="picard",
        overrides={
            "grid": {"dim": 1, "n": 17, "half_length": 8.0, "boundary": "dirichlet"},
            "task_params": {
                "u0": {"kind": "gaussian", "amp": 0.3},
                "t_final": 0.05, "dt": 0.005,
                "nonlinearity": [{"coeff_re": 1.0, "powers": [2, 1]}],
            },
        },
    ))
    assert run(cfg) == 0
    monitors = (out / "monitors.csv").read_text().splitlines()
    assert monitors[0] == "time,l2_norm,sobolev_norm_s,picard_iterations,equation_residual"
    assert len(monitors) == 12


def test_picard_without_nonlinearity_passes_its_equation_residual(tmp_path):
    # the trajectory is the exact propagator, which the residual's midpoint rule reproduces
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="picard", alpha=0.7,
        coefficients={"kind": "radial_bump", "params": {"s": 0.7, "w": 2.0, "c_amp": 0.4}},
        overrides={
            "grid": {"dim": 1, "n": 258, "half_length": 8.0, "boundary": "dirichlet"},
            "task_params": {"u0": {"kind": "gaussian", "amp": 0.3, "width": 0.5},
                            "t_final": 0.1, "dt": 0.0025},
        },
    ))
    assert run(cfg) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["invariants"] == {"equation_residual_ok": True}


def test_run_viscous_blowup_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="viscous",
        overrides={
            "grid": {"dim": 1, "n": 17, "half_length": 8.0, "boundary": "dirichlet"},
            "task_params": {"t_final": 0.05, "dt": 0.005, "eps": 0.01,
                            "c_est": 1e-9},
        },
    ))
    assert run(cfg) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_error"
    assert "BlowUpError" in manifest["error"]


@pytest.mark.parametrize("task, alpha", [("funcalc", 400.0), ("norm_equiv", [0.5, 1e300]),
                                         ("picard", 1e300), ("viscous", 1e300)])
def test_run_exits_3_before_l_to_the_alpha_overflows(tmp_path, task, alpha):
    # lambda_max is 64 on this grid: 64^200 (funcalc's half power) is past the largest float
    out = tmp_path / "out"
    cfg = parse_config(write_config(tmp_path, output_dir=str(out), task=task, alpha=alpha,
                                    overrides={"grid": {**BASE["grid"], "n": 65}}))
    assert run(cfg) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_error"
    assert "NumericalError: L^alpha overflows" in manifest["error"]
    assert "lambda_max = 6.396145e+01" in manifest["error"]


@pytest.mark.parametrize("overrides, named", [
    # stencil entries near 2.6e302: lambda_max^2 is past the largest float
    ({"grid": {**BASE["grid"], "n": 33, "half_length": 1e-150}}, "at alpha = 2,"),
    ({"task_params": {"eps": 1e307}}, "at eps = 1e+307,"),  # eps lambda_max^2 overflows
    # eps lambda_max^2 = 3.8e307 is finite, its product with dt is not
    ({"task_params": {"eps": 1e304, "t_final": 100.0, "dt": 10.0}}, "at eps = 1e+304,"),
], ids=["lambda_max_squared", "eps_times_lambda_max_squared", "times_a_step_over_one"])
def test_viscous_run_exits_3_before_its_symbol_overflows(tmp_path, capsys, overrides, named):
    # the suite's error::RuntimeWarning filter fails a guard that fires after the overflow
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, overrides, task="viscous",
                                         output_dir=str(out)))]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_error"
    assert "overflows" in manifest["error"] and named in manifest["error"]
    assert "Traceback" not in capsys.readouterr().err


TINY_GRID = {**BASE["grid"], "n": 33, "half_length": 1e-150}


@pytest.mark.parametrize("task, params", [
    ("funcalc", {}), ("kp_check", {}), ("picard", {}),
    ("uc_probe", {"task_params": {"theta": [-1e-150, 0.0], "f_support": [5e-151, 1e-150]}}),
    # a python float's power raises OverflowError whatever np.errstate says, so the norms
    # stay numpy scalars: |u|_2^2 of the energy report, R^{N1-1} of the Picard horizon
    ("energy", {"grid": {**TINY_GRID, "half_length": 32.0}, "task_params": {
        "u0": {"kind": "gaussian", "amp": 8e153, "width": 4.0}}}),
    ("picard", {"grid": {**TINY_GRID, "half_length": 8.0}, "task_params": {
        "c_est": 1.0, "nonlinearity": [{"coeff_re": 1.0, "powers": [3, 2]}],
        "u0": {"kind": "gaussian", "amp": 1e80}}}),
])
def test_run_net_fails_an_unguarded_overflow_as_a_numerical_error(tmp_path, capsys, task, params):
    # stencil entries near 2.6e302 (or data near the largest float): each task overflows inside
    # a norm or a product that no guard of its own covers, so only the run's net makes it exit 3
    out = tmp_path / "out"
    overrides = {"grid": TINY_GRID, **params}
    assert main(["run", str(write_config(tmp_path, overrides, task=task,
                                         output_dir=str(out)))]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_error"
    assert manifest["error"].startswith(f"FloatingPointError in task {task}: overflow")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("y0", [1e-20, 1e-250])
def test_extend_at_a_tiny_ladder_base_passes_the_trace_check(tmp_path, y0):
    # every multiplier at y0 rounds to 1, so |U(., y0) - u| is the roundoff of V V^T u
    # (4.2e-15 at y0 = 1e-20), which the envelope 10 y0^{min(2a,1)} |u| alone would refuse
    out = tmp_path / "out"
    overrides = {"grid": {**BASE["grid"], "n": 66}, "coefficients": BUMP,
                 "task_params": {"y0": y0}}
    path = write_config(tmp_path, overrides, task="extend", output_dir=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 0
    assert json.loads((out / "manifest.json").read_text())["error"] is None


@pytest.mark.parametrize("task,params,key,artifact", [
    ("kp_check", {"n_pairs": 0}, "n_pairs", "kp_ratios.csv"),
    ("uc_probe", {"alphas": []}, "alphas", "uc_sweep.csv"),
])
def test_run_empty_sweep_is_config_error(tmp_path, capsys, task, params, key, artifact):
    out = tmp_path / "out"
    path = write_config(
        tmp_path, output_dir=str(out), task=task,
        overrides={"grid": {"dim": 1, "n": 32, "half_length": 8.0,
                            "boundary": "dirichlet"},
                   "task_params": params},
    )
    assert main(["run", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # found at parse time: no manifest, no artifact


def test_main_validate_and_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = write_config(tmp_path, name="bad.json", alpha=-1.0)
    assert main(["validate", str(bad)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_main_run_spectrum(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, output_dir=str(out))
    assert main(["run", str(path)]) == 0
    assert (out / "manifest.json").exists()


def test_run_funcalc_task(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="funcalc",
        overrides={"grid": {"dim": 1, "n": 32, "half_length": 8.0,
                            "boundary": "dirichlet"}},
    ))
    assert run(cfg) == 0
    lines = (out / "funcalc.csv").read_text().splitlines()
    assert lines[0] == "check,measured,tolerance,passed"
    assert all(line.endswith(",1") for line in lines[1:])


def test_run_extend_energy_doubling_tasks(tmp_path):
    grid = {"dim": 1, "n": 48, "half_length": 4.0, "boundary": "dirichlet"}
    for task, artifact in (("extend", "extension.csv"),
                           ("energy", "energy.json"),
                           ("doubling", "doubling.csv")):
        out = tmp_path / task
        cfg = parse_config(write_config(
            tmp_path, name=f"{task}.json", output_dir=str(out), task=task,
            overrides={
                "grid": grid,
                "task_params": {"u0": {"kind": "gaussian", "width": 1.0},
                                "y0": 1e-3, "y_ratio": 1.2, "y_count": 50,
                                **({"radii": [0.5, 0.25]} if task == "doubling" else {})},
            },
        ))
        assert run(cfg) == 0, task
        assert (out / artifact).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
    meta = (tmp_path / "extend" / "extension_meta.json").read_text()
    assert json.loads(meta) == {"alpha": 0.5, "y_nodes": list(geometric_ladder(1e-3, 1.2, 50))}
    assert meta.startswith('{\n  "alpha": 0.5,\n  "y_nodes": [\n') and meta.endswith("]\n}\n")


@pytest.mark.parametrize("dim, n, multiples", [(2, 18, [4, 2, 1]), (1, 9, [2, 1])])
def test_doubling_default_radii_scale_with_spacing(tmp_path, dim, n, multiples):
    # n = 18 puts no node at the center; at n = 9 the radius 4h = 8 would
    # need the half space out to 16 > X
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="doubling",
        overrides={"grid": {"dim": dim, "n": n, "half_length": 8.0, "boundary": "dirichlet"}},
    ))
    assert run(cfg) == 0
    rows = np.loadtxt(out / "doubling.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.allclose(rows[:, 0], np.multiply(multiples, cfg.grid.spacing))
    assert np.all(rows[:, 1] >= 1.0)


def test_run_viscosity_convergence_task(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="viscosity_convergence",
        overrides={
            "grid": {"dim": 1, "n": 17, "half_length": 8.0, "boundary": "dirichlet"},
            "task_params": {
                "u0": {"kind": "gaussian", "amp": 0.1},
                "t_final": 0.05, "dt": 0.005,
                "epsilons": [0.1, 0.05, 0.025],
            },
        },
    ))
    assert run(cfg) == 0
    fit = json.loads((out / "viscosity_fit.json").read_text())
    assert fit["r_squared"] >= 0.9
    rows = (out / "viscosity_pairs.csv").read_text().splitlines()
    assert rows[0] == "eps,eps_prime,sup_diff"
    assert len(rows) == 4  # 3 unordered pairs


def test_run_viscosity_convergence_with_equal_epsilons_fits_exactly(tmp_path):
    # every gap eps - eps' is 0, so viscosity_convergence reports r_squared = 1
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="viscosity_convergence",
        overrides={"grid": {"dim": 1, "n": 17, "half_length": 8.0, "boundary": "dirichlet"},
                   "task_params": {"u0": {"amp": 0.1}, "t_final": 0.05, "dt": 0.005,
                                   "epsilons": [0.1, 0.1]}},
    ))
    assert run(cfg) == 0
    assert json.loads((out / "viscosity_fit.json").read_text()) == {"k_est": 0.0,
                                                                    "r_squared": 1.0}
    assert json.loads((out / "manifest.json").read_text())["invariants"] == {
        "linear_rate_fit": True}
    pairs = (out / "viscosity_pairs.csv").read_text().splitlines()
    assert pairs[1:] == ["1.00000000000000006e-01,1.00000000000000006e-01,0.00000000000000000e+00"]


def test_run_recover_invariant_failure_exit_code(tmp_path):
    # a ladder too coarse for the trace limit: extrapolation error -> exit 3
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="recover",
        overrides={
            "grid": {"dim": 1, "n": 48, "half_length": 4.0, "boundary": "dirichlet"},
            "task_params": {"y0": 2.0, "y_ratio": 2.0, "y_count": 6},
        },
    ))
    assert run(cfg) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_error"


def test_tabulated_coefficients_via_table_path(tmp_path):
    grid_n = 9
    x = np.linspace(-2, 2, grid_n)
    rows = np.column_stack([np.arange(grid_n), 1 + 0.5 * np.exp(-x**2), np.zeros(grid_n)])
    table = tmp_path / "field.csv"
    np.savetxt(table, rows, delimiter=",")
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out),
        overrides={
            "grid": {"dim": 1, "n": grid_n, "half_length": 2.0, "boundary": "dirichlet"},
            "coefficients": {"kind": "tabulated", "table_path": str(table)},
        },
    ))
    assert run(cfg) == 0


# --- strict parameters, exit codes by error kind ---------------------------------

SMALL_GRID = {"dim": 1, "n": 33, "half_length": 8.0, "boundary": "dirichlet"}


@pytest.mark.parametrize("task", sorted(TASKS))
def test_unknown_task_param_is_rejected_by_name(tmp_path, capsys, task):
    path = write_config(tmp_path, task=task, overrides={"grid": SMALL_GRID,
                                                        "task_params": {"tfinal": 5.0}})
    with pytest.raises(ConfigError, match="unknown key 'tfinal' in task_params"):
        parse_config(path)
    assert main(["validate", str(path)]) == 2
    assert "'tfinal'" in capsys.readouterr().err


BUMP = {"kind": "radial_bump", "params": {"s": 0.7, "w": 2.0, "c_amp": 0.4}}
INVALID = {
    "refine_not_bool": ("norm_equiv", {"task_params": {"refine": "no"}}, "refine"),
    "n_bumps_bool": ("norm_equiv", {"task_params": {"n_bumps": True}}, "n_bumps"),
    "radii_not_list": ("doubling", {"task_params": {"radii": 5}}, "radii"),
    "radii_entry_not_number": ("doubling", {"task_params": {"radii": [1.0, "2"]}}, "radii"),
    "c_est_not_number": ("picard", {"task_params": {"c_est": "big"}}, "c_est"),
    "coeff_re_not_number": ("picard", {"task_params": {"nonlinearity": [
        {"coeff_re": "x", "powers": [2, 1]}]}}, "coeff_re"),
    "term_without_powers": ("picard", {"task_params": {"nonlinearity": [{"coeff_re": 1.0}]}},
                            "powers"),
    "powers_not_int": ("viscous", {"task_params": {"nonlinearity": [
        {"coeff_re": 1.0, "powers": [2.5, 0, 1, 0]}]}}, "powers"),
    "n_pairs_not_int": ("kp_check", {"task_params": {"n_pairs": 2.0}}, "n_pairs"),
    "s_not_int": ("viscous", {"task_params": {"s": 2.5}}, "'s'"),
    "u0_index_out_of_range": ("extend", {"task_params": {"u0": {"kind": "eigenmode",
                                                               "index": 100}}}, "index"),
    "u0_index_negative": ("extend", {"task_params": {"u0": {"kind": "eigenmode",
                                                           "index": -1}}}, "index"),
    "u0_key_of_other_kind": ("extend", {"task_params": {"u0": {"kind": "eigenmode",
                                                              "width": 1.0}}}, "width"),
    "u0_unknown_kind": ("extend", {"task_params": {"u0": {"kind": "sine"}}}, "u0 kind"),
    "u0_center_not_numbers": ("extend", {"task_params": {"u0": {"center": "origin"}}},
                              "center"),
    "theta_not_pairs": ("uc_probe", {"task_params": {"theta": [[-1.0, "0"]]}}, "theta"),
    "bump_param_misspelled": ("spectrum", {"coefficients": {"kind": "radial_bump",
                                                            "params": {"ss": 0.7}}}, "ss"),
    "bump_param_not_number": ("spectrum", {"coefficients": {"kind": "radial_bump",
                                                            "params": {"w": "wide"}}}, "'w'"),
    "identity_with_params": ("spectrum", {"coefficients": {"kind": "identity",
                                                           "params": {"s": 1}}}, "'s'"),
    "unknown_coefficients_kind": ("spectrum", {"coefficients": {"kind": "bump"}}, "kind"),
    "table_path_not_tabulated": ("spectrum", {"coefficients": {"kind": "identity",
                                                               "table_path": "a.csv"}},
                                 "table_path"),
    "missing_table_file": ("spectrum", {"coefficients": {"kind": "tabulated",
                                                         "table_path": "missing.csv"}},
                           "table_path"),
    "empty_alpha_list": ("spectrum", {"alpha": []}, "alpha"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_config_exits_2_at_parse_time_naming_the_key(tmp_path, capsys, case):
    task, overrides, key = INVALID[case]
    out = tmp_path / "out"
    path = write_config(tmp_path, {"grid": SMALL_GRID, "coefficients": BUMP, **overrides},
                        task=task, output_dir=str(out))
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(path)
    assert main(["validate", str(path)]) == 2
    assert key in capsys.readouterr().err
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()  # parse errors write no manifest and no artifacts


GRID_2D = {"dim": 2, "n": 12, "half_length": 4.0, "boundary": "dirichlet"}
TERM = {"coeff_re": 1.0}
GRID_64 = {**SMALL_GRID, "n": 64}
# the most distinct fractional uc_probe alphas the memory guard admits at 4096 dofs
UC_ALPHAS_AT_GUARD = [k / 1000 for k in range(1, 820)]
# case -> (task, config overrides, what the message names); each is caught by parse_config
CAUGHT_BEFORE_ASSEMBLY = {
    "grid_over_dof_cap": ("spectrum", {"grid": {**GRID_2D, "n": 70}}, "'n'"),
    "periodic_grid_over_dof_cap": ("spectrum", {"grid": {**SMALL_GRID, "n": 4097,
                                                         "boundary": "periodic"}}, "'n'"),
    "refined_grid_over_dof_cap": ("norm_equiv", {"grid": {**GRID_2D, "n": 34}}, "'refine'"),
    # elliptic at the 64 nodes, not at the 128 of the doubled grid (node 63 there)
    "refined_field_not_elliptic": ("norm_equiv", {"grid": GRID_64, "coefficients": {
        "kind": "radial_bump", "params": {"s": 1.0, "w": 1.0, "M": -1.0101}}}, "'refine'"),
    "output_dir_is_a_file": ("spectrum", {}, "output_dir"),
    "output_dir_below_a_file": ("spectrum", {}, "output_dir"),
    "output_dir_component_too_long": ("spectrum", {}, "'output_dir'"),  # Path.exists raises
    "output_dir_is_a_symlink_to_nothing": ("spectrum", {}, "'output_dir'"),
    "output_dir_below_a_symlink_to_nothing": ("spectrum", {}, "'output_dir'"),
    "seed_past_the_int_digit_limit": ("spectrum", {}, "config is not valid JSON"),
    "seed_negative": ("spectrum", {"seed": -1}, "'seed'"),  # numpy's seeds are >= 0
    "manifest_json_is_a_directory": ("spectrum", {}, "'output_dir'"),
    "config_path_is_a_directory": ("spectrum", {}, "not a file"),
    "u0_center_too_long": ("extend", {"grid": GRID_2D, "task_params": {
        "u0": {"center": [0.0, 0.0, 0.0]}}}, "center"),
    "doubling_center_too_long": ("doubling", {"task_params": {"center": [0.0, 0.0]}},
                                 "center"),
    "picard_powers_length": ("picard", {"task_params": {"nonlinearity": [
        {**TERM, "powers": [2, 1, 0]}]}}, "powers"),
    "viscous_powers_length": ("viscous", {"task_params": {"nonlinearity": [
        {**TERM, "powers": [2, 1]}]}}, "powers"),
    "viscosity_convergence_powers_length": ("viscosity_convergence", {
        "grid": GRID_2D, "task_params": {"nonlinearity": [{**TERM, "powers": [2, 0, 1, 0]}]}},
        "powers"),
    "uc_probe_default_pair_in_2d": ("uc_probe", {"grid": GRID_2D, "task_params": {
        "f_support": [[1.0, 2.0], [-1.0, 1.0]]}}, "theta"),
    "uc_probe_pair_of_three": ("uc_probe", {"task_params": {"f_support": [1.0, 1.5, 2.0]}},
                               "f_support"),
    "doubling_radii_empty": ("doubling", {"grid": GRID_64, "task_params": {"radii": []}},
                             "radii"),
    "doubling_radius_negative": ("doubling", {"grid": GRID_64, "task_params": {
        "radii": [-1.0]}}, "radii"),
    "u0_width_zero": ("extend", {"grid": GRID_64, "task_params": {"u0": {"width": 0.0}}},
                      "width"),
    "viscous_s_odd": ("viscous", {"grid": GRID_64, "task_params": {"s": 3}}, "'s'"),
    "viscosity_convergence_s_negative": ("viscosity_convergence", {
        "grid": {**GRID_64, "boundary": "periodic"}, "task_params": {"s": -2}}, "'s'"),
    "picard_states_over_memory_guard": ("picard", {"grid": GRID_64, "task_params": {
        "t_final": 100.0, "dt": 1e-5}}, "'dt'"),
    "viscosity_convergence_runs_over_memory_guard": ("viscosity_convergence", {
        "grid": GRID_64, "task_params": {"t_final": 70.0}}, "'dt'"),  # 4 runs of 70001 states
    "extend_y_count_over_memory_guard": ("extend", {"grid": GRID_64, "task_params": {
        "y_count": 2000000}}, "'y_count'"),
    "extend_just_over_memory_guard": ("extend", {"grid": {**GRID_2D, "n": 66}, "task_params": {
        "y_ratio": 1.1, "y_count": 820}}, "'y_count'"),  # 5 x 820 x 4096 > 4096^2
    "picard_working_set_over_memory_guard": ("picard", {"grid": GRID_64, "task_params": {
        "t_final": 70.0}}, "'dt'"),  # 70001 states, 9 times over
    "recover_alpha_over_one": ("recover", {"grid": GRID_64, "alpha": 1.5}, "'alpha'"),
    "extend_y_ratio_below_one": ("extend", {"grid": GRID_64, "task_params": {
        "y_ratio": 0.9}}, "'y_ratio'"),
    "viscosity_convergence_epsilons_increase": ("viscosity_convergence", {
        "grid": GRID_64, "task_params": {"epsilons": [0.01, 0.1]}}, "'epsilons'"),
    "viscous_dt_negative": ("viscous", {"grid": GRID_64, "task_params": {"dt": -0.001}},
                            "'dt'"),
    # _time_grid's rule comes before the memory guard, which would count inf states
    "dt_zero": ("picard", {"grid": GRID_64, "task_params": {"dt": 0.0}},
                "t_final, dt and t_final / dt must be positive and finite"),
    "viscous_eps_negative": ("viscous", {"grid": GRID_64, "task_params": {"eps": -0.1}},
                             "'eps'"),
    "picard_term_of_degree_one": ("picard", {"grid": GRID_64, "task_params": {
        "nonlinearity": [{**TERM, "powers": [1, 0]}]}}, "'nonlinearity'"),
    "kp_check_l_zero": ("kp_check", {"grid": GRID_64, "task_params": {"l": 0.0}}, "'l'"),
    "uc_probe_theta_overlaps_support": ("uc_probe", {"grid": GRID_64, "task_params": {
        "theta": [0.5, 1.5]}}, "theta"),
    "uc_probe_support_outside_box": ("uc_probe", {"grid": GRID_64, "task_params": {
        "f_support": [7.0, 9.0]}}, "f_support"),
    "bump_m_not_symmetric": ("spectrum", {"grid": GRID_2D, "coefficients": {
        "kind": "radial_bump", "params": {"M": [[1.0, 2.0], [3.0, 1.0]]}}}, "'params'"),
    "bump_m_2x2_on_1d_grid": ("spectrum", {"coefficients": {
        "kind": "radial_bump", "params": {"M": [[1.0, 0.0], [0.0, 1.0]]}}}, "'params'"),
    "bump_not_elliptic": ("spectrum", {"grid": GRID_64, "coefficients": {
        "kind": "radial_bump", "params": {"s": -2.0}}}, "'params'"),
    "bump_c_amp_negative": ("spectrum", {"grid": GRID_64, "coefficients": {
        "kind": "radial_bump", "params": {"c_amp": -1.0}}}, "'params'"),
    "bump_width_zero": ("spectrum", {"coefficients": {
        "kind": "radial_bump", "params": {"w": 0.0}}}, "'params'"),  # 0/0 at the origin
    "table_of_wrong_shape": ("spectrum", {"coefficients": {
        "kind": "tabulated", "table_path": "table.csv"}}, "'table_path'"),  # 2 rows, not 33
    "doubling_radius_over_half_space": ("doubling", {"grid": GRID_64, "task_params": {
        "radii": [5.0]}}, "'radii'"),  # the doubled radius 10 exceeds X = 8
    "uc_probe_theta_emptied_by_stencil": ("uc_probe", {"grid": {**SMALL_GRID, "n": 9}},
                                          "'theta'"),  # [-1, 0] shrunk by h = 2
    "extend_ladder_overflows": ("extend", {"grid": GRID_64, "task_params": {
        "y_count": 4096}}, "'y_count'"),  # 1e-3 * 1.2^4095 is inf
    "picard_max_iter_zero": ("picard", {"grid": GRID_64, "task_params": {"max_iter": 0}},
                             "'max_iter'"),
    # no sweep difference is below 0: the iteration would run out its max_iter sweeps
    "picard_tol_zero": ("picard", {"grid": GRID_64, "task_params": {"tol": 0.0}}, "'tol'"),
    "picard_tol_negative": ("picard", {"grid": GRID_64, "task_params": {"tol": -1e-10}},
                            "'tol'"),
    "norm_equiv_n_bumps_negative": ("norm_equiv", {"grid": GRID_64, "task_params": {
        "n_bumps": -3}}, "'n_bumps'"),
    "viscous_working_set_over_memory_guard": ("viscous", {"grid": GRID_64, "task_params": {
        "t_final": 100.0}}, "'dt'"),  # 100001 states, 6 times over
    "picard_just_over_memory_guard": ("picard", {"grid": GRID_64, "task_params": {
        "t_final": 30.1}}, "'dt'"),  # 9 x 30101 x 62 > 4096^2
    "viscous_just_over_memory_guard": ("viscous", {"grid": GRID_64, "task_params": {
        "t_final": 45.1}}, "'dt'"),  # 6 x 45101 x 62 > 4096^2
    "viscous_c_est_zero": ("viscous", {"grid": GRID_64, "task_params": {"c_est": 0.0}},
                           "'c_est'"),  # the blow-up envelope 8 c |u0|_s must be positive
    "viscous_c_est_negative": ("viscous", {"grid": GRID_64, "task_params": {"c_est": -1.0}},
                               "'c_est'"),
    "viscosity_convergence_c_est_zero": ("viscosity_convergence", {
        "grid": GRID_64, "task_params": {"c_est": 0.0}}, "'c_est'"),
    "norm_equiv_just_over_memory_guard": ("norm_equiv", {"grid": GRID_64, "task_params": {
        "n_bumps": 13309}}, "'n_bumps'"),  # 10 x 13316 x 126 > 4096^2 on the doubled grid
    "norm_equiv_unrefined_just_over_memory_guard": ("norm_equiv", {
        "grid": GRID_64, "task_params": {"n_bumps": 27054, "refine": False}},
        "'n_bumps'"),  # 10 x 27061 x 62 > 4096^2
    "uc_probe_just_over_memory_guard": ("uc_probe", {"grid": {**GRID_2D, "n": 66}, "task_params": {
        "alphas": UC_ALPHAS_AT_GUARD + [0.9]}}, "'alphas'"),  # 5 x 820 x 4096 > 4096^2
    "extend_alpha_list_of_two": ("extend", {"grid": GRID_64, "alpha": [0.5, 1.5]}, "'alpha'"),
    "picard_alpha_list_of_two": ("picard", {"grid": GRID_64, "alpha": [0.5, 0.6]}, "'alpha'"),
    "viscosity_convergence_epsilon_negative": ("viscosity_convergence", {
        "grid": GRID_64, "task_params": {"epsilons": [0.1, -0.1]}}, "'epsilons'"),
    "identity_half_length_nan": ("spectrum", {"grid": {**SMALL_GRID, "half_length": math.nan},
                                              "coefficients": {"kind": "identity"}},
                                 "'half_length'"),  # json reads NaN as a float
    "identity_half_length_infinite": ("spectrum", {
        "grid": {**SMALL_GRID, "half_length": math.inf}, "coefficients": {"kind": "identity"}},
        "'half_length'"),
    "u0_amp_nan": ("extend", {"grid": GRID_64, "task_params": {"u0": {"amp": math.nan}}},
                   "'amp'"),
    # the stencil's entries must be finite: h^2 underflows to 0, overflows, or 1/h^2 does
    "identity_spacing_squared_underflows": ("spectrum", {
        "grid": {**SMALL_GRID, "half_length": 1e-300}, "coefficients": {"kind": "identity"}},
        "stencil is not finite"),
    # h <= X, so where h^2 overflows X^2 does too, and the grid's rule refuses it first
    "identity_spacing_squared_overflows": ("spectrum", {
        "grid": {**SMALL_GRID, "half_length": 1e200}, "coefficients": {"kind": "identity"}},
        "'half_length'"),
    "identity_stencil_overflows": ("spectrum", {
        "grid": {**SMALL_GRID, "half_length": 1e-160}, "coefficients": {"kind": "identity"}},
        "stencil is not finite"),
    "bump_stencil_overflows": ("spectrum", {"grid": {**SMALL_GRID, "n": 65}, "coefficients": {
        "kind": "radial_bump", "params": {"s": 1e308}}}, "stencil is not finite"),
    # refused before a square overflows (raising OverflowError in python) or underflows to 0
    "half_length_squared_overflows": ("spectrum", {"grid": {**SMALL_GRID, "half_length": 1e160}},
                                      "'half_length'"),
    "bump_width_squared_overflows": ("spectrum", {"coefficients": {
        "kind": "radial_bump", "params": {"w": 1e200}}}, "'w'"),
    "bump_c_width_squared_overflows": ("spectrum", {"coefficients": {
        "kind": "radial_bump", "params": {"c_w": 1e200}}}, "'c_w'"),
    "bump_width_squared_underflows": ("spectrum", {"coefficients": {
        "kind": "radial_bump", "params": {"w": 1e-200}}}, "'w'"),
}


@pytest.mark.parametrize("case", sorted(CAUGHT_BEFORE_ASSEMBLY))
def test_config_errors_exit_2_before_assembly(tmp_path, capsys, monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("a rejected config reached the solver")

    monkeypatch.setattr(tasks, "assemble", refuse)
    monkeypatch.setattr(tasks, "eigendecompose", refuse)
    monkeypatch.chdir(tmp_path)  # a table_path is relative to the run directory
    task, overrides, key = CAUGHT_BEFORE_ASSEMBLY[case]
    out = tmp_path / ("o" * 300 if case == "output_dir_component_too_long" else "out")
    if "symlink" in case:  # mkdir would raise FileExistsError for it
        out.symlink_to(tmp_path / "missing")
    elif case.startswith("output_dir") and case != "output_dir_component_too_long":
        out.write_text("taken\n")
    elif case == "manifest_json_is_a_directory":  # write_text would raise IsADirectoryError
        (out / "manifest.json").mkdir(parents=True)
    Path("table.csv").write_text("0,1.0,0.0\n1,1.0,0.0\n")
    path = write_config(tmp_path, {"grid": SMALL_GRID, "coefficients": BUMP, **overrides},
                        task=task, output_dir=str(out / "run" if "below" in case else out))
    if case == "config_path_is_a_directory":
        path = tmp_path / "configs"
        path.mkdir()
    if case == "seed_past_the_int_digit_limit":  # json.dumps cannot write it: json.loads reads it
        path.write_text(path.read_text().replace('"task"', f'"seed": {"9" * 5001},\n "task"'))
    written = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(path)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == written


@pytest.mark.parametrize("taken", ["output_dir", "manifest"])
def test_an_output_dir_taken_after_parsing_exits_4_with_one_line(tmp_path, capsys, taken):
    # parsing refuses both; here each appears between parsing and the run
    out = tmp_path / "out"
    cfg = parse_config(write_config(tmp_path, output_dir=str(out)))
    if taken == "output_dir":  # mkdir raises FileExistsError
        out.write_text("taken\n")
    else:  # the manifest's write_text raises IsADirectoryError
        (out / "manifest.json").mkdir(parents=True)
    assert run(cfg) == 4
    err = capsys.readouterr().err
    assert err.startswith("no manifest written: ") and err.count("\n") == 1
    if taken == "output_dir":
        assert out.read_text() == "taken\n"
    else:
        assert (out / "manifest.json").is_dir() and (out / "eigenvalues.csv").is_file()


GRID_70 = {**GRID_2D, "n": 70}
Q0 = gradient_nonlinearity([])


def _identity_dec(grid):
    return eigendecompose(assemble(grid, make_coefficients(grid, "identity")))


# case -> (task, config overrides, the key named, the library call that owns the rule)
ONE_TEXT = {
    "extension_alpha": ("extend", {"alpha": 1.5}, "'alpha'",
                        lambda dec, u: extend(dec, 1.5, u)),
    "viscous_eps": ("viscous", {"task_params": {"eps": -0.1}}, "'eps'",
                    lambda dec, u: viscous_solve(dec, 0.5, -0.1, u, Q0, 0.1, 1e-3)),
    "viscous_s": ("viscous", {"task_params": {"s": 3}}, "'s'",
                  lambda dec, u: viscous_solve(dec, 0.5, 0.05, u, Q0, 0.1, 1e-3, s=3)),
    "viscous_c_est": ("viscous", {"task_params": {"c_est": 0.0}}, "'c_est'",
                      lambda dec, u: viscous_solve(dec, 0.5, 0.05, u, Q0, 0.1, 1e-3, c_est=0.0)),
    "epsilons_increase": ("viscosity_convergence", {"task_params": {"epsilons": [0.01, 0.1]}},
                          "'epsilons'", lambda dec, u: viscosity_convergence(
                              dec, 0.5, u, Q0, 0.1, [0.01, 0.1], 1e-3)),
    "epsilons_one": ("viscosity_convergence", {"task_params": {"epsilons": [0.1]}},
                     "'epsilons'", lambda dec, u: viscosity_convergence(
                         dec, 0.5, u, Q0, 0.1, [0.1], 1e-3)),
    "epsilons_negative": ("viscosity_convergence", {"task_params": {"epsilons": [0.1, -0.1]}},
                          "'epsilons'", lambda dec, u: viscosity_convergence(
                              dec, 0.5, u, Q0, 0.1, [0.1, -0.1], 1e-3)),
    "viscosity_convergence_s": ("viscosity_convergence", {"task_params": {"s": -2}}, "'s'",
                                lambda dec, u: viscosity_convergence(
                                    dec, 0.5, u, Q0, 0.1, [0.1, 0.05], 1e-3, s=-2)),
    "picard_max_iter": ("picard", {"task_params": {"max_iter": 0}}, "'max_iter'",
                        lambda dec, u: picard_solve(dec, 0.5, u, polynomial_nonlinearity([]),
                                                    0.1, 1e-3, max_iter=0)),
    "picard_c_est": ("picard", {"task_params": {"c_est": -1.0}}, "'c_est'",
                     lambda dec, u: picard_solve(dec, 0.5, u, polynomial_nonlinearity([]),
                                                 0.1, 1e-3, c_est=-1.0)),
    "kp_check_l": ("kp_check", {"task_params": {"l": 0.0}}, "'l'",
                   lambda dec, u: kato_ponce_check(dec.source.grid, 0.0, u, u)),
    "uc_probe_alphas": ("uc_probe", {"task_params": {"alphas": [0.5, 1.5]}}, "'alphas'",
                        lambda dec, u: dichotomy_sweep(
                            dec, VanishingSpec.create([-1.0, 0.0], [1.0, 2.0]), [0.5, 1.5])),
    "doubling_radii": ("doubling", {"task_params": {"radii": [5.0]}}, "'radii'",
                       lambda dec, u: doubling_ratio(extend(dec, 0.5, u), [5.0])),
    "norm_equiv_n_bumps": ("norm_equiv", {"task_params": {"n_bumps": -3}}, "'n_bumps'",
                           lambda dec, u: norm_equivalence(dec, [0.5], n_bumps=-3)),
    "dof_cap": ("spectrum", {"grid": GRID_70}, "'n'",
                lambda dec, u: _identity_dec(build_grid(**GRID_70))),
}


@pytest.fixture(scope="module")
def dec_64():
    return _identity_dec(build_grid(**GRID_64))


@pytest.mark.parametrize("case", sorted(ONE_TEXT))
def test_each_rule_has_one_text_in_the_library_and_in_parsing(tmp_path, dec_64, case):
    # the library entry point raises the ValueError; parsing raises it before any
    # assembly, led by the key that holds the value
    task, overrides, key, call = ONE_TEXT[case]
    with pytest.raises(ValueError) as library:
        call(dec_64, np.exp(-dec_64.source.grid.dof_nodes().ravel() ** 2))
    with pytest.raises(ConfigError) as parsed:
        parse_config(write_config(tmp_path, {"grid": GRID_64, **overrides}, task=task))
    lead, text = str(parsed.value).split(": ", 1)
    assert text == str(library.value) and key in lead


@pytest.mark.parametrize("task, overrides", [
    ("spectrum", {"grid": {**GRID_2D, "n": 66}}),  # 4096 dofs, the cap itself
    ("spectrum", {"grid": {**SMALL_GRID, "n": 4096, "boundary": "periodic"}}),
    ("norm_equiv", {"grid": {**GRID_2D, "n": 33}}),  # the doubled grid has 64^2 dofs
    ("norm_equiv", {"grid": {**GRID_2D, "n": 34}, "task_params": {"refine": False}}),
    ("norm_equiv", {"grid": {**GRID_2D, "n": 34},  # tabulated fields are not refined
                    "coefficients": {"kind": "tabulated", "table_path": "table.csv"}}),
    ("extend", {"grid": {**GRID_2D, "n": 66}, "task_params": {  # 5 x 819 x 4096, edge
        "y_ratio": 1.1, "y_count": 819}}),
    ("picard", {"grid": GRID_64, "task_params": {"t_final": 30.0}}),  # 9 x 30001 states, edge
    ("viscous", {"grid": GRID_64, "task_params": {"t_final": 45.0}}),  # 6 x 45001 states, edge
    ("norm_equiv", {"grid": GRID_64, "task_params": {"n_bumps": 13308}}),  # 10 x 13315 x 126
    ("norm_equiv", {"grid": GRID_64, "task_params": {"n_bumps": 27053, "refine": False}}),
    # 819 distinct fractional alphas, each twice, and alpha 1: 5 x 819 x 4096, edge
    ("uc_probe", {"grid": {**GRID_2D, "n": 66}, "task_params": {
        "theta": [[-1.0, 0.0]] * 2, "f_support": [[1.0, 2.0]] * 2,
        "alphas": UC_ALPHAS_AT_GUARD * 2 + [1.0]}}),
])
def test_parse_accepts_grids_up_to_the_dof_cap(tmp_path, monkeypatch, capsys, task, overrides):
    monkeypatch.chdir(tmp_path)
    # an identity table on the 2-D n = 34 grid: parsing loads and checks it
    ij = np.indices((34, 34)).reshape(2, -1).T
    rows = np.column_stack([ij, np.tile([1.0, 0.0, 0.0, 1.0, 0.0], (len(ij), 1))])
    np.savetxt("table.csv", rows, delimiter=",")
    path = write_config(tmp_path, overrides, task=task)
    assert parse_config(path).grid.n_dof <= 4096
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"config ok: task={task}")


def test_parse_types_and_defaults_of_task_params(tmp_path):
    cfg = parse_config(write_config(tmp_path, task="picard", overrides={
        "grid": SMALL_GRID, "task_params": {"dt": 1, "nonlinearity": [{"powers": [2, 1]}]}}))
    p = cfg.task_params
    assert p["dt"] == 1.0 and isinstance(p["dt"], float)
    assert p["t_final"] == 0.1 and p["c_est"] is None and p["max_iter"] == 60
    assert p["u0"] == {"kind": "gaussian", "amp": 1.0, "width": 2.0, "center": 0.0}
    assert p["nonlinearity"] == [{"powers": [2, 1], "coeff_re": 0.0, "coeff_im": 0.0}]
    # coefficient params keep only the given keys: make_coefficients holds the defaults
    cfg = parse_config(write_config(tmp_path, overrides={"coefficients": {
        "kind": "radial_bump", "params": {"s": 1, "M": [[2]]}}}))
    assert cfg.field.params == {"s": 1.0, "M": [[2.0]]}


@pytest.mark.parametrize("dim, task, params", [
    (1, "doubling", {"center": 0.5}),
    (1, "doubling", {"center": [0.5]}),
    (2, "doubling", {"center": [0.5, -0.5]}),
    (2, "extend", {"u0": {"center": [0.5, -0.5]}}),
    (1, "uc_probe", {"theta": [-1.0, 0.0], "f_support": [1.0, 2.0]}),
    (2, "uc_probe", {"theta": [[-1.0, 0.0], [-1.0, 1.0]], "f_support": [[1.0, 2.0], [-1, 1]]}),
])
def test_parse_keeps_every_accepted_shape(tmp_path, dim, task, params):
    # fine enough that the alpha = 1 stencil margin leaves the default theta nonempty
    grid = {**SMALL_GRID, "dim": dim, "n": 40 if dim == 2 else 65}
    cfg = parse_config(write_config(tmp_path, task=task,
                                    overrides={"grid": grid, "task_params": params}))
    p = cfg.task_params
    for key, value in params.items():
        assert p[key]["center"] == value["center"] if key == "u0" else p[key] == value


def test_run_2d_uc_probe_with_per_axis_boxes(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(tmp_path, task="uc_probe", output_dir=str(out), overrides={
        "grid": {"dim": 2, "n": 14, "half_length": 4.0, "boundary": "dirichlet"},
        "task_params": {"theta": [[-2.0, -0.5], [-2.0, 2.0]],
                        "f_support": [[0.5, 2.0], [-2.0, 2.0]], "alphas": [0.5, 1.0]}}))
    assert run(cfg) == 0
    rows = np.loadtxt(out / "uc_sweep.csv", delimiter=",", skiprows=1)
    assert rows[0, 3] > 1e-6 and rows[1, 3] == 0.0


def test_unexpected_exception_writes_internal_error_manifest(tmp_path, monkeypatch, capsys):
    # parsing catches every config error, so a ValueError in a run is a fault as well
    for error in (TypeError("unsupported operand"), ValueError("bad value")):
        def broken(cfg, dec, rng, outdir):
            raise error

        monkeypatch.setitem(TASKS, "spectrum", (broken, {}))
        out = tmp_path / type(error).__name__
        cfg = parse_config(write_config(tmp_path, output_dir=str(out),
                                        overrides={"grid": SMALL_GRID}))
        assert run(cfg) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "internal_error"
        assert manifest["error"] == f"{type(error).__name__}: {error}"
        assert "in broken" in capsys.readouterr().err  # the traceback goes to stderr


def _bump_dec(n=33):
    grid = build_grid(1, n, 8.0, "dirichlet")
    return eigendecompose(assemble(grid, make_coefficients(grid, BUMP["kind"], BUMP["params"])))


def test_corrupted_decomposition_and_extension_raise_numerical_error():
    dec = _bump_dec()
    corrupted = replace(dec, eigenvalues=2.0 * dec.eigenvalues)
    with pytest.raises(NumericalError, match="does not reconstruct"):
        corrupted.validate()
    # eigenvectors of norm 2 quadruple the extension: it exceeds the mass of its trace
    scaled = replace(dec, blocks=tuple(2.0 * v for v in dec.blocks))
    with pytest.raises(NumericalError, match="exceeds the trace mass"):
        extend(scaled, 0.5, eigenvectors(dec)[:, 0], np.array([1e-3, 2e-3, 4e-3]))
    assert issubclass(DegenerateInputError, NumericalError)
    assert not issubclass(DegenerateInputError, ValueError)
    assert issubclass(SpectrumCapError, ValueError)


def test_failed_self_check_exits_3(tmp_path, monkeypatch):
    def corrupted(op):
        dec = eigendecompose(op)
        bad = replace(dec, eigenvalues=2.0 * dec.eigenvalues)
        bad.validate()
        return bad

    monkeypatch.setattr(tasks, "eigendecompose", corrupted)
    out = tmp_path / "out"
    cfg = parse_config(write_config(tmp_path, output_dir=str(out),
                                    overrides={"grid": SMALL_GRID}))
    assert run(cfg) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numerical_error"
    assert "NumericalError: eigendecomposition does not reconstruct" in manifest["error"]


MANIFEST_KEYS = {"artifacts", "blas", "config", "eigensolve", "error", "hypotheses", "invariants",
                 "peak_rss_mb", "seed", "status", "versions", "wall_time_s"}


def _nan_eigenvalue(op):
    dec = eigendecompose(op)
    lam = dec.eigenvalues.copy()
    lam[len(lam) // 2] = np.nan
    bad = replace(dec, eigenvalues=lam)
    bad.validate()
    return bad


def _raising(cfg, dec, rng, outdir):
    raise TypeError("unsupported operand")


@pytest.mark.parametrize("code,status", [(0, "ok"), (1, "invariant_failure"),
                                         (3, "numerical_error"), (4, "internal_error")])
def test_manifest_schema_on_success_and_each_failure_kind(tmp_path, monkeypatch, capsys,
                                                          code, status):
    for name in cli.THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    if code == 1:
        monkeypatch.setitem(TASKS, "spectrum", (lambda *args: ({"held": False}, []), {}))
    if code == 3:  # a NaN eigenvalue fails validate's checks
        monkeypatch.setattr(tasks, "eigendecompose", _nan_eigenvalue)
    if code == 4:
        monkeypatch.setitem(TASKS, "spectrum", (_raising, {}))
    out = tmp_path / "out"
    cfg = parse_config(write_config(tmp_path, output_dir=str(out),
                                    overrides={"grid": SMALL_GRID, "coefficients": BUMP}))
    assert run(cfg) == code
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["status"] == status
    assert manifest["peak_rss_mb"] > 0
    hypotheses = manifest["hypotheses"]
    assert hypotheses == json.loads(json.dumps(asdict(check_hypotheses(cfg.field, cfg.grid))))
    assert hypotheses["symmetric"] and hypotheses["c_nonnegative"]
    assert hypotheses["ellipticity_lambda"] == min_eigenvalues(cfg.field.a).min()
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pinned = (1, "runtime") if spectral._openblas() else (None, None)  # a 31-dof run
    assert manifest["blas"] == {"name": build["name"], "version": build["version"],
                                "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None,
                                "threads": pinned[0], "threads_set_by": pinned[1]}
    eigensolve = manifest["eigensolve"]
    if code == 3:
        assert eigensolve is None
        assert "NumericalError: eigendecomposition does not reconstruct" in manifest["error"]
        return
    assert eigensolve["driver"] == use_lookup(monkeypatch, "openblas")
    assert eigensolve["blocks"] == [16, 15]  # the 31 dofs of an even field, split
    for name in ("orthonormality", "reconstruction"):
        assert set(eigensolve[name]) == {"measured", "bound"}
        assert 0.0 <= eigensolve[name]["measured"] <= eigensolve[name]["bound"]


def _child_env(**variables):
    """This environment with ``src`` on the path and no BLAS thread variable but ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in cli.THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**env, **variables}


def _python(code, *args, env=None):
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env or _child_env(),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("task, overrides", [
    ("extend", {}),
    ("picard", {"grid": {**SMALL_GRID, "n": 17},
                "task_params": {"nonlinearity": [{"powers": [2, 1], "coeff_re": 1.0}]}}),
    # the benchmark's own nonlinearity, which passes the energy hypothesis
    ("viscous", {"grid": {**SMALL_GRID, "n": 17}, "task_params": {
        "t_final": 0.1, "dt": 1e-3, "nonlinearity": _benchmark_workloads().GRADIENT_CUBIC}}),
])
def test_the_traced_benchmark_task_runs_and_records_the_eigendecompose(tmp_path, task, overrides):
    # the benchmark's traced pass wraps fracspec's functions and reads its records by name
    path = write_config(tmp_path, overrides, task=task, output_dir=str(tmp_path / "out"))
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_task.py"), str(path),
                           str(spans)], env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["exit"] == 0
    assert any(span[3] == "spectral.eigendecompose" for span in record["spans"])
    if task == "picard":  # every Sobolev norm is one forward transform, with no Bessel field
        names = {span[3] for span in record["spans"]}
        assert "spectral.sobolev_norm" in names and "spectral.bessel_apply" not in names
    if task == "viscous":  # the harness wraps viscous_solve by name and reads its times
        assert any(span[3] == "evolution.viscous_solve" for span in record["spans"])
        assert record["counts"]["evolution.steps"] == 100  # t_final / dt
        assert "energy hypothesis" not in proc.stderr


# runs ``fracspec run`` on argv[1], with spectral's OpenBLAS lookup switched to none when
# argv[2] is "none" and, unless argv[3] is "default", the former size threshold
# NUMPY_EIGH_MAX_DOF set to argv[3] after checking that spectral no longer has it; then
# prints the exit code and the modules loaded
_RUN_AND_LIST_MODULES = """
import json, sys
from fracspec import cli, spectral
if sys.argv[2] == "none":
    spectral._openblas = lambda: None
if sys.argv[3] != "default":
    assert not hasattr(spectral, "NUMPY_EIGH_MAX_DOF")
    spectral.NUMPY_EIGH_MAX_DOF = int(sys.argv[3])
code = cli.main(["run", sys.argv[1]])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("max_dof", ["default", "16"])
def test_small_run_imports_scipy_only_above_the_numpy_eigh_threshold(tmp_path, monkeypatch,
                                                                      max_dof):
    # No size threshold sends a block to scipy any more, so no run imports scipy: "16" pins
    # the former knob below the 62 dofs solved here and checks that it routes nothing.
    # numpy itself may load platform (numpy 2.4 does); then no run can avoid it
    _, numpy_loads_platform, _ = _python("import sys, numpy; print('platform' in sys.modules)")
    for lookup in ("openblas", "none"):
        for task in ("spectrum", "extend", "recover"):  # 1-D Dirichlet n = 64: 62 dofs
            out = tmp_path / lookup / task
            path = write_config(tmp_path, name=f"{lookup}_{task}.json", output_dir=str(out),
                                task=task)
            returncode, stdout, stderr = _python(_RUN_AND_LIST_MODULES, path, lookup, max_dof)
            assert returncode == 0, stderr
            code, modules = json.loads(stdout.splitlines()[-1])
            assert code == 0, task  # eigendecompose validated the decomposition on either path
            assert [m for m in modules if m.split(".")[0] == "scipy"] == [], task
            # the manifest's versions are read without importlib.metadata or platform
            assert not [m for m in modules if m.split(".")[0] == "email"], task
            assert "importlib.metadata" not in modules, task
            assert "traceback" not in modules, task  # only a run that exits 4 loads it
            assert "platform" not in modules or numpy_loads_platform.strip() == "True", task
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["status"] == "ok"
            assert manifest["eigensolve"]["driver"] == use_lookup(monkeypatch, lookup)
            assert manifest["versions"] == {"fracspec": "0.1.0", "numpy": np.__version__,
                                            "python": platform.python_version()}


def test_importing_the_front_loads_neither_numpy_nor_platform():
    returncode, stdout, stderr = _python(
        "import json, sys, fracspec.cli; print(json.dumps(sorted(sys.modules)))")
    assert returncode == 0, stderr
    modules = json.loads(stdout)
    assert "numpy" not in modules and "platform" not in modules
    assert not [m for m in modules if m.startswith("fracspec.") and m != "fracspec.cli"]


# the names ``fracspec`` imported from its modules before it resolved them on first use
EXPORTED = {
    "evolution": ["BlowUpError", "Nonlinearity", "PicardConvergenceError", "Trajectory",
                  "estimate_t_star", "gradient_nonlinearity", "kato_ponce_check",
                  "picard_solve", "polynomial_nonlinearity", "t_star_from_radius",
                  "viscosity_convergence", "viscous_solve"],
    "extension": ["ExtensionField", "conormal_constant", "conormal_recover", "doubling_ratio",
                  "energy_report", "extend", "geometric_ladder"],
    "gridop": ["CoefficientField", "DiscreteOperator", "Grid", "HypothesisReport",
               "NumericalError", "assemble", "build_grid", "check_hypotheses",
               "load_coefficients_csv", "make_coefficients"],
    "spectral": ["NormEquivalenceReport", "SpectralDecomposition", "apply_function",
                 "eigendecompose", "fractional_power", "l2_norm", "norm_equivalence",
                 "sobolev_norm", "unitary_propagate"],
    "ucprobe": ["VanishingSpec", "bump_state", "dichotomy_sweep"],
}


def test_package_resolves_every_exported_name_and_submodule():
    import fracspec

    listed = dir(fracspec)
    for module, names in EXPORTED.items():
        for name in names:
            assert getattr(fracspec, name) is getattr(importlib.import_module(
                f"fracspec.{module}"), name), name
            assert name in listed, name
    for module in (*EXPORTED, "cli", "tasks"):
        assert getattr(fracspec, module) is importlib.import_module(f"fracspec.{module}")
        assert module in listed, module
    assert fracspec.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        fracspec.frobnicate
    # Bessel potentials left the library: sobolev_norm reads their norms on the coefficients
    with pytest.raises(AttributeError, match="no attribute 'bessel_apply'"):
        fracspec.bessel_apply
    assert not hasattr(spectral, "bessel_apply")


# prints the exit code of ``fracspec run argv[1]`` in a fresh process, the OS threads
# the process has then (None without /proc), and numpy's OpenBLAS thread count
_CLI_RUN = """
import json, os, sys
from fracspec.cli import main
code = main(["run", sys.argv[1]])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
from fracspec.spectral import _openblas
print(json.dumps([code, threads, _openblas()[0]()]))
"""
needs_openblas = pytest.mark.skipif(spectral._openblas() is None,
                                    reason="numpy bundles no OpenBLAS whose threads can be set")


@needs_openblas
def test_cli_run_takes_one_blas_thread_only_below_the_threshold_and_unset_by_the_caller(
        tmp_path):
    small = {"grid": {**SMALL_GRID, "n": tasks.THREADED_BLAS_MIN_POINTS - 1}}
    above = {"grid": {**GRID_2D, "n": 34}}  # 34^2 = 1156 points, 1024 dofs
    procs = spectral._openblas()[2]()
    for name, overrides, variables, threads, set_by in (
            ("small", small, {}, 1, "runtime"),
            ("above", above, {}, procs, "runtime"),
            ("caller", small, {"OPENBLAS_NUM_THREADS": "2"}, 2, "caller")):
        out = tmp_path / name
        path = write_config(tmp_path, overrides, name=f"{name}.json", output_dir=str(out))
        returncode, stdout, stderr = _python(_CLI_RUN, path, env=_child_env(**variables))
        assert returncode == 0, stderr
        code, os_threads, count = json.loads(stdout.splitlines()[-1])
        assert code == 0
        # OpenBLAS loaded on one thread unless the caller chose, and run() restored that count
        assert count == int(variables.get("OPENBLAS_NUM_THREADS", 1)), name
        if threads == 1 and os_threads is not None:
            assert os_threads == 1  # OpenBLAS started no worker thread
        blas = json.loads((out / "manifest.json").read_text())["blas"]
        assert (blas["threads"], blas["threads_set_by"]) == (threads, set_by), name
        assert blas["OPENBLAS_NUM_THREADS"] == variables.get("OPENBLAS_NUM_THREADS")
        assert blas["OMP_NUM_THREADS"] is None


@pytest.mark.parametrize("variable", [None, "3"])
def test_main_leaves_the_thread_variable_as_the_caller_set_it(tmp_path, variable):
    # main sets OPENBLAS_NUM_THREADS only while numpy loads, so run tells the caller's from it
    path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    code = ("import os, sys; from fracspec.cli import main; code = main(['run', sys.argv[1]]); "
            "print(code, os.environ.get('OPENBLAS_NUM_THREADS'))")
    variables = {} if variable is None else {"OPENBLAS_NUM_THREADS": variable}
    returncode, stdout, stderr = _python(code, path, env=_child_env(**variables))
    assert returncode == 0, stderr
    assert stdout.splitlines()[-1] == f"0 {variable}"


@needs_openblas
def test_in_process_run_pins_one_thread_only_while_it_runs(tmp_path, monkeypatch):
    for name in cli.THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    get, put, procs, _ = spectral._openblas()
    before = get()
    try:
        for name, overrides, start, threads in (
                ("above", {"grid": {**GRID_2D, "n": 34}}, 1, procs()),
                ("refined", {"grid": {**SMALL_GRID, "n": 512}, "task": "norm_equiv",  # 1024
                             "task_params": {"n_bumps": 2}}, 1, procs()),  # points, doubled
                ("small", {"grid": SMALL_GRID}, 2, 1)):
            put(start)
            out = tmp_path / name
            path = write_config(tmp_path, overrides, name=f"{name}.json", output_dir=str(out))
            assert run(parse_config(path)) == 0
            assert get() == start, name
            blas = json.loads((out / "manifest.json").read_text())["blas"]
            assert (blas["threads"], blas["threads_set_by"]) == (threads, "runtime"), name
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        out = tmp_path / "small"
        assert run(parse_config(tmp_path / "small.json")) == 0
        blas = json.loads((out / "manifest.json").read_text())["blas"]
        assert (blas["threads"], blas["threads_set_by"], blas["OMP_NUM_THREADS"]) == \
            (2, "caller", "2")
    finally:
        put(before)
    use_lookup(monkeypatch, "none")  # numpy on another BLAS
    assert run(parse_config(tmp_path / "small.json")) == 0
    blas = json.loads((out / "manifest.json").read_text())["blas"]
    assert (blas["threads"], blas["threads_set_by"]) == (None, None)


@needs_openblas
def test_cli_and_in_process_runs_write_the_same_bytes(tmp_path, monkeypatch):
    # periodic outputs move at roundoff with the BLAS thread count, so this holds only if run()
    # sets the same count in a CLI process, whose OpenBLAS loaded on one thread, as in this one
    for name in cli.THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for task, grid, artifact in (("spectrum", {**SMALL_GRID, "n": 256}, "eigenvalues.csv"),
                                 ("funcalc", {**GRID_2D, "n": 32}, "funcalc.csv")):  # 1024 points
        periodic = {"grid": {**grid, "boundary": "periodic"}, "coefficients": BUMP}
        out = {}
        for side in ("cli", "in_process"):
            out[side] = tmp_path / task / side
            path = write_config(tmp_path, periodic, name=f"{task}_{side}.json", task=task,
                                output_dir=str(out[side]))
            if side == "cli":
                returncode, _, stderr = _python(_CLI_RUN, path)
                assert returncode == 0, stderr
            else:
                assert run(parse_config(path)) == 0
        assert (out["cli"] / artifact).read_bytes() == \
            (out["in_process"] / artifact).read_bytes(), task


def test_cli_reports_unreadable_configs_before_loading_numpy(tmp_path):
    # in a fresh process, whose front reads nothing of the config, parsing reports each one
    path = tmp_path / "config.json"
    for text in ('{\n "grid": }\n',
                 json.dumps({"grid": BASE["grid"], "task": "spectrum"}),
                 write_config(tmp_path).read_text().replace('"task"', f'"seed": {"9" * 5001}, "task"'),
                 "[" * 100000):  # past the nesting limit of json's decoder
        path.write_text(text)
        with pytest.raises(ConfigError) as expected:
            parse_config(path)
        for command in ("validate", "run"):
            returncode, stdout, stderr = _python("import sys; from fracspec.cli import main; "
                                                 "sys.exit(main())", command, path)
            assert (returncode, stdout, stderr) == (2, "", f"config error: {expected.value}\n")

def test_every_shipped_config_parses(tmp_path):
    # and runs end to end, with its output_dir moved under tmp_path
    paths = sorted((ROOT / "configs").glob("*.json"))
    assert paths
    for path in paths:
        assert parse_config(path).task in TASKS
        config = json.loads(path.read_text())
        out = tmp_path / config["output_dir"]
        moved = tmp_path / path.name
        moved.write_text(json.dumps({**config, "output_dir": str(out)}))
        assert main(["run", str(moved)]) == 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"


@pytest.mark.parametrize("workload", ["extension_2d", "evolution_1d", "short_tasks"])
def test_every_benchmark_config_parses(tmp_path, monkeypatch, workload):
    workloads = _benchmark_workloads()
    tasks = workloads.generate(workload, 0, 1, workloads.shipped_configs(ROOT))
    workloads.write_inputs(tasks, tmp_path)
    monkeypatch.chdir(tmp_path)  # configs name their table files relative to the run directory
    for task in tasks:
        assert parse_config(task.config_name).task == task.config["task"]


def _readme_rows():
    for task, (_, table) in TASKS.items():
        for key, (kind, default) in table.items():
            yield f"| `{task}` | `{key}` | {_kind_name(kind)} | `{json.dumps(default)}` |"


def test_readme_task_parameter_table_mirrors_tasks():
    readme = (ROOT / "README.md").read_text()
    table = [line for line in readme.splitlines() if re.match(r"\| `[a-z_]+` \| `", line)]
    assert table == list(_readme_rows())
    assert {line.split("`")[1] for line in table} | {"spectrum", "funcalc"} == set(TASKS)


def test_readme_examples_run_and_parse(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    [library] = re.findall(r"```python\n(.*?)```", readme, re.S)
    names = {}
    exec(library, names)
    direct, recovered = names["direct"], names["recovered"]
    assert np.linalg.norm(recovered - direct) <= 1e-3 * np.linalg.norm(direct)
    [config] = re.findall(r"```json\n(.*?)```", readme, re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "example.json").write_text(config)
    cfg = parse_config(tmp_path / "example.json")
    assert (cfg.task, cfg.field.kind, cfg.grid.n_dof) == ("spectrum", "radial_bump", 126)


def test_readme_memory_guard_factors_mirror_the_working_sets():
    readme = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(r"A `picard` run counts (\d+) times its states, a `viscous` run (\d+), "
                      r"and `viscosity_convergence` (\d+) plus one for each further", readme)
    assert found
    assert tuple(map(float, found.groups())) == (PICARD_WORKING_SET, VISCOUS_WORKING_SET,
                                                 VISCOUS_WORKING_SET)
    found = re.search(r"`y_count n_dof` times (\d+) for the extension tasks", readme)
    assert found
    assert float(found.group(1)) == EXTENSION_WORKING_SET
    found = re.search(r"`\(n_bumps \+ (\d+)\) n_dof` times (\d+) for `norm_equiv`", readme)
    assert found
    assert tuple(map(float, found.groups())) == (len(EIGENVECTOR_SAMPLE_INDICES),
                                                 NORM_EQUIV_WORKING_SET)
    found = re.search(r"`n_dof` times (\d+) for each distinct `uc_probe` alpha below 1", readme)
    assert found
    assert float(found.group(1)) == UC_PROBE_WORKING_SET
