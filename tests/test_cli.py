import json

import numpy as np
import pytest

from fracspec.cli import ConfigError, main, parse_config, run

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
    assert manifest["invariants"]["eigenvalues_nonnegative"] is True
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


def test_run_uc_probe_standard_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="uc_probe",
        overrides={"grid": {"dim": 1, "n": 128, "half_length": 8.0,
                            "boundary": "dirichlet"}},
    ))
    assert run(cfg) == 0
    rows = (out / "uc_sweep.csv").read_text().splitlines()[1:]
    table = [row.split(",") for row in rows]
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
    for m in (m_a, m_b):
        m.pop("wall_time_s")
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


def test_run_invalid_alpha_for_extension_is_config_error(tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(write_config(
        tmp_path, output_dir=str(out), task="extend", alpha=1.5,
        overrides={"grid": {"dim": 1, "n": 17, "half_length": 8.0,
                            "boundary": "dirichlet"}},
    ))
    assert run(cfg) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error"


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
