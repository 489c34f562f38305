"""Cross-module checks of the 2D paths: assembly, calculus, probes, CLI."""

import json

import numpy as np
import pytest

from fracspec.tasks import parse_config, run
from fracspec.extension import (
    ExtensionField,
    doubling_ratio,
    geometric_ladder,
)
from fracspec.gridop import assemble, build_grid, make_coefficients
from fracspec.spectral import (
    eigendecompose,
    norm_equivalence,
    unitary_propagate,
)
from fracspec.ucprobe import VanishingSpec, dichotomy_sweep
from oracles import bessel_apply, constant_field_doubling_exponent, grid_only


def test_2d_dirichlet_spectrum_is_sum_of_1d_spectra():
    g = build_grid(2, 18, 4.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    n_int = g.points_per_axis - 2
    k = np.arange(1, n_int + 1)
    lam1d = (4.0 / g.spacing**2) * np.sin(k * np.pi / (2.0 * (n_int + 1))) ** 2
    exact = np.sort((lam1d[:, None] + lam1d[None, :]).ravel())
    assert np.allclose(dec.eigenvalues, exact, rtol=1e-10, atol=1e-10)


def test_2d_constant_anisotropy_matches_hand_stencil():
    # a = [[1, b], [b, 1]] constant: cross part couples the four diagonal
    # neighbours with weight -b / (2 h^2)
    b = 0.4
    g = build_grid(2, 7, 3.0, "dirichlet")
    f = make_coefficients(
        g, "tabulated",
        {"a": np.broadcast_to(np.array([[1.0, b], [b, 1.0]]), (g.n_nodes, 2, 2)).copy(),
         "c": np.zeros(g.n_nodes)},
    )
    mat = assemble(g, f).matrix
    m = g.points_per_axis - 2
    h = g.spacing
    center = (m // 2) * m + m // 2
    assert mat[center, center] == pytest.approx(4.0 / h**2)
    for d_row, d_col, sign in ((1, 1, -1.0), (-1, -1, -1.0), (1, -1, 1.0), (-1, 1, 1.0)):
        j = (m // 2 + d_row) * m + m // 2 + d_col
        assert mat[center, j] == pytest.approx(sign * b / (2.0 * h**2))


def test_2d_unitarity_on_anisotropic_field():
    g = build_grid(2, 11, 3.0, "dirichlet")
    f = make_coefficients(
        g, "radial_bump",
        {"s": 0.6, "w": 1.5, "M": np.array([[1.0, 0.5], [0.5, 1.0]]), "c_amp": 0.2},
    )
    dec = eigendecompose(assemble(g, f))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dec.n_dof)
    out = unitary_propagate(dec, 0.5, 1.0, v)
    assert abs(np.linalg.norm(out) / np.linalg.norm(v) - 1.0) <= 1e-10


def test_2d_bessel_periodic_fft_matches_dense():
    g = build_grid(2, 8, 2.0, "periodic")
    lap = assemble(g, make_coefficients(g, "identity"))
    dec = eigendecompose(lap)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(g.n_dof)
    via_fft = bessel_apply(g, 1.5, v)
    from fracspec.spectral import apply_function

    via_dense = apply_function(dec, (dec.spectrum + 1.0) ** 0.75, v)
    assert np.allclose(via_fft, via_dense, rtol=0, atol=1e-9)


def test_2d_norm_equivalence_bracket():
    g = build_grid(2, 12, 4.0, "dirichlet")
    op = assemble(g, make_coefficients(g, "radial_bump", {"s": 0.5, "w": 1.5}))
    [rep] = norm_equivalence(eigendecompose(op), [0.5], n_bumps=4, seed=0, refine=False)
    assert 0 < rep.ratio_min <= rep.ratio_max < np.inf


def test_2d_dichotomy_sweep():
    g = build_grid(2, 48, 4.0, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.5, "w": 1.0})
    dec = eigendecompose(assemble(g, f))
    spec = VanishingSpec.create(
        theta=((-1.5, -0.5), (-1.5, -0.5)),
        f_support=((0.5, 1.5), (0.5, 1.5)),
        dim=2,
    )
    rows = dichotomy_sweep(dec, spec, [0.5, 1.0])
    assert rows[0][3] > 1e-6
    assert rows[1][1] == 0.0


def test_2d_synthetic_constant_doubling():
    g = build_grid(2, 161, 1.0, "dirichlet")
    ys = geometric_ladder(2e-4, 1.04, 220)
    alpha = 0.5
    synth = ExtensionField(
        base=np.ones(g.n_dof), alpha=alpha, y_nodes=ys,
        values=np.ones((g.n_dof, len(ys))), decomposition=grid_only(g),
    )
    [(_, ratio)] = doubling_ratio(synth, [0.25])
    exact = constant_field_doubling_exponent(2, alpha)
    assert ratio == pytest.approx(exact, rel=0.02)


def test_2d_gradient_nonlinearity_and_viscous_run():
    from fracspec.evolution import gradient_nonlinearity, viscous_solve

    # variables (z, zbar, dz_x, dz_y, dzbar_x, dzbar_y)
    passing = gradient_nonlinearity(
        [(1.0, (1, 0, 0, 1, 0, 0)), (1.0, (0, 1, 0, 1, 0, 0))], dim=2
    )
    failing = gradient_nonlinearity([(1.0, (1, 0, 0, 1, 0, 0))], dim=2)
    assert passing.energy_hypothesis is True
    assert failing.energy_hypothesis is False

    g = build_grid(2, 11, 3.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    x = g.dof_nodes()
    u0 = 0.05 * np.exp(-(x**2).sum(axis=1))
    traj = viscous_solve(dec, 0.5, 0.05, u0, passing, t_final=0.1, dt=0.005, s=2)
    assert traj.energy_flags == ()
    assert np.isfinite(traj.monitors["equation_residual"]).all()


def test_2d_cli_spectrum_run(tmp_path):
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grid": {"dim": 2, "n": 10, "half_length": 3.0, "boundary": "dirichlet"},
        "coefficients": {"kind": "radial_bump",
                         "params": {"s": 0.5, "w": 1.0, "c_amp": 0.1}},
        "alpha": 0.5,
        "task": "spectrum",
        "output_dir": str(out),
    }))
    cfg = parse_config(cfg_path)
    assert run(cfg) == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert len(lines) == 1 + 64  # (10-2)^2 interior dofs
