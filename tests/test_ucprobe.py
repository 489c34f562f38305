from types import SimpleNamespace

import numpy as np
import pytest

from fracspec import gridop, tasks, ucprobe
from fracspec.gridop import assemble, build_grid, make_coefficients
from fracspec.spectral import eigendecompose, fractional_power, laplacian_symbol
from fracspec.ucprobe import (
    NONLOCALITY_FLOOR,
    VanishingSpec,
    bump_state,
    dichotomy_sweep,
)
from oracles import per_alpha_masses, use_lookup

STANDARD = VanishingSpec.create(theta=(-1.0, 0.0), f_support=(1.0, 2.0), dim=1)


def make_dec(n=129, x=8.0, kind="identity", params=None, boundary="dirichlet"):
    g = build_grid(1, n, x, boundary)
    return eigendecompose(assemble(g, make_coefficients(g, kind, params or {})))


def test_spec_rejects_touching_sets():
    with pytest.raises(ValueError, match="touches"):
        VanishingSpec.create(theta=(-1.0, 1.0), f_support=(1.0, 2.0), dim=1)
    with pytest.raises(ValueError, match="touches"):  # the support ends where theta starts
        VanishingSpec.create(theta=(2.0, 3.0), f_support=(1.0, 2.0), dim=1)
    with pytest.raises(ValueError, match="touches"):
        VanishingSpec.create(theta=(0.5, 1.5), f_support=(1.0, 2.0), dim=1)


@pytest.mark.parametrize("theta", [(np.nan, 0.0), (-1.0, np.nan), (0.0, -1.0), (0.0, 0.0)])
def test_spec_rejects_an_empty_or_nan_interval(theta):
    with pytest.raises(ValueError, match="lower bounds must be below upper bounds"):
        VanishingSpec.create(theta=theta, f_support=(1.0, 2.0), dim=1)


def test_spec_with_a_nan_bound_is_not_inside_the_grid():
    spec = VanishingSpec(theta=np.array([[np.nan, 0.0]]), f_support=np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="theta is not inside"):
        spec.check_inside(build_grid(1, 33, 8.0, "dirichlet"))


def test_spec_must_fit_grid():
    g = build_grid(1, 17, 1.5, "dirichlet")
    with pytest.raises(ValueError, match="inside the grid box"):
        bump_state(g, STANDARD)


def test_bump_vanishes_exactly_off_support():
    g = build_grid(1, 129, 8.0, "dirichlet")
    f = bump_state(g, STANDARD)
    x = g.dof_nodes().ravel()
    outside = (x <= 1.0) | (x >= 2.0)
    assert np.all(f[outside] == 0.0)
    assert f[(x > 1.0) & (x < 2.0)].max() > 0


def test_nonlocality_ratio_exceeds_floor_constant_coefficients():
    dec = make_dec()
    [(_, _, total, ratio)] = dichotomy_sweep(dec, STANDARD, [0.5])
    assert total > 0
    assert ratio > NONLOCALITY_FLOOR


def test_nonlocality_with_variable_coefficients():
    dec = make_dec(kind="radial_bump", params={"s": 0.7, "w": 2.0, "c_amp": 0.4})
    for _, _, _, ratio in dichotomy_sweep(dec, STANDARD, [0.25, 0.5, 0.75]):
        assert ratio > NONLOCALITY_FLOOR


def test_nonlocality_matches_fft_symbol_oracle_on_periodic_grid():
    g = build_grid(1, 128, 8.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    f = bump_state(g, STANDARD)
    x = g.dof_nodes().ravel()
    mask = (x > -1.0) & (x < 0.0)
    for alpha, mass, total, ratio in dichotomy_sweep(dec, STANDARD, [0.25, 0.5, 0.75]):
        # independent circulant oracle: multiplier m(xi)^alpha in Fourier space
        oracle = np.fft.ifft(laplacian_symbol(g) ** alpha * np.fft.fft(f)).real
        assert mass == pytest.approx(np.linalg.norm(oracle[mask]), rel=1e-9)
        assert total == pytest.approx(np.linalg.norm(oracle), rel=1e-9)
        assert ratio > NONLOCALITY_FLOOR


def test_nonlocality_rejects_bad_alpha():
    dec = make_dec(n=33)
    for alpha in (0.0, -0.5):
        with pytest.raises(ValueError, match="0, 1"):
            dichotomy_sweep(dec, STANDARD, [0.5, alpha])


def test_zero_state_gives_zero_masses():
    # support squeezed between grid nodes: the sampled bump is identically 0
    dec = make_dec(n=17, x=8.0)
    h = dec.source.grid.spacing
    thin = VanishingSpec.create(theta=(-1.0, 0.0), f_support=(1.0 + 0.1 * h, 1.0 + 0.4 * h))
    assert dichotomy_sweep(dec, thin, [0.5]) == [(0.5, 0.0, 0.0, 0.0)]


@pytest.mark.parametrize("m", [1])  # alpha = 1, the sweep's one integer power
def test_locality_of_integer_powers_is_exact(m):
    for kind, params in [("identity", {}), ("radial_bump", {"s": 0.7, "w": 2.0})]:
        dec = make_dec(kind=kind, params=params)
        [(_, mass, total, ratio)] = dichotomy_sweep(dec, STANDARD, [float(m)])
        assert mass == 0.0 and ratio == 0.0 and total > 0.0


@pytest.mark.parametrize("m", [1])  # alpha = 1, the sweep's one integer power
def test_locality_is_exact_after_an_in_place_eigensolve(monkeypatch, m):
    # the eigensolve consumes its matrix; the sweep reads a new one
    dec = make_dec(kind="radial_bump", params={"s": 0.7, "w": 2.0})
    assert dec.eigensolve["driver"] == use_lookup(monkeypatch, "openblas")
    [(_, mass, total, ratio)] = dichotomy_sweep(dec, STANDARD, [float(m)])
    assert mass == 0.0 and ratio == 0.0 and total > 0.0


def test_fractional_mass_on_shrunken_theta_still_positive():
    dec = make_dec()
    grid = dec.source.grid
    shrunk_box = STANDARD.shrunk_theta(grid.spacing)
    shrunk = VanishingSpec.create(theta=tuple(shrunk_box[0]), f_support=(1.0, 2.0))
    [(_, mass, total, _)] = dichotomy_sweep(dec, shrunk, [0.5])
    assert mass > NONLOCALITY_FLOOR * total


def test_locality_rejects_overshrunk_theta():
    dec = make_dec(n=17, x=8.0)  # h = 1: theta (-1,0) dies after shrinking by h
    with pytest.raises(ValueError, match="empty after shrinking"):
        dichotomy_sweep(dec, STANDARD, [0.5, 1.0])
    # the fractional rows are measured on theta itself, so they never shrink it
    assert len(dichotomy_sweep(dec, STANDARD, [0.5])) == 1


@pytest.mark.parametrize("boundary, kind, params", [
    ("dirichlet", "radial_bump", {"s": 0.7, "w": 2.0, "c_amp": 0.4}),
    ("periodic", "identity", {}),
])
def test_sweep_matches_the_per_alpha_oracle(boundary, kind, params):
    dec = make_dec(n=128 if boundary == "periodic" else 129, kind=kind, params=params,
                   boundary=boundary)
    alphas = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    rows = dichotomy_sweep(dec, STANDARD, alphas)
    assert [r[0] for r in rows] == alphas
    for alpha, mass, total, ratio in rows[:-1]:
        want_mass, want_total = per_alpha_masses(dec, alpha, STANDARD)
        assert mass == pytest.approx(want_mass, rel=1e-12)
        assert total == pytest.approx(want_total, rel=1e-12)
        assert ratio == pytest.approx(want_mass / want_total, rel=1e-12)
    assert rows[-1][1] == 0.0 and rows[-1][3] == 0.0


def test_sweep_is_one_conjugation_and_one_operator_apply(monkeypatch):
    dec = make_dec(n=65)
    conjugations, applies, reads = [], [], []
    apply = ucprobe.apply_function
    monkeypatch.setattr(ucprobe, "apply_function",
                        lambda *args: conjugations.append(1) or apply(*args))
    product = gridop.DiscreteOperator.apply
    monkeypatch.setattr(gridop.DiscreteOperator, "apply",
                        lambda op, f: applies.append(1) or product(op, f))
    matrix = gridop.DiscreteOperator.matrix
    monkeypatch.setattr(gridop.DiscreteOperator, "matrix",
                        property(lambda op: reads.append(1) or matrix.fget(op)))
    rows = dichotomy_sweep(dec, STANDARD, [0.25, 0.5, 0.75, 1.0, 0.5, 1.0])
    assert len(rows) == 6
    assert len(conjugations) == 1 and len(applies) == 1 and reads == []


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_alpha_one_mass_is_exactly_zero_on_a_2d_grid(boundary):
    # the mixed term reaches the diagonal neighbours, one stencil width away
    g = build_grid(2, 24, 8.0, boundary)
    field = make_coefficients(g, "radial_bump", {"s": 0.6, "w": 3.0, "M": [[1.0, 0.5], [0.5, 0.8]]})
    dec = eigendecompose(assemble(g, field))
    # theta overlaps the support's rows and stops 0.1 short of its columns
    spec = VanishingSpec.create(theta=[(-4.0, 0.9), (0.5, 4.5)],
                                f_support=[(1.0, 4.0), (1.0, 4.0)], dim=2)
    [(_, mass, total, ratio)] = dichotomy_sweep(dec, spec, [1.0])
    assert mass == 0.0 and ratio == 0.0 and total > 0.0


def test_sweep_repeats_the_row_of_a_duplicate_alpha():
    dec = make_dec(n=65)
    r25, r50, r1 = dichotomy_sweep(dec, STANDARD, [0.25, 0.5, 1.0])
    rows = dichotomy_sweep(dec, STANDARD, [0.5, 1.0, 0.5, 1.0, 0.25])
    assert rows == [r50, r1, r50, r1, r25]


def test_sweep_of_alpha_one_alone_needs_no_conjugation(monkeypatch):
    dec = make_dec(n=65)
    monkeypatch.setattr(ucprobe, "apply_function", None)  # a call would raise TypeError
    f = bump_state(dec.source.grid, STANDARD)
    assert dichotomy_sweep(dec, STANDARD, [1.0]) == [
        (1.0, 0.0, float(np.linalg.norm(dec.source.apply(f))), 0.0)]


def test_dichotomy_sweep_standard():
    dec = make_dec(n=257)
    rows = dichotomy_sweep(dec, STANDARD, [0.25, 0.5, 0.75, 1.0])
    assert [r[0] for r in rows] == [0.25, 0.5, 0.75, 1.0]
    for alpha, mass, total, ratio in rows[:-1]:
        assert ratio > NONLOCALITY_FLOOR
    assert rows[-1][1] == 0.0 and rows[-1][3] == 0.0


def test_dichotomy_sweep_empty_and_deterministic():
    dec = make_dec(n=65)
    with pytest.raises(ValueError, match="nonempty"):
        dichotomy_sweep(dec, STANDARD, [])
    r1 = dichotomy_sweep(dec, STANDARD, [0.5])
    r2 = dichotomy_sweep(dec, STANDARD, [0.5])
    assert r1 == r2  # bit-identical rows


def test_sweep_csv_export(tmp_path):
    dec = make_dec(n=65)
    cfg = SimpleNamespace(spec=STANDARD, task_params={"alphas": [0.5, 1.0]})
    _, files = tasks._run_uc_probe(cfg, dec, None, tmp_path)
    assert files == ["uc_sweep.csv"]
    lines = (tmp_path / "uc_sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,mass_theta,mass_total,ratio"
    assert len(lines) == 3
    rows = dichotomy_sweep(dec, STANDARD, [0.5, 1.0])
    assert [tuple(map(float, line.split(","))) for line in lines[1:]] == rows


def test_sweep_rejects_alpha_outside_range():
    dec = make_dec(n=33)
    with pytest.raises(ValueError, match="0, 1"):
        dichotomy_sweep(dec, STANDARD, [1.5])


def test_scaling_equivariance_of_masses():
    dec = make_dec(n=65)
    grid = dec.source.grid
    f = bump_state(grid, STANDARD)
    g1 = fractional_power(dec, 0.5, f)
    g2 = fractional_power(dec, 0.5, 2.0 * f)  # power of two: bit-exact scaling
    assert np.array_equal(g2, 2.0 * g1)
    g3 = fractional_power(dec, 0.5, 3.7 * f)
    assert np.allclose(g3, 3.7 * g1, rtol=1e-12)


def test_boundary_influence_small_under_box_doubling():
    # doubling the box at fixed spacing must leave the theta mass stable
    masses = []
    for n, x in [(129, 8.0), (257, 16.0)]:
        [(_, mass, _, _)] = dichotomy_sweep(make_dec(n=n, x=x), STANDARD, [0.5])
        masses.append(mass)
    assert abs(masses[0] - masses[1]) / masses[1] < 0.05


def test_shrunk_theta_refuses_a_margin_that_leaves_a_point():
    assert np.array_equal(STANDARD.shrunk_theta(0.25), [[-0.75, -0.25]])
    with pytest.raises(ValueError, match="empty after shrinking by 0.5"):
        STANDARD.shrunk_theta(0.5)  # (-1, 0) becomes (-0.5, -0.5)


def _bump_profile(nodes, lo):
    """The profile (1 - r^2)^4 of a support (lo, lo + 3) at nodes h = 0.5 apart: the nodes
    inside sit at r = -2/3, -1/3, 0, 1/3, 2/3, and the bump is 0 at and past |r| = 1."""
    table = {0.5: (5 / 9) ** 4, 1.0: (8 / 9) ** 4, 1.5: 1.0, 2.0: (8 / 9) ** 4, 2.5: (5 / 9) ** 4}
    return np.array([table.get(x - lo, 0.0) for x in nodes])


@pytest.mark.parametrize("dim", [1, 2])
def test_bump_state_is_the_closed_form_profile_on_the_dof_nodes(dim):
    g = build_grid(dim, 17, 4.0, "dirichlet")  # h = 0.5
    support = [(1.0, 4.0), (-3.0, 0.0)][:dim]
    spec = VanishingSpec.create(theta=[(-4.0, -3.0)] * dim, f_support=support, dim=dim)
    axis = g.axis_nodes()[1:-1]
    expected = _bump_profile(axis, 1.0)
    if dim == 2:  # the product of the axes' profiles, the last axis fastest
        expected = np.outer(expected, _bump_profile(axis, -3.0)).ravel()
    f = bump_state(g, spec)
    assert np.array_equal(f == 0.0, expected == 0.0)
    assert np.allclose(f, expected, rtol=1e-14, atol=0.0)
