import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from fracspec.extension import (
    DegenerateInputError,
    ExtensionField,
    ExtrapolationError,
    conormal_constant,
    conormal_recover,
    conormal_slopes,
    constant_field_doubling_exponent,
    doubling_ratio,
    energy_report,
    extend,
    extension_multipliers,
    geometric_ladder,
    make_weak_test_bumps,
    trace_tolerance,
    weak_residual,
)
from fracspec.gridop import assemble, build_grid, make_coefficients
from fracspec.spectral import eigendecompose, fractional_power, l2_norm


def laplacian_dec(n=64, x=8.0, boundary="dirichlet"):
    g = build_grid(1, n, x, boundary)
    return g, eigendecompose(assemble(g, make_coefficients(g, "identity")))


def bump_dec(n=64, x=8.0):
    g = build_grid(1, n, x, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.7, "w": 2.0, "c_amp": 0.4})
    return g, eigendecompose(assemble(g, f))


def gaussian_state(g, width=2.0):
    return np.exp(-(g.dof_nodes() ** 2).sum(axis=1) / width)


def test_conormal_constant_at_half_is_minus_one():
    assert conormal_constant(0.5) == pytest.approx(-1.0, abs=1e-12)


def test_conormal_constant_formula():
    for alpha in (0.2, 0.35, 0.6, 0.9):
        expected = 4.0**alpha * gamma_fn(alpha) / (2 * alpha * gamma_fn(-alpha))
        assert conormal_constant(alpha) == pytest.approx(expected, rel=1e-14)
        assert conormal_constant(alpha) < 0


def heat_kernel_integrals(lam, ys, alpha, extra_power=0.0, spectrum=None, n_nodes=400):
    """I(lambda, y) = integral_0^inf e^{-t lam - y^2/4t} t^{-1-alpha-extra_power} dt.

    Trapezoid in log t over [1e-8 / lam_max, 1e4 / lam_min] of ``spectrum``
    (default ``lam``), where dt / t^{1+p} = t^{-p} d(log t); returns shape
    (len(lam), len(ys)).
    """
    bounds = np.abs(lam if spectrum is None else spectrum)
    u = np.linspace(np.log(1e-8 / max(bounds.max(), 1e-12)),
                    np.log(1e4 / max(bounds.min(), 1e-12)), n_nodes)
    w = np.full(n_nodes, u[1] - u[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    t = np.exp(u)
    expo = -lam[:, None, None] * t - (ys[None, :, None] ** 2 / 4.0) / t
    return np.einsum("lyt,t->ly", np.exp(expo) * t ** (-(alpha + extra_power)), w)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_closed_form_matches_heat_kernel_quadrature(alpha):
    # M = C y^{2a} I_a and y^{1-2a} dM/dy = C (2a I_a - (y^2/2) I_{a+1}), C = 1/(4^a Gamma(a))
    _, dec = laplacian_dec()
    lam = np.clip(dec.eigenvalues, 0.0, None)
    ys = geometric_ladder(1e-3, 1.3, 40)
    c0 = 1.0 / (4.0**alpha * gamma_fn(alpha))
    i_a = heat_kernel_integrals(lam, ys, alpha)
    i_a1 = heat_kernel_integrals(lam, ys, alpha, extra_power=1.0)
    m_quad = c0 * ys[None, :] ** (2.0 * alpha) * i_a
    assert np.abs(extension_multipliers(lam, ys, alpha) - m_quad).max() <= 1e-12

    slopes = conormal_slopes(lam, ys, alpha)
    scale = np.abs(slopes).max()
    # the two terms cancel to y^{-2a} relative roundoff as y -> 0, so each entry
    # is held to 1e-12 of the terms' own size
    slope_quad = c0 * (2.0 * alpha * i_a - (ys[None, :] ** 2 / 2.0) * i_a1)
    assert np.all(np.abs(slopes - slope_quad) <= 1e-12 * (2.0 * alpha * c0 * i_a + scale))
    # integrating d/dt (e^{-t lam - y^2/4t} t^{-a}) over t > 0 gives the same slope
    # as -2 lam C I_{a-1}, which has no cancellation
    slope_ibp = -2.0 * lam[:, None] * c0 * heat_kernel_integrals(lam, ys, alpha, extra_power=-1.0)
    assert np.abs(slopes - slope_ibp).max() <= 1e-12 * scale


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_closed_form_finite_and_bounded_at_large_z(alpha):
    lam = np.array([0.0, 1e-8, 1.0, 1e4, 1e6])
    ys = geometric_ladder(1e-6, 10.0, 10)  # z up to 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = extension_multipliers(lam, ys, alpha)
        slopes = conormal_slopes(lam, ys, alpha)
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(slopes))
    assert m.min() >= 0.0 and m.max() <= 1.0
    assert np.all(m[0] == 1.0) and np.all(slopes[0] == 0.0)
    assert m[-1, -1] == 0.0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_multiplier_matches_independent_bessel_closed_form(alpha):
    _, dec = laplacian_dec()
    lam = dec.eigenvalues
    ys = geometric_ladder(1e-3, 1.3, 40)
    m = extension_multipliers(lam, ys, alpha)
    z = np.sqrt(lam)[:, None] * ys[None, :]
    exact = (2.0 / gamma_fn(alpha)) * (z / 2.0) ** alpha * kv(alpha, z)
    assert np.abs(m - exact).max() <= 1e-12
    # multipliers live in (0, 1] and decay in y for positive modes
    assert m.max() <= 1.0 + 1e-12
    assert np.all(np.diff(m, axis=1) <= 1e-15)


def test_multiplier_alpha_half_is_poisson_kernel():
    _, dec = laplacian_dec()
    lam = dec.eigenvalues
    ys = geometric_ladder(1e-2, 1.5, 20)
    m = extension_multipliers(lam, ys, 0.5)
    exact = np.exp(-np.sqrt(lam)[:, None] * ys[None, :])
    assert np.abs(m - exact).max() <= 1e-6


@pytest.mark.parametrize("alpha,tol", [(0.25, 1e-4), (0.5, 1e-6), (0.75, 1e-6)])
def test_zero_mode_multiplier_is_gamma_normalization(alpha, tol):
    # lambda = 0: the time integral reduces to the Gamma prefactor, M = 1
    _, dec = laplacian_dec(n=16, x=4.0, boundary="periodic")
    assert abs(dec.eigenvalues[0]) < 1e-12
    ys = np.array([1e-3, 1e-2, 0.1, 1.0])
    i_a = heat_kernel_integrals(np.array([0.0]), ys, alpha, spectrum=dec.eigenvalues)
    m = ys ** (2.0 * alpha) * i_a / (4.0**alpha * gamma_fn(alpha))
    assert np.abs(m - 1.0).max() <= tol
    assert np.all(extension_multipliers(np.array([0.0]), ys, alpha) == 1.0)


def test_multiplier_depends_only_on_lambda_y_squared():
    lams = np.array([0.5, 2.0, 8.0])
    ys = np.array([0.03, 0.1, 0.4])
    for alpha in (0.3, 0.6):
        base = extension_multipliers(lams, ys, alpha)
        scaled = extension_multipliers(lams * 4.0, ys / 2.0, alpha)
        assert np.abs(base - scaled).max() <= 1e-14


def test_extend_of_zero_is_zero():
    _, dec = bump_dec(n=32)
    ext = extend(dec, 0.5, np.zeros(dec.n_dof))
    assert np.all(ext.values == 0.0)


def test_extend_rejects_bad_alpha_and_ladder():
    _, dec = bump_dec(n=32)
    u = np.ones(dec.n_dof)
    with pytest.raises(ValueError, match="alpha"):
        extend(dec, 1.5, u)
    with pytest.raises(ValueError, match="ladder"):
        extend(dec, 0.5, u, np.array([0.1, 0.05, 0.2]))


def test_extension_contracts_in_y_and_respects_trace_mass():
    g, dec = bump_dec()
    u = gaussian_state(g)
    ext = extend(dec, 0.6, u)
    norms = np.linalg.norm(ext.values, axis=0)
    assert norms.max() <= np.linalg.norm(u) * (1 + 1e-8)
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])


def test_trace_convergence_monotone_with_envelope():
    g, dec = bump_dec()
    u = gaussian_state(g)
    for alpha in (0.25, 0.5, 0.75):
        ext = extend(dec, alpha, u)
        errs = [
            np.linalg.norm(ext.values[:, k] - u) for k in range(3)
        ]
        assert errs[0] <= errs[1] <= errs[2]
        assert errs[0] <= trace_tolerance(alpha, ext.y_nodes[0], np.linalg.norm(u))


def test_recover_alpha_half_matches_sqrt_spectrum():
    # per-mode slope of e^{-y sqrt(lam)} recovers lam^{1/2}
    g, dec = laplacian_dec()
    u = gaussian_state(g)
    rec = conormal_recover(extend(dec, 0.5, u))
    oracle = fractional_power(dec, 0.5, u)
    assert np.linalg.norm(rec - oracle) <= 1e-6 * np.linalg.norm(oracle)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_recover_matches_spectral_power_on_bump_field(alpha):
    g, dec = bump_dec()
    u = gaussian_state(g)
    rec = conormal_recover(extend(dec, alpha, u))
    oracle = fractional_power(dec, alpha, u)
    assert np.linalg.norm(rec - oracle) <= 1e-3 * np.linalg.norm(oracle)


def test_recover_zero_is_zero():
    _, dec = bump_dec(n=32)
    rec = conormal_recover(extend(dec, 0.5, np.zeros(dec.n_dof)))
    assert np.all(rec == 0.0)


def test_recover_improves_with_resolution_refinement():
    g, dec = bump_dec()
    u = gaussian_state(g)
    oracle = fractional_power(dec, 0.75, u)

    def run(level):
        ys = geometric_ladder(4e-3 / 2**level, 1.2, 60)
        rec = conormal_recover(extend(dec, 0.75, u, ys))
        return np.linalg.norm(rec - oracle) / np.linalg.norm(oracle)

    e0, e2 = run(0), run(2)
    assert e0 <= 1e-3
    assert e2 <= e0 / 4.0


def test_recover_flags_divergent_extrapolation():
    g, dec = bump_dec()
    u = gaussian_state(g)
    # ladder base far outside the boundary-expansion regime
    ys = geometric_ladder(2.0, 2.0, 6)
    ext = extend(dec, 0.5, u, ys)
    with pytest.raises(ExtrapolationError):
        conormal_recover(ext)


def test_recover_requires_geometric_bottom_nodes():
    g, dec = bump_dec(n=32)
    u = gaussian_state(dec.source.grid)
    ys = np.array([1e-3, 2e-3, 5e-3, 1e-2])
    ext = extend(dec, 0.5, u, ys)
    with pytest.raises(ValueError, match="geometric"):
        conormal_recover(ext)


# --- energy -----------------------------------------------------------------

def test_energy_zero_for_zero_state():
    _, dec = bump_dec(n=32)
    rep = energy_report(extend(dec, 0.5, np.zeros(dec.n_dof)))
    assert rep.energy == 0.0 and rep.bound_ratio == 0.0


def test_energy_single_mode_closed_form():
    # alpha = 1/2, mode lam: integral of 2 lam e^{-2 y sqrt(lam)} dy = sqrt(lam)
    g, dec = laplacian_dec()
    k = 4
    u = dec.eigenvectors[:, k]
    ys = geometric_ladder(1e-3, 1.08, 130)
    rep = energy_report(extend(dec, 0.5, u, ys))
    oracle = np.sqrt(dec.eigenvalues[k]) * l2_norm(g, u) ** 2
    assert rep.energy == pytest.approx(oracle, rel=0.05)
    assert np.isfinite(rep.bound_ratio) and rep.bound_ratio > 0


def test_energy_bound_ratio_bracket_over_random_states():
    g, dec = bump_dec()
    rng = np.random.default_rng(3)
    ys = geometric_ladder(1e-3, 1.1, 100)
    ratios = []
    for _ in range(20):
        u = rng.standard_normal(dec.n_dof)
        u = np.asarray(
            dec.eigenvectors @ (np.exp(-dec.eigenvalues / 8.0) * (dec.eigenvectors.T @ u))
        )
        ratios.append(energy_report(extend(dec, 0.5, u, ys)).bound_ratio)
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios)) and ratios.min() > 0
    assert ratios.max() / ratios.min() <= 50.0


# --- doubling ---------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_doubling_of_synthetic_constant_field(alpha):
    g = build_grid(1, 801, 2.0, "dirichlet")
    ys = geometric_ladder(5e-4, 1.02, 420)
    synth = ExtensionField(
        base=np.ones(g.n_dof), alpha=alpha, y_nodes=ys,
        values=np.ones((g.n_dof, len(ys))), grid=g,
    )
    [(_, ratio)] = doubling_ratio(synth, [0.5])
    assert ratio == pytest.approx(constant_field_doubling_exponent(1, alpha), rel=0.01)


def test_doubling_of_extended_bump_stays_bounded():
    # R = 0.125 must contain grid nodes: use a finer box than the default
    g = build_grid(1, 128, 4.0, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.7, "w": 2.0, "c_amp": 0.4})
    dec = eigendecompose(assemble(g, f))
    u = gaussian_state(g, width=0.5)
    ys = geometric_ladder(1e-3, 1.1, 100)
    ext = extend(dec, 0.5, u, ys)
    pairs = doubling_ratio(ext, [0.5, 0.25, 0.125])
    ratios = [r for _, r in pairs]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) <= 10.0


def test_doubling_rejects_zero_field_and_big_radius():
    g, dec = bump_dec(n=32)
    ys = geometric_ladder(1e-3, 1.2, 40)
    zero = extend(dec, 0.5, np.zeros(dec.n_dof), ys)
    with pytest.raises(DegenerateInputError):
        doubling_ratio(zero, [0.25])
    u = gaussian_state(dec.source.grid)
    ext = extend(dec, 0.5, u, ys)
    with pytest.raises(ValueError, match="box"):
        doubling_ratio(ext, [100.0])


# --- weak form ---------------------------------------------------------------

def test_weak_residual_zero_field():
    _, dec = bump_dec(n=32)
    ext = extend(dec, 0.5, np.zeros(dec.n_dof))
    tests = make_weak_test_bumps(dec.source.grid, ext.y_nodes)
    assert weak_residual(ext, tests) == 0.0


def single_mode_residual(n, n_ladder):
    g = build_grid(1, n, 8.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    u = dec.eigenvectors[:, 3]
    ys = geometric_ladder(1e-3, 1.35 ** (60.0 / n_ladder), n_ladder)
    ext = extend(dec, 0.5, u, ys)
    return ext, weak_residual(ext, make_weak_test_bumps(g, ys, count=3, seed=0))


def test_weak_residual_decreases_under_refinement():
    _, coarse = single_mode_residual(32, 60)
    _, fine = single_mode_residual(64, 120)
    assert fine <= coarse / 2.0


def test_weak_residual_detects_corruption():
    ext, clean = single_mode_residual(32, 60)
    tests = make_weak_test_bumps(ext.grid, ext.y_nodes, count=3, seed=0)
    # corrupt with amplitude 1e-2 relative to the solution's energy norm along
    # a direction the probe can see; rough white noise has unbounded weighted
    # energy and would swamp the normalization instead
    matrix = ext.decomposition.source.matrix
    from fracspec.extension import _weighted_y_cells

    wy = _weighted_y_cells(ext.y_nodes, ext.alpha)

    def energy(v):
        dy = np.gradient(v, ext.y_nodes, axis=1)
        return float((wy * ((dy**2).sum(axis=0) + (v * (matrix @ v)).sum(axis=0))).sum())

    w = tests[0] * np.sqrt(energy(ext.values) / energy(tests[0]))
    corrupted = ExtensionField(
        base=ext.base, alpha=ext.alpha, y_nodes=ext.y_nodes,
        values=ext.values + 1e-2 * w, grid=ext.grid, decomposition=ext.decomposition,
    )
    noisy = weak_residual(corrupted, tests)
    assert noisy >= 10.0 * clean


# --- export ------------------------------------------------------------------

def test_extension_export_csv_and_metadata(tmp_path):
    _, dec = bump_dec(n=32)
    u = gaussian_state(dec.source.grid)
    ys = geometric_ladder(1e-3, 1.4, 12)
    ext = extend(dec, 0.5, u, ys)
    path = tmp_path / "ext.csv"
    ext.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_index,y,U"
    assert lines[1:] == [f"{i},{y:.17e},{ext.values[i, k]:.17e}"
                         for k, y in enumerate(ys) for i in range(dec.n_dof)]
    import json

    meta = json.loads(ext.metadata_json())
    assert meta["alpha"] == 0.5
    assert "quadrature" not in meta
    assert len(meta["y_nodes"]) == 12
