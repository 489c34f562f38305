import numpy as np
import pytest

from fracspec.gridop import CoefficientField, assemble, build_grid, make_coefficients
from fracspec.spectral import (
    SpectrumCapError,
    apply_function,
    bessel_apply,
    bounded_custom,
    eigendecompose,
    fractional_power,
    heat,
    identity_map,
    l2_norm,
    laplacian_symbol,
    norm_equivalence,
    power,
    product_map,
    shifted_power,
    smoothing_norm_bound,
    smoothing_norm_measured,
    sobolev_norm,
    unitary_propagate,
    viscous_propagate,
)


def dirichlet_laplacian(n=33, x=8.0):
    g = build_grid(1, n, x, "dirichlet")
    return g, eigendecompose(assemble(g, make_coefficients(g, "identity")))


def bump_operator(n=33, x=8.0, dim=1, boundary="dirichlet", s=0.7, w=2.0, c_amp=0.4):
    g = build_grid(dim, n, x, boundary)
    f = make_coefficients(g, "radial_bump", {"s": s, "w": w, "c_amp": c_amp})
    return g, assemble(g, f)


def test_dirichlet_spectrum_matches_closed_form():
    g, dec = dirichlet_laplacian(n=33)
    n_int = g.n_dof
    h = g.spacing
    k = np.arange(1, n_int + 1)
    exact = (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n_int + 1))) ** 2
    assert np.allclose(dec.eigenvalues, exact, rtol=1e-10, atol=0)


def test_shifted_c_shifts_eigenvalues_only():
    g, op = bump_operator()
    f = op.coefficients
    shifted = CoefficientField(a=f.a, c=f.c + 1.0, kind="tabulated", ellipticity=f.ellipticity)
    dec0 = eigendecompose(op)
    dec1 = eigendecompose(assemble(g, shifted))
    assert np.allclose(dec1.eigenvalues, dec0.eigenvalues + 1.0, rtol=1e-12, atol=1e-11)
    # compare operator action rather than raw eigenvectors (sign/order free)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(g.n_dof)
    assert np.allclose(
        apply_function(dec1, heat(0.3), v), apply_function(dec0, bounded_custom(lambda lam: np.exp(-0.3 * (lam + 1.0))), v),
        rtol=0, atol=1e-10,
    )


def test_reconstruction_residual_random_bump():
    _, op = bump_operator(n=65)
    dec = eigendecompose(op)
    resid = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T - op.matrix
    assert np.abs(resid).max() <= 1e-8 * np.abs(dec.eigenvalues).max()


def test_cap_exceeded_message():
    _, op = bump_operator(n=33)
    with pytest.raises(SpectrumCapError, match="reduce N"):
        eigendecompose(op, cap=10)


def test_apply_identity_and_power_one():
    g, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.n_dof)
    assert np.allclose(apply_function(dec, identity_map(), f), f, rtol=1e-12, atol=1e-13)
    assert np.allclose(apply_function(dec, power(1.0), f), op.matrix @ f,
                       rtol=1e-12, atol=1e-10 * np.abs(op.matrix @ f).max())


def test_power_half_matches_fft_symbol_oracle_on_periodic_grid():
    g = build_grid(1, 32, 4.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.n_dof)
    spec_path = fractional_power(dec, 0.5, f)
    oracle = np.fft.ifft(np.sqrt(laplacian_symbol(g)) * np.fft.fft(f)).real
    assert np.allclose(spec_path, oracle, rtol=0, atol=1e-10)


def test_fractional_power_integer_composition():
    g, op = bump_operator(n=65)
    dec = eigendecompose(op)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.n_dof)
    two_fold = op.matrix @ (op.matrix @ f)
    spectral2 = fractional_power(dec, 2.0, f)
    assert np.linalg.norm(two_fold - spectral2) <= 1e-9 * np.linalg.norm(two_fold)


def test_fractional_power_semigroup_of_exponents():
    g, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(g.n_dof)
    twice = fractional_power(dec, 0.5, fractional_power(dec, 0.5, f))
    once = fractional_power(dec, 1.0, f)
    assert np.linalg.norm(twice - once) <= 1e-9 * np.linalg.norm(once)


def test_fractional_power_rejects_negative_alpha():
    _, op = bump_operator()
    dec = eigendecompose(op)
    with pytest.raises(ValueError, match="alpha >= 0"):
        fractional_power(dec, -0.5, np.ones(dec.n_dof))


def test_singular_map_names_eigenvalue():
    g = build_grid(1, 8, 4.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    assert dec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    inv = bounded_custom(lambda lam: lam ** -1.0, "inverse")
    with pytest.raises(ValueError, match="singular on the spectrum"):
        apply_function(dec, inv, np.ones(dec.n_dof))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_unitary_propagator_preserves_l2(alpha, t):
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(dec.n_dof)
    out = unitary_propagate(dec, alpha, t, f)
    assert abs(np.linalg.norm(out) / np.linalg.norm(f) - 1.0) <= 1e-10


def test_unitary_group_law():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(dec.n_dof)
    ab = unitary_propagate(dec, 0.5, 0.3, unitary_propagate(dec, 0.5, 0.7, f))
    whole = unitary_propagate(dec, 0.5, 1.0, f)
    assert np.linalg.norm(ab - whole) <= 1e-10 * np.linalg.norm(f)


def test_unitary_at_zero_is_identity():
    _, op = bump_operator()
    dec = eigendecompose(op)
    f = np.sin(np.arange(dec.n_dof))
    assert np.allclose(unitary_propagate(dec, 0.5, 0.0, f), f, rtol=0, atol=1e-14)


def test_viscous_zero_eps_reduces_to_unitary():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(dec.n_dof)
    assert np.allclose(
        viscous_propagate(dec, 0.5, 0.0, 2.0, f),
        unitary_propagate(dec, 0.5, 2.0, f),
        rtol=0, atol=1e-12,
    )


def test_viscous_is_contraction():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(dec.n_dof)
    out = viscous_propagate(dec, 0.5, 0.05, 1.5, f)
    assert np.linalg.norm(out) <= np.linalg.norm(f) * (1 + 1e-12)


def test_viscous_scalar_oracle():
    from fracspec.spectral import SpectralDecomposition

    one = SpectralDecomposition(eigenvalues=np.array([2.0]), eigenvectors=np.eye(1))
    f = np.array([1.0 + 0.0j])
    out = viscous_propagate(one, 0.5, 0.1, 1.0, f)
    assert out[0] == pytest.approx(np.exp(-0.4 + 1j * 2.0**0.5), abs=1e-14)


def test_smoothing_norm_maximization():
    # sup over lam of lam e^{-eps t lam^2} = (2 e eps t)^{-1/2} at (2 eps t)^{-1/2}
    _, op = bump_operator(n=129, x=8.0, s=0.0, c_amp=0.0)
    dec = eigendecompose(op)
    for eps, t in [(0.01, 0.1), (0.01, 1.0), (0.1, 0.1), (0.1, 1.0)]:
        measured = smoothing_norm_measured(dec, eps, t)
        bound = smoothing_norm_bound(eps, t)
        assert measured <= bound * (1 + 1e-10)
        lam_star = (2 * eps * t) ** -0.5
        if dec.eigenvalues[0] <= lam_star <= dec.eigenvalues[-1]:
            assert measured >= 0.97 * bound


def test_functional_calculus_homomorphism():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(dec.n_dof)
    pairs = [
        (heat(0.2), power(0.5)),
        (power(1.5), heat(1.0)),
        (shifted_power(-0.5), power(2.0)),
    ]
    for g_map, f_map in pairs:
        comp = apply_function(dec, g_map, apply_function(dec, f_map, f))
        prod = apply_function(dec, product_map(g_map, f_map), f)
        assert np.linalg.norm(comp - prod) <= 1e-9 * max(np.linalg.norm(prod), 1e-300)


def test_bounded_function_commutes_with_heat():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(10)
    f = rng.standard_normal(dec.n_dof)
    a = apply_function(dec, heat(0.5), fractional_power(dec, 0.75, f))
    b = fractional_power(dec, 0.75, apply_function(dec, heat(0.5), f))
    assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(f)


def test_fractional_power_self_adjoint():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(dec.n_dof)
    g = rng.standard_normal(dec.n_dof)
    left = np.dot(fractional_power(dec, 0.6, f), g)
    right = np.dot(f, fractional_power(dec, 0.6, g))
    assert abs(left - right) <= 1e-10 * abs(left)


# --- Bessel potentials ------------------------------------------------------

@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_zero_order_is_identity(boundary):
    g = build_grid(1, 17, 4.0, boundary)
    rng = np.random.default_rng(12)
    f = rng.standard_normal(g.n_dof)
    assert np.allclose(bessel_apply(g, 0.0, f), f, rtol=0, atol=1e-12)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_order_two_is_one_plus_laplacian(boundary):
    g = build_grid(1, 17, 4.0, boundary)
    lap = assemble(g, make_coefficients(g, "identity")).matrix
    rng = np.random.default_rng(13)
    f = rng.standard_normal(g.n_dof)
    assert np.allclose(bessel_apply(g, 2.0, f), f + lap @ f, rtol=0, atol=1e-10)
    batch = rng.standard_normal((g.n_dof, 3)) + 1j * rng.standard_normal((g.n_dof, 3))
    assert np.allclose(bessel_apply(g, 2.0, batch), batch + lap @ batch, rtol=0, atol=1e-10)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_inverse_composition(boundary):
    g = build_grid(1, 17, 4.0, boundary)
    rng = np.random.default_rng(14)
    f = rng.standard_normal(g.n_dof)
    out = bessel_apply(g, 2.0, bessel_apply(g, -2.0, f))
    assert np.linalg.norm(out - f) <= 1e-10 * np.linalg.norm(f)
    g2 = build_grid(2, 9, 4.0, boundary)
    batch = rng.standard_normal((g2.n_dof, 3)) + 1j * rng.standard_normal((g2.n_dof, 3))
    out = bessel_apply(g2, 2.0, bessel_apply(g2, -2.0, batch))
    assert np.linalg.norm(out - batch) <= 1e-10 * np.linalg.norm(batch)


@pytest.mark.parametrize("dim, n", [(1, 33), (2, 12)])
@pytest.mark.parametrize("order", [1.5, -2.0, 4.0])
def test_bessel_dirichlet_matches_dense_spectral_calculus(dim, n, order):
    # oracle: (1 + lam)^{s/2} through the dense eigendecomposition of the
    # assembled identity-coefficient operator
    g = build_grid(dim, n, 4.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    rng = np.random.default_rng(15)
    real = rng.standard_normal(g.n_dof)
    for f in (real, real + 1j * rng.standard_normal(g.n_dof)):
        oracle = apply_function(dec, shifted_power(order / 2.0), f)
        out = bessel_apply(g, order, f)
        assert out.dtype == oracle.dtype
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim, n", [(1, 33), (2, 12)])
def test_laplacian_symbol_is_identity_operator_spectrum(boundary, dim, n):
    g = build_grid(dim, n, 4.0, boundary)
    lam = np.linalg.eigvalsh(assemble(g, make_coefficients(g, "identity")).matrix)
    symbol = np.sort(laplacian_symbol(g).ravel())
    assert np.abs(symbol - lam).max() <= 1e-12 * lam.max()


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim, n", [(1, 17), (2, 10)])
def test_bessel_batch_equals_column_loop(boundary, dim, n):
    g = build_grid(dim, n, 4.0, boundary)
    rng = np.random.default_rng(16)
    batch = rng.standard_normal((g.n_dof, 5)) + 1j * rng.standard_normal((g.n_dof, 5))
    out = bessel_apply(g, 1.5, batch)
    loop = np.column_stack([bessel_apply(g, 1.5, col) for col in batch.T])
    assert out.shape == batch.shape
    assert np.abs(out - loop).max() <= 1e-13 * np.abs(loop).max()
    norms = sobolev_norm(g, 1.5, batch)
    assert norms.shape == (5,)
    assert np.allclose(norms, [sobolev_norm(g, 1.5, col) for col in batch.T], rtol=1e-13, atol=0)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_rejects_wrong_state_length(boundary):
    g = build_grid(2, 8, 2.0, boundary)
    with pytest.raises(ValueError, match="state length"):
        bessel_apply(g, 1.0, np.ones(g.n_dof + 1))


# --- norm equivalence -------------------------------------------------------

def test_norm_equivalence_alpha_zero_ratio_is_two():
    g, op = bump_operator(n=17)
    rep = norm_equivalence(op, 0.0, n_bumps=4, refine=False)
    assert rep.ratio_min == pytest.approx(2.0, rel=1e-12)
    assert rep.ratio_max == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_norm_equivalence_periodic_constant_bracket(alpha):
    g = build_grid(1, 64, 8.0, "periodic")
    op = assemble(g, make_coefficients(g, "identity"))
    dec = eigendecompose(op)
    # per-mode oracle: the ratio equals (1 + m^alpha) / (1 + m)^alpha
    for frac in (0.0, 0.3, 0.8, 1.0):
        k = int(frac * (dec.n_dof - 1))
        v = dec.eigenvectors[:, k]
        m = dec.eigenvalues[k]
        m = 0.0 if m < 1e-10 * dec.eigenvalues[-1] else m
        ratio = (l2_norm(g, v) + l2_norm(g, fractional_power(dec, alpha, v))) / l2_norm(
            g, bessel_apply(g, 2 * alpha, v)
        )
        assert ratio == pytest.approx((1 + m**alpha) / (1 + m) ** alpha, rel=1e-10)
        assert 1.0 - 1e-9 <= ratio <= 2.0 ** (1 - alpha) + 1e-9


def test_norm_equivalence_report_fields_and_drift():
    _, op = bump_operator(n=33, s=0.5, w=2.0)
    rep = norm_equivalence(op, 0.5, n_bumps=6, seed=3)
    assert 0 < rep.ratio_min <= rep.ratio_max < np.inf
    assert rep.refinement_drift <= 0.1
    d = rep.to_json_dict()
    assert set(d) == {"alpha", "lambda_min", "lambda_max", "ratio_min",
                      "ratio_max", "refinement_drift", "n_samples"}


def test_norm_equivalence_rejects_zero_function():
    g, op = bump_operator(n=17)
    dec = eigendecompose(op)
    from fracspec.spectral import _equivalence_ratios

    with pytest.raises(ValueError, match="zero test function"):
        _equivalence_ratios(dec, g, 0.5, [(np.array([100.0]), 0.01)], ())
