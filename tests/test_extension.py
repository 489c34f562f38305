import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import kv, kve

from fracspec import extension
from fracspec.extension import (
    EXTENSION_WORKING_SET,
    DegenerateInputError,
    ExtensionField,
    ExtrapolationError,
    _scaled_bessel_k,
    _z_power_bessel_k,
    conormal_constant,
    conormal_recover,
    conormal_slopes,
    doubling_ratio,
    energy_report,
    extend,
    extension_multipliers,
    geometric_ladder,
    trace_tolerance,
)
from fracspec.gridop import NumericalError, assemble, build_grid, make_coefficients
from fracspec.spectral import eigendecompose, fractional_power, l2_norm
from oracles import (
    constant_field_doubling_exponent,
    eigenvectors,
    grid_only,
    ladder_energy,
    make_weak_test_bumps,
    scaled_vectors,
    weak_residual,
)


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


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5, np.nan])
def test_conormal_constant_refuses_alpha_outside_the_open_unit_interval(alpha):
    # at 0 and 1 math.gamma would fail too, but with its own message
    with pytest.raises(ValueError, match=r"alpha must be in \(0,1\)"):
        conormal_constant(alpha)


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


@pytest.mark.parametrize("nu", [0.05, 0.3, 0.95])
def test_huge_z_stepped_beside_the_slowest_entry_stays_finite(nu):
    # one chunk steps every entry to the most nodes any of them needs: 2781 for the
    # subnormal z, taken at 1e-300, whose last node is t = 695. The others' nodes past their
    # own last must stay finite, and e^{-z} K_nu(z) underflows to 0 from z = 1e5 on, also
    # at an overflowed z = inf
    z = np.array([[5e-324, 1e-310, 2.0, 1e5, 1e6, 1e300, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _z_power_bessel_k(0.5, nu, z)
    assert np.all(np.isfinite(out[0, :3])) and np.all(out[0, :3] > 0.0)
    assert np.all(out[0, 3:] == 0.0)


def test_zero_z_is_never_summed_below_the_smallest_positive_z(monkeypatch):
    # z = 0 (a zero eigenvalue) has a value that no caller keeps, so it must not step its
    # chunk to the 2781 nodes of the clip floor 1e-300; the positive entries keep their bits
    smallest = []

    def spy(nu, x):
        smallest.append(x.min())
        return _scaled_bessel_k(nu, x)

    z = np.array([[0.0, 1e-3, 0.5], [0.0, 0.0, 2.0]])
    plain = _z_power_bessel_k(0.5, 0.3, z)
    monkeypatch.setattr(extension, "_scaled_bessel_k", spy)
    spied = _z_power_bessel_k(0.5, 0.3, z)
    assert smallest and min(smallest) >= 1e-3
    positive = z > 0.0
    assert np.array_equal(spied[positive], plain[positive])
    assert np.array_equal(plain[positive], _z_power_bessel_k(0.5, 0.3, z[positive][None, :])[0])


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


@pytest.mark.parametrize("alpha", [0.05, 0.35, 0.6, 0.95])
def test_gamma_prefactors_match_scipy_gamma_oracle(alpha):
    # math.gamma and scipy's gamma differ by a few ulps; K_nu is the library's own trapezoid
    # sum, checked against kve and mpmath below, so only the Gamma prefactors are compared here
    lam = laplacian_dec()[1].spectrum
    ys = geometric_ladder(1e-3, 1.3, 40)
    root = np.sqrt(lam)[:, None]
    z = root * ys[None, :]
    prefactor = 2.0 ** (1.0 - alpha) / gamma_fn(alpha)
    multipliers = np.minimum(prefactor * _z_power_bessel_k(alpha, alpha, z), 1.0)
    slopes = (-prefactor * root * ys ** (1.0 - 2.0 * alpha)
              * _z_power_bessel_k(alpha, 1.0 - alpha, z))
    np.testing.assert_allclose(extension_multipliers(lam, ys, alpha), multipliers,
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(conormal_slopes(lam, ys, alpha), slopes, rtol=1e-14, atol=0)


# orders across (0, 1), and z from 1e-10 to 1e3, on both sides of the change of step at
# z = 5.76, with a cluster at z = 2
KNU_ORDERS = [1e-6, 0.01, 0.1, 0.35, 0.5, 0.65, 0.9, 0.999, 1.0 - 1e-6]
KNU_POINTS = np.concatenate([np.logspace(-10, 3, 131), 2.0 + np.linspace(-0.05, 0.05, 11)])


@pytest.mark.parametrize("nu", KNU_ORDERS)
def test_scaled_bessel_k_matches_scipy_kve_oracle(nu):
    # pyproject.toml turns any RuntimeWarning into an error
    got = _scaled_bessel_k(nu, KNU_POINTS)
    np.testing.assert_allclose(got, kve(nu, KNU_POINTS), rtol=2e-13, atol=0)


@pytest.mark.parametrize("nu", [0.105, 0.35, 0.5, 0.9])
def test_scaled_bessel_k_matches_mpmath_near_the_switch(nu):
    # on both sides of the switch of step from 0.25 to 0.6/sqrt(z) at z = 5.76, and near
    # z = 2, where kve itself is off by up to 3e-13 just below (nu = 0.105)
    z = np.array([0.5, 1.9, 1.99, 1.999, 2.0, 2.001, 2.5, 5.7, 5.76, 5.8, 10.0])
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.besselk(nu, x) * mpmath.exp(x)) for x in z])
    np.testing.assert_allclose(_scaled_bessel_k(nu, z), exact, rtol=2e-14, atol=0)


@pytest.mark.parametrize("nu", [0.0, 1e-6, 0.05, 0.3, 0.7, 0.95, 1.0])
def test_scaled_bessel_k_matches_mpmath_from_1e_300_to_2e4(nu):
    # every order the multipliers and slopes use, down to x = 1e-300, where K_1 is 1e300,
    # and up past the ladder tops of the shipped configs; a RuntimeWarning is an error
    x = np.geomspace(1e-300, 2e4, 160)
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.besselk(nu, v) * mpmath.exp(v)) for v in x])
    np.testing.assert_allclose(_scaled_bessel_k(nu, x), exact, rtol=2e-14, atol=0)


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
    # decreasing, empty, 2-D, a node at 0, a repeated node
    for ys in ([0.1, 0.05, 0.2], [], [[1e-3, 2e-3, 4e-3]], [0.0, 1e-3, 2e-3], [1e-3, 1e-3, 2e-3]):
        with pytest.raises(ValueError, match="y ladder must be a nonempty 1-D array"):
            extend(dec, 0.5, u, np.array(ys))


def test_extend_trace_checks_hold_their_stated_bounds():
    # at y0 = 1e-300 every multiplier rounds to 1, so U(., y0) = V V^T u and the trace
    # tolerance is its floor n_dof eps |u|. The roundoff of V V^T u stays below it, also at
    # |u| = 1e3; vectors scaled by 1 + delta put sup_y |U| and |U(., y0) - u| at about
    # 2 delta |u|, against the mass bound 1e-8 |u|
    g, dec = bump_dec()
    u = 1e3 * gaussian_state(g)
    ys = np.array([1e-300, 2e-300, 4e-300])
    ext = extend(dec, 0.5, u, ys)
    err = np.linalg.norm(ext.values[:, 0] - u)
    assert 0.0 < err <= dec.n_dof * np.finfo(float).eps * np.linalg.norm(u)
    with pytest.raises(NumericalError, match="trace not recovered"):
        extend(scaled_vectors(dec, 0.375e-8), 0.5, u, ys)  # 2 delta = 0.75e-8
    with pytest.raises(NumericalError, match="exceeds the trace mass"):
        extend(scaled_vectors(dec, 0.75e-8), 0.5, u, ys)  # 2 delta = 1.5e-8


@pytest.mark.parametrize("args", [(0.0, 1.2, 10), (np.nan, 1.2, 10), (1e-3, 1.0, 10),
                                  (1e-3, np.nan, 10), (1e-3, 1.2, 2)])
def test_geometric_ladder_rejects_bad_arguments(args):
    with pytest.raises(ValueError, match="ladder requires"):
        geometric_ladder(*args)


@pytest.mark.parametrize("radii", [[], [0.0], [-0.5], [np.nan]])
def test_doubling_rejects_radii_outside_the_sampled_half_space(radii):
    _, dec = bump_dec(n=32)
    ext = extend(dec, 0.5, np.ones(dec.n_dof), geometric_ladder(1e-3, 1.2, 55))
    with pytest.raises(ValueError, match=r"radii must be a nonempty list in \(0, 4\]"):
        doubling_ratio(ext, radii)


def test_geometric_ladder_rejects_an_overflowing_top_node():
    with pytest.raises(ValueError, match="overflows"):
        geometric_ladder(1e-3, 1.2, 4096)  # 1e-3 * 1.2^4095 is about 1e321
    ys = geometric_ladder(1e-3, 1.1, 4096)
    assert np.isfinite(ys[-1]) and ys[-1] == pytest.approx(1e-3 * 1.1**4095)


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
        assert errs[0] <= trace_tolerance(alpha, ext.y_nodes[0], np.linalg.norm(u), dec.n_dof)


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


def test_recover_takes_a_three_node_ladder():
    # the three smallest nodes are all the limit reads, so the default ladder's first three
    # give the same bits
    g, dec = laplacian_dec()
    u = gaussian_state(g)
    ys = geometric_ladder(1e-3, 1.2, 3)
    assert np.array_equal(conormal_recover(extend(dec, 0.5, u, ys)),
                          conormal_recover(extend(dec, 0.5, u)))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_recover_of_one_mode_reaches_its_two_stage_limit(alpha):
    # at sqrt(lambda) y0 = 1e-3 and ratio 1.2, extrapolating with the boundary expansion's
    # exponents 2 - 2a and 2 leaves 2e-11 to 5e-9 of lambda^a; a second exponent of 4 would
    # leave 2.5e-7 to 5.9e-7
    _, dec = laplacian_dec()
    k = 4
    u, lam = eigenvectors(dec)[:, k], dec.spectrum[k]
    rec = conormal_recover(extend(dec, alpha, u, geometric_ladder(1e-3 / np.sqrt(lam), 1.2, 3)))
    assert np.linalg.norm(rec - lam**alpha * u) <= 1e-8 * lam**alpha


@pytest.mark.parametrize("rel,refused", [(1.5e-9, True), (0.75e-9, False)])
def test_recover_geometric_test_is_relative_to_the_ratio(rel, refused):
    # rho01 = 2, so the bottom nodes are refused when rho12 - rho01 exceeds 1e-9 rho01 = 2e-9
    _, dec = bump_dec(n=32)
    u = gaussian_state(dec.source.grid)
    ext = extend(dec, 0.5, u, np.array([1e-3, 2e-3, 4e-3 * (1.0 + rel)]))
    if refused:
        with pytest.raises(ValueError, match="geometric"):
            conormal_recover(ext)
    else:
        conormal_recover(ext)


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
    # alpha = 1/2, mode lam: integral of 2 lam e^{-2 y sqrt(lam)} dy = sqrt(lam), which the
    # closed form kappa_{1/2} <L^{1/2} u, u>_h, kappa_{1/2} = 1, gives up to roundoff
    g, dec = laplacian_dec()
    k = 4
    u = eigenvectors(dec)[:, k]
    ys = geometric_ladder(1e-3, 1.08, 130)
    rep = energy_report(extend(dec, 0.5, u, ys))
    oracle = np.sqrt(dec.eigenvalues[k]) * l2_norm(g, u) ** 2
    assert rep.energy == pytest.approx(oracle, rel=1e-13)
    assert np.isfinite(rep.bound_ratio) and rep.bound_ratio > 0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_energy_report_matches_the_ladder_quadrature_of_the_operator_form(alpha):
    # the closed form against the L-form quadrature of the extension on a fine ladder; a
    # flat-gradient form, which drops a(x) and c(x), reads 0.51-0.82 of it on this bump
    g, dec = bump_dec(n=130)
    ext = extend(dec, alpha, gaussian_state(g), geometric_ladder(1e-5, 1.02, 1000))
    assert energy_report(ext).energy == pytest.approx(ladder_energy(ext, ext.values), rel=1e-2)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_extension_energy_per_mode_is_kappa_lambda_to_the_alpha(alpha):
    # int_0^inf y^{1-2a} (M'^2 + lam M^2) dy = kappa_a lam^a for M = c z^a K_a(z), z = sqrt(lam) y,
    # c = 2^{1-a}/Gamma(a), whose slope is M' = -c sqrt(lam) z^a K_{1-a}(z)
    kappa = 2.0 ** (1.0 - 2.0 * alpha) * gamma_fn(1.0 - alpha) / gamma_fn(alpha)
    assert kappa * conormal_constant(alpha) == pytest.approx(-1.0, abs=1e-15)
    c = 2.0 ** (1.0 - alpha) / gamma_fn(alpha)
    for lam in (0.3, 1.0, 40.0):
        root = np.sqrt(lam)

        def density(y):
            z = root * y
            return (y ** (1.0 - 2.0 * alpha) * lam * (c * z**alpha) ** 2
                    * (kv(1.0 - alpha, z) ** 2 + kv(alpha, z) ** 2))

        total = sum(quad(density, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for lo, hi in ((0.0, 1.0 / root), (1.0 / root, np.inf)))
        assert total == pytest.approx(kappa * lam**alpha, rel=1e-13)


def test_energy_bound_ratio_bracket_over_random_states():
    g, dec = bump_dec()
    rng = np.random.default_rng(3)
    ys = geometric_ladder(1e-3, 1.1, 100)
    ratios = []
    for _ in range(20):
        u = rng.standard_normal(dec.n_dof)
        u = dec.from_modes(np.exp(-dec.eigenvalues / 8.0) * dec.to_modes(u))
        ratios.append(energy_report(extend(dec, 0.5, u, ys)).bound_ratio)
    ratios = np.asarray(ratios)
    assert np.all(np.isfinite(ratios)) and ratios.min() > 0
    assert ratios.max() / ratios.min() <= 50.0


def test_energy_report_ratios_follow_their_definitions():
    # on a state of norm far from 1, where dividing by a mass and multiplying by it differ
    g, dec = bump_dec()
    u = 3.0 * gaussian_state(g)
    ext = extend(dec, 0.4, u)
    rep = energy_report(ext)
    assert rep.base_mass == pytest.approx(l2_norm(g, u) ** 2, rel=1e-14)
    assert rep.fractional_mass == pytest.approx(l2_norm(g, fractional_power(dec, 0.4, u)) ** 2,
                                                rel=1e-12)
    assert rep.base_mass + rep.fractional_mass > 4.0 and np.linalg.norm(u) > 4.0
    assert rep.bound_ratio == pytest.approx(rep.energy / (rep.base_mass + rep.fractional_mass),
                                            rel=1e-15)
    sup = max(np.linalg.norm(ext.values[:, k]) for k in range(len(ext.y_nodes)))
    assert rep.sup_trace_ratio == pytest.approx(sup / np.linalg.norm(u), rel=1e-15)


# --- doubling ---------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_doubling_of_synthetic_constant_field(alpha):
    g = build_grid(1, 801, 2.0, "dirichlet")
    ys = geometric_ladder(5e-4, 1.02, 420)
    synth = ExtensionField(
        base=np.ones(g.n_dof), alpha=alpha, y_nodes=ys,
        values=np.ones((g.n_dof, len(ys))), decomposition=grid_only(g),
    )
    [(_, ratio)] = doubling_ratio(synth, [0.5])
    assert ratio == pytest.approx(constant_field_doubling_exponent(1, alpha), rel=0.01)


def test_doubling_ratio_is_taken_about_its_center():
    # a field that is 1 on x > 0 and 0 elsewhere: about the node x = 1 the half balls of
    # radius 0.4 and 0.8 hold only ones, so the ratio is that of the all-ones field about 0;
    # about x = -1 they hold only zeros
    g = build_grid(1, 801, 2.0, "dirichlet")
    ys = geometric_ladder(5e-4, 1.02, 420)
    x = g.dof_nodes()[:, 0]

    def field(values):
        return ExtensionField(base=values[:, 0], alpha=0.5, y_nodes=ys, values=values,
                              decomposition=grid_only(g))

    half = field(np.repeat((x > 0.0).astype(float)[:, None], len(ys), axis=1))
    [(_, ratio)] = doubling_ratio(half, [0.4], center=1.0)
    [(_, ones)] = doubling_ratio(field(np.ones((g.n_dof, len(ys)))), [0.4])
    assert ratio == pytest.approx(ones, rel=1e-12)
    with pytest.raises(DegenerateInputError):
        doubling_ratio(half, [0.4], center=-1.0)


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


# --- memory ------------------------------------------------------------------

def _traced_peak(work):
    """The peak traced memory of ``work()``, in bytes."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extension_working_set_matches_tracemalloc_peak():
    # the parse-time memory guard charges an extension task EXTENSION_WORKING_SET
    # (n_dof, y_count) arrays. On ladders of many K_CHUNK chunks, one where every
    # z = sqrt(lambda) y < 2 and one reaching z of hundreds, extend and the recovery,
    # closed-form energy and doubling that follow it all peak within one array of it
    g = build_grid(2, 34, 4.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "radial_bump",
                                                       {"s": 0.7, "w": 2.0, "c_amp": 0.4})))
    u = gaussian_state(g)
    top = 1.9 / np.sqrt(dec.spectrum[-1])
    steep = geometric_ladder(1e-4, (top / 1e-4) ** (1 / 599), 600)
    doubling = lambda ext: doubling_ratio(ext, None)  # noqa: E731
    peaks = []
    for ys, follows in [(steep, (conormal_recover, energy_report)),
                        (geometric_ladder(1e-3, 1.02, 400),
                         (conormal_recover, energy_report, doubling))]:
        assert dec.n_dof * len(ys) >= 25 * extension.K_CHUNK
        for follow in (lambda ext: None,) + follows:
            peak = _traced_peak(lambda: follow(extend(dec, 0.5, u, ys)))
            peaks.append(peak / (8 * dec.n_dof * len(ys)))
    assert EXTENSION_WORKING_SET - 1.0 < max(peaks) <= EXTENSION_WORKING_SET


@pytest.mark.parametrize("cols", [100, 400])
def test_bessel_term_loops_hold_a_fixed_chunk_of_work(cols):
    # beyond its output, _z_power_bessel_k holds about 10 arrays of K_CHUNK entries
    # (1.3 MB) whatever the size of z or how many nodes its trapezoid sums take
    z = np.geomspace(1e-4, 1.9, 1024)[:, None] * np.ones(cols)
    work = _traced_peak(lambda: _z_power_bessel_k(0.5, 0.5, z)) - z.nbytes
    assert 0 < work <= 20 * 8 * extension.K_CHUNK


def test_chunked_bessel_k_is_bit_identical_to_column_by_column():
    # K_CHUNK / 4 rows make chunks of 4 columns. A chunk steps to the most nodes any of its
    # entries needs: 28 for columns 4-7, where column 7 needs 12-15, and the mask keeps
    # every entry's sum to its own nodes
    z = (np.sqrt(np.linspace(1.0, 4.0, extension.K_CHUNK // 4))[:, None]
         * (1e-3 * 3.0 ** np.arange(12))[None, :])
    for nu in (0.1, 0.4, 0.9):
        whole = _z_power_bessel_k(0.4, nu, z)
        columns = np.hstack([_z_power_bessel_k(0.4, nu, z[:, [k]]) for k in range(12)])
        assert np.array_equal(whole.view(np.uint64), columns.view(np.uint64))


# --- weak form ---------------------------------------------------------------

def test_weak_residual_zero_field():
    _, dec = bump_dec(n=32)
    ext = extend(dec, 0.5, np.zeros(dec.n_dof))
    tests = make_weak_test_bumps(dec.source.grid, ext.y_nodes)
    assert weak_residual(ext, tests) == 0.0


def single_mode_residual(n, n_ladder):
    g = build_grid(1, n, 8.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    u = eigenvectors(dec)[:, 3]
    ys = geometric_ladder(1e-3, 1.35 ** (60.0 / n_ladder), n_ladder)
    ext = extend(dec, 0.5, u, ys)
    return ext, weak_residual(ext, make_weak_test_bumps(g, ys, count=3, seed=0))


def test_weak_residual_decreases_under_refinement():
    _, coarse = single_mode_residual(32, 60)
    _, fine = single_mode_residual(64, 120)
    assert fine <= coarse / 2.0


def test_weak_residual_detects_corruption():
    ext, clean = single_mode_residual(32, 60)
    tests = make_weak_test_bumps(ext.decomposition.source.grid, ext.y_nodes, count=3, seed=0)
    # corrupt with amplitude 1e-2 relative to the solution's energy norm along
    # a direction the probe can see; rough white noise has unbounded weighted
    # energy and would swamp the normalization instead
    w = tests[0] * np.sqrt(ladder_energy(ext, ext.values) / ladder_energy(ext, tests[0]))
    corrupted = ExtensionField(
        base=ext.base, alpha=ext.alpha, y_nodes=ext.y_nodes,
        values=ext.values + 1e-2 * w, decomposition=ext.decomposition,
    )
    noisy = weak_residual(corrupted, tests)
    assert noisy >= 10.0 * clean


# --- export ------------------------------------------------------------------

def test_extension_export_csv(tmp_path):
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
