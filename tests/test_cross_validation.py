"""Dual-route checks pitting independent algorithms against each other."""

import numpy as np
import pytest
import scipy.linalg

from fracspec.evolution import (
    gradient_nonlinearity,
    picard_solve,
    polynomial_nonlinearity,
    viscous_solve,
)
from fracspec.extension import conormal_recover
from fracspec.gridop import assemble, build_grid, make_coefficients
from fracspec.spectral import (
    apply_function,
    eigendecompose,
    fractional_power,
    laplacian_symbol,
    unitary_propagate,
)


def bump_operator(n=21, x=4.0):
    g = build_grid(1, n, x, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.6, "w": 1.5, "c_amp": 0.3})
    return g, assemble(g, f)


def test_heat_semigroup_against_pade_exponential():
    # scipy.linalg.expm is Pade-based, independent of the eigh route
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(dec.n_dof)
    for t in (0.05, 0.5, 2.0):
        ours = apply_function(dec, np.exp(-t * dec.spectrum), f)
        pade = scipy.linalg.expm(-t * op.matrix) @ f
        assert np.linalg.norm(ours - pade) <= 1e-10 * np.linalg.norm(f)


def test_fractional_power_against_schur_route():
    # scipy's fractional_matrix_power uses a Schur-Pade algorithm
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(dec.n_dof)
    for alpha in (0.3, 0.5, 1.7):
        ours = fractional_power(dec, alpha, f)
        schur = np.real(scipy.linalg.fractional_matrix_power(op.matrix, alpha)) @ f
        assert np.linalg.norm(ours - schur) <= 1e-8 * np.linalg.norm(schur)


def test_unitary_propagator_against_complex_exponential():
    _, op = bump_operator(n=17)
    dec = eigendecompose(op)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(dec.n_dof).astype(complex)
    alpha, t = 0.5, 0.7
    half = np.real(scipy.linalg.fractional_matrix_power(op.matrix, alpha))
    pade = scipy.linalg.expm(1j * t * half) @ f
    ours = unitary_propagate(dec, alpha, t, f)
    assert np.linalg.norm(ours - pade) <= 1e-9 * np.linalg.norm(f)


def test_picard_and_viscous_schemes_agree_at_zero_viscosity():
    # same flow, two unrelated integrators: global fixed point on the
    # Duhamel form vs stepwise exponential predictor-corrector
    g, op = bump_operator(n=33)
    dec = eigendecompose(op)
    u0 = 0.3 * np.exp(-(g.dof_nodes() ** 2).sum(axis=1) / 2.0)
    alpha, t_final, dt = 0.5, 0.05, 5e-4
    cubic_p = polynomial_nonlinearity([(1.0, (2, 1))])
    cubic_q = gradient_nonlinearity([(1j, (2, 1, 0, 0))], dim=1)
    a = picard_solve(dec, alpha, u0, cubic_p, t_final, dt, tol=1e-13)
    b = viscous_solve(dec, alpha, 0.0, u0, cubic_q, t_final, dt)
    gap = np.abs(a.states[-1] - b.states[-1]).max()
    assert gap <= 100.0 * dt**2


def test_conormal_recovery_against_fft_route_on_periodic_grid():
    g = build_grid(1, 64, 8.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    x = g.nodes().ravel()
    u = 1.0 + np.exp(-(x**2) / 2.0)  # nonzero mean exercises the zero mode
    for alpha in (0.25, 0.5, 0.75):
        rec = conormal_recover(dec, alpha, u)
        oracle = np.fft.ifft(laplacian_symbol(g) ** alpha * np.fft.fft(u)).real
        rel = np.linalg.norm(rec - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-3


def test_extension_recovery_in_two_dimensions():
    g = build_grid(2, 14, 4.0, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.5, "w": 1.5})
    dec = eigendecompose(assemble(g, f))
    u = np.exp(-(g.dof_nodes() ** 2).sum(axis=1) / 2.0)
    for alpha in (0.4, 0.6):
        rec = conormal_recover(dec, alpha, u, 1e-3, 1.2)
        oracle = fractional_power(dec, alpha, u)
        assert np.linalg.norm(rec - oracle) <= 1e-3 * np.linalg.norm(oracle)
