import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fracspec.evolution import (
    BLOWUP_FACTOR,
    PICARD_WORKING_SET,
    VISCOUS_WORKING_SET,
    BlowUpError,
    Nonlinearity,
    PicardConvergenceError,
    _evaluate_terms,
    _time_grid,
    check_energy_hypothesis,
    differentiate_terms,
    estimate_t_star,
    gradient_nonlinearity,
    kato_ponce_check,
    picard_solve,
    polynomial_nonlinearity,
    t_star_from_radius,
    viscosity_convergence,
    viscous_solve,
)
from fracspec.gridop import assemble, build_grid, centered_gradient, make_coefficients
from fracspec.spectral import (
    eigendecompose,
    laplacian_symbol,
    sobolev_norm,
    unitary_propagate,
)
from oracles import measure_lipschitz_constant, measure_scheme_constant, physical_equation_residual

CUBIC = polynomial_nonlinearity([(1.0, (2, 1))])  # |z|^2 z
ZERO_P = polynomial_nonlinearity([])


def scalar_dec(lam=2.0):
    """The one-dof operator L = [lam]: 1-D Dirichlet n = 3 on [-1, 1] (h = 1), a = lam/2, c = 0."""
    g = build_grid(1, 3, 1.0, "dirichlet")
    field = make_coefficients(g, "tabulated", {"a": np.full(3, lam / 2.0), "c": np.zeros(3)})
    return eigendecompose(assemble(g, field))


def grid_dec(n=33, x=8.0, kind="identity", params=None):
    g = build_grid(1, n, x, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, kind, params or {})))
    return g, dec


def smooth_state(g, width=2.0, amp=1.0):
    return amp * np.exp(-(g.dof_nodes() ** 2).sum(axis=1) / width)


# --- nonlinearity bookkeeping -------------------------------------------------

def test_polynomial_degrees_and_validation():
    p = polynomial_nonlinearity([(1.0, (2, 1)), (0.5j, (0, 5))])
    assert (p.n1, p.n2) == (3, 5)
    # the pure power is the nonlinearity with no derivative variables, where the energy
    # hypothesis holds vacuously
    for q in (p, ZERO_P):
        assert q.dim == 0 and q.energy_hypothesis is True and not hasattr(q, "kind")
    with pytest.raises(ValueError, match="degree"):
        polynomial_nonlinearity([(1.0, (1, 0))])
    with pytest.raises(ValueError, match="length"):
        polynomial_nonlinearity([(1.0, (1, 1, 1))])


def test_zero_nonlinearity_evaluates_to_zero():
    assert not ZERO_P.terms
    out = ZERO_P.evaluate(np.ones(5, dtype=complex), build_grid(1, 7, 1.0, "dirichlet"))
    assert np.all(out == 0)


def test_cubic_evaluation_pointwise():
    z = np.array([1 + 1j, 2.0, -1j])
    out = CUBIC.evaluate(z, build_grid(1, 5, 1.0, "dirichlet"))
    assert np.allclose(out, np.abs(z) ** 2 * z)


def test_gradient_nonlinearity_refuses_a_grid_of_another_dimension():
    # zip(variables, powers) would pair d/dx_2 with the power of d conj z/dx_1
    q = gradient_nonlinearity([(1.0, (0, 0, 0, 2))])  # (d conj z/dx)^2 in 1-D
    g2 = build_grid(2, 6, 1.0, "dirichlet")
    with pytest.raises(ValueError, match="a 1-D gradient nonlinearity on a 2-D grid"):
        q.evaluate(np.ones(g2.n_dof, dtype=complex), g2)
    q2 = gradient_nonlinearity([(1.0, (0, 0, 0, 0, 2, 0))], dim=2)  # (d conj z/dx_1)^2
    z = np.arange(g2.n_dof) * (1 + 2j)
    assert np.array_equal(q2.evaluate(z, g2), np.conj(centered_gradient(g2, z)[0]) ** 2)
    # a pure power has no derivative variables, so it takes a grid of any dimension
    assert np.allclose(CUBIC.evaluate(z, g2), np.abs(z) ** 2 * z, rtol=1e-14)


def test_energy_hypothesis_single_terms():
    # Q = (u + conj u) du/dx passes; Q = u du/dx fails
    passing = gradient_nonlinearity([(1.0, (1, 0, 1, 0)), (1.0, (0, 1, 1, 0))], dim=1)
    failing = gradient_nonlinearity([(1.0, (1, 0, 1, 0))], dim=1)
    assert passing.energy_hypothesis is True
    assert failing.energy_hypothesis is False


def test_energy_hypothesis_counts_the_gradient_power():
    # Q = z g^2 + 2 conj(z) g conj(g) has dQ/dg = 2 z g + 2 conj(z conj g) = 4 Re(z g), real
    # only when the derivative of g^2 carries its factor 2
    q = gradient_nonlinearity([(1.0, (1, 0, 2, 0)), (2.0, (0, 1, 1, 1))], dim=1)
    assert q.energy_hypothesis is True


def test_energy_hypothesis_tolerance_is_relative_to_the_coefficients():
    # Q = a z g + b conj(z) g has dQ/dg = a z + b conj z, real when b = conj(a); a mismatch
    # of 1e-13 relative is roundoff at any scale, here 1e-7 absolute on coefficients of 1e6
    a = 1e6
    q = gradient_nonlinearity([(a, (1, 0, 1, 0)), (a * (1 + 1e-13), (0, 1, 1, 0))], dim=1)
    assert q.energy_hypothesis is True
    q = gradient_nonlinearity([(a, (1, 0, 1, 0)), (a * (1 + 1e-6), (0, 1, 1, 0))], dim=1)
    assert q.energy_hypothesis is False


def test_energy_hypothesis_matches_symbolic_differentiation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        powers = tuple(rng.integers(0, 3, size=4))
        if sum(powers) < 2:
            continue
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        term = [(coeff, powers)]
        # symbolic: d/d(dz) of the single term is real for all states iff the
        # term with dz-power reduced is conjugation-symmetric with real coeff
        dterms = differentiate_terms(term, 2)
        expected = True
        if dterms:
            (dc, dp), = dterms
            # real-valued iff p_z == p_zbar, p_dz == p_dzbar and coeff real
            expected = (dp[0] == dp[1] and dp[2] == dp[3] and abs(dc.imag) < 1e-15)
        assert check_energy_hypothesis(tuple(term), 1) == expected


def sampled_energy_hypothesis(terms, dim, n_samples=64, tol=1e-10):
    """Oracle: whether every dQ/d(dz_j) is real at seeded random conjugate-consistent states."""
    rng = np.random.default_rng(0)
    for j in range(dim):
        dterms = differentiate_terms(terms, 2 + j)
        if not dterms:
            continue
        z, *grads = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
                     for _ in range(1 + dim))
        vals = _evaluate_terms(dterms, [z, np.conj(z)] + grads + [np.conj(g) for g in grads])
        if np.abs(vals.imag).max() > tol * max(1.0, np.abs(vals).max()):
            return False
    return True


def _random_terms(rng, dim):
    """A random term set; half of them have real derivatives by construction.

    Those are R(z, conj z, conj g) + sum_j g_j T_j(z, conj z) with every T_j
    real: each T_j term comes with its mirror, whose coefficient is conjugated.
    """
    n_vars = 2 + 2 * dim
    if rng.random() < 0.5:
        return tuple((complex(*rng.standard_normal(2)), tuple(rng.integers(0, 3, n_vars)))
                     for _ in range(rng.integers(1, 5)))
    terms = []
    for _ in range(rng.integers(0, 3)):  # R: no power of any g_j
        powers = np.zeros(n_vars, dtype=int)
        powers[[0, 1, *range(2 + dim, n_vars)]] = rng.integers(0, 3, 2 + dim)
        terms.append((complex(*rng.standard_normal(2)), tuple(powers)))
    for j in range(dim):
        for _ in range(rng.integers(0, 3)):
            a, b = rng.integers(0, 3, 2)
            coeff = complex(*rng.standard_normal(2))
            for (pa, pb), c in (((a, b), coeff), ((b, a), coeff.conjugate())):
                powers = np.zeros(n_vars, dtype=int)
                powers[[0, 1, 2 + j]] = pa, pb, 1
                terms.append((c, tuple(powers)))
    return tuple(terms)


CHECKED_TERM_SETS = [
    ([(1.0, (1, 0, 1, 0)), (1.0, (0, 1, 1, 0))], 1, True),
    ([(1.0, (1, 0, 1, 0))], 1, False),
    ([(0.5, (2, 0, 1, 0)), (1.0, (1, 1, 1, 0)), (0.5, (0, 2, 1, 0))], 1, True),
    ([(1j, (2, 1, 0, 0))], 1, True),  # no gradient: nothing to differentiate
    ([(1.0, (1, 0, 1, 0)), (-1.0, (1, 0, 1, 0)), (1.0, (1, 1, 1, 0))], 1, True),  # merged
    ([(1.0, (1, 0, 0, 1, 0, 0)), (1.0, (0, 1, 0, 1, 0, 0))], 2, True),
    ([(1.0, (1, 0, 0, 1, 0, 0))], 2, False),
    ([(1.0, (0, 0, 1, 1, 0, 0)), (1.0, (0, 0, 0, 0, 1, 1))], 2, False),
    ([(1.0, (1, 0, 1, 0, 0, 0)), (1.0, (0, 1, 1, 0, 0, 0)), (1.0, (1, 0, 0, 1, 0, 0)),
      (1.0, (0, 1, 0, 1, 0, 0))], 2, True),  # (z + conj z)(dz_x + dz_y)
]


# d/d(dz_x) = |z|^32 + i conj(dz_x): the real part dwarfs the nonreal one at
# every sampled state, so only the coefficients show that it is not real
DWARFED = {1: ((1.0, (16, 16, 1, 0)), (1j, (0, 0, 1, 1))),
           2: ((1.0, (16, 16, 1, 0, 0, 0)), (1j, (0, 0, 1, 0, 1, 0)))}


@pytest.mark.parametrize("dim", [1, 2])
def test_energy_hypothesis_closed_form_matches_sampled_oracle(dim):
    for terms, term_dim, expected in CHECKED_TERM_SETS:
        if term_dim == dim:
            assert check_energy_hypothesis(terms, dim) is expected
            assert sampled_energy_hypothesis(terms, dim) is expected
    rng = np.random.default_rng(dim)
    outcomes = []
    for _ in range(300):
        terms = _random_terms(rng, dim)
        outcomes.append(check_energy_hypothesis(terms, dim))
        assert outcomes[-1] is sampled_energy_hypothesis(terms, dim), terms
    assert 30 < sum(outcomes) < 270  # both outcomes are well represented
    # the closed form is exact where sampling is not
    assert sampled_energy_hypothesis(DWARFED[dim], dim) is True
    assert check_energy_hypothesis(DWARFED[dim], dim) is False


# --- contraction horizon -------------------------------------------------------

def test_t_star_formula():
    assert t_star_from_radius(1.0, 3, 3, 1.0) == pytest.approx(1.0 / 16.0)
    # 2 c T (R^2 + R^2) = 1/4 at R = 1, c = 1/2: T = 1/8
    assert t_star_from_radius(1.0, 3, 3, 0.5) == pytest.approx(1.0 / 8.0)


def test_t_star_shrinks_with_data_size():
    # doubling |u0| with N1 = N2 = 3 multiplies R^2 by 4
    t1 = t_star_from_radius(1.0, 3, 3, 1.0)
    t2 = t_star_from_radius(2.0, 3, 3, 1.0)
    assert t2 == pytest.approx(t1 / 4.0)


def test_t_star_of_the_zero_polynomial_is_infinite():
    # P = 0 has degrees N1 = N2 = 0: its linear flow is global, at any data size
    assert ZERO_P.n1 == ZERO_P.n2 == 0
    assert t_star_from_radius(1e3, 0, 0, 1.0) == math.inf


def test_estimate_t_star_zero_data_is_infinite():
    g, _ = grid_dec()
    assert estimate_t_star(np.zeros(g.n_dof), 2, 3, 3, 1.0, grid=g) == math.inf


def test_estimate_t_star_uses_sobolev_norm():
    g, _ = grid_dec()
    u = smooth_state(g)
    t = estimate_t_star(u, 2, 3, 3, 1.0, grid=g)
    assert 0 < t < math.inf
    # the radius is R = 8 c |u0|_s: at c = 1/2, R = 4 |u0|_s and T = 1 / (8 R^2)
    radius = 4.0 * sobolev_norm(g, 2, u)
    assert estimate_t_star(u, 2, 3, 3, 0.5, grid=g) == pytest.approx(1.0 / (8.0 * radius**2))


def test_measured_scheme_constant_scalar_cubic():
    # one dof with h = 1 has |f|_2 = 3|f|, so |P(f)|_2 / (2 |f|_2^3) = 3 / (2 * 27) = 1/18
    grid = scalar_dec().source.grid
    probes = [np.array([z]) for z in (0.5, 1.0 + 0.3j, 2.0j)]
    assert measure_scheme_constant(CUBIC, 2, probes, grid=grid) == pytest.approx(1.0 / 18.0)


def test_measured_constants_on_grid():
    g, _ = grid_dec()
    rng = np.random.default_rng(1)
    probes = [smooth_state(g, width=w, amp=a)
              for w, a in zip((1.0, 2.0, 4.0), (0.5, 1.0, 2.0))]
    c_a = measure_scheme_constant(CUBIC, 2, probes, grid=g)
    pairs = [(probes[0], probes[1]), (probes[1], probes[2])]
    c_b = measure_lipschitz_constant(CUBIC, 2, pairs, grid=g)
    assert c_a > 0 and c_b > 0


# --- Picard scheme --------------------------------------------------------------

def test_picard_linear_flow_matches_unitary_snapshots():
    g, dec = grid_dec()
    u0 = smooth_state(g)
    # the linear flow is global: no horizon warning, and one sweep that changes nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = picard_solve(dec, 0.5, u0, ZERO_P, t_final=0.5, dt=0.05, max_iter=1, c_est=1.0)
    assert traj.picard_residual_history == (0.0,)
    assert np.all(traj.monitors["picard_iterations"] == 1.0)
    for k, t in enumerate(traj.times):
        exact = unitary_propagate(dec, 0.5, t, u0.astype(complex))
        assert np.linalg.norm(traj.states[k] - exact) <= 1e-9 * np.linalg.norm(u0)
    l2 = traj.monitors["l2_norm"]
    assert np.abs(l2 / l2[0] - 1.0).max() <= 1e-10


def test_picard_scalar_oracle_phase_rotation():
    # 1x1 operator: i u' + lam^a u + |u|^2 u = 0 has u = u0 e^{i (lam^a + |u0|^2) t}
    lam, alpha = 2.0, 0.5
    dec = scalar_dec(lam)
    u0 = np.array([0.8 + 0.0j])
    traj = picard_solve(dec, alpha, u0, CUBIC, t_final=0.1, dt=1e-4, tol=1e-13)
    omega = lam**alpha + abs(u0[0]) ** 2
    exact = u0[0] * np.exp(1j * omega * traj.times)
    err = np.abs(traj.states[:, 0] - exact).max()
    assert err <= 1e-6


def test_picard_residual_contraction_under_t_star():
    lam, alpha, s = 2.0, 0.5, 2.0
    dec = scalar_dec(lam)
    u0 = np.array([0.6 + 0.2j])
    c_est = 0.5
    t_star = estimate_t_star(u0, s, 3, 3, c_est, grid=dec.source.grid)
    traj = picard_solve(dec, alpha, u0, CUBIC, t_final=t_star, dt=t_star / 200,
                        tol=1e-12, c_est=c_est)
    hist = np.asarray(traj.picard_residual_history)
    ratios = hist[1:] / hist[:-1]
    # drop ratios measured at the roundoff floor
    live = ratios[hist[:-1] > 1e-11]
    assert np.all(live <= 0.5)


def test_picard_gauge_covariance():
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g).astype(complex) * 0.3
    phase = np.exp(1j * 0.7)
    t1 = picard_solve(dec, 0.5, u0, CUBIC, t_final=0.05, dt=0.005)
    t2 = picard_solve(dec, 0.5, phase * u0, CUBIC, t_final=0.05, dt=0.005)
    assert np.abs(t2.states - phase * t1.states).max() <= 1e-8


@pytest.mark.parametrize("scheme", ["picard", "viscous"])
def test_sobolev_monitor_is_the_sobolev_norm_on_the_operator_grid(scheme):
    # one dof with h = 1: the Bessel symbol is 1 + 2, so |u|_2 = 3|u| and |u|_l2 = |u|
    dec = scalar_dec(2.0)
    u0 = np.array([0.8 + 0.0j])
    traj = (picard_solve(dec, 0.5, u0, CUBIC, t_final=0.05, dt=1e-3) if scheme == "picard"
            else viscous_solve(dec, 0.5, 0.05, u0, CUBIC, t_final=0.05, dt=1e-3))
    monitor, grid = traj.monitors["sobolev_norm_s"], dec.source.grid
    # Picard takes the norms of all states in one batch; viscous_solve keeps its per-step ones
    assert np.array_equal(monitor, sobolev_norm(grid, 2, traj.states.T) if scheme == "picard"
                          else [sobolev_norm(grid, 2, u) for u in traj.states])
    np.testing.assert_allclose(monitor, 3.0 * np.abs(traj.states[:, 0]), rtol=1e-14)
    np.testing.assert_allclose(traj.monitors["l2_norm"], np.abs(traj.states[:, 0]), rtol=1e-14)


def test_picard_nonconvergence_carries_history():
    # the residual grows on sweeps 2 and 3, so the iteration stops at sweep 3,
    # long before the diverging iterates overflow (the suite errors on RuntimeWarning)
    dec = scalar_dec(1.0)
    u0 = np.array([3.0 + 0.0j])  # far above any contraction ball for T = 1
    with pytest.raises(PicardConvergenceError) as err:
        with pytest.warns(UserWarning, match="contraction"):
            picard_solve(dec, 0.5, u0, CUBIC, t_final=1.0, dt=0.01,
                         max_iter=12, c_est=0.5)
    hist = err.value.residual_history
    assert len(hist) == 3
    assert hist[0] < hist[1] < hist[2] < 1e20
    assert err.value.contraction_ratios == pytest.approx([hist[1] / hist[0], hist[2] / hist[1]])
    assert min(err.value.contraction_ratios) > 1.0  # residuals grow instead of contracting


def test_picard_equation_residual_within_dt_squared():
    lam, alpha = 2.0, 0.5
    dec = scalar_dec(lam)
    u0 = np.array([0.5 + 0.0j])
    dt = 1e-3
    traj = picard_solve(dec, alpha, u0, CUBIC, t_final=0.05, dt=dt, tol=1e-13)
    assert traj.monitors["equation_residual"][1:-1].max() <= 10.0 * dt**2


@pytest.mark.parametrize("dim, n, boundary, width, amp, dts", [
    (1, 258, "dirichlet", 0.5, 0.5, (0.0025, 0.00125)),
    (2, 14, "dirichlet", 2.0, 0.3, (0.005, 0.0025)),
    (2, 14, "periodic", 2.0, 0.3, (0.005, 0.0025)),
], ids=["1d_dirichlet", "2d_dirichlet", "2d_periodic"])
def test_picard_equation_residual_falls_fourfold_when_dt_halves(dim, n, boundary, width, amp,
                                                                dts):
    # the residual measures the trapezoid's O(dt^2) error in Duhamel's integral
    g = build_grid(dim, n, 8.0, boundary)
    bump = {"s": 0.7, "w": 2.0, "c_amp": 0.4}
    if dim == 2:
        bump["M"] = [[1.0, 0.4], [0.4, 0.8]]
    dec = eigendecompose(assemble(g, make_coefficients(g, "radial_bump", bump)))
    u0 = smooth_state(g, width=width, amp=amp)
    coarse, fine = (picard_solve(dec, 1.0, u0, CUBIC, t_final=0.1, dt=dt)
                    .monitors["equation_residual"][1:-1].max() for dt in dts)
    assert coarse / fine >= 3.5


def _traced_peak(solve):
    """``solve()`` and its peak traced memory in bytes."""
    tracemalloc.start()
    try:
        result = solve()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_working_set_matches_tracemalloc_peak():
    # the parse-time memory guard charges a Picard run PICARD_WORKING_SET state arrays
    g, dec = grid_dec(n=66)
    u0 = 0.2 * np.exp(-g.dof_nodes().ravel() ** 2 / 2.0)
    traj, peak = _traced_peak(lambda: picard_solve(dec, 0.5, u0, CUBIC, t_final=2.0, dt=1e-3))
    assert len(traj.picard_residual_history) > 1
    assert PICARD_WORKING_SET - 1.0 < peak / traj.states.nbytes <= PICARD_WORKING_SET


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_picard_rejects_a_tol_that_is_not_positive(tol):
    # no sweep difference is below it, so the iteration would run out its max_iter sweeps
    g, dec = grid_dec(n=17)
    with pytest.raises(ValueError, match="tol must be > 0"):
        picard_solve(dec, 0.5, smooth_state(g), ZERO_P, 0.1, 0.01, tol=tol)


def test_picard_rejects_max_iter_below_one():
    g, dec = grid_dec(n=17)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(dec, 0.5, smooth_state(g), CUBIC, 0.1, 0.01, max_iter=0)


@pytest.mark.parametrize("t_final, dt", [
    (1e300, 1e-300),  # each finite, the step count not
    (math.inf, 0.01), (0.1, math.inf), (math.nan, 0.01), (0.1, math.nan), (0.1, 0.0), (-0.1, 0.01),
    (0.0, 0.01),
])
def test_solvers_reject_a_time_grid_without_a_finite_step_count(t_final, dt):
    g, dec = grid_dec(n=17)
    match = "t_final, dt and t_final / dt must be positive and finite"
    with pytest.raises(ValueError, match=match):
        _time_grid(t_final, dt)
    with pytest.raises(ValueError, match=match):
        picard_solve(dec, 0.5, smooth_state(g), CUBIC, t_final, dt)
    with pytest.raises(ValueError, match=match):
        viscous_solve(dec, 0.5, 0.0, smooth_state(g), ZERO_P, t_final, dt)


@pytest.mark.parametrize("c_est", [0.0, -1.0, math.nan])
def test_picard_horizon_rejects_a_c_est_that_is_not_positive(c_est):
    # a NaN horizon fails no comparison, so the horizon check would pass silently
    g, dec = grid_dec(n=17)
    with pytest.raises(ValueError, match="c_est must be > 0"):
        t_star_from_radius(1.0, 2, 3, c_est)
    with pytest.raises(ValueError, match="c_est must be > 0"):
        picard_solve(dec, 0.5, smooth_state(g), CUBIC, 0.1, 0.01, c_est=c_est)


@pytest.mark.parametrize("epsilons", [[math.nan, 0.1], [0.1, math.nan]])
def test_viscosity_convergence_rejects_a_nan_epsilon(epsilons):
    g, dec = grid_dec(n=9)
    with pytest.raises(ValueError, match="epsilons must be two or more nonincreasing"):
        viscosity_convergence(dec, 0.5, smooth_state(g), ZERO_P, 0.1, epsilons, 0.01)


def test_viscous_working_set_matches_tracemalloc_peak():
    # the parse-time memory guard charges a viscous run VISCOUS_WORKING_SET state
    # arrays, and viscosity_convergence one more per further viscosity
    g, dec = grid_dec(n=66)
    u0 = 0.2 * np.exp(-g.dof_nodes().ravel() ** 2 / 2.0)
    q = gradient_nonlinearity([(1.0, (2, 1, 0, 0))], dim=1)
    traj, peak = _traced_peak(lambda: viscous_solve(dec, 0.5, 0.05, u0, q, t_final=0.5,
                                                    dt=1e-3))
    assert VISCOUS_WORKING_SET - 1.0 < peak / traj.states.nbytes <= VISCOUS_WORKING_SET
    epsilons = [0.1, 0.05]
    _, peak = _traced_peak(lambda: viscosity_convergence(
        dec, 0.5, u0, q, t_final=0.5, epsilons=epsilons, dt=1e-3))
    charged = VISCOUS_WORKING_SET + len(epsilons) - 1
    assert charged - 1.0 < peak / traj.states.nbytes <= charged


@pytest.mark.parametrize("c_est", [0.0, -1.0, float("nan")])
def test_viscous_schemes_reject_a_c_est_that_is_not_positive(c_est):
    # c_est scales the blow-up envelope 8 c |u0|_s, which must be positive
    g, dec = grid_dec(n=17)
    q = gradient_nonlinearity([(5j, (3, 2, 0, 0))], dim=1)
    with pytest.raises(ValueError, match="c_est"):
        viscous_solve(dec, 0.5, 0.0, smooth_state(g), q, 0.1, 0.01, c_est=c_est)
    with pytest.raises(ValueError, match="c_est"):
        viscosity_convergence(dec, 0.5, smooth_state(g), q, 0.1, [0.1, 0.05], 0.01, c_est=c_est)


def test_viscous_blowup_guard_fires_on_a_nan_state():
    # Q(u0) overflows in the first step, so u_1 is NaN; the guard fires there
    g, dec = grid_dec(n=17)
    q = gradient_nonlinearity([(5j, (3, 2, 0, 0))], dim=1)
    with pytest.raises(BlowUpError) as err:
        with np.errstate(over="ignore", invalid="ignore"):
            viscous_solve(dec, 0.5, 0.0, 1e70 * smooth_state(g), q, 0.05, 0.01)
    assert err.value.t == 0.01 and np.isnan(err.value.norm)


def test_picard_rejects_gradient_nonlinearity():
    g, dec = grid_dec(n=17)
    q = gradient_nonlinearity([(1.0, (1, 0, 1, 0))], dim=1)
    with pytest.raises(ValueError, match="polynomial"):
        picard_solve(dec, 0.5, smooth_state(g), q, 0.1, 0.01)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("eps", [None, 0.05])
def test_equation_residual_matches_closed_form_for_exact_propagator(boundary, eps):
    # with P = Q = 0 both schemes return the exact propagator V e^{sigma t} V^T u0, which
    # the midpoint rule of Duhamel's formula, (v_{k+1} - e^{2 sigma dt} v_{k-1}) / (2 dt),
    # reproduces: the residual's per-mode closed form is 0, so only roundoff is left
    g = build_grid(1, 17, 8.0, boundary)
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    u0 = np.random.default_rng(5).standard_normal(dec.n_dof)
    alpha, dt = 0.5, 0.01
    lam = dec.spectrum
    if eps is None:
        traj = picard_solve(dec, alpha, u0, ZERO_P, t_final=0.1, dt=dt)
        sigma = 1j * lam**alpha
    else:
        traj = viscous_solve(dec, alpha, eps, u0, ZERO_P, t_final=0.1, dt=dt)
        sigma = -eps * lam**2 + 1j * lam**alpha
    exact = np.exp(np.outer(traj.times, sigma)) * dec.to_modes(u0)
    np.testing.assert_allclose(traj.states, dec.from_modes(exact.T).T, rtol=0, atol=1e-13)
    # each of the residual's terms has the size |u0|_h / dt
    term = np.linalg.norm(u0) * g.spacing ** 0.5 / dt
    assert np.all(traj.monitors["equation_residual"] <= 1e-14 * term)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_modal_equation_residual_matches_physical_oracle(boundary):
    # the solvers difference modal coefficients; the oracle differences the
    # physical states and applies V diag(symbol) V^T, as the solvers once did
    g = build_grid(1, 33, 8.0, boundary)
    dec = eigendecompose(assemble(g, make_coefficients(g, "radial_bump",
                                                       {"s": 0.7, "w": 2.0, "c_amp": 0.4})))
    u0 = smooth_state(g, amp=0.5)
    lam, alpha, eps = dec.spectrum, 0.5, 0.05
    q = gradient_nonlinearity([(0.25, (2, 0, 1, 0)), (0.5, (1, 1, 1, 0)),
                               (0.25, (0, 2, 1, 0))], dim=1)
    runs = [
        (picard_solve(dec, alpha, u0, CUBIC, t_final=0.2, dt=0.005, tol=1e-12),
         1j * lam**alpha, lambda states: 1j * CUBIC.evaluate(states.T, g).T),
        # two steps: the one interior time is the shortest grid with a midpoint
        (picard_solve(dec, alpha, u0, CUBIC, t_final=0.01, dt=0.005, tol=1e-12),
         1j * lam**alpha, lambda states: 1j * CUBIC.evaluate(states.T, g).T),
        (viscous_solve(dec, alpha, eps, u0, q, t_final=0.2, dt=0.005),
         -eps * lam**2 + 1j * lam**alpha, lambda states: q.evaluate(states.T, g).T),
    ]
    for traj, symbol, forcing in runs:
        oracle = physical_equation_residual(dec, symbol, traj.states, traj.times,
                                            forcing(traj.states))
        assert oracle.max() > 0
        np.testing.assert_allclose(traj.monitors["equation_residual"], oracle,
                                   rtol=0, atol=1e-7 * oracle.max())


def test_solvers_evaluate_the_nonlinearity_once_per_state(monkeypatch):
    # viscous: the step's own state and its predictor, and no pass after the steps;
    # Picard: one batched evaluation per sweep, and one for the equation residual
    calls = []
    evaluate = Nonlinearity.evaluate

    def counted(self, states, grid):
        calls.append(np.shape(states))
        return evaluate(self, states, grid)

    monkeypatch.setattr(Nonlinearity, "evaluate", counted)
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g, amp=0.3)
    for q in (gradient_nonlinearity([(1.0, (2, 1, 0, 0))], dim=1), ZERO_P):
        traj = viscous_solve(dec, 0.5, 0.05, u0, q, t_final=0.1, dt=0.01)
        assert len(calls) == 2 * (len(traj.times) - 1)  # the empty sum takes the same path
        assert set(calls) == {(dec.n_dof,)}
        calls.clear()
    traj = picard_solve(dec, 0.5, u0, CUBIC, t_final=0.1, dt=0.01)
    assert len(calls) == len(traj.picard_residual_history) + 1
    assert set(calls) == {(dec.n_dof, len(traj.times))}


# --- viscous scheme --------------------------------------------------------------

def test_viscous_zero_q_zero_eps_is_unitary():
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    traj = viscous_solve(dec, 0.5, 0.0, u0, ZERO_P, t_final=0.3, dt=0.01)
    l2 = traj.monitors["l2_norm"]
    assert np.abs(l2 / l2[0] - 1.0).max() <= 1e-10


def test_viscous_zero_q_matches_per_mode_decay():
    g, dec = grid_dec(n=17)
    rng = np.random.default_rng(2)
    u0 = rng.standard_normal(dec.n_dof)
    eps, alpha = 0.05, 0.5
    traj = viscous_solve(dec, alpha, eps, u0, ZERO_P, t_final=0.4, dt=0.01)
    lam = dec.eigenvalues
    coeff0 = dec.to_modes(u0.astype(complex))
    for k in (10, 25, 40):
        t = traj.times[k]
        exact_modes = coeff0 * np.exp((-eps * lam**2 + 1j * lam**alpha) * t)
        exact = dec.from_modes(exact_modes)
        assert np.abs(traj.states[k] - exact).max() <= 1e-8


def test_viscous_l2_nonincreasing_with_dissipation():
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    traj = viscous_solve(dec, 0.5, 0.1, u0, ZERO_P, t_final=0.5, dt=0.01)
    l2 = traj.monitors["l2_norm"]
    assert np.all(np.diff(l2) <= 1e-12)


def test_viscous_requires_even_monitor_index():
    g, dec = grid_dec(n=17)
    with pytest.raises(ValueError, match="even"):
        viscous_solve(dec, 0.5, 0.1, smooth_state(g), ZERO_P, 0.1, 0.01, s=3)


def test_viscous_rejects_a_negative_monitor_index():
    # on a periodic grid L has a zero eigenvalue, where lam^{s/2} is singular for s < 0
    g = build_grid(1, 16, 4.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    with pytest.raises(ValueError, match="monitoring index s must be an even integer >= 0"):
        viscous_solve(dec, 0.5, 0.1, smooth_state(g), ZERO_P, 0.1, 0.01, s=-2)


def test_viscous_blowup_flag():
    # feed an envelope small enough that any state violates it
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    c_est = 1e-6
    with pytest.raises(BlowUpError) as excinfo:
        viscous_solve(dec, 0.5, 0.01, u0, ZERO_P, 0.1, 0.01, c_est=c_est)
    # the threshold is BLOWUP_FACTOR times the a-priori envelope 8 c |u0|_s (s = 2)
    assert excinfo.value.envelope == pytest.approx(BLOWUP_FACTOR * 8 * c_est
                                                   * sobolev_norm(g, 2, u0))


def test_viscous_error_at_t_falls_fourfold_per_halved_step():
    # the trapezoid Duhamel increment is second order: against a reference at dt / 32 the
    # error of the final state falls 3.98x and 4.04x when dt halves. A predictor that steps
    # the wrong way keeps the scheme consistent but falls 2.6x and 2.3x here; at a tenth of
    # the amplitude the gradient term is too weak for the order to show that
    g, dec = grid_dec(n=258, kind="radial_bump", params={"s": 0.7, "w": 2.0, "c_amp": 0.4})
    q = gradient_nonlinearity([(0.25, (2, 0, 1, 0)), (0.5, (1, 1, 1, 0)), (0.25, (0, 2, 1, 0))],
                              dim=1)
    u0 = 0.5 * np.exp(-g.dof_nodes().ravel() ** 2 / 0.25)
    dt = 0.0025

    def final(step):
        return viscous_solve(dec, 0.5, 0.05, u0, q, t_final=0.1, dt=step).states[-1]

    ref = final(dt / 32)
    errors = [np.linalg.norm(final(dt / 2**j) - ref) for j in range(3)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_viscous_small_data_keeps_energy_envelope():
    g, dec = grid_dec(n=33)
    u0 = 0.05 * smooth_state(g).astype(complex)
    q = gradient_nonlinearity(
        [(0.5, (2, 0, 1, 0)), (1.0, (1, 1, 1, 0)), (0.5, (0, 2, 1, 0))], dim=1
    )
    assert q.energy_hypothesis is True
    traj = viscous_solve(dec, 0.5, 0.05, u0, q, t_final=0.5, dt=0.005, c_est=1.0)
    assert traj.energy_flags == ()
    envelope = 8.0 * 1.0 * traj.monitors["sobolev_norm_s"][0]
    assert traj.monitors["sobolev_norm_s"].max() <= 10.0 * envelope


def test_viscous_monitors_at_s_zero_are_the_l2_norm():
    # s = 0 is an even index >= 0: |u|_0 is the weighted l2 norm, and |L^0 u| the plain one
    g, dec = grid_dec(n=17)
    traj = viscous_solve(dec, 0.5, 0.05, smooth_state(g), ZERO_P, 0.1, 0.01, s=0)
    l2 = traj.monitors["l2_norm"]
    np.testing.assert_allclose(traj.monitors["sobolev_norm_s"], l2, rtol=1e-13)
    np.testing.assert_allclose(traj.monitors["energy_half_s"] * np.sqrt(g.spacing), l2,
                               rtol=1e-13)
    # the linear viscous flow does not raise the energy, so no bound flags a step
    assert traj.energy_flags == ()


def test_viscous_energy_monitor_and_flags_match_a_per_step_loop():
    # the solver computes both after its steps, batched; this loop is the reference.
    # A strong quadratic Q pumps the energy past the bound on most steps, not all
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g, amp=0.1)
    q = gradient_nonlinearity([(8.0, (2, 0, 0, 0))], dim=1)
    dt, c_est = 0.01, 0.1
    traj = viscous_solve(dec, 0.5, 0.05, u0, q, t_final=0.2, dt=dt, s=2, c_est=c_est)
    energy = [np.linalg.norm(dec.spectrum * dec.to_modes(u)) for u in traj.states]
    np.testing.assert_allclose(traj.monitors["energy_half_s"], energy, rtol=1e-13)
    flags = []
    for k in range(1, len(traj.times)):
        norm_s = sobolev_norm(g, 2, traj.states[k])
        if (energy[k] - energy[k - 1]) / dt > 10.0 * c_est * (norm_s**2 + norm_s**2):
            flags.append(traj.times[k])
    assert 0 < len(flags) < len(traj.times) - 1
    assert traj.energy_flags == tuple(flags)


# --- vanishing viscosity -----------------------------------------------------------

def test_viscosity_convergence_zero_q_linear_rate():
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    table = viscosity_convergence(dec, 0.5, u0, ZERO_P, t_final=0.2,
                                  epsilons=[0.1, 0.05, 0.025, 0.0125],
                                  dt=0.01)
    assert table.r_squared >= 0.9
    assert table.k_est > 0
    # per-mode difference bound: |e^{-e lam^2 t} - e^{-e' lam^2 t}| <= (e-e') lam^2 t
    lam_max = dec.eigenvalues[-1]
    for e1, e2, sup in table.rows:
        assert sup <= (e1 - e2) * lam_max**2 * 0.2 * np.linalg.norm(u0) * 10


def test_viscosity_convergence_rows_are_h2_distances_with_a_fit_through_the_origin():
    # on the flat grid |f|_{2,2} = h^{1/2} |(1 + L) f|_2 exactly, L the identity-coefficient
    # stencil; the fit y = k x through the origin is a one-column least-squares problem
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    epsilons = [0.2, 0.1, 0.05]
    table = viscosity_convergence(dec, 0.5, u0, ZERO_P, 0.2, epsilons, 0.01)
    states = [viscous_solve(dec, 0.5, e, u0, ZERO_P, 0.2, 0.01).states for e in epsilons]
    op = dec.source
    for (e1, e2, sup), (i, j) in zip(table.rows, [(0, 1), (0, 2), (1, 2)]):
        diff = (states[i] - states[j]).T
        h2 = np.sqrt(g.spacing) * np.linalg.norm(diff + op.apply(diff), axis=0)
        assert (e1, e2) == (epsilons[i], epsilons[j])
        assert sup == pytest.approx(h2.max(), rel=1e-12)
    x = np.array([[e1 - e2] for e1, e2, _ in table.rows])
    y = np.array([sup for _, _, sup in table.rows])
    (k,), (ss_res,), _, _ = np.linalg.lstsq(x, y, rcond=None)
    assert table.k_est == pytest.approx(k, rel=1e-12)
    assert 0 < table.r_squared < 1
    assert table.r_squared == pytest.approx(1 - ss_res / (y @ y), rel=1e-12)


def test_viscosity_convergence_identical_epsilons():
    g, dec = grid_dec(n=9)
    u0 = smooth_state(g)
    table = viscosity_convergence(dec, 0.5, u0, ZERO_P, 0.1, [0.1, 0.1], 0.01)
    assert table.rows[0][2] == 0.0
    assert table.k_est == 0.0 and table.r_squared == 1.0


def test_viscosity_convergence_of_zero_data_is_an_exact_fit():
    # distinct epsilons, every distance 0: the fit through the origin has k = 0 and R^2 = 1
    g, dec = grid_dec(n=9)
    table = viscosity_convergence(dec, 0.5, np.zeros(g.n_dof), ZERO_P, 0.1, [0.1, 0.05], 0.01)
    assert table.rows == ((0.1, 0.05, 0.0),)
    assert table.k_est == 0.0 and table.r_squared == 1.0


def test_viscosity_convergence_rejects_increasing():
    g, dec = grid_dec(n=9)
    with pytest.raises(ValueError, match="nonincreasing"):
        viscosity_convergence(dec, 0.5, smooth_state(g), ZERO_P, 0.1,
                              [0.01, 0.1], 0.01)


def test_viscosity_convergence_cubic_gradient_q():
    g, dec = grid_dec(n=33)
    u0 = 0.1 * smooth_state(g)
    q = gradient_nonlinearity(
        [(0.25, (2, 0, 1, 0)), (0.5, (1, 1, 1, 0)), (0.25, (0, 2, 1, 0))], dim=1
    )
    table = viscosity_convergence(dec, 0.5, u0, q, t_final=0.2,
                                  epsilons=[0.1, 0.05, 0.025, 0.0125],
                                  dt=0.005)
    assert table.r_squared >= 0.9


# --- product estimate ---------------------------------------------------------------

def test_kato_ponce_constant_factor_case():
    g = build_grid(1, 32, 4.0, "periodic")
    rng = np.random.default_rng(3)
    f = np.exp(-g.nodes().ravel() ** 2)
    ratio = kato_ponce_check(g, 2.0, f, np.ones(g.n_dof))
    assert 0 < ratio <= 1.0


def test_kato_ponce_single_mode_closed_form():
    g = build_grid(1, 32, 4.0, "periodic")
    k = 3
    x = g.nodes().ravel()
    mode = np.exp(1j * 2 * np.pi * k * (x + g.half_length) / (2 * g.half_length))
    sym = laplacian_symbol(g)
    m_k, m_2k = sym[k], sym[2 * k]
    # f g is the single mode 2k: ratio = (1 + m_2k) / (2 (1 + m_k)) for l = 2
    expected = (1 + m_2k) / (2 * (1 + m_k))
    ratio = kato_ponce_check(g, 2.0, mode, mode)
    assert ratio == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("l", [0.0, -1.0, math.nan])
def test_kato_ponce_rejects_an_order_that_is_not_positive(l):
    g = build_grid(1, 16, 4.0, "periodic")
    with pytest.raises(ValueError, match="order l must be > 0"):
        kato_ponce_check(g, l, np.ones(16), np.ones(16))


def test_kato_ponce_zero_input():
    g = build_grid(1, 16, 4.0, "periodic")
    assert kato_ponce_check(g, 2.0, np.zeros(16), np.ones(16)) == 0.0


def test_kato_ponce_random_smooth_sweep_bounded():
    g = build_grid(1, 64, 8.0, "periodic")
    rng = np.random.default_rng(4)
    x = g.nodes().ravel()
    worst = 0.0
    for _ in range(100):
        c1, c2 = rng.uniform(-4, 4, size=2)
        w1, w2 = rng.uniform(0.5, 3.0, size=2)
        f = np.exp(-((x - c1) ** 2) / w1**2)
        h = np.exp(-((x - c2) ** 2) / w2**2)
        worst = max(worst, kato_ponce_check(g, 2.0, f, h))
    assert 0 < worst < 10.0


# --- exports ------------------------------------------------------------------------

def test_trajectory_csv_exports(tmp_path):
    g, dec = grid_dec(n=9)
    traj = picard_solve(dec, 0.5, smooth_state(g), ZERO_P, 0.1, 0.05)
    p1 = tmp_path / "traj.csv"
    p2 = tmp_path / "monitors.csv"
    traj.export_csv(p1)
    traj.export_monitors_csv(p2)
    lines = p1.read_text().splitlines()
    assert lines[0] == "time,node,re_u,im_u"
    assert lines[1:] == [f"{t:.17e},{i},{z.real:.17e},{z.imag:.17e}"
                         for t, row in zip(traj.times, traj.states) for i, z in enumerate(row)]
    monitors = p2.read_text().splitlines()
    assert monitors[0] == "time," + ",".join(traj.monitors)
    columns = [traj.times, *traj.monitors.values()]
    assert monitors[1:] == [",".join(f"{col[k]:.17e}" for col in columns)
                            for k in range(len(traj.times))]
