import math

import numpy as np
import pytest

from fracspec.evolution import (
    BlowUpError,
    PicardConvergenceError,
    check_energy_hypothesis,
    differentiate_terms,
    estimate_t_star,
    gradient_nonlinearity,
    kato_ponce_check,
    measure_lipschitz_constant,
    measure_scheme_constant,
    picard_solve,
    polynomial_nonlinearity,
    t_star_from_radius,
    viscosity_convergence,
    viscous_solve,
)
from fracspec.gridop import assemble, build_grid, make_coefficients
from fracspec.spectral import (
    SpectralDecomposition,
    eigendecompose,
    laplacian_symbol,
    unitary_propagate,
)

CUBIC = polynomial_nonlinearity([(1.0, (2, 1))])  # |z|^2 z
ZERO_P = polynomial_nonlinearity([])


def scalar_dec(lam=2.0):
    return SpectralDecomposition(eigenvalues=np.array([lam]), eigenvectors=np.eye(1))


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
    with pytest.raises(ValueError, match="degree"):
        polynomial_nonlinearity([(1.0, (1, 0))])
    with pytest.raises(ValueError, match="length"):
        polynomial_nonlinearity([(1.0, (1, 1, 1))])


def test_zero_nonlinearity_evaluates_to_zero():
    assert ZERO_P.is_zero
    out = ZERO_P.evaluate(np.ones(5, dtype=complex))
    assert np.all(out == 0)


def test_cubic_evaluation_pointwise():
    z = np.array([1 + 1j, 2.0, -1j])
    out = CUBIC.evaluate(z)
    assert np.allclose(out, np.abs(z) ** 2 * z)


def test_energy_hypothesis_single_terms():
    # Q = (u + conj u) du/dx passes; Q = u du/dx fails
    passing = gradient_nonlinearity([(1.0, (1, 0, 1, 0)), (1.0, (0, 1, 1, 0))], dim=1)
    failing = gradient_nonlinearity([(1.0, (1, 0, 1, 0))], dim=1)
    assert passing.energy_hypothesis is True
    assert failing.energy_hypothesis is False


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


# --- contraction horizon -------------------------------------------------------

def test_t_star_formula():
    assert t_star_from_radius(1.0, 3, 3, 1.0) == pytest.approx(1.0 / 16.0)


def test_t_star_shrinks_with_data_size():
    # doubling |u0| with N1 = N2 = 3 multiplies R^2 by 4
    t1 = t_star_from_radius(1.0, 3, 3, 1.0)
    t2 = t_star_from_radius(2.0, 3, 3, 1.0)
    assert t2 == pytest.approx(t1 / 4.0)


def test_estimate_t_star_zero_data_is_infinite():
    assert estimate_t_star(np.zeros(4), 2, 3, 3, 1.0) == math.inf


def test_estimate_t_star_uses_sobolev_norm():
    g, _ = grid_dec()
    u = smooth_state(g)
    t = estimate_t_star(u, 2, 3, 3, 1.0, grid=g)
    assert 0 < t < math.inf


def test_measured_scheme_constant_scalar_cubic():
    # |P(f)| / (|f|^3 + |f|^3) = 1/2 for every scalar probe
    probes = [np.array([z]) for z in (0.5, 1.0 + 0.3j, 2.0j)]
    assert measure_scheme_constant(CUBIC, 2, probes) == pytest.approx(0.5)


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
    traj = picard_solve(dec, 0.5, u0, ZERO_P, t_final=0.5, dt=0.05, grid=g)
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
    t_star = estimate_t_star(u0, s, 3, 3, c_est)
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
    t1 = picard_solve(dec, 0.5, u0, CUBIC, t_final=0.05, dt=0.005, grid=g)
    t2 = picard_solve(dec, 0.5, phase * u0, CUBIC, t_final=0.05, dt=0.005, grid=g)
    assert np.abs(t2.states - phase * t1.states).max() <= 1e-8


# the diverging sweeps overflow before the non-finite check stops them;
# ROADMAP item 4 plans to stop Picard once the residual grows
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_picard_nonconvergence_carries_history():
    dec = scalar_dec(1.0)
    u0 = np.array([3.0 + 0.0j])  # far above any contraction ball for T = 1
    with pytest.raises(PicardConvergenceError) as err:
        with pytest.warns(UserWarning, match="contraction"):
            picard_solve(dec, 0.5, u0, CUBIC, t_final=1.0, dt=0.01,
                         max_iter=12, c_est=0.5)
    hist = err.value.residual_history
    assert 0 < len(hist) <= 12
    assert hist[-1] > 1.0  # residuals grow instead of contracting


def test_picard_equation_residual_within_dt_squared():
    lam, alpha = 2.0, 0.5
    dec = scalar_dec(lam)
    u0 = np.array([0.5 + 0.0j])
    dt = 1e-3
    traj = picard_solve(dec, alpha, u0, CUBIC, t_final=0.05, dt=dt, tol=1e-13)
    assert traj.monitors["equation_residual"][1:-1].max() <= 10.0 * dt**2


def test_picard_rejects_gradient_nonlinearity():
    g, dec = grid_dec(n=17)
    q = gradient_nonlinearity([(1.0, (1, 0, 1, 0))], dim=1)
    with pytest.raises(ValueError, match="polynomial"):
        picard_solve(dec, 0.5, smooth_state(g), q, 0.1, 0.01, grid=g)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("eps", [None, 0.05])
def test_equation_residual_matches_closed_form_for_exact_propagator(boundary, eps):
    # with P = Q = 0 both schemes return the exact propagator V e^{sigma t} V^T u0,
    # whose centered-difference residual has the per-mode closed form
    # ((e^{sigma dt} - e^{-sigma dt}) / (2 dt) - sigma) e^{sigma t_k}
    g = build_grid(1, 17, 8.0, boundary)
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    u0 = np.random.default_rng(5).standard_normal(dec.n_dof)
    alpha, dt = 0.5, 0.01
    lam = np.clip(dec.eigenvalues, 0.0, None)
    if eps is None:
        traj = picard_solve(dec, alpha, u0, ZERO_P, t_final=0.1, dt=dt, grid=g)
        sigma = 1j * lam**alpha
    else:
        traj = viscous_solve(dec, alpha, eps, u0, ZERO_P, t_final=0.1, dt=dt, grid=g)
        sigma = -eps * lam**2 + 1j * lam**alpha
    step = traj.times[1] - traj.times[0]
    defect = (np.exp(sigma * step) - np.exp(-sigma * step)) / (2.0 * step) - sigma
    modes = dec.eigenvectors.T @ u0
    resid = traj.monitors["equation_residual"]
    for k in range(1, len(traj.times) - 1):
        exact = dec.eigenvectors @ (defect * np.exp(sigma * traj.times[k]) * modes)
        expected = np.linalg.norm(exact) * g.spacing ** 0.5
        assert expected > 0
        assert abs(resid[k] - expected) <= 1e-6 * expected


# --- viscous scheme --------------------------------------------------------------

def test_viscous_zero_q_zero_eps_is_unitary():
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    traj = viscous_solve(dec, 0.5, 0.0, u0, ZERO_P, t_final=0.3, dt=0.01, grid=g)
    l2 = traj.monitors["l2_norm"]
    assert np.abs(l2 / l2[0] - 1.0).max() <= 1e-10


def test_viscous_zero_q_matches_per_mode_decay():
    g, dec = grid_dec(n=17)
    rng = np.random.default_rng(2)
    u0 = rng.standard_normal(dec.n_dof)
    eps, alpha = 0.05, 0.5
    traj = viscous_solve(dec, alpha, eps, u0, ZERO_P, t_final=0.4, dt=0.01, grid=g)
    lam = dec.eigenvalues
    coeff0 = dec.eigenvectors.T @ u0.astype(complex)
    for k in (10, 25, 40):
        t = traj.times[k]
        exact_modes = coeff0 * np.exp((-eps * lam**2 + 1j * lam**alpha) * t)
        exact = dec.eigenvectors @ exact_modes
        assert np.abs(traj.states[k] - exact).max() <= 1e-8


def test_viscous_l2_nonincreasing_with_dissipation():
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    traj = viscous_solve(dec, 0.5, 0.1, u0, ZERO_P, t_final=0.5, dt=0.01, grid=g)
    l2 = traj.monitors["l2_norm"]
    assert np.all(np.diff(l2) <= 1e-12)


def test_viscous_requires_even_monitor_index():
    g, dec = grid_dec(n=17)
    with pytest.raises(ValueError, match="even"):
        viscous_solve(dec, 0.5, 0.1, smooth_state(g), ZERO_P, 0.1, 0.01, grid=g, s=3)


def test_viscous_blowup_flag():
    # feed an envelope small enough that any state violates it
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    with pytest.raises(BlowUpError):
        viscous_solve(dec, 0.5, 0.01, u0, ZERO_P, 0.1, 0.01, grid=g,
                      c_est=1e-6, blowup_factor=1.0)


def test_viscous_small_data_keeps_energy_envelope():
    g, dec = grid_dec(n=33)
    u0 = 0.05 * smooth_state(g).astype(complex)
    q = gradient_nonlinearity(
        [(0.5, (2, 0, 1, 0)), (1.0, (1, 1, 1, 0)), (0.5, (0, 2, 1, 0))], dim=1
    )
    assert q.energy_hypothesis is True
    traj = viscous_solve(dec, 0.5, 0.05, u0, q, t_final=0.5, dt=0.005, grid=g,
                         c_est=1.0)
    assert traj.energy_flags == ()
    envelope = 8.0 * 1.0 * traj.monitors["sobolev_norm_s"][0]
    assert traj.monitors["sobolev_norm_s"].max() <= 10.0 * envelope


# --- vanishing viscosity -----------------------------------------------------------

def test_viscosity_convergence_zero_q_linear_rate():
    g, dec = grid_dec(n=17)
    u0 = smooth_state(g)
    table = viscosity_convergence(dec, 0.5, u0, ZERO_P, t_final=0.2,
                                  epsilons=[0.1, 0.05, 0.025, 0.0125],
                                  dt=0.01, grid=g)
    assert table.r_squared >= 0.9
    assert table.k_est > 0
    # per-mode difference bound: |e^{-e lam^2 t} - e^{-e' lam^2 t}| <= (e-e') lam^2 t
    lam_max = dec.eigenvalues[-1]
    for e1, e2, sup in table.rows:
        assert sup <= (e1 - e2) * lam_max**2 * 0.2 * np.linalg.norm(u0) * 10


def test_viscosity_convergence_identical_epsilons():
    g, dec = grid_dec(n=9)
    u0 = smooth_state(g)
    table = viscosity_convergence(dec, 0.5, u0, ZERO_P, 0.1, [0.1, 0.1], 0.01, grid=g)
    assert table.rows[0][2] == 0.0
    assert table.k_est == 0.0 and table.r_squared == 1.0


def test_viscosity_convergence_rejects_increasing():
    g, dec = grid_dec(n=9)
    with pytest.raises(ValueError, match="nonincreasing"):
        viscosity_convergence(dec, 0.5, smooth_state(g), ZERO_P, 0.1,
                              [0.01, 0.1], 0.01, grid=g)


def test_viscosity_convergence_cubic_gradient_q():
    g, dec = grid_dec(n=33)
    u0 = 0.1 * smooth_state(g)
    q = gradient_nonlinearity(
        [(0.25, (2, 0, 1, 0)), (0.5, (1, 1, 1, 0)), (0.25, (0, 2, 1, 0))], dim=1
    )
    table = viscosity_convergence(dec, 0.5, u0, q, t_final=0.2,
                                  epsilons=[0.1, 0.05, 0.025, 0.0125],
                                  dt=0.005, grid=g)
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
    traj = picard_solve(dec, 0.5, smooth_state(g), ZERO_P, 0.1, 0.05, grid=g)
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
