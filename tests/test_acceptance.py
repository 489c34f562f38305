"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from fracspec.evolution import (
    estimate_t_star,
    gradient_nonlinearity,
    measure_lipschitz_constant,
    measure_scheme_constant,
    picard_solve,
    polynomial_nonlinearity,
    viscosity_convergence,
    viscous_solve,
)
from fracspec.extension import (
    ExtensionField,
    conormal_constant,
    conormal_recover,
    constant_field_doubling_exponent,
    doubling_ratio,
    energy_report,
    extend,
    geometric_ladder,
)
from fracspec.gridop import assemble, build_grid, make_coefficients
from fracspec.spectral import (
    SpectralDecomposition,
    bessel_apply,
    eigendecompose,
    fractional_power,
    l2_norm,
    norm_equivalence,
    smoothing_norm_bound,
    smoothing_norm_measured,
    unitary_propagate,
)
from fracspec.ucprobe import NONLOCALITY_FLOOR, VanishingSpec, dichotomy_sweep

BUMP_PARAMS = {"s": 0.7, "w": 2.0, "c_amp": 0.4}


def report(num, name, detail):
    print(f"\n[PASS] criterion {num:02d} ({name}): {detail}")


def make_operator(n, kind="identity", params=None, x=8.0, boundary="dirichlet"):
    g = build_grid(1, n, x, boundary)
    f = make_coefficients(g, kind, params or {})
    return g, assemble(g, f)


@pytest.fixture(scope="module")
def bump128():
    g, op = make_operator(128, "radial_bump", BUMP_PARAMS)
    return g, op, eigendecompose(op)


@pytest.fixture(scope="module")
def ident64():
    g, op = make_operator(64)
    return g, op, eigendecompose(op)


@pytest.fixture(scope="module")
def bump64():
    g, op = make_operator(64, "radial_bump", BUMP_PARAMS)
    return g, op, eigendecompose(op)


def gaussian(g, width=2.0, amp=1.0):
    return amp * np.exp(-(g.dof_nodes() ** 2).sum(axis=1) / width)


def test_criterion_01_functional_calculus_exactness():
    started = time.perf_counter()
    g, op = make_operator(128)
    dec = eigendecompose(op)
    n_int = g.n_dof
    k = np.arange(1, n_int + 1)
    exact = (4.0 / g.spacing**2) * np.sin(k * np.pi / (2.0 * (n_int + 1))) ** 2
    rel = np.abs(dec.eigenvalues - exact) / exact
    elapsed = time.perf_counter() - started
    assert rel.max() <= 1e-8
    assert elapsed < 5.0
    report(1, "functional-calculus exactness",
           f"max relative eigenvalue error {rel.max():.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_integer_power_composition(bump128):
    _, op, dec = bump128
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal(dec.n_dof)
        two_fold = op.matrix @ (op.matrix @ f)
        spectral = fractional_power(dec, 2.0, f)
        worst = max(worst, np.linalg.norm(two_fold - spectral) / np.linalg.norm(two_fold))
    assert worst <= 1e-9
    report(2, "composition L L = L^2", f"max relative deviation {worst:.2e} over 100 states")


def test_criterion_03_unitarity_and_group_law(bump64):
    _, _, dec = bump64
    rng = np.random.default_rng(7)
    f = rng.standard_normal(dec.n_dof).astype(complex)
    worst_norm, worst_group = 0.0, 0.0
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.1, 1.0):
            out = unitary_propagate(dec, alpha, t, f)
            worst_norm = max(worst_norm,
                             abs(np.linalg.norm(out) / np.linalg.norm(f) - 1.0))
            for s_val in (0.1, 1.0):
                two = unitary_propagate(dec, alpha, t, unitary_propagate(dec, alpha, s_val, f))
                one = unitary_propagate(dec, alpha, t + s_val, f)
                worst_group = max(worst_group,
                                  np.linalg.norm(two - one) / np.linalg.norm(f))
    assert worst_norm <= 1e-10
    assert worst_group <= 1e-10
    report(3, "unitarity and group law",
           f"norm drift {worst_norm:.2e}, group-law defect {worst_group:.2e}")


def test_criterion_04_smoothing_bound():
    g, op = make_operator(128)
    dec = eigendecompose(op)
    details = []
    for eps in (0.01, 0.1):
        for t in (0.1, 1.0):
            measured = smoothing_norm_measured(dec, eps, t)
            bound = smoothing_norm_bound(eps, t)
            assert measured <= bound * (1 + 1e-10)
            lam_star = (2 * eps * t) ** -0.5
            if dec.eigenvalues[0] <= lam_star <= dec.eigenvalues[-1]:
                assert measured >= 0.98 * bound
                details.append(f"eps={eps},t={t}: {measured / bound:.4f}")
    report(4, "smoothing operator-norm bound", "; ".join(details))


def test_criterion_05_norm_equivalence():
    started = time.perf_counter()
    alphas = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

    # constant coefficients, periodic: per-mode ratios sit in the exact
    # scalar bracket between 1 and 2^{1-alpha} (mixed states provably leave
    # it, so the bracket is asserted on eigenmode samples)
    g = build_grid(1, 64, 8.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    for alpha in alphas:
        ratios = []
        for k in range(0, dec.n_dof, 5):
            v = dec.eigenvectors[:, k]
            num = l2_norm(g, v) + l2_norm(g, fractional_power(dec, alpha, v))
            den = l2_norm(g, bessel_apply(g, 2 * alpha, v))
            ratios.append(num / den)
        lo, hi = min(1.0, 2.0 ** (1 - alpha)), max(1.0, 2.0 ** (1 - alpha))
        assert min(ratios) >= lo - 1e-9
        assert max(ratios) <= hi + 1e-9

    # variable coefficients: bracket drift under N = 64 -> 128 refinement
    _, op64 = make_operator(64, "radial_bump", BUMP_PARAMS)
    drifts = {}
    for alpha in alphas:
        rep = norm_equivalence(op64, alpha, n_bumps=12, seed=0)
        assert rep.refinement_drift <= 0.10
        drifts[alpha] = rep.refinement_drift
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(5, "norm equivalence",
           f"max variable-coefficient drift {max(drifts.values()):.3f}, "
           f"runtime {elapsed:.1f}s")


def test_criterion_06_extension_recovery(ident64, bump64):
    assert conormal_constant(0.5) == pytest.approx(-1.0, abs=1e-12)
    details = []
    for label, (g, _, dec) in (("identity", ident64), ("radial_bump", bump64)):
        u = gaussian(g)
        for alpha in (0.25, 0.5, 0.75):
            oracle = fractional_power(dec, alpha, u)

            def rel_error(level):
                # one resolution doubling = half the trace-ladder base
                ys = geometric_ladder(4e-3 / 2**level, 1.2, 60)
                rec = conormal_recover(extend(dec, alpha, u, ys))
                return np.linalg.norm(rec - oracle) / np.linalg.norm(oracle)

            e0 = rel_error(0)
            assert e0 <= 1e-3
            e2 = rel_error(2)
            assert e2 <= e0 / 4.0
            details.append(f"{label} a={alpha}: {e0:.1e}->{e2:.1e}")
    report(6, "extension recovery", "; ".join(details))


def test_criterion_07_extension_regularity():
    def bracket(n):
        g = build_grid(1, n, 8.0, "dirichlet")
        dec = eigendecompose(assemble(g, make_coefficients(g, "radial_bump", BUMP_PARAMS)))
        ys = geometric_ladder(1e-3, 1.1, 100)
        ratios = []
        for width, amp in ((0.8, 1.0), (2.0, 1.0), (4.0, 0.5)):
            u = gaussian(g, width, amp)
            ext = extend(dec, 0.5, u, ys)
            sup = np.linalg.norm(ext.values, axis=0).max()
            assert sup <= np.linalg.norm(u) * (1 + 1e-8)
            ratios.append(energy_report(ext).bound_ratio)
        return min(ratios), max(ratios)

    lo64, hi64 = bracket(64)
    lo128, hi128 = bracket(128)
    assert np.isfinite(hi128) and lo128 > 0
    assert max(lo64 / lo128, lo128 / lo64) <= 2.0
    assert max(hi64 / hi128, hi128 / hi64) <= 2.0
    report(7, "extension regularity",
           f"energy/(mass) bracket [{lo64:.3f},{hi64:.3f}] -> [{lo128:.3f},{hi128:.3f}]")


def test_criterion_08_picard_scheme():
    cubic = polynomial_nonlinearity([(1.0, (2, 1))])

    # scalar oracle: i u' + lam^a u + |u|^2 u = 0
    lam, alpha, dt = 2.0, 0.5, 1e-4
    dec1 = SpectralDecomposition(eigenvalues=np.array([lam]), eigenvectors=np.eye(1))
    u0 = np.array([0.8 + 0.0j])
    traj = picard_solve(dec1, alpha, u0, cubic, t_final=0.1, dt=dt, tol=1e-13)
    omega = lam**alpha + abs(u0[0]) ** 2
    oracle_err = np.abs(traj.states[:, 0] - u0[0] * np.exp(1j * omega * traj.times)).max()
    assert oracle_err <= 1e-6
    resid = traj.monitors["equation_residual"][1:-1].max()
    assert resid <= 10.0 * dt**2

    # contraction under the measured horizon, on a grid operator
    g, op = make_operator(33)
    dec = eigendecompose(op)
    probes = [gaussian(g, w, a) for a in (0.25, 0.5, 1.0, 2.0) for w in (0.5, 1.5, 3.0)]
    pairs = [(probes[i], probes[j]) for i in range(len(probes)) for j in range(i + 1, len(probes))]
    c_est = max(measure_scheme_constant(cubic, 2, probes, grid=g),
                measure_lipschitz_constant(cubic, 2, pairs, grid=g))
    u0g = gaussian(g, 2.0, 0.25)
    t_star = estimate_t_star(u0g, 2, 3, 3, c_est, grid=g)
    traj_g = picard_solve(dec, alpha, u0g, cubic, t_final=t_star, dt=t_star / 100,
                          tol=1e-12, grid=g, c_est=c_est)
    hist = np.asarray(traj_g.picard_residual_history)
    live = (hist[1:] / hist[:-1])[hist[:-1] > 1e-11]
    assert np.all(live <= 0.5)
    report(8, "Picard scheme",
           f"scalar-oracle error {oracle_err:.2e}, residual {resid:.2e} <= 10 dt^2, "
           f"max contraction ratio {live.max():.3f} at T* = {t_star:.3f}")


def test_criterion_09_viscosity_scheme():
    g, op = make_operator(33)
    dec = eigendecompose(op)
    zero = polynomial_nonlinearity([])

    # per-mode decay for Q = 0
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(dec.n_dof)
    eps, alpha = 0.05, 0.5
    traj = viscous_solve(dec, alpha, eps, u0, zero, t_final=0.4, dt=0.01, grid=g)
    coeff0 = dec.eigenvectors.T @ u0.astype(complex)
    worst = 0.0
    for k in (10, 25, 40):
        t = traj.times[k]
        exact = dec.eigenvectors @ (
            coeff0 * np.exp((-eps * dec.eigenvalues**2 + 1j * dec.eigenvalues**alpha) * t)
        )
        worst = max(worst, np.abs(traj.states[k] - exact).max())
    assert worst <= 1e-8

    # cubic gradient nonlinearity satisfying the energy hypothesis
    q = gradient_nonlinearity(
        [(0.25, (2, 0, 1, 0)), (0.5, (1, 1, 1, 0)), (0.25, (0, 2, 1, 0))], dim=1
    )
    assert q.energy_hypothesis is True
    u0s = gaussian(g, 2.0, 0.1)
    table = viscosity_convergence(dec, alpha, u0s, q, t_final=0.2,
                                  epsilons=[0.1, 0.05, 0.025, 0.0125],
                                  dt=0.005, grid=g, s=2, c_est=1.0)
    assert table.r_squared >= 0.9
    # small data stays inside the a-priori envelope (no flag up to 10x)
    run = viscous_solve(dec, alpha, 0.05, u0s, q, t_final=0.5, dt=0.005,
                        grid=g, s=2, c_est=1.0, blowup_factor=10.0)
    assert run.energy_flags == ()
    report(9, "viscosity scheme",
           f"per-mode decay error {worst:.2e}, rate fit R^2 = {table.r_squared:.4f}, "
           f"K_est = {table.k_est:.3f}, envelope respected")


def test_criterion_10_gucp_dichotomy():
    started = time.perf_counter()
    spec = VanishingSpec.create(theta=(-1.0, 0.0), f_support=(1.0, 2.0), dim=1)
    details = []
    for kind, params in (("identity", {}), ("radial_bump", BUMP_PARAMS)):
        g, op = make_operator(256, kind, params)
        dec = eigendecompose(op)
        rows = dichotomy_sweep(dec, spec, [0.25, 0.5, 0.75, 1.0])
        for alpha, mass, _, ratio in rows:
            if alpha == 1.0:
                assert mass == 0.0 and ratio == 0.0
            else:
                assert ratio > NONLOCALITY_FLOOR
        details.append(f"{kind}: ratios {[f'{r[3]:.1e}' for r in rows]}")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(10, "unique-continuation dichotomy",
           f"{'; '.join(details)}; runtime {elapsed:.1f}s")


def test_criterion_11_doubling_measurement():
    # measured doubling ratios of an extended bump stay under one constant
    g = build_grid(1, 128, 4.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "radial_bump", BUMP_PARAMS)))
    u = gaussian(g, width=0.5)
    ys = geometric_ladder(1e-3, 1.1, 100)
    ext = extend(dec, 0.5, u, ys)
    pairs = doubling_ratio(ext, [0.5, 0.25, 0.125])
    ratios = [r for _, r in pairs]
    c_bound = 10.0 * max(ratios)
    assert all(np.isfinite(r) and 0 < r <= c_bound for r in ratios)
    assert max(ratios) / min(ratios) <= 10.0

    # synthetic constant field: exact half-ball scaling 2^{(n+2-2a)/2}
    worst = 0.0
    g_syn = build_grid(1, 801, 2.0, "dirichlet")
    ys_syn = geometric_ladder(5e-4, 1.02, 420)
    for alpha in (0.25, 0.5, 0.75):
        synth = ExtensionField(
            base=np.ones(g_syn.n_dof), alpha=alpha, y_nodes=ys_syn,
            values=np.ones((g_syn.n_dof, len(ys_syn))), grid=g_syn,
        )
        [(_, ratio)] = doubling_ratio(synth, [0.5])
        exact = constant_field_doubling_exponent(1, alpha)
        rel = abs(ratio - exact) / exact
        assert rel <= 0.01
        worst = max(worst, rel)
    report(11, "doubling measurement",
           f"bump ratios {[f'{r:.2f}' for r in ratios]}, "
           f"synthetic-constant error {worst:.2e}")
