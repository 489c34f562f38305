"""Reference quantities the tests compare fracspec against; no run calls them."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from fracspec import spectral
from fracspec.evolution import Nonlinearity
from fracspec.extension import ExtensionField, _weighted_y_cells
from fracspec.gridop import DiscreteOperator, Grid
from fracspec.spectral import (
    SpectralDecomposition,
    _dst1,
    _probe,
    fractional_power,
    l2_norm,
    laplacian_symbol,
    sobolev_norm,
)
from fracspec.ucprobe import VanishingSpec, bump_state


def eigenvectors(dec: SpectralDecomposition) -> np.ndarray:
    """The dense eigenvector matrix V of ``dec``, one column per eigenvalue in order."""
    return dec.from_modes(np.eye(dec.n_dof))


def use_lookup(monkeypatch, lookup: str) -> str:
    """Switch spectral's OpenBLAS lookup to ``lookup``, "openblas" (as found) or "none" (the
    fallback of a numpy without one), and return the driver eigendecompose then records."""
    if lookup == "none":
        monkeypatch.setattr(spectral, "_openblas", lambda: None)
    return "numpy.linalg.eigh" if spectral._openblas() is None else "LAPACK dsyevd in place"


def grid_only(grid: Grid) -> SimpleNamespace:
    """A stand-in for the decomposition of a synthetic ExtensionField on a grid over the dof
    cap, which no eigensolve reaches: it carries only the grid, at ``source.grid``."""
    return SimpleNamespace(source=SimpleNamespace(grid=grid))


def full_eigh(op: DiscreteOperator):
    """The whole matrix solved by np.linalg.eigh, each vector signed by the probe rule."""
    lam, v = np.linalg.eigh(op.matrix)
    v *= np.where(_probe(op.n_dof) @ v < 0.0, -1.0, 1.0)
    return lam, v


def dense_decomposition(lam: np.ndarray, v: np.ndarray, op: DiscreteOperator):
    """The decomposition that holds the dense ``v`` as its one block."""
    return SpectralDecomposition(lam, (v, np.zeros((0, 0))), np.arange(len(lam)), op)


def scaled_vectors(dec: SpectralDecomposition, delta: float) -> SpectralDecomposition:
    """``dec`` with every eigenvector scaled by 1 + delta, so V V^T is (1 + delta)^2 I."""
    even, odd = dec.blocks
    return replace(dec, blocks=(even * (1.0 + delta), odd * (1.0 + delta)))


def mirror_blocks(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of the symmetric ``a`` under the pairing of its first p dofs
    with its last p reversed (see ``SpectralDecomposition``), by quarter algebra on the
    dense matrix: the oracle of the fold from the stencil entries.

    In the basis (e_k +- e_{n-1-k})/sqrt 2, k < p, and e_k between, with quarters A11
    (first p rows and columns), A12, A21 and A22 (last p) and the reversal J, they are

        even = [[ (A11 + J A22 J + A12 J + J A21)/2,  (A_1m + J A_2m)/sqrt 2 ],
                [ its transpose,                       A_mm                   ]],
        odd  = (A11 + J A22 J - A12 J - J A21)/2,

    the blocks of (A + P A P)/2 for the dof reversal P, each symmetric by construction.
    """
    n = len(a)
    q = n - p
    top, rev = a[:p], a[q:][::-1]  # the first p rows, and the last p reversed
    same = top[:, :p] + rev[:, q:][:, ::-1]  # A11 + J A22 J
    cross = top[:, q:][:, ::-1] + rev[:, :p]  # A12 J + J A21
    even = np.empty((q, q))
    np.add(same, cross, out=even[:p, :p])
    even[:p, :p] *= 0.5
    even[p:, :p] = (top[:, p:q] + rev[:, p:q]).T * np.sqrt(0.5)
    even[:p, p:] = even[p:, :p].T
    even[p:, p:] = a[p:q, p:q]
    odd = np.subtract(same, cross, out=same)
    odd *= 0.5
    return even, odd


def gershgorin_lower_bound(matrix: np.ndarray) -> float:
    """Smallest Gershgorin disc lower endpoint of a symmetric matrix."""
    d = np.diag(matrix)
    radii = np.abs(matrix).sum(axis=1) - np.abs(d)
    return float((d - radii).min())


def smoothing_norm_measured(dec: SpectralDecomposition, eps: float, t: float) -> float:
    """Operator norm of L e^{-eps t L^2 + i t L^alpha}: max of lam e^{-eps t lam^2}."""
    lam = dec.spectrum
    return float((lam * np.exp(-eps * t * lam**2)).max())


def smoothing_norm_bound(eps: float, t: float) -> float:
    """Scalar bound (2 e eps t)^{-1/2}, attained at lam = (2 eps t)^{-1/2}."""
    return float((2.0 * np.e * eps * t) ** -0.5)


def constant_field_doubling_exponent(dim: int, alpha: float) -> float:
    """Exact ratio 2^{(n+2-2a)/2} for a constant synthetic field."""
    return 2.0 ** ((dim + 2.0 - 2.0 * alpha) / 2.0)


def make_weak_test_bumps(grid: Grid, y_nodes: np.ndarray, count: int = 3, seed: int = 0):
    """Tensor bumps vanishing on the whole boundary of the sampled box."""
    rng = np.random.default_rng(seed)
    x = grid.dof_nodes()
    ys = np.asarray(y_nodes, dtype=float)
    y_lo, y_hi = ys[0], ys[-1]
    out = []
    for _ in range(count):
        cx = rng.uniform(-grid.half_length / 3, grid.half_length / 3, size=grid.dim)
        wx = rng.uniform(grid.half_length / 4, grid.half_length / 2)
        profile_x = np.exp(-((x - cx) ** 2).sum(axis=1) / wx**2)
        edge = np.cos(np.pi * x / (2 * grid.half_length)).prod(axis=1)
        ym = np.sqrt(y_lo * y_hi)
        profile_y = np.exp(-np.log(ys / ym) ** 2) * (ys - y_lo) * (y_hi - ys) / y_hi**2
        out.append((profile_x * edge)[:, None] * profile_y[None, :])
    return out


def ladder_energy(ext: ExtensionField, values: np.ndarray) -> float:
    """The weighted Dirichlet energy of ``values`` on the grid x ladder of ``ext`` by ladder
    quadrature: h^d sum_k w_k (|dV/dy|^2 + <V, L V>)(y_k), with centered differences in y,
    the exact integral w_k of y^{1-2a} over each ladder cell and the assembled operator's own
    form in x. For ``ext.values`` it tends to kappa_a <L^a u, u>_h as the ladder is refined:
    the closed form ``energy_report`` gives."""
    op = ext.decomposition.source
    wy = _weighted_y_cells(ext.y_nodes, ext.alpha)
    dy = np.gradient(values, ext.y_nodes, axis=1)
    per_y = (dy**2).sum(axis=0) + (values * op.apply(values)).sum(axis=0)
    return float((wy * per_y).sum() * op.grid.spacing**op.grid.dim)


def weak_residual(ext: ExtensionField, test_functions) -> float:
    """Max normalized weak-form residual over test functions.

    The x part of the form (a grad U . grad xi + c U xi) is evaluated through
    the assembled operator's own quadratic form, which is exact for the flux
    stencil; the y part uses centered differences and the weighted trapezoid,
    so the residual measures ladder resolution and decreases under refinement.
    Each function is normalized by its ``ladder_energy``.
    """
    op = ext.decomposition.source
    ys = ext.y_nodes
    wy = _weighted_y_cells(ys, ext.alpha)
    dy_u = np.gradient(ext.values, ys, axis=1)
    lu = op.apply(ext.values)

    u_energy = ladder_energy(ext, ext.values)
    if u_energy == 0.0:
        return 0.0

    worst = 0.0
    for xi in test_functions:
        xi = np.asarray(xi, dtype=float)
        dy_xi = np.gradient(xi, ys, axis=1)
        per_y = (dy_u * dy_xi).sum(axis=0) + (xi * lu).sum(axis=0)
        value = float((wy * per_y).sum() * op.grid.spacing**op.grid.dim)
        xi_energy = ladder_energy(ext, xi)
        if xi_energy <= 0:
            continue
        worst = max(worst, abs(value) / np.sqrt(u_energy * xi_energy))
    return worst


def measure_scheme_constant(nl: Nonlinearity, s: float, probes, grid: Grid) -> float:
    """max over probes of |P(f)|_s / (|f|_s^{N1} + |f|_s^{N2})."""
    if not nl.terms:
        return 0.0
    worst = 0.0
    for f in probes:
        nf = sobolev_norm(grid, s, f)
        if nf == 0:
            continue
        np_ = sobolev_norm(grid, s, nl.evaluate(np.asarray(f, dtype=complex), grid))
        worst = max(worst, np_ / (nf**nl.n1 + nf**nl.n2))
    return worst


def measure_lipschitz_constant(nl: Nonlinearity, s: float, probe_pairs, grid: Grid) -> float:
    """max of |P(f)-P(g)|_s over the product-estimate denominator."""
    if not nl.terms:
        return 0.0
    worst = 0.0
    for f, g in probe_pairs:
        f = np.asarray(f, dtype=complex)
        g = np.asarray(g, dtype=complex)
        dn = sobolev_norm(grid, s, f - g)
        if dn == 0:
            continue
        nf, ng = sobolev_norm(grid, s, f), sobolev_norm(grid, s, g)
        denom = (nf ** (nl.n1 - 1) + nf ** (nl.n2 - 1)
                 + ng ** (nl.n1 - 1) + ng ** (nl.n2 - 1)) * dn
        diff = sobolev_norm(grid, s, nl.evaluate(f, grid) - nl.evaluate(g, grid))
        worst = max(worst, diff / denom)
    return worst


def physical_equation_residual(dec: SpectralDecomposition, symbol, states, times, forcing):
    """h^{d/2} |(u_{k+1} - e^{2 S dt} u_{k-1}) / (2 dt) - e^{S dt} F_k|_2 of physical states,
    S = V diag(symbol) V^T: the midpoint rule of Duhamel's formula over [t_{k-1}, t_{k+1}].

    ``states`` and ``forcing`` have one row per output time. Evaluated at
    interior times; the end values repeat their neighbors.
    """
    if len(times) < 3:
        return np.zeros(len(times))
    dt = times[1] - times[0]
    v = eigenvectors(dec)
    step = np.exp(symbol * dt)

    def propagate(rows, mult):
        return (rows @ v * mult[None, :]) @ v.T

    resid_interior = ((states[2:] - propagate(states[:-2], step**2)) / (2.0 * dt)
                      - propagate(forcing[1:-1], step))
    out = np.empty(len(times))
    out[1:-1] = l2_norm(dec.source.grid, resid_interior.T)
    out[0], out[-1] = out[1], out[-2]
    return out


def per_alpha_masses(dec: SpectralDecomposition, alpha: float, spec: VanishingSpec):
    """(|L^alpha f| on theta, |L^alpha f|) for the bump f of ``spec``, one alpha at a time.

    The probe the dichotomy sweep replaced: its own bump, its own nodes and
    its own V^T f per alpha, and a per-axis mask of the open box theta.
    """
    grid = dec.source.grid
    g = fractional_power(dec, alpha, bump_state(grid, spec))
    x = grid.dof_nodes()
    mask = np.ones(x.shape[0], dtype=bool)
    for ax in range(grid.dim):
        mask &= (x[:, ax] > spec.theta[ax, 0]) & (x[:, ax] < spec.theta[ax, 1])
    return float(np.linalg.norm(g[mask])), float(np.linalg.norm(g))


def rolled_centered_gradient(grid: Grid, values: np.ndarray) -> list[np.ndarray]:
    """Centered first differences of dof fields by np.roll (periodic) or a zero pad (Dirichlet)."""
    h = grid.spacing
    if grid.boundary == "periodic":
        shape = (grid.points_per_axis,) * grid.dim
    else:
        shape = (grid.points_per_axis - 2,) * grid.dim
    v = values.reshape(shape + values.shape[1:])
    grads = []
    for axis in range(grid.dim):
        if grid.boundary == "periodic":
            g = (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2 * h)
        else:
            pad = np.zeros_like(np.take(v, [0], axis=axis))
            vp = np.concatenate([pad, v, pad], axis=axis)
            g = (np.take(vp, range(2, vp.shape[axis]), axis=axis)
                 - np.take(vp, range(0, vp.shape[axis] - 2), axis=axis)) / (2 * h)
        grads.append(g.reshape(values.shape))
    return grads


def bessel_apply(grid: Grid, s: float, f: np.ndarray) -> np.ndarray:
    """(1 + (-Laplacian_h))^{s/2} f through the FFT (periodic) or DST-I (Dirichlet).

    ``f`` has the dof axis first; trailing axes form a batch. The DST-I is
    ``_dst1``, done with numpy's FFT; a real ``f`` gives a real result. The oracle of
    ``sobolev_norm``, which reads its l2 norm on the coefficients of the one forward transform.
    """
    f = np.asarray(f)
    if f.shape[0] != grid.n_dof:
        raise ValueError(f"state length {f.shape[0]} != dof count {grid.n_dof}")
    symbol = laplacian_symbol(grid)
    mult = ((1.0 + symbol) ** (s / 2.0)).reshape(symbol.shape + (1,) * (f.ndim - 1))
    x = f.reshape(symbol.shape + f.shape[1:])
    axes = tuple(range(grid.dim))
    if grid.boundary == "periodic":
        out = np.fft.ifftn(mult * np.fft.fftn(x, axes=axes), axes=axes)
        out = out if np.iscomplexobj(f) else out.real
    else:
        out = _dst1(mult * _dst1(x, axes), axes)
    return out.reshape(f.shape)
