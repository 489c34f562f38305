"""Harmonic-type extension of grid functions to the weighted upper half space.

For u on the grid and alpha in (0,1), the extension U(x, y) solves the
degenerate elliptic problem div(y^{1-2a} grad U) - y^{1-2a} c U = 0 with
trace u, and the weighted normal derivative at y=0 recovers the fractional
power of the operator. Spectrally, each eigenmode of L is damped by the
closed-form multiplier

    M(lambda, y) = 2^{1-a} / Gamma(a) * z^a K_a(z),    z = sqrt(lambda) y,

with M = 1 at z = 0 (Caffarelli-Silvestre; Stinga-Torrea), which depends on
(lambda, y) only through lambda * y^2.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gamma as gamma_fn, kve

from .gridop import Grid, _write_csv, centered_gradient
from .spectral import (
    SpectralDecomposition,
    _clean_spectrum,
    fractional_power,
    l2_norm,
)

RECOVERY_TOL = 1e-3
TRACE_ENVELOPE_FACTOR = 10.0


class ExtrapolationError(RuntimeError):
    """Successive limit estimates of the conormal derivative disagree."""


class DegenerateInputError(ValueError):
    """Probe undefined on the given input (for example a vanishing field)."""


def conormal_constant(alpha: float) -> float:
    """4^a Gamma(a) / (2a Gamma(-a)); equals -1 at a = 1/2."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    return float(4.0**alpha * gamma_fn(alpha) / (2.0 * alpha * gamma_fn(-alpha)))


def geometric_ladder(y0: float = 1e-3, ratio: float = 1.2, count: int = 55) -> np.ndarray:
    """Geometric y ladder y0 * ratio^k."""
    if y0 <= 0 or ratio <= 1 or count < 3:
        raise ValueError("ladder requires y0 > 0, ratio > 1, count >= 3")
    return y0 * ratio ** np.arange(count)


def _z_power_bessel_k(power: float, nu: float, z: np.ndarray) -> np.ndarray:
    """z^power K_nu(z) for z > 0 and 0 at z = 0.

    K_nu(z) is evaluated as kve(nu, z) e^{-z}, so large z underflows to 0
    instead of overflowing.
    """
    safe = np.where(z > 0.0, z, 1.0)
    return np.where(z > 0.0, safe**power * kve(nu, safe) * np.exp(-safe), 0.0)


def extension_multipliers(lam: np.ndarray, ys: np.ndarray, alpha: float) -> np.ndarray:
    """Per-mode damping M(lambda, y) = 2^{1-a}/Gamma(a) z^a K_a(z), in [0, 1], M = 1 at z = 0."""
    z = np.sqrt(lam)[:, None] * np.asarray(ys, dtype=float)[None, :]
    m = 2.0 ** (1.0 - alpha) / gamma_fn(alpha) * _z_power_bessel_k(alpha, alpha, z)
    # z^a K_a(z) rounds a few ulps above its supremum 2^{a-1} Gamma(a) at tiny z
    return np.where(z > 0.0, np.minimum(m, 1.0), 1.0)


def conormal_slopes(lam: np.ndarray, ys: np.ndarray, alpha: float) -> np.ndarray:
    """Weighted slope y^{1-2a} dM/dy = -2^{1-a}/Gamma(a) sqrt(lambda) y^{1-2a} z^a K_{1-a}(z).

    It is 0 at lambda = 0 and tends to lambda^a / conormal_constant(alpha) as y -> 0.
    """
    root = np.sqrt(lam)[:, None]
    ys = np.asarray(ys, dtype=float)[None, :]
    z = root * ys
    return (-2.0 ** (1.0 - alpha) / gamma_fn(alpha) * root * ys ** (1.0 - 2.0 * alpha)
            * _z_power_bessel_k(alpha, 1.0 - alpha, z))


@dataclass(frozen=True)
class ExtensionField:
    """Samples U[dof, k] of the extension on grid x ladder, weight y^{1-2a}."""

    base: np.ndarray
    alpha: float
    y_nodes: np.ndarray
    values: np.ndarray
    grid: Grid
    decomposition: SpectralDecomposition | None = None
    # not a field: perfbench/traced_task.py reads it after every extend(); the
    # line goes when that reader is dropped with the next benchmark change
    quadrature = None

    def metadata_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "y_nodes": [float(y) for y in self.y_nodes],
            },
            indent=2,
        )

    def export_csv(self, path: str | Path) -> None:
        n_x, n_y = self.values.shape
        _write_csv(path, "x_index,y,U", [np.tile(np.arange(n_x), n_y),
                                         np.repeat(self.y_nodes, n_x), self.values.T.ravel()])


def trace_tolerance(alpha: float, y0: float, base_norm: float) -> float:
    """Generous trace-convergence envelope 10 y0^{min(2a,1)} |u|."""
    return TRACE_ENVELOPE_FACTOR * y0 ** min(2.0 * alpha, 1.0) * base_norm


def extend(
    dec: SpectralDecomposition,
    alpha: float,
    u: np.ndarray,
    y_nodes: np.ndarray | None = None,
) -> ExtensionField:
    """Evaluate the extension of u on the y ladder, mode by mode."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if dec.source is None:
        raise ValueError("decomposition must carry its source operator")
    ys = geometric_ladder() if y_nodes is None else np.asarray(y_nodes, dtype=float)
    if np.any(ys <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("y ladder must be positive and strictly increasing")
    mult = extension_multipliers(_clean_spectrum(dec.eigenvalues), ys, alpha)
    coeffs = dec.eigenvectors.T @ np.asarray(u, dtype=float)
    values = dec.eigenvectors @ (mult * coeffs[:, None])
    field = ExtensionField(
        base=np.asarray(u, dtype=float),
        alpha=alpha,
        y_nodes=ys,
        values=values,
        grid=dec.source.grid,
        decomposition=dec,
    )
    _validate_extension(field)
    return field


def _validate_extension(field: ExtensionField) -> None:
    base_norm = np.linalg.norm(field.base)
    sup = np.linalg.norm(field.values, axis=0).max() if field.values.size else 0.0
    if sup > base_norm * (1.0 + 1e-8):
        raise ValueError(f"extension exceeds the trace mass: sup_y |U| = {sup:.6e} > |u| = {base_norm:.6e}")
    y0 = float(field.y_nodes[0])
    trace_err = np.linalg.norm(field.values[:, 0] - field.base)
    if trace_err > trace_tolerance(field.alpha, y0, base_norm) + 1e-300:
        raise ValueError(
            f"trace not recovered: |U(., y0) - u| = {trace_err:.6e} at y0 = {y0:.3e}"
        )


def _richardson_limit(g0, g1, g2, rho, p1, p2):
    """Two-stage limit of g(y) = g(0) + c1 y^{p1} + c2 y^{p2} + ... at y = 0."""
    r1 = rho**p1
    e01 = (r1 * g0 - g1) / (r1 - 1.0)
    e12 = (r1 * g1 - g2) / (r1 - 1.0)
    r2 = rho**p2
    return (r2 * e01 - e12) / (r2 - 1.0), e01, e12


def conormal_recover(ext: ExtensionField) -> np.ndarray:
    """Recover L^alpha u from the weighted slope y^{1-2a} dU/dy at y -> 0.

    The slope is evaluated in closed form at the three smallest ladder nodes,
    then extrapolated to y = 0 with the boundary expansion exponents 2-2a
    and 2, so the recovered value is a measured limit from finite y.
    """
    if ext.decomposition is None:
        raise ValueError("conormal recovery needs an extension built by extend()")
    if len(ext.y_nodes) < 3:
        raise ValueError("need at least 3 y nodes near 0 for the limit extrapolation")
    ys = ext.y_nodes[:3]
    rho01 = ys[1] / ys[0]
    rho12 = ys[2] / ys[1]
    if abs(rho01 - rho12) > 1e-9 * rho01:
        raise ValueError("the three smallest y nodes must be in geometric progression")
    alpha = ext.alpha
    dec = ext.decomposition
    slopes = conormal_slopes(_clean_spectrum(dec.eigenvalues), ys, alpha)

    limit, e01, e12 = _richardson_limit(
        slopes[:, 0], slopes[:, 1], slopes[:, 2], rho01, 2.0 - 2.0 * alpha, 2.0
    )
    scale = np.abs(limit).max()
    if scale > 0:
        disagree = np.abs(e01 - e12).max()
        if disagree > 10.0 * RECOVERY_TOL * scale:
            raise ExtrapolationError(
                f"limit estimates disagree by {disagree:.3e} against scale {scale:.3e}; "
                "shrink the ladder base y0"
            )
    coeffs = dec.eigenvectors.T @ ext.base
    return conormal_constant(alpha) * (dec.eigenvectors @ (limit * coeffs))


# ---------------------------------------------------------------------------
# measured regularity / doubling / weak-form quantities
# ---------------------------------------------------------------------------

def _y_cell_boundaries(ys: np.ndarray) -> np.ndarray:
    mids = 0.5 * (ys[1:] + ys[:-1])
    return np.concatenate([[0.0], mids, [ys[-1] + 0.5 * (ys[-1] - ys[-2])]])


def _weighted_y_cells(ys: np.ndarray, alpha: float) -> np.ndarray:
    """Exact integral of y^{1-2a} over each ladder cell (cells reach down to 0)."""
    b = _y_cell_boundaries(ys)
    p = 2.0 - 2.0 * alpha
    return (b[1:] ** p - b[:-1] ** p) / p


@dataclass(frozen=True)
class EnergyReport:
    energy: float
    base_mass: float          # |u|_2^2
    fractional_mass: float    # |L^alpha u|_2^2
    bound_ratio: float        # energy / (|u|^2 + |L^alpha u|^2)
    sup_trace_ratio: float    # sup_y |U(.,y)| / |u|


def energy_report(ext: ExtensionField) -> EnergyReport:
    """Weighted Dirichlet energy of the extension against its trace masses."""
    grid = ext.grid
    hn = grid.spacing**grid.dim
    wy = _weighted_y_cells(ext.y_nodes, ext.alpha)
    dy_u = np.gradient(ext.values, ext.y_nodes, axis=1)
    grad_sq = sum(g**2 for g in centered_gradient(grid, ext.values))
    density = ((dy_u**2 + grad_sq) * hn).sum(axis=0)
    energy = float((wy * density).sum())

    base_norm = l2_norm(grid, ext.base)
    if base_norm == 0.0:
        return EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0)
    if ext.decomposition is None:
        raise ValueError("energy report needs an extension built by extend()")
    frac = l2_norm(grid, fractional_power(ext.decomposition, ext.alpha, ext.base))
    ratio = energy / (base_norm**2 + frac**2)
    sup = float(np.linalg.norm(ext.values, axis=0).max() / np.linalg.norm(ext.base))
    return EnergyReport(energy, base_norm**2, frac**2, ratio, sup)


def doubling_ratio(
    ext: ExtensionField, radii, center: np.ndarray | float = 0.0
) -> list[tuple[float, float]]:
    """Weighted L2 mass ratio of half balls B(2R) over B(R) on {y = 0}.

    Midpoint counting: a grid cell contributes its full weighted measure
    iff its center (x_i, y_k) lies inside the half ball.
    """
    grid = ext.grid
    x = ext.grid.dof_nodes() if grid.boundary == "dirichlet" else grid.nodes()
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dist2 = ((x - center) ** 2).sum(axis=1)
    wy = _weighted_y_cells(ext.y_nodes, ext.alpha)
    hn = grid.spacing**grid.dim
    u2 = ext.values**2

    def mass(radius: float) -> float:
        inside = dist2[:, None] + ext.y_nodes[None, :] ** 2 < radius**2
        return float((u2 * inside * wy[None, :]).sum() * hn)

    box = grid.half_length
    out = []
    for r in radii:
        if 2.0 * r > min(box, float(ext.y_nodes[-1])):
            raise ValueError(f"doubled radius {2 * r} exceeds the sampled half-space box")
        m_r = mass(r)
        m_2r = mass(2.0 * r)
        if m_r == 0.0:
            raise DegenerateInputError(
                f"extension vanishes on the half ball of radius {r}; ratio undefined"
            )
        out.append((float(r), float(np.sqrt(m_2r / m_r))))
    return out


def constant_field_doubling_exponent(dim: int, alpha: float) -> float:
    """Exact ratio 2^{(n+2-2a)/2} for a constant synthetic field."""
    return 2.0 ** ((dim + 2.0 - 2.0 * alpha) / 2.0)


def make_weak_test_bumps(grid: Grid, y_nodes: np.ndarray, count: int = 3, seed: int = 0):
    """Tensor bumps vanishing on the whole boundary of the sampled box."""
    rng = np.random.default_rng(seed)
    x = grid.dof_nodes() if grid.boundary == "dirichlet" else grid.nodes()
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


def weak_residual(ext: ExtensionField, test_functions) -> float:
    """Max normalized weak-form residual over test functions.

    The x part of the form (a grad U . grad xi + c U xi) is evaluated through
    the assembled operator's own quadratic form, which is exact for the flux
    stencil; the y part uses centered differences and the weighted trapezoid,
    so the residual measures ladder resolution and decreases under refinement.
    """
    if ext.decomposition is None or ext.decomposition.source is None:
        raise ValueError("weak residual needs an extension built by extend()")
    grid = ext.grid
    matrix = ext.decomposition.source.matrix
    hn = grid.spacing**grid.dim
    ys = ext.y_nodes
    wy = _weighted_y_cells(ys, ext.alpha)
    dy_u = np.gradient(ext.values, ys, axis=1)
    lu = matrix @ ext.values

    u_energy = float(
        (wy * ((dy_u**2).sum(axis=0) + (ext.values * lu).sum(axis=0))).sum() * hn
    )
    if u_energy == 0.0:
        return 0.0

    worst = 0.0
    for xi in test_functions:
        xi = np.asarray(xi, dtype=float)
        dy_xi = np.gradient(xi, ys, axis=1)
        per_y = (dy_u * dy_xi).sum(axis=0) + (xi * lu).sum(axis=0)
        value = float((wy * per_y).sum() * hn)
        xi_energy = float(
            (wy * ((dy_xi**2).sum(axis=0) + (xi * (matrix @ xi)).sum(axis=0))).sum() * hn
        )
        if xi_energy <= 0:
            continue
        worst = max(worst, abs(value) / np.sqrt(u_energy * xi_energy))
    return worst
