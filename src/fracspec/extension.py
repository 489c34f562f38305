"""Harmonic-type extension of grid functions to the weighted upper half space.

For u on the grid and alpha in (0,1), the extension U(x, y) solves the
degenerate elliptic problem div(y^{1-2a} grad U) - y^{1-2a} c U = 0 with
trace u, and the weighted normal derivative at y=0 recovers the fractional
power of the operator. Spectrally, each eigenmode of L is damped by the
closed-form multiplier

    M(lambda, y) = 2^{1-a} / Gamma(a) * z^a K_a(z),    z = sqrt(lambda) y,

with M = 1 at z = 0 (Caffarelli-Silvestre; Stinga-Torrea), which depends on
(lambda, y) only through lambda * y^2. K_a is evaluated in numpy as the trapezoid
sum of its integral e^z K_a(z) = int_0^inf e^{-2z sinh^2(t/2)} cosh(a t) dt, so no scipy
is loaded.
Its weighted Dirichlet energy is the closed form kappa_a <L^a u, u>_h (``energy_report``).
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gridop import Grid, NumericalError, _write_csv
from .spectral import SpectralDecomposition, apply_function, l2_norm, spectrum_power

RECOVERY_TOL = 1e-3
# The extend and doubling tasks' peak memory over one float64 (n_dof, y_count) array, measured
# with tracemalloc through their runners at 0.4-1.4 million entries (2-D): 4.13 in extend and
# 4.15-4.16 in doubling. The K_nu trapezoid sums add a fixed 1.3 MB (about 10 arrays of
# K_CHUNK entries), under the peak at 0.1 million entries. recover and energy compute three
# nodes and one, so they hold no ladder.
EXTENSION_WORKING_SET = 5.0
TRACE_ENVELOPE_FACTOR = 10.0
# the entries of z whose K_nu trapezoid sums are stepped together
K_CHUNK = 16384


class ExtrapolationError(NumericalError):
    """Successive limit estimates of the conormal derivative disagree."""


class DegenerateInputError(NumericalError):
    """Probe undefined on the given input (for example a vanishing field)."""


def conormal_constant(alpha: float) -> float:
    """4^a Gamma(a) / (2a Gamma(-a)); equals -1 at a = 1/2."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    return float(4.0**alpha * math.gamma(alpha) / (2.0 * alpha * math.gamma(-alpha)))


def geometric_ladder(y0: float = 1e-3, ratio: float = 1.2, count: int = 55) -> np.ndarray:
    """Geometric y ladder y0 * ratio^k, k = 0..count-1."""
    if not (y0 > 0 and ratio > 1 and count >= 3):
        raise ValueError("ladder requires y0 > 0, ratio > 1, count >= 3")
    with np.errstate(over="ignore"):
        ys = y0 * ratio ** np.arange(count)
    if not np.isfinite(ys[-1]):
        raise ValueError(f"ladder top node y0 * ratio^{count - 1} overflows")
    return ys


def _scaled_bessel_k(nu: float, x: np.ndarray) -> np.ndarray:
    """e^x K_nu(x) = int_0^inf e^{-2x sinh^2(t/2)} cosh(nu t) dt for 0 <= nu <= 1, x >= 1e-300.

    The trapezoid sum of this integral of positive terms converges geometrically (Trefethen
    and Weideman, SIAM Review 56 (2014) 385): its error is about e^{-pi^2/h} for the step
    h = 0.25 of small x, and h = 0.6/sqrt(x) follows the integrand's width at large x. Each
    entry adds its own nodes up to 2x sinh^2(t/2) = 45, past which the integral's tail is
    about e^{-45} of it or less, so its sum does not depend on the other entries.
    """
    h = np.minimum(0.25, 0.6 / np.sqrt(x))
    last = 2.0 * np.arcsinh(np.sqrt(22.5 / x)) / h
    total = np.full_like(x, 0.5)
    for k in range(1, int(last.max()) + 1):
        t = k * h
        term = np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2) * np.cosh(nu * t)
        total += np.where(k <= last, term, 0.0)
    return h * total


def _z_power_bessel_k(power: float, nu: float, z: np.ndarray) -> np.ndarray:
    """z^power K_nu(z), with 0 <= nu <= 1, of a 2-D z >= 0.

    K_nu(z) = e^{-z} (e^z K_nu(z)), the latter by its trapezoid sum on K_CHUNK entries of z at
    a time, so its work stays one chunk. z = 0, whose value no caller keeps, is taken at 1,
    where the sum is short, and the rest in [1e-300, 1e300]: below, the sum's last node would
    overflow; above, e^{-z} is 0, and so an overflowed z = inf gives 0.
    """
    out, step = np.empty_like(z), max(1, K_CHUNK // len(z))
    for j in range(0, z.shape[1], step):
        chunk = z[:, j:j + step]
        safe = np.clip(np.where(chunk > 0.0, chunk, 1.0), 1e-300, 1e300)
        out[:, j:j + step] = safe**power * _scaled_bessel_k(nu, safe) * np.exp(-safe)
    return out


def extension_multipliers(lam: np.ndarray, ys: np.ndarray, alpha: float) -> np.ndarray:
    """Per-mode damping M(lambda, y) = 2^{1-a}/Gamma(a) z^a K_a(z), in [0, 1], M = 1 at z = 0."""
    z = np.sqrt(lam)[:, None] * np.asarray(ys, dtype=float)[None, :]
    m = 2.0 ** (1.0 - alpha) / math.gamma(alpha) * _z_power_bessel_k(alpha, alpha, z)
    # z^a K_a(z) rounds a few ulps above its supremum 2^{a-1} Gamma(a) at tiny z
    return np.where(z > 0.0, np.minimum(m, 1.0), 1.0)


def conormal_slopes(lam: np.ndarray, ys: np.ndarray, alpha: float) -> np.ndarray:
    """Weighted slope y^{1-2a} dM/dy = -2^{1-a}/Gamma(a) sqrt(lambda) y^{1-2a} z^a K_{1-a}(z).

    It is 0 at lambda = 0 and tends to lambda^a / conormal_constant(alpha) as y -> 0.
    """
    root = np.sqrt(lam)[:, None]
    ys = np.asarray(ys, dtype=float)[None, :]
    return (-2.0 ** (1.0 - alpha) / math.gamma(alpha) * root * ys ** (1.0 - 2.0 * alpha)
            * _z_power_bessel_k(alpha, 1.0 - alpha, root * ys))


@dataclass(frozen=True)
class ExtensionField:
    """Samples U[dof, k] of the extension of ``base`` on grid x ladder, weight y^{1-2a}; the
    grid is ``decomposition.source.grid``."""

    base: np.ndarray
    alpha: float
    y_nodes: np.ndarray
    values: np.ndarray
    decomposition: SpectralDecomposition
    # not a field: perfbench/traced_task.py reads it after every extend(); the
    # line goes when that reader is dropped with the next benchmark change
    quadrature = None

    def export_csv(self, path: str | Path) -> None:
        n_x, n_y = self.values.shape
        _write_csv(path, "x_index,y,U", [np.tile(np.arange(n_x), n_y),
                                         np.repeat(self.y_nodes, n_x), self.values.T.ravel()])


def trace_tolerance(alpha: float, y0: float, base_norm: float, n_dof: int) -> float:
    """Generous trace-convergence envelope 10 y0^{min(2a,1)} |u|, floored at n_dof eps |u|.

    Where every multiplier at y0 rounds to 1, |U(., y0) - u| is the roundoff of V V^T u:
    at most 0.055 n_dof eps |u|, measured on 64 to 4096 dofs.
    """
    floor = n_dof * np.finfo(float).eps
    return (TRACE_ENVELOPE_FACTOR * y0 ** min(2.0 * alpha, 1.0) + floor) * base_norm


def extend(
    dec: SpectralDecomposition,
    alpha: float,
    u: np.ndarray,
    y_nodes: np.ndarray | None = None,
) -> ExtensionField:
    """Evaluate the extension of u on the y ladder, mode by mode."""
    conormal_constant(alpha)  # raises unless 0 < alpha < 1
    ys = geometric_ladder() if y_nodes is None else np.asarray(y_nodes, dtype=float)
    if ys.ndim != 1 or not ys.size or np.any(ys <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("y ladder must be a nonempty 1-D array, positive and strictly increasing")
    u = np.asarray(u, dtype=float)
    field = ExtensionField(
        base=u,
        alpha=alpha,
        y_nodes=ys,
        values=apply_function(dec, extension_multipliers(dec.spectrum, ys, alpha), u),
        decomposition=dec,
    )
    _validate_extension(field)
    return field


def _validate_extension(field: ExtensionField) -> None:
    base_norm = np.linalg.norm(field.base)
    sup = np.linalg.norm(field.values, axis=0).max()
    if sup > base_norm * (1.0 + 1e-8):
        raise NumericalError(f"extension exceeds the trace mass: sup_y |U| = {sup:.6e} > |u| = {base_norm:.6e}")
    y0 = float(field.y_nodes[0])
    trace_err = np.linalg.norm(field.values[:, 0] - field.base)
    if trace_err > trace_tolerance(field.alpha, y0, base_norm, len(field.base)):
        raise NumericalError(
            f"trace not recovered: |U(., y0) - u| = {trace_err:.6e} at y0 = {y0:.3e}"
        )


def _richardson_limit(g0, g1, g2, rho, p1, p2):
    """Two-stage limit of g(y) = g(0) + c1 y^{p1} + c2 y^{p2} + ... at y = 0."""
    r1 = rho**p1
    e01 = (r1 * g0 - g1) / (r1 - 1.0)
    e12 = (r1 * g1 - g2) / (r1 - 1.0)
    r2 = rho**p2
    return (r2 * e01 - e12) / (r2 - 1.0), e01, e12


def conormal_recover(dec: SpectralDecomposition, alpha: float, u: np.ndarray,
                     y0: float = 1e-3, ratio: float = 1.2) -> np.ndarray:
    """Recover L^alpha u from the weighted slope y^{1-2a} dU/dy of its extension at y -> 0.

    The slope is evaluated in closed form at the three ladder nodes y0, y0 ratio, y0 ratio^2,
    then extrapolated to y = 0 with the boundary expansion exponents 2-2a and 2, so the
    recovered value is a measured limit from finite y.
    """
    constant = conormal_constant(alpha)  # raises unless 0 < alpha < 1
    ys = geometric_ladder(y0, ratio, 3)
    slopes = conormal_slopes(dec.spectrum, ys, alpha)
    limit, e01, e12 = _richardson_limit(
        slopes[:, 0], slopes[:, 1], slopes[:, 2], ys[1] / ys[0], 2.0 - 2.0 * alpha, 2.0
    )
    scale, disagree = np.abs(limit).max(), np.abs(e01 - e12).max()
    if disagree > 10.0 * RECOVERY_TOL * scale:
        raise ExtrapolationError(f"limit estimates disagree by {disagree:.3e} against scale "
                                 f"{scale:.3e}; shrink the ladder base y0")
    return constant * apply_function(dec, limit, u)


# ---------------------------------------------------------------------------
# closed-form energy and measured doubling quantities
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
    """The field order is the key order of ``energy.json``."""

    energy: float
    base_mass: float          # |u|_2^2
    fractional_mass: float    # |L^alpha u|_2^2
    bound_ratio: float        # energy / (|u|^2 + |L^alpha u|^2)
    sup_trace_ratio: float    # sup_y |U(.,y)| / |u|


def energy_report(ext: ExtensionField) -> EnergyReport:
    """Weighted Dirichlet energy kappa_a <L^a u, u>_h of the extension, kappa_a = 2^{1-2a}
    Gamma(1-a)/Gamma(a) = -1/conormal_constant(a), against its trace masses: per mode,
    int_0^inf y^{1-2a} (M'^2 + lambda M^2) dy = kappa_a lambda^a (Caffarelli-Silvestre)."""
    dec = ext.decomposition
    grid = dec.source.grid
    base_norm = l2_norm(grid, ext.base)
    if base_norm == 0.0:
        return EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0)
    modes = dec.to_modes(ext.base)  # c = V^T u: <u, L^a u> = c . lambda^a c, |L^a u| = |lambda^a c|
    frac_modes = spectrum_power(dec, ext.alpha) * modes
    energy = -grid.spacing**grid.dim * (modes @ frac_modes) / conormal_constant(ext.alpha)
    frac = l2_norm(grid, frac_modes)
    ratio = energy / (base_norm**2 + frac**2)
    sup = float(np.linalg.norm(ext.values, axis=0).max() / np.linalg.norm(ext.base))
    return EnergyReport(energy, base_norm**2, frac**2, ratio, sup)


def doubling_radii(radii, grid: Grid, y_top: float) -> list[float]:
    """Radii > 0 whose doubles fit the sampled half space; None picks those of 4h, 2h, h that
    fit, h the spacing: a half ball of radius >= h holds the node nearest the center."""
    h, fits = grid.spacing, min(grid.half_length, y_top) / 2.0
    if radii is None:
        radii = [r for r in (4.0 * h, 2.0 * h, h) if r <= fits] or [h]
    if not (radii and all(0.0 < r <= fits for r in radii)):
        raise ValueError(f"radii must be a nonempty list in (0, {fits:.6g}], half of the sampled "
                         f"half-space box min(half_length, y_max), got {radii}")
    return [float(r) for r in radii]


def doubling_ratio(
    ext: ExtensionField, radii, center: np.ndarray | float = 0.0
) -> list[tuple[float, float]]:
    """Weighted L2 mass ratio of half balls B(2R) over B(R) on {y = 0}, R in ``doubling_radii``.

    Midpoint counting: a grid cell contributes its full weighted measure
    iff its center (x_i, y_k) lies inside the half ball.
    """
    grid = ext.decomposition.source.grid
    radii = doubling_radii(radii, grid, float(ext.y_nodes[-1]))
    x = grid.dof_nodes()
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dist2 = ((x - center) ** 2).sum(axis=1)
    wy = _weighted_y_cells(ext.y_nodes, ext.alpha)
    hn = grid.spacing**grid.dim
    u2 = ext.values**2

    def mass(radius: float) -> float:
        inside = dist2[:, None] + ext.y_nodes[None, :] ** 2 < radius**2
        return float((u2 * inside * wy[None, :]).sum() * hn)

    out = []
    for r in radii:
        m_r, m_2r = mass(r), mass(2.0 * r)
        if m_r == 0.0:
            raise DegenerateInputError(f"extension vanishes on the half ball of radius {r}; "
                                       "ratio undefined")
        out.append((r, float(np.sqrt(m_2r / m_r))))
    return out
