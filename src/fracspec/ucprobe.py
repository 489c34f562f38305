"""Vanishing-set probes: fractional powers spread support, integer powers do not.

A compactly supported bump f vanishes identically on a disjoint open set.
Applying a fractional power of the operator leaves measurable mass on that
set (nonlocality), while an integer power, being a finite-stencil matrix,
leaves exactly zero mass once the set is shrunk by the stencil radius.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gridop import Grid, _write_csv
from .spectral import SpectralDecomposition, fractional_power

# Empirical regression floor for the nonlocality ratio; the continuum
# statement is qualitative and provides no constant.
NONLOCALITY_FLOOR = 1e-6


def _as_boxes(spec, dim):
    box = np.atleast_2d(np.asarray(spec, dtype=float))
    if box.shape != (dim, 2):
        raise ValueError(f"expected {dim} (lo, hi) pairs, got shape {box.shape}")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("interval lower bounds must be below upper bounds")
    return box


@dataclass(frozen=True)
class VanishingSpec:
    """Open set theta and a disjoint bump support, both inside the grid box.

    The bump profile is (1 - r^2)^4 per axis on its support and exactly
    zero outside, so the probe state vanishes on theta by construction.
    """

    theta: np.ndarray      # (dim, 2) axis-aligned box
    f_support: np.ndarray  # (dim, 2) axis-aligned box

    @classmethod
    def create(cls, theta, f_support, dim: int = 1) -> "VanishingSpec":
        tb = _as_boxes(theta, dim)
        sb = _as_boxes(f_support, dim)
        # closures must not intersect: separation along at least one axis
        touching = all(tb[ax, 1] >= sb[ax, 0] and sb[ax, 1] >= tb[ax, 0]
                       for ax in range(dim))
        if touching:
            raise ValueError("theta touches or overlaps the bump support")
        return cls(theta=tb, f_support=sb)

    def check_inside(self, grid: Grid) -> None:
        x = grid.half_length
        for name, box in (("theta", self.theta), ("f_support", self.f_support)):
            if box[:, 0].min() < -x or box[:, 1].max() > x:
                raise ValueError(f"{name} is not inside the grid box [-{x}, {x}]^dim")

    def shrunk_theta(self, margin: float) -> np.ndarray:
        box = self.theta.copy()
        box[:, 0] += margin
        box[:, 1] -= margin
        if np.any(box[:, 0] >= box[:, 1]):
            raise ValueError(
                f"theta is empty after shrinking by {margin} (stencil margin)"
            )
        return box


def bump_state(grid: Grid, spec: VanishingSpec) -> np.ndarray:
    """Sample the compact bump on the dof nodes; exact zeros off support."""
    spec.check_inside(grid)
    x = grid.dof_nodes()
    out = np.ones(x.shape[0])
    for ax in range(grid.dim):
        lo, hi = spec.f_support[ax]
        center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        r = (x[:, ax] - center) / radius
        out = out * np.where(np.abs(r) < 1.0, (1.0 - r**2) ** 4, 0.0)
    return out


def _mask_in_box(grid: Grid, box: np.ndarray) -> np.ndarray:
    x = grid.dof_nodes()
    mask = np.ones(x.shape[0], dtype=bool)
    for ax in range(grid.dim):
        mask &= (x[:, ax] > box[ax, 0]) & (x[:, ax] < box[ax, 1])
    return mask


@dataclass(frozen=True)
class NonlocalityResult:
    alpha: float
    mass_on_theta: float
    mass_total: float

    @property
    def ratio(self) -> float:
        return self.mass_on_theta / self.mass_total if self.mass_total > 0 else 0.0


def nonlocality_probe(dec: SpectralDecomposition, alpha: float,
                      spec: VanishingSpec) -> NonlocalityResult:
    """Mass of L^alpha f on the vanishing set of f, for alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    grid = dec.source.grid
    f = bump_state(grid, spec)
    g = fractional_power(dec, alpha, f)
    mask = _mask_in_box(grid, spec.theta)
    return NonlocalityResult(
        alpha=alpha,
        mass_on_theta=float(np.linalg.norm(g[mask])),
        mass_total=float(np.linalg.norm(g)),
    )


def locality_contrast(dec: SpectralDecomposition, m: int,
                      spec: VanishingSpec) -> NonlocalityResult:
    """Mass of the m-fold operator product on theta shrunk by m stencil widths.

    The matrix power is applied as repeated matrix multiplication so the
    finite stencil is exact: ``mass_on_theta`` is identically zero in
    floating point.
    """
    if m not in (1, 2):
        raise ValueError(f"integer power m must be 1 or 2, got {m}")
    grid = dec.source.grid
    g = bump_state(grid, spec)
    matrix = dec.source.matrix  # built on each read, so once
    for _ in range(m):
        g = matrix @ g
    mask = _mask_in_box(grid, spec.shrunk_theta(m * grid.spacing))
    return NonlocalityResult(
        alpha=float(m),
        mass_on_theta=float(np.linalg.norm(g[mask])),
        mass_total=float(np.linalg.norm(g)),
    )


def dichotomy_sweep(dec: SpectralDecomposition, spec: VanishingSpec,
                    alphas) -> list[tuple[float, float, float, float]]:
    """Rows (alpha, mass_on_theta, mass_total, ratio) for alphas in (0, 1].

    Integer alpha = 1 is evaluated on theta shrunk by one stencil width,
    where the matrix locality makes the mass exactly zero; fractional
    alphas use the unshrunken set.
    """
    alphas = [float(a) for a in alphas]
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise ValueError("sweep alphas must lie in (0, 1]")
    rows = []
    for alpha in alphas:
        res = (locality_contrast(dec, 1, spec) if alpha == 1.0
               else nonlocality_probe(dec, alpha, spec))
        rows.append((alpha, res.mass_on_theta, res.mass_total, res.ratio))
    return rows


def sweep_to_csv(rows, path: str | Path) -> None:
    _write_csv(path, "alpha,mass_theta,mass_total,ratio",
               np.asarray(rows, dtype=float).reshape(-1, 4).T)
