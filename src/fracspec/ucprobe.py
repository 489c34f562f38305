"""Vanishing-set probes: fractional powers spread support, integer powers do not.

A compactly supported bump f vanishes identically on a disjoint open set.
Applying a fractional power of the operator leaves measurable mass on that
set (nonlocality), while the operator itself, a finite-stencil matrix,
leaves exactly zero mass once the set is shrunk by the stencil radius.
"""

from dataclasses import dataclass

import numpy as np

from .gridop import Grid
from .spectral import SpectralDecomposition, apply_function

# Empirical regression floor for the nonlocality ratio; the continuum
# statement is qualitative and provides no constant.
NONLOCALITY_FLOOR = 1e-6


def _as_boxes(spec, dim):
    box = np.atleast_2d(np.asarray(spec, dtype=float))
    if box.shape != (dim, 2):
        raise ValueError(f"expected {dim} (lo, hi) pairs, got shape {box.shape}")
    if not np.all(box[:, 0] < box[:, 1]):
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
            if not (box[:, 0].min() >= -x and box[:, 1].max() <= x):
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


def _mask_in_box(x: np.ndarray, box: np.ndarray) -> np.ndarray:
    return np.all((x > box[:, 0]) & (x < box[:, 1]), axis=1)


# dichotomy_sweep's peak memory over one float64 (n_dof, k) array, for k distinct
# fractional alphas, measured with tracemalloc at 300-20000 alphas on 1-D and 2-D
# grids: 3.6-3.7 where the operator splits, 3.1-3.2 where it does not (periodic
# grids). It holds the multipliers, their product with V^T f and the result, and a
# split operator's from_modes half an array more: the columns of one block in block
# order, or the differences of the pairs.
UC_PROBE_WORKING_SET = 5.0


def sweep_alphas(alphas) -> tuple[list[float], list[float]]:
    """The alphas of dichotomy_sweep as floats, each in (0, 1], and the distinct ones below 1."""
    alphas = [float(a) for a in alphas]
    if not alphas or not all(0.0 < a <= 1.0 for a in alphas):
        raise ValueError(f"sweep alphas must be a nonempty list in (0, 1], got {alphas}")
    return alphas, sorted(set(alphas) - {1.0})


def dichotomy_sweep(dec: SpectralDecomposition, spec: VanishingSpec,
                    alphas) -> list[tuple[float, float, float, float]]:
    """Rows (alpha, mass_on_theta, mass_total, ratio) for alphas in (0, 1].

    The masses are l2 norms of L^alpha f for the bump f of ``spec``. Every
    fractional alpha comes from one conjugation (one V^T f, one GEMM) and is
    measured on theta. Integer alpha = 1 is the stencil product ``apply``,
    measured on theta shrunk by one stencil width, where its mass is exactly zero.
    """
    alphas, fractional = sweep_alphas(alphas)
    grid = dec.source.grid
    f, x = bump_state(grid, spec), grid.dof_nodes()
    masses = {}
    if fractional:
        g = apply_function(dec, dec.spectrum[:, None] ** np.array(fractional), f)
        on_theta = np.linalg.norm(g[_mask_in_box(x, spec.theta)], axis=0)
        masses.update(zip(fractional, zip(on_theta, np.linalg.norm(g, axis=0))))
    if 1.0 in alphas:
        g = dec.source.apply(f)
        mask = _mask_in_box(x, spec.shrunk_theta(grid.spacing))
        masses[1.0] = (np.linalg.norm(g[mask]), np.linalg.norm(g))
    rows = []
    for alpha in alphas:
        on_theta, total = map(float, masses[alpha])
        rows.append((alpha, on_theta, total, on_theta / total if total > 0 else 0.0))
    return rows
