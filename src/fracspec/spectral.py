"""Dense spectral calculus for the assembled symmetric operators.

Every function of the operator (fractional powers, heat semigroup, unitary
and viscous propagators) is realized exactly at the discrete level by
conjugating a scalar map with the eigendecomposition:
g(L) f = V diag(g(Lambda)) V^T f. Bessel potentials of the flat Laplacian
need no eigensolve: the FFT (periodic) or DST-I (Dirichlet) diagonalizes it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from .gridop import DiscreteOperator, Grid, assemble, make_coefficients

DEFAULT_DOF_CAP = 4096

# eigh roundoff envelopes used by validation
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
NEGATIVITY_TOL = 1e-10


class SpectrumCapError(ValueError):
    """Dense eigensolve refused; reduce the grid size."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a DiscreteOperator, eigenvalues nondecreasing."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns
    source: DiscreteOperator | None = None

    @property
    def n_dof(self) -> int:
        return self.eigenvalues.shape[0]

    def validate(self) -> None:
        """Check orthonormality, reconstruction, and spectrum nonnegativity.

        Full matrix checks up to 1024 dofs; above that the O(n^3) products
        would dominate the eigensolve, so deterministic random probes are
        used instead.
        """
        lam, v = self.eigenvalues, self.eigenvectors
        scale = max(abs(lam[-1]), abs(lam[0]), 1e-300)
        if lam[0] < -NEGATIVITY_TOL * scale:
            raise ValueError(f"operator not nonnegative: min eigenvalue {lam[0]:.3e}")
        if self.n_dof <= 1024:
            gram = v.T @ v - np.eye(self.n_dof)
            if np.abs(gram).max() > ORTHONORMALITY_TOL:
                raise ValueError("eigenvector matrix not orthonormal")
            if self.source is not None:
                resid = (v * lam) @ v.T - self.source.matrix
                if np.abs(resid).max() > RECONSTRUCTION_TOL * scale:
                    raise ValueError("eigendecomposition does not reconstruct the matrix")
            return
        rng = np.random.default_rng(0)
        z = rng.standard_normal(self.n_dof)
        if np.linalg.norm(v @ (v.T @ z) - z) > ORTHONORMALITY_TOL * np.linalg.norm(z) * self.n_dof:
            raise ValueError("eigenvector matrix not orthonormal (probe check)")
        if self.source is not None:
            resid = v @ (lam * (v.T @ z)) - self.source.matrix @ z
            if np.linalg.norm(resid) > RECONSTRUCTION_TOL * scale * np.linalg.norm(z):
                raise ValueError("eigendecomposition does not reconstruct the matrix (probe check)")


def eigendecompose(op: DiscreteOperator, cap: int = DEFAULT_DOF_CAP) -> SpectralDecomposition:
    """Full symmetric eigendecomposition (dense)."""
    n = op.matrix.shape[0]
    if n > cap:
        raise SpectrumCapError(
            f"{n} degrees of freedom exceed the dense-solve cap {cap}; reduce N"
        )
    lam, v = scipy.linalg.eigh(op.matrix)
    dec = SpectralDecomposition(eigenvalues=lam, eigenvectors=v, source=op)
    dec.validate()
    return dec


# ---------------------------------------------------------------------------
# scalar-map catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarMap:
    """Named scalar function applied to the spectrum.

    Spectra are clamped at zero before evaluation: tiny negative
    eigenvalues are eigensolver roundoff on a nonnegative operator.
    """

    name: str
    fn: callable

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        return self.fn(np.maximum(np.asarray(lam, dtype=float), 0.0))


def identity_map() -> ScalarMap:
    return ScalarMap("identity", lambda lam: lam * 0 + 1.0)


def power(alpha: float) -> ScalarMap:
    if alpha < 0:
        # inverse powers are only reachable through the (lambda + 1) shift
        raise ValueError(f"power requires alpha >= 0, got {alpha}; use shifted_power")
    return ScalarMap(f"power({alpha})", lambda lam: lam**alpha)


def heat(t: float) -> ScalarMap:
    return ScalarMap(f"heat({t})", lambda lam: np.exp(-t * lam))


def unitary_frac(t: float, alpha: float) -> ScalarMap:
    return ScalarMap(f"unitary_frac({t},{alpha})", lambda lam: np.exp(1j * t * lam**alpha))


def viscous(eps: float, t: float, alpha: float) -> ScalarMap:
    return ScalarMap(
        f"viscous({eps},{t},{alpha})",
        lambda lam: np.exp(-eps * t * lam**2 + 1j * t * lam**alpha),
    )


def shifted_power(alpha: float) -> ScalarMap:
    """(lambda + 1)^alpha; well defined for every real alpha."""
    return ScalarMap(f"shifted_power({alpha})", lambda lam: (lam + 1.0) ** alpha)


def bounded_custom(fn, name: str = "custom") -> ScalarMap:
    return ScalarMap(name, fn)


def product_map(f: ScalarMap, g: ScalarMap) -> ScalarMap:
    return ScalarMap(f"({f.name})*({g.name})", lambda lam: f.fn(lam) * g.fn(lam))


def _clean_spectrum(lam: np.ndarray) -> np.ndarray:
    """Snap eigenvalues that are zero up to eigensolver roundoff to exact zero."""
    scale = np.abs(lam).max() if lam.size else 0.0
    tol = 10.0 * lam.size * np.finfo(float).eps * scale
    return np.where(lam <= tol, 0.0, lam)


def apply_function(dec: SpectralDecomposition, scalar_map: ScalarMap, f: np.ndarray) -> np.ndarray:
    """V diag(map(Lambda)) V^T f."""
    f = np.asarray(f)
    if f.shape[0] != dec.n_dof:
        raise ValueError(f"state length {f.shape[0]} != dof count {dec.n_dof}")
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = scalar_map(_clean_spectrum(dec.eigenvalues))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise ValueError(
            f"scalar map {scalar_map.name} is singular on the spectrum "
            f"(eigenvalue {dec.eigenvalues[k]:.6e} at index {k})"
        )
    coeffs = dec.eigenvectors.T @ f
    if f.ndim == 1:
        return dec.eigenvectors @ (vals * coeffs)
    return dec.eigenvectors @ (vals[:, None] * coeffs)


def fractional_power(dec: SpectralDecomposition, alpha: float, f: np.ndarray) -> np.ndarray:
    """L^alpha f for alpha >= 0."""
    return apply_function(dec, power(alpha), f)


def unitary_propagate(dec: SpectralDecomposition, alpha: float, t: float, f: np.ndarray) -> np.ndarray:
    """e^{i t L^alpha} f; preserves the l2 norm and the group law exactly."""
    return apply_function(dec, unitary_frac(t, alpha), f)


def viscous_propagate(
    dec: SpectralDecomposition, alpha: float, eps: float, t: float, f: np.ndarray
) -> np.ndarray:
    """e^{t(-eps L^2 + i L^alpha)} f, the dissipative propagator."""
    if eps < 0 or t < 0:
        raise ValueError("viscous_propagate requires eps >= 0 and t >= 0")
    return apply_function(dec, viscous(eps, t, alpha), f)


def smoothing_norm_measured(dec: SpectralDecomposition, eps: float, t: float) -> float:
    """Operator norm of L e^{-eps t L^2 + i t L^alpha}: max of lam e^{-eps t lam^2}."""
    lam = np.maximum(dec.eigenvalues, 0.0)
    return float((lam * np.exp(-eps * t * lam**2)).max())


def smoothing_norm_bound(eps: float, t: float) -> float:
    """Scalar bound (2 e eps t)^{-1/2}, attained at lam = (2 eps t)^{-1/2}."""
    return float((2.0 * np.e * eps * t) ** -0.5)


# ---------------------------------------------------------------------------
# Bessel potentials (1 - discrete Laplacian)^{s/2}
# ---------------------------------------------------------------------------

def laplacian_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues (2 - 2cos theta_k)/h^2 of the flat -Laplacian_h, in transform order.

    FFT (periodic): theta_k = 2 pi k/n, k = 0..n-1. DST-I (Dirichlet):
    theta_k = pi k/(n-1), k = 1..n-2. In 2-D the axis symbols add.
    """
    n, h = grid.points_per_axis, grid.spacing
    theta = (2.0 * np.pi * np.arange(n) / n if grid.boundary == "periodic"
             else np.pi * np.arange(1, n - 1) / (n - 1))
    m1 = (2.0 - 2.0 * np.cos(theta)) / h**2
    if grid.dim == 1:
        return m1
    return m1[:, None] + m1[None, :]


@dataclass(frozen=True)
class BesselPotential:
    """(1 - discrete Laplacian)^{order/2} on a fixed grid."""

    grid: Grid
    order: float

    def apply(self, f: np.ndarray) -> np.ndarray:
        return bessel_apply(self.grid, self.order, f)


def bessel_apply(grid: Grid, s: float, f: np.ndarray) -> np.ndarray:
    """(1 + (-Laplacian_h))^{s/2} f through the FFT (periodic) or DST-I (Dirichlet).

    ``f`` has the dof axis first; trailing axes form a batch.
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
        coeffs = scipy.fft.dstn(x, type=1, axes=axes, norm="ortho")
        out = scipy.fft.idstn(mult * coeffs, type=1, axes=axes, norm="ortho")
    return out.reshape(f.shape)


def l2_norm(grid: Grid, f: np.ndarray):
    """Physical l2 norm with the h^{dim/2} cell weight; one per column of a batch."""
    f = np.asarray(f)
    norm = float(np.linalg.norm(f)) if f.ndim == 1 else np.linalg.norm(f, axis=0)
    return norm * grid.spacing ** (grid.dim / 2.0)


def sobolev_norm(grid: Grid, s: float, f: np.ndarray):
    """Discrete H^s norm |(1 - Laplacian_h)^{s/2} f|_2; one per column of a batch."""
    return l2_norm(grid, bessel_apply(grid, s, f))


# ---------------------------------------------------------------------------
# norm equivalence between |f|_2 + |L^alpha f|_2 and |(1-Laplacian)^alpha f|_2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEquivalenceReport:
    alpha: float
    n_samples: int
    ratio_min: float
    ratio_max: float
    refinement_drift: float | None  # None (JSON null) when refinement is skipped
    lambda_min: float
    lambda_max: float

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "refinement_drift": self.refinement_drift,
            "n_samples": self.n_samples,
        }


def _gaussian_bump_params(rng: np.random.Generator, half_length: float, dim: int, count: int):
    """Analytic bump parameters reusable across grid resolutions."""
    out = []
    for _ in range(count):
        center = rng.uniform(-half_length / 2, half_length / 2, size=dim)
        width = rng.uniform(half_length / 8, half_length / 2)
        out.append((center, width))
    return out


def _sample_bump(grid: Grid, center: np.ndarray, width: float) -> np.ndarray:
    x = grid.dof_nodes()
    return np.exp(-((x - center) ** 2).sum(axis=1) / width**2)


def _equivalence_ratios(dec: SpectralDecomposition, grid: Grid, alpha: float,
                        bump_params, eig_indices) -> np.ndarray:
    tests = np.column_stack([_sample_bump(grid, c, w) for c, w in bump_params]
                            + [dec.eigenvectors[:, k] for k in eig_indices if k < dec.n_dof])
    norms = l2_norm(grid, tests)
    if np.any(norms == 0.0):
        raise ValueError("zero test function in norm-equivalence sample")
    num = norms + l2_norm(grid, fractional_power(dec, alpha, tests))
    return num / sobolev_norm(grid, 2.0 * alpha, tests)


# fixed mode indices: their eigenvalues converge under grid refinement, so
# the bracket is comparable across resolutions (spectrum-fraction sampling
# would track the grid-scale modes instead)
EIGENVECTOR_SAMPLE_INDICES = (0, 1, 2, 4, 8, 16, 32)


def norm_equivalence(
    op: DiscreteOperator,
    alpha: float,
    n_bumps: int = 12,
    seed: int = 0,
    dec: SpectralDecomposition | None = None,
    refine: bool = True,
) -> NormEquivalenceReport:
    """Measured equivalence bracket, with drift against the doubled grid.

    The equivalence constants are not quantified in the continuum theory;
    the report carries the observed bracket and its relative change when
    the same coefficient family is re-assembled at doubled resolution.
    """
    grid = op.grid
    if dec is None:
        dec = eigendecompose(op)
    rng = np.random.default_rng(seed)
    bumps = _gaussian_bump_params(rng, grid.half_length, grid.dim, n_bumps)
    ratios = _equivalence_ratios(dec, grid, alpha, bumps, EIGENVECTOR_SAMPLE_INDICES)
    lo, hi = float(ratios.min()), float(ratios.max())

    drift = None
    if refine and op.coefficients.kind != "tabulated":
        fine_grid = Grid(grid.dim, 2 * grid.points_per_axis, grid.half_length, grid.boundary)
        fine_field = make_coefficients(fine_grid, op.coefficients.kind, op.coefficients.params)
        fine_dec = eigendecompose(assemble(fine_grid, fine_field))
        fine = _equivalence_ratios(fine_dec, fine_grid, alpha, bumps, EIGENVECTOR_SAMPLE_INDICES)
        drift = max(
            abs(float(fine.min()) - lo) / lo,
            abs(float(fine.max()) - hi) / hi,
        )
    return NormEquivalenceReport(
        alpha=alpha,
        n_samples=len(ratios),
        ratio_min=lo,
        ratio_max=hi,
        refinement_drift=drift,
        lambda_min=float(dec.eigenvalues[0]),
        lambda_max=float(dec.eigenvalues[-1]),
    )
