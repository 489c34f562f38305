"""Dense spectral calculus for the assembled symmetric operators.

Every function of the operator (fractional powers, unitary and viscous
propagators, the extension multipliers, the conormal limit) is realized
exactly at the discrete level by one conjugation with the
eigendecomposition, ``apply_function``: g(L) f = V diag(g(Lambda)) V^T f,
where the caller evaluates the per-mode multipliers g(Lambda) on
``SpectralDecomposition.spectrum``. Every product with V goes through
``to_modes`` (V^T f) and ``from_modes`` (V c). On a Dirichlet grid a
coefficient field that is even under x -> -x gives a matrix that commutes
with the reversal of the dofs, so in the symmetry-adapted basis
(e_k +- e_{n-1-k})/sqrt 2 (Fassler and Stiefel, Group Theoretical Methods
and Their Applications, 1992) it splits into two decoupled blocks of about
n/2 dofs. Each block is folded straight from the operator's stencil entries
(``_fold``), so no (n, n) array of a split operator is built, and solved
apart; V is kept as the two blocks, and each transform costs two half-size
GEMMs. Each block is solved in place by LAPACK's dsyevd from numpy's own
OpenBLAS (``_eigh``); no module imports scipy. Sobolev norms need no eigensolve:
the FFT (periodic) or DST-I (Dirichlet) diagonalizes the flat Laplacian.
"""

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .gridop import (
    CoefficientField,
    DiscreteOperator,
    Grid,
    NumericalError,
    _symmetric_scatter,
    assemble,
    make_coefficients,
)

DEFAULT_DOF_CAP = 4096
# eigh roundoff envelopes used by validation
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
NEGATIVITY_TOL = 1e-10


class SpectrumCapError(ValueError):
    """Dense eigensolve refused; reduce the grid size."""


def check_dof_cap(n_dof: int) -> None:
    """The dense eigensolve takes at most DEFAULT_DOF_CAP dofs."""
    if n_dof > DEFAULT_DOF_CAP:
        raise SpectrumCapError(
            f"{n_dof} degrees of freedom exceed the dense-solve cap {DEFAULT_DOF_CAP}; reduce N")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of the operator ``source``, eigenvalues nondecreasing; states live on its grid.

    ``to_modes`` (V^T f) and ``from_modes`` (V c) are the only changes of
    basis; the orthonormal V is held as two blocks. The first p = len(odd)
    dofs pair with the last p in reverse order, and the n - 2p between are
    unpaired. A column of ``even`` is a column of V on its first n - p dofs,
    which its last p repeat in reverse order. A column of ``odd`` is one on
    its first p dofs, which its last p repeat negated and reversed, with
    zeros between. Without pairs (p = 0), ``even`` is V in eigenvalue order,
    ``rank`` the identity and ``odd`` empty, and the transforms are one product.
    """

    eigenvalues: np.ndarray
    blocks: tuple  # (even, odd), as above
    rank: np.ndarray  # the eigenvalue index of each block column, those of even first
    source: DiscreteOperator
    eigensolve: dict | None = None  # set by eigendecompose: the driver, block sizes, residuals

    @property
    def n_dof(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues, with those that are zero up to eigensolver roundoff
        (tiny negatives included) snapped to exact zero."""
        return _clean_spectrum(self.eigenvalues)

    def to_modes(self, f: np.ndarray) -> np.ndarray:
        """V^T f, in eigenvalue order; ``f`` has the dof axis first, trailing axes a batch."""
        f = np.asarray(f)
        if f.shape[0] != self.n_dof:
            raise ValueError(f"state length {f.shape[0]} != dof count {self.n_dof}")
        even, odd = self.blocks
        if not len(odd):
            return _product(even.T, f)
        p, q, split = len(odd), self.n_dof - len(odd), even.shape[1]
        out = np.empty(f.shape, np.result_type(f, float))
        folded = f[:q].astype(out.dtype)  # each pair summed, then (below) differenced
        folded[:p] += f[q:][::-1]
        out[self.rank[:split]] = _product(even.T, folded)
        np.subtract(f[:p], f[q:][::-1], out=folded[:p])
        out[self.rank[split:]] = _product(odd.T, folded[:p])
        return out

    def from_modes(self, c: np.ndarray) -> np.ndarray:
        """V c for coefficients ``c`` in eigenvalue order (first axis: the mode)."""
        c = np.asarray(c)
        even, odd = self.blocks
        if not len(odd):
            return _product(even, c)
        p, q, split = len(odd), self.n_dof - len(odd), even.shape[1]
        # the block products go straight into place, the odd one into the last p rows
        cols = _float_columns(c)
        out = np.empty(cols.shape)
        np.matmul(even, cols[self.rank[:split]], out=out[:q])
        np.matmul(odd, cols[self.rank[split:]], out=out[q:])
        diff = out[:p] - out[q:]
        out[:p] += out[q:]
        out[q:] = diff[::-1]
        return (out.view(complex) if np.iscomplexobj(c) else out).reshape(c.shape)

    def validate(self) -> dict:
        """Check spectrum nonnegativity, orthonormality and reconstruction.

        Paired blocks are refused unless they pair every dof with its mirror image
        on a mirrored source (``_mirrored``), whose matrix A equals P A P for the
        dof reversal P: the blocks then leave out no even/odd coupling. Up to 1024
        dofs the checks are per block, on W, the block's orthonormal eigenvectors:
        orthonormality is the largest entry of W W^T - I, and reconstruction the
        largest entry of W diag(lam) W^T - B against the block B folded again from
        the stencil entries. In the dof basis V = Q diag(W_even, W_odd) for an
        orthogonal Q with at most two entries of 1/sqrt 2 per row, so each bounds
        the largest entry of V V^T - I or V diag(lam) V^T - A: no check is weaker
        than one on the dense products. Without pairs the checks are those
        products, up to the order in which the entries of A are subtracted.
        Above 1024 dofs the O(n^3) products would dominate the eigensolve, so
        deterministic random probes go through ``to_modes``, ``from_modes`` and
        ``source.apply`` instead. Each check passes only if ``measured <= bound``,
        so a NaN fails it. Returns the orthonormality and reconstruction
        residuals, each as ``{"measured", "bound"}``.
        """
        lam, n = self.eigenvalues, self.n_dof
        even, odd = self.blocks
        p, split = len(odd), even.shape[1]
        if p and not (p == n // 2 and _mirrored(self.source)):
            raise NumericalError(f"{p} dof pairs split an operator that is not their mirror image")
        scale = max(abs(lam[-1]), abs(lam[0]), 1e-300)
        if not (-lam[0] <= NEGATIVITY_TOL * scale):
            raise NumericalError(f"operator not nonnegative: min eigenvalue {lam[0]:.3e}, "
                                 f"bound {-NEGATIVITY_TOL * scale:.3e}")
        if n <= 1024:
            how = ""
            ortho, recon = np.transpose([
                _block_residuals(v, lam_b, p, _fold(self.source.entries, n, p, is_odd))
                for is_odd, v, lam_b in [(False, even, lam[self.rank[:split]]),
                                         (True, odd, lam[self.rank[split:]])]])
            ortho = ortho.max(), ORTHONORMALITY_TOL
            recon = recon.max(), RECONSTRUCTION_TOL * scale
        else:
            how = " (probe check)"
            z = _probe(n)
            size, modes = np.linalg.norm(z), self.to_modes(z)
            ortho = (np.linalg.norm(self.from_modes(modes) - z), ORTHONORMALITY_TOL * size * n)
            recon = (np.linalg.norm(self.from_modes(lam * modes) - self.source.apply(z)),
                     RECONSTRUCTION_TOL * scale * size)
        checks = {"orthonormality": (ortho, "eigenvector matrix not orthonormal"),
                  "reconstruction": (recon, "eigendecomposition does not reconstruct the matrix")}
        for (measured, bound), failure in checks.values():
            if not (measured <= bound):
                raise NumericalError(f"{failure}{how}: residual {measured:.3e}, bound {bound:.3e}")
        return {name: {"measured": float(measured), "bound": float(bound)}
                for name, ((measured, bound), _) in checks.items()}


def _product(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x for a real ``w``. A complex ``x`` is multiplied as one real GEMM on its float
    view, where numpy would cast ``w`` to complex on every call."""
    if not np.iscomplexobj(x):
        return w @ x
    return (w @ _float_columns(x)).view(complex).reshape(w.shape[:1] + x.shape[1:])


def _float_columns(x: np.ndarray) -> np.ndarray:
    """``x`` as a C-ordered float (len(x), width) matrix; a complex ``x`` is its float view,
    twice as wide."""
    x = np.ascontiguousarray(x, complex if np.iscomplexobj(x) else float)
    return x.view(float).reshape(len(x), x.itemsize // 8 * math.prod(x.shape[1:]))


def _probe(n: int) -> np.ndarray:
    """The fixed seeded probe vector of the validation and sign checks."""
    return np.random.default_rng(0).standard_normal(n)


def _clean_spectrum(lam: np.ndarray) -> np.ndarray:
    scale = np.abs(lam).max() if lam.size else 0.0
    tol = 10.0 * lam.size * np.finfo(float).eps * scale
    return np.where(lam <= tol, 0.0, lam)


def _mirrored(op: DiscreteOperator) -> bool:
    """Whether ``op`` is on a Dirichlet grid with a coefficient field bitwise even under the
    reversal of the nodes (x -> -x). Its matrix A then equals P A P for the dof reversal P
    bit for bit: ``gridop._flux_entries`` sums terms that the reflection only reorders."""
    field = op.coefficients
    return op.grid.boundary == "dirichlet" and all(
        np.array_equal(x, x[::-1]) for x in (field.a, field.c))


def _fold(entries, n: int, p: int, odd: bool):
    """The stencil ``entries`` of an n-dof operator folded into its even or odd block, as
    (size, rows, cols, values), under the pairing of the first p dofs with the last p
    reversed (see ``SpectralDecomposition``).

    In the basis (e_k +- e_{n-1-k})/sqrt 2, k < p, and e_k between, an entry
    A[r, c] adds to the even block at the pair indices of r and c, times 1/2
    if both dofs are paired and 1/sqrt 2 if one is; it adds to the odd block
    times +-1/2 if both are paired, negated if one of them is in the last p.
    These are the blocks of (A + P A P)/2 for the dof reversal P. Without
    pairs (p = 0) the even block is the operator itself and the odd one empty.
    """
    rows, cols, vals = entries
    index = np.arange(n)
    index[n - p:] = index[:p][::-1]  # the first dof of each one's pair, or itself
    late, paired = index < np.arange(n), index < p  # in the last p; in a pair
    if odd:
        both = paired[rows] & paired[cols]
        rows, cols, vals = rows[both], cols[both], vals[both]
        weight = np.where(late[rows] == late[cols], 0.5, -0.5)
    else:
        weight = np.array([1.0, np.sqrt(0.5), 0.5])[paired[rows].astype(np.intp) + paired[cols]]
    return p if odd else n - p, index[rows], index[cols], vals * weight


def _gram(v: np.ndarray, lam: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """W diag(lam) W^T into ``out``, for the orthonormal block vectors W of which ``v``, a
    block of V, holds the first p rows at 1/sqrt 2. The rows go a slab at a time, so no
    copy of ``v`` is made."""
    for start in range(0, len(v), 128):
        np.matmul(v[start:start + 128] * lam, v.T, out=out[start:start + 128])
    out[:p, :p] *= 2.0
    out[:p, p:] *= np.sqrt(2.0)
    out[p:, :p] *= np.sqrt(2.0)
    return out


def _block_residuals(v: np.ndarray, lam: np.ndarray, p: int, folded) -> tuple[float, float]:
    """The largest entries of W W^T - I and of W diag(lam) W^T - B, for the block vectors W
    of ``v`` (see ``_gram``) and the ``folded`` entries of the block B, in one buffer."""
    resid = _gram(v, 1.0, p, np.empty((len(v), len(v))))
    resid.flat[::len(v) + 1] -= 1.0
    ortho = np.abs(resid, out=resid).max(initial=0.0)
    _, rows, cols, vals = folded
    np.subtract.at(_gram(v, lam, p, resid), (rows, cols), vals)
    return ortho, np.abs(resid, out=resid).max(initial=0.0)


@functools.cache
def _openblas():
    """The OpenBLAS in numpy's wheel as (get_num_threads, set_num_threads, get_num_procs,
    LAPACKE_dsyevd), or None where numpy bundles none that exports all four under the ILP64
    names ``scipy_<name>64_`` of numpy 2's wheels."""
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*.so*"):
        handle = ctypes.CDLL(str(lib))
        found = [getattr(handle, f"scipy_{name}64_", None) for name in (
            "openblas_get_num_threads", "openblas_set_num_threads",
            "openblas_get_num_procs", "LAPACKE_dsyevd")]
        if all(found):
            get, put, procs, dsyevd = found
            for query in (get, procs):
                query.argtypes, query.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            dsyevd.restype = ctypes.c_int64
            dsyevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                               ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
            return get, put, procs, dsyevd
    return None


def _eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues and eigenvector columns of a symmetric C-ordered ``block``. LAPACK's
    dsyevd reads it in Fortran order (LAPACKE's layout 102), the same matrix, and overwrites
    it with the vectors, so V is ``block.T``; without numpy's OpenBLAS, ``np.linalg.eigh`` solves a copy. A NaN
    raises NumericalError on either path, as LAPACKE's check of its 5th argument."""
    block = np.ascontiguousarray(block, float)  # an unsplit operator's odd block: empty int
    n, lapack = len(block), _openblas()
    if lapack is not None:
        lam, v = np.empty(n), block.T
        info = lapack[3](102, b"V", b"L", n, block.ctypes.data, max(n, 1), lam.ctypes.data)
    elif np.isnan(block).any():
        info = -5
    else:
        (lam, v), info = np.linalg.eigh(block), 0
    if info:
        raise NumericalError(f"LAPACK dsyevd failed on a block of {n} dofs: info {info}")
    return lam, v


def eigendecompose(op: DiscreteOperator) -> SpectralDecomposition:
    """Full symmetric eigendecomposition (dense), validated.

    A mirrored operator (``_mirrored``) commutes exactly with the reversal of
    the dofs, so it splits into an even and an odd block of about n/2 dofs,
    each folded from the stencil entries (``_fold``) and solved by ``_eigh``
    before the next is built. Any other operator is one block, its matrix,
    folded the same way with no pairs. Each eigenvector's sign is set so that
    its product with the seeded probe ``_probe(n)`` is positive, so the
    vectors do not depend on the LAPACK driver, except within repeated
    eigenvalues, where the basis itself does. ``eigensolve`` of the result
    records the driver, the block sizes and the residuals.
    """
    n = op.n_dof
    check_dof_cap(n)
    p = n // 2 if _mirrored(op) else 0

    def block(odd):  # referenced only until its solve returns
        return _symmetric_scatter(*_fold(op.entries, n, p, odd))

    (lam_even, even), (lam_odd, odd) = (_eigh(block(is_odd)) for is_odd in (False, True))
    even[:p] *= np.sqrt(0.5)  # the paired rows of V hold 1/sqrt 2 of each block entry
    odd *= np.sqrt(0.5)
    lam = np.concatenate([lam_even, lam_odd])
    order = np.argsort(lam, kind="stable")
    rank = np.argsort(order)  # the inverse permutation
    dec = SpectralDecomposition(eigenvalues=lam[order], blocks=(even, odd), rank=rank, source=op)
    sign = np.where(dec.to_modes(_probe(n)) < 0.0, -1.0, 1.0)[rank]
    even *= sign[:len(lam_even)]
    odd *= sign[len(lam_even):]
    sizes = [len(lam_b) for lam_b in (lam_even, lam_odd) if len(lam_b)]
    driver = "numpy.linalg.eigh" if _openblas() is None else "LAPACK dsyevd in place"
    return replace(dec, eigensolve={"driver": driver, "blocks": sizes, **dec.validate()})


def apply_function(dec: SpectralDecomposition, mult, f: np.ndarray) -> np.ndarray:
    """V diag(mult) V^T f for per-mode multipliers ``mult`` (first axis: the mode).

    ``f`` is a state or an ``(n_dof, k)`` batch. ``mult`` and ``f`` broadcast
    over their trailing axes: an ``(n_dof, n_y)`` multiplier maps one state to
    ``n_y`` columns, and an ``(n_dof,)`` multiplier acts on every column.
    """
    coeffs = dec.to_modes(f)
    mult = np.asarray(mult)
    bad = ~np.isfinite(mult)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise ValueError("multiplier is singular on the spectrum "
                         f"(eigenvalue {dec.eigenvalues[k]:.6e} at index {k})")
    ndim = max(mult.ndim, coeffs.ndim)
    mult, coeffs = (a.reshape(a.shape + (1,) * (ndim - a.ndim)) for a in (mult, coeffs))
    return dec.from_modes(mult * coeffs)


def check_alpha(alpha: float) -> None:
    """The rule of fractional_power on its order."""
    if alpha < 0:
        raise ValueError(f"fractional_power requires alpha >= 0, got {alpha}")


def spectrum_power(dec: SpectralDecomposition, alpha: float) -> np.ndarray:
    """The multipliers lambda^alpha of L^alpha, alpha >= 0, on ``dec.spectrum``. The largest,
    lambda_max^alpha, is first taken as a python float, which raises where numpy's power
    would overflow to inf, so a NumericalError comes before any power overflows."""
    lam = dec.spectrum
    try:
        float(lam[-1]) ** alpha
    except OverflowError:
        raise NumericalError(f"L^alpha overflows: lambda_max^alpha exceeds the largest float "
                             f"at alpha = {alpha:.6g}, lambda_max = {lam[-1]:.6e}") from None
    return lam**alpha


def fractional_power(dec: SpectralDecomposition, alpha: float, f: np.ndarray) -> np.ndarray:
    """L^alpha f for alpha >= 0."""
    check_alpha(alpha)
    return apply_function(dec, spectrum_power(dec, alpha), f)


def unitary_propagate(dec: SpectralDecomposition, alpha: float, t: float, f: np.ndarray) -> np.ndarray:
    """e^{i t L^alpha} f; preserves the l2 norm and the group law exactly."""
    return apply_function(dec, np.exp(1j * t * spectrum_power(dec, alpha)), f)


# ---------------------------------------------------------------------------
# Sobolev norms |(1 - discrete Laplacian)^{s/2} f|
# ---------------------------------------------------------------------------

def laplacian_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues (2 - 2cos theta_k)/h^2 of the flat -Laplacian_h, in transform order.

    FFT (periodic): theta_k = 2 pi k/n, k = 0..n-1. DST-I (Dirichlet):
    theta_k = pi k/(n-1), k = 1..n-2. In 2-D the axis symbols add.
    """
    n, h = grid.points_per_axis, grid.spacing
    theta = (2.0 * np.pi * np.arange(n) / n if grid.boundary == "periodic"
             else np.pi * np.arange(1, n - 1) / (n - 1))
    return functools.reduce(np.add.outer, [(2.0 - 2.0 * np.cos(theta)) / h**2] * grid.dim)


def _dst1(x: np.ndarray, axes) -> np.ndarray:
    """Orthonormal DST-I along ``axes``, which is its own inverse.

    Along an axis of length n, bins 1..n of the FFT of the odd extension
    [0, x, 0, -reversed x] are -2i times the sine sums. The FFT runs in place
    on the extension and the result is a view into it, so a transform holds
    one extension, twice the size of a complex ``x``, at a time.
    """
    for axis in axes:
        n = x.shape[axis]
        odd = np.zeros(x.shape[:axis] + (2 * n + 2,) + x.shape[axis + 1:], dtype=complex)
        lines, x_lines = np.moveaxis(odd, axis, 0), np.moveaxis(x, axis, 0)
        lines[1:n + 1] = x_lines
        np.negative(x_lines[::-1], out=lines[n + 2:])
        np.fft.fft(odd, axis=axis, out=odd)
        out = np.moveaxis(lines[1:n + 1], 0, axis)
        out *= 0.5j * np.sqrt(2.0 / (n + 1))
        x = out if np.iscomplexobj(x) else out.real
    return x


def l2_norm(grid: Grid, f: np.ndarray):
    """Physical l2 norm with the h^{dim/2} cell weight; one per column of a batch."""
    f = np.asarray(f)
    norm = np.linalg.norm(f) if f.ndim == 1 else np.linalg.norm(f, axis=0)
    return norm * grid.spacing ** (grid.dim / 2.0)


def sobolev_norm(grid: Grid, s: float, f: np.ndarray):
    """Discrete H^s norm |(1 - Laplacian_h)^{s/2} f|_2; one per column of a batch (dof axis
    first). By Parseval it is read on the coefficients of the one orthonormal FFT (periodic)
    or DST-I (Dirichlet) that diagonalizes the flat Laplacian, weighted in place."""
    f = np.asarray(f)
    if f.shape[0] != grid.n_dof:
        raise ValueError(f"state length {f.shape[0]} != dof count {grid.n_dof}")
    symbol = laplacian_symbol(grid)
    x = f.reshape(symbol.shape + f.shape[1:])
    axes = tuple(range(grid.dim))
    coeffs = (np.fft.fftn(x, axes=axes, norm="ortho") if grid.boundary == "periodic"
              else _dst1(x, axes))
    coeffs *= ((1.0 + symbol) ** (s / 2.0)).reshape(symbol.shape + (1,) * (f.ndim - 1))
    return l2_norm(grid, coeffs.reshape(f.shape))


# ---------------------------------------------------------------------------
# norm equivalence between |f|_2 + |L^alpha f|_2 and |(1-Laplacian)^alpha f|_2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEquivalenceReport:
    """One alpha's bracket; the field order is the key order of ``norm_equiv.json``."""

    alpha: float
    lambda_min: float
    lambda_max: float
    ratio_min: float
    ratio_max: float
    refinement_drift: float | None  # None (JSON null) when refinement is skipped
    n_samples: int


def _sample_bump(grid: Grid, center: np.ndarray, width: float) -> np.ndarray:
    x = grid.dof_nodes()
    return np.exp(-((x - center) ** 2).sum(axis=1) / width**2)


def _equivalence_ratios(dec: SpectralDecomposition, alpha: float, bump_params,
                        eig_indices) -> np.ndarray:
    check_alpha(alpha)
    grid = dec.source.grid
    indices = [k for k in eig_indices if k < dec.n_dof]
    unit = np.zeros((dec.n_dof, len(indices)))
    unit[indices, np.arange(len(indices))] = 1.0
    tests = np.column_stack([_sample_bump(grid, c, w) for c, w in bump_params]
                            + [dec.from_modes(unit)])
    norms = l2_norm(grid, tests)
    if np.any(norms == 0.0):
        raise ValueError("zero test function in norm-equivalence sample")
    num = norms + l2_norm(grid, spectrum_power(dec, alpha)[:, None] * dec.to_modes(tests))
    return num / sobolev_norm(grid, 2.0 * alpha, tests)


# fixed mode indices: their eigenvalues converge under grid refinement, so
# the bracket is comparable across resolutions (spectrum-fraction sampling
# would track the grid-scale modes instead)
EIGENVECTOR_SAMPLE_INDICES = (0, 1, 2, 4, 8, 16, 32)

# norm_equivalence's peak memory over one float64 array of its test functions,
# (n_bumps + len(EIGENVECTOR_SAMPLE_INDICES)) x n_dof on the grid it measures last
# (the doubled one when it refines), measured with tracemalloc: 9.6-9.9 on 2-D Dirichlet
# grids at 300-2000 bumps, where a DST-I holds two complex odd extensions of twice the
# tests' size; 6.2-6.6 in 1-D, 5.1-6.0 on periodic grids. The eigensolve of the doubled
# grid adds a fixed amount that the dof cap bounds.
NORM_EQUIV_WORKING_SET = 10.0


def norm_test_count(n_bumps: int) -> int:
    """The most test functions norm_equivalence samples: n_bumps >= 0 bumps, the eigenvectors."""
    if not n_bumps >= 0:
        raise ValueError(f"n_bumps must be >= 0, got {n_bumps}")
    return n_bumps + len(EIGENVECTOR_SAMPLE_INDICES)


def refinement(grid: Grid, field: CoefficientField, refine: bool = True):
    """The doubled grid and the same coefficient family made on it, where norm_equivalence
    re-measures the bracket; None unless ``refine``, and for a tabulated field, which has no
    samples there. A ValueError names a doubled grid over the dof cap or a failed hypothesis."""
    if not refine or field.kind == "tabulated":
        return None
    fine = Grid(grid.dim, 2 * grid.points_per_axis, grid.half_length, grid.boundary)
    check_dof_cap(fine.n_dof)
    return fine, make_coefficients(fine, field.kind, field.params)


def norm_equivalence(
    dec: SpectralDecomposition,
    alphas,
    n_bumps: int = 12,
    seed: int = 0,
    refine: bool = True,
) -> list[NormEquivalenceReport]:
    """Measured equivalence brackets, one report per alpha, with drift against the doubled grid.

    The equivalence constants are not quantified in the continuum theory;
    each report carries the observed bracket and its relative change when
    the same coefficient family is re-assembled at doubled resolution. Every
    alpha samples the same test functions, and the doubled grid is
    decomposed once for all of them.
    """
    norm_test_count(n_bumps)  # raises on a negative n_bumps
    op, grid, x = dec.source, dec.source.grid, dec.source.grid.half_length
    rng = np.random.default_rng(seed)
    # (center, width) of each bump, analytic so that the doubled grid samples the same ones
    bumps = [(rng.uniform(-x / 2, x / 2, size=grid.dim), rng.uniform(x / 8, x / 2))
             for _ in range(n_bumps)]
    refined = refinement(grid, op.coefficients, refine)
    fine_dec = None if refined is None else eigendecompose(assemble(*refined))

    reports = []
    for alpha in alphas:
        ratios = _equivalence_ratios(dec, alpha, bumps, EIGENVECTOR_SAMPLE_INDICES)
        lo, hi = float(ratios.min()), float(ratios.max())
        drift = None
        if fine_dec is not None:
            fine = _equivalence_ratios(fine_dec, alpha, bumps, EIGENVECTOR_SAMPLE_INDICES)
            drift = max(abs(float(fine.min()) - lo) / lo, abs(float(fine.max()) - hi) / hi)
        reports.append(NormEquivalenceReport(alpha, *map(float, dec.eigenvalues[[0, -1]]),
                                             lo, hi, drift, len(ratios)))
    return reports
