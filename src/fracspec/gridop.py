"""Uniform tensor grids, coefficient fields, and flux-form operator assembly.

The operator assembled here is the divergence-form elliptic operator

    L u = -d/dx_k ( a_jk(x) du/dx_j ) + c(x) u

on a truncated box [-X, X]^dim with Dirichlet or periodic boundary,
discretized with second-order conservative (flux-form) differences so that
the resulting matrix is symmetric by construction. The operator is held as
its stencil entries, (row, col, value) triplets, at most 3 per dof in 1-D
and 13 in 2-D (``DiscreteOperator.entries``), built once by ``assemble``.
``DiscreteOperator.apply`` is the one sparse product, and a dense array exists
only where a caller scatters the entries into one (``_symmetric_scatter``), as
the eigensolver's blocks do. ``DiscreteOperator.matrix``, the dense view, is
for inspection: no run of the library reads it.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

VALID_BOUNDARIES = ("dirichlet", "periodic")
FIELD_KINDS = ("identity", "radial_bump", "tabulated")

# Rows the CSV writer formats and joins at a time. At 1024 a 4-column chunk's strings
# take less memory than a row-at-a-time writer of 4096-row chunks held (peak RSS of
# writing a 101 x 256 trajectory: +0.8 against +1.0 MB; +2.3 MB at 4096 rows), and
# the writer is as fast as at 4096.
_CSV_CHUNK_ROWS = 1024


class NumericalError(RuntimeError):
    """A numerical method failed on valid input: non-convergence, blow-up, failed self-check."""


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [-X, X]^dim.

    Dirichlet grids include both endpoints (spacing 2X/(N-1)); periodic
    grids drop the duplicate right endpoint (spacing 2X/N).
    """

    dim: int
    points_per_axis: int
    half_length: float
    boundary: str

    @property
    def spacing(self) -> float:
        n, x = self.points_per_axis, self.half_length
        return 2.0 * x / n if self.boundary == "periodic" else 2.0 * x / (n - 1)

    @property
    def n_nodes(self) -> int:
        return self.points_per_axis**self.dim

    def axis_nodes(self) -> np.ndarray:
        """Node coordinates along one axis: -X + i*h, on a Dirichlet grid as
        (2i - (n-1)) X/(n-1), so that node n-1-i is exactly minus node i."""
        n, i = self.points_per_axis, np.arange(self.points_per_axis)
        if self.boundary == "periodic":
            return -self.half_length + i * self.spacing
        return (2 * i - (n - 1)) * self.half_length / (n - 1)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, dim), the last axis fastest."""
        axes = np.meshgrid(*[self.axis_nodes()] * self.dim, indexing="ij")
        return np.column_stack([g.ravel() for g in axes])

    @property
    def dof_shape(self) -> tuple:
        """Shape of the dof array: n per axis on a periodic grid, n - 2 on a Dirichlet grid."""
        n = self.points_per_axis
        return (n if self.boundary == "periodic" else n - 2,) * self.dim

    @property
    def n_dof(self) -> int:
        return math.prod(self.dof_shape)

    def dof_nodes(self) -> np.ndarray:
        return _window(self, _node_ring(self, self.nodes()), 0, 0).reshape(self.n_dof, self.dim)


@dataclass(frozen=True)
class CoefficientField:
    """Sampled matrix field a_jk(x), shape (n_nodes, dim, dim), and scalar field c(x),
    shape (n_nodes,), with metadata."""

    a: np.ndarray
    c: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)
    hypotheses: "HypothesisReport | None" = None  # make_coefficients' measurement


@dataclass(frozen=True)
class DiscreteOperator:
    """The elliptic operator on a grid, held as its stencil ``entries``: the (rows, cols,
    values) of the flux-form matrix, which is their sum, in order."""

    grid: Grid
    coefficients: CoefficientField
    entries: tuple

    @property
    def n_dof(self) -> int:
        return self.grid.n_dof

    @property
    def matrix(self) -> np.ndarray:
        """A new dense (n_dof, n_dof) array of the entries, owned by the caller."""
        return _symmetric_scatter(self.n_dof, *self.entries)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """L f from the entries, real or complex; ``f`` has the dof axis first, trailing axes
        a batch."""
        f = np.asarray(f)
        if f.shape[0] != self.n_dof:
            raise ValueError(f"state length {f.shape[0]} != dof count {self.n_dof}")
        rows, cols, vals = self.entries
        out = np.zeros(f.shape, np.result_type(f, float))
        np.add.at(out, rows, vals.reshape(vals.shape + (1,) * (f.ndim - 1)) * f[cols])
        return out


@dataclass(frozen=True)
class HypothesisReport:
    """Measured structural quantities of a coefficient field."""

    ellipticity_lambda: float  # smallest eigenvalue of the symmetrized a over the nodes
    flatness_profile: tuple  # pairs (radius, sup over ||x|| >= radius of sum |a - I|)
    regularity_proxy: dict  # max |d a|, |d^2 a| finite-difference estimates


def build_grid(dim: int, n: int, half_length: float, boundary: str) -> Grid:
    """Construct a validated uniform grid on [-X, X]^dim; dim X^2 must be finite."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if n < 3:
        raise ValueError(f"points_per_axis must be >= 3, got {n}")
    if not 0 < half_length < math.inf:
        raise ValueError(f"half_length must be positive and finite, got {half_length}")
    if not dim * float(half_length) * half_length < math.inf:  # python floats: inf, no warning
        raise ValueError(f"'half_length' {half_length} is too large: dim X^2, the largest |x|^2 "
                         "of a node, overflows")
    if boundary not in VALID_BOUNDARIES:
        raise ValueError(f"boundary must be one of {VALID_BOUNDARIES}, got {boundary!r}")
    return Grid(dim, n, float(half_length), boundary)


def min_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Per-node smallest eigenvalue of the symmetric coefficient matrices, shape (n, dim, dim)
    -> (n,); in 2-D as (a00 + a11)/2 - hypot((a00 - a11)/2, a01), which, unlike the root of
    the discriminant tr^2/4 - det, does not cancel where a is near a multiple of I."""
    if a.shape[1] == 1:
        return a[:, 0, 0]
    return (a[:, 0, 0] + a[:, 1, 1]) / 2 - np.hypot((a[:, 0, 0] - a[:, 1, 1]) / 2, a[:, 0, 1])


def make_coefficients(grid: Grid, kind: str, params: dict | None = None) -> CoefficientField:
    """Build a coefficient field of the given kind and validate its hypotheses.

    The stencil on the grid must be finite: h^2 is neither 0 nor infinite and
    2 dim max|a| / h^2 + max|c|, which bounds every entry of ``_flux_entries``, is
    finite, so a and c are too. The structural hypotheses must hold: a symmetric,
    uniformly elliptic (``check_hypotheses``' ellipticity_lambda > 0) and c >= 0 at
    every node. A ValueError names the node of a failure and its x.

    Kinds:
      identity     a = I, c = 0.
      radial_bump  a(x) = I + s * exp(-|x|^2 / w^2) * M with symmetric M;
                   c(x) = c_amp * exp(-|x|^2 / c_w^2), c_amp >= 0; the
                   squares of w and c_w are finite and nonzero.
      tabulated    explicit arrays in params["a"], params["c"].
    """
    params = dict(params or {})
    n_nodes, dim = grid.n_nodes, grid.dim
    if kind == "identity":
        a = np.broadcast_to(np.eye(dim), (n_nodes, dim, dim)).copy()
        c = np.zeros(n_nodes)
    elif kind == "radial_bump":
        s = float(params.get("s", 0.5))
        w = float(params.get("w", 1.0))
        m = np.atleast_2d(np.asarray(params.get("M", np.eye(dim)), dtype=float))
        if m.shape != (dim, dim):
            raise ValueError(f"M must be {dim}x{dim}, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("M must be symmetric")
        c_amp = float(params.get("c_amp", 0.0))
        c_w = float(params.get("c_w", w))
        for key, width in (("w", w), ("c_w", c_w)):  # python floats: 0 or inf, no warning
            if not 0.0 < width * abs(width) < math.inf:  # the signed square
                raise ValueError(f"widths must be > 0 with a finite nonzero square, "
                                 f"got {key!r} = {width}")
        r2 = (grid.nodes() ** 2).sum(axis=1)
        with np.errstate(over="ignore"):  # |x|^2 / w^2 = inf gives the bump's limit exp(-inf) = 0
            bump = np.exp(-r2 / w**2)
            c = c_amp * np.exp(-r2 / c_w**2)
        a = np.eye(dim) + s * bump[:, None, None] * m
    elif kind == "tabulated":
        a = np.asarray(params.pop("a"), dtype=float).reshape(n_nodes, dim, dim)
        c = np.asarray(params.pop("c"), dtype=float).reshape(n_nodes)
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}, expected one of {FIELD_KINDS}")
    # python floats: an overflow gives inf and an underflow 0, with no warning; a NaN or
    # infinite entry of a or c makes its max, and so the bound, NaN or infinite
    h2, a_max, c_max = grid.spacing * grid.spacing, float(np.abs(a).max()), float(np.abs(c).max())
    if not (0.0 < h2 < math.inf and 2 * dim * a_max / h2 + c_max < math.inf):
        raise ValueError(f"the stencil is not finite on this grid, or the coefficients are not: "
                         f"spacing h = {grid.spacing:.3e} (half_length {grid.half_length:.6g}), "
                         f"max |a| = {a_max:.3e}, max |c| = {c_max:.3e}; 2 dim max|a| / h^2 + "
                         "max|c| must be finite and h^2 neither 0 nor infinite")
    asym = np.abs(a - np.transpose(a, (0, 2, 1))).max(axis=(1, 2))
    if asym.any():
        k = np.flatnonzero(asym)[0]
        raise ValueError(f"coefficient matrix not symmetric at node {k} "
                         f"(x = {grid.nodes()[k]}, |a - a^T| = {asym[k]:.3e})")
    made = CoefficientField(a=a, c=c, kind=kind, params=params)
    report = check_hypotheses(made, grid)
    if not report.ellipticity_lambda > 0:
        k = int(np.argmin(min_eigenvalues(a)))
        raise ValueError(f"ellipticity violated at node {k} (x = {grid.nodes()[k]}, "
                         f"min eigenvalue of a = {report.ellipticity_lambda:.3e} <= 0)")
    if (c < 0).any():
        k = np.flatnonzero(c < 0)[0]
        raise ValueError(f"zeroth-order coefficient negative at node {k} "
                         f"(x = {grid.nodes()[k]}, c = {c[k]:.3e})")
    return replace(made, hypotheses=report)


def load_coefficients_csv(grid: Grid, path: str | Path) -> CoefficientField:
    """Load a tabulated field from CSV.

    Columns: one node index per axis, then the dim*dim entries of a
    (row-major), then c. One row per grid node.
    """
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    dim = grid.dim
    expected_cols = dim + dim * dim + 1
    if raw.shape[1] != expected_cols:
        raise ValueError(f"expected {expected_cols} columns, got {raw.shape[1]}")
    if raw.shape[0] != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} rows, got {raw.shape[0]}")
    shape = (grid.points_per_axis,) * dim
    # truncating and clipping only sort the rows; the index columns as read must be the grid's
    order = np.argsort(np.ravel_multi_index(tuple(raw[:, :dim].astype(int).T), shape, mode="clip"))
    if not np.array_equal(raw[order, :dim], np.indices(shape).reshape(dim, -1).T):
        raise ValueError("node indices do not enumerate the grid exactly once")
    a = raw[order, dim:dim + dim * dim].reshape(grid.n_nodes, dim, dim)
    c = raw[order, -1]
    return make_coefficients(grid, "tabulated", {"a": a, "c": c})


def _write_csv(path: str | Path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows under a header line.

    Floats are written as %.17e, ints and strings bare; comma separator,
    LF endings. The format is chosen once per column from its dtype.
    """
    columns = [np.asarray(col) for col in columns]
    width = 2 * len(columns)  # a cell and its separator per column
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        # chunks bound the memory of the python strings
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [col[start:start + _CSV_CHUNK_ROWS] for col in columns]
            cells = [","] * (width * len(chunk[0]))
            cells[width - 1::width] = ["\n"] * len(chunk[0])
            for k, col in enumerate(chunk):
                cells[2 * k::width] = _csv_cells(col)
            fh.write("".join(cells))


def _csv_cells(col: np.ndarray) -> list:
    """The text of each entry of a column. Where at most half the entries of a numeric column
    are distinct, each distinct value is formatted once; values are told apart by their
    bits, so -0.0 and 0.0 stay distinct."""
    if col.dtype.kind in "biuf":
        distinct, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
        if 2 * len(distinct) <= len(col):
            return np.array(_csv_text(distinct.view(col.dtype)), dtype=object)[inverse].tolist()
    return _csv_text(col)


def _csv_text(col: np.ndarray) -> list:
    """Floats as %.17e, everything else as str, from python scalars (which format faster
    than numpy ones)."""
    if col.dtype.kind == "f":
        return list(map(format, col.tolist(), itertools.repeat(".17e")))
    return list(map(str, col.tolist()))


def assemble(grid: Grid, coefficients: CoefficientField) -> DiscreteOperator:
    """The operator L of ``coefficients`` on ``grid``, whose node counts must agree.

    The stencil (``_flux_entries``) is built here, once; no dense array is. Each
    read of ``matrix`` scatters a new one, so an eigensolver may consume it.
    """
    if coefficients.a.shape[0] != grid.n_nodes:
        raise ValueError(
            f"field has {coefficients.a.shape[0]} nodes, grid has {grid.n_nodes}"
        )
    return DiscreteOperator(grid, coefficients, _flux_entries(grid, coefficients))


def _ghosted(grid: Grid, x: np.ndarray, fill) -> np.ndarray:
    """``x`` with a ghost node per side of each leading (dof) axis: wrapped if periodic, else
    ``fill``."""
    pad = [(1, 1)] * grid.dim + [(0, 0)] * (x.ndim - grid.dim)
    return (np.pad(x, pad, mode="wrap") if grid.boundary == "periodic"
            else np.pad(x, pad, constant_values=fill))


def _node_ring(grid: Grid, values: np.ndarray) -> np.ndarray:
    """A node field (node axis first) with a ghost ring: a Dirichlet grid's boundary nodes,
    or the wrapped field on a periodic grid."""
    x = values.reshape((grid.points_per_axis,) * grid.dim + values.shape[1:])
    return _ghosted(grid, x, None) if grid.boundary == "periodic" else x


def _window(grid: Grid, ghosted: np.ndarray, axis: int, step: int) -> np.ndarray:
    """The dof-sized view of a ghosted array, moved ``step`` nodes along ``axis``."""
    return ghosted[tuple(slice(1 + step * (k == axis), ghosted.shape[k] - 1 + step * (k == axis))
                         for k in range(grid.dim))]


def _flux_entries(grid: Grid, coefficients: CoefficientField):
    """The (rows, cols, values) triplets of the symmetric flux-form matrix of L on the dofs.

    Per-axis second derivatives use face-averaged coefficients
    a_{i+1/2} = (a_i + a_{i+1}) / 2. The 2D mixed term -d_j(a_jk d_k u),
    j != k, is discretized through the symmetric bilinear form
    D_0^T B D_1 + D_1^T B D_0 with centered differences D_j (zero-extended
    on Dirichlet grids) and the nodal values B = diag(a_01): dof k adds
    s0 s1 b_k / (2h)^2 at (k + s0 e0, k + s1 e1) and at its mirror, for
    s0, s1 = +-1. Each entry comes with its mirror, so symmetry is exact by
    construction; positivity is verified by test. A mixed-term position
    receives two entries, summed in the order given.
    """
    h = grid.spacing
    # dof numbers with a ghost ring; a neighbour past a Dirichlet boundary is -1
    dof = _ghosted(grid, np.arange(grid.n_dof).reshape(grid.dof_shape), -1)
    dofs = _window(grid, dof, 0, 0)
    a, c = _node_ring(grid, coefficients.a), _node_ring(grid, coefficients.c)
    rows, cols, vals = [], [], []

    def add(p, q, val):
        rows.extend((p, q))
        cols.extend((q, p))
        vals.extend((val, val))

    diag = np.zeros(grid.dof_shape)
    for axis in range(grid.dim):
        a_axis = a[..., axis, axis]
        here = _window(grid, a_axis, axis, 0)
        # the face to each dof's neighbour ahead and the face behind it, added as one sum,
        # which the reflection x -> -x only swaps: an even field gives a mirrored matrix
        face = 0.5 * (here + _window(grid, a_axis, axis, 1)) / h**2
        diag += face + 0.5 * (_window(grid, a_axis, axis, -1) + here) / h**2
        nbr = _window(grid, dof, axis, 1)
        both = nbr >= 0
        add(dofs[both], nbr[both], -face[both])
    rows.append(dofs.ravel())
    cols.append(dofs.ravel())
    vals.append((diag + _window(grid, c, 0, 0)).ravel())

    if grid.dim == 2:
        b = _window(grid, a[..., 0, 1], 0, 0)
        inv_2h = 1 / (2 * h)
        for s0 in (-1, 1):
            p = _window(grid, dof, 0, s0)
            for s1 in (-1, 1):
                q = _window(grid, dof, 1, s1)
                both = (p >= 0) & (q >= 0)
                add(p[both], q[both], s0 * s1 * (inv_2h * b[both] * inv_2h))

    return tuple(np.concatenate(x) for x in (rows, cols, vals))


def _symmetric_scatter(size: int, rows, cols, vals) -> np.ndarray:
    """The dense (size, size) sum of symmetric entries: those on and below the diagonal are
    summed in order, and the sums below it are mirrored above, so the result is exactly
    symmetric."""
    low = rows >= cols
    strict = low & (rows != cols)
    at = np.concatenate([rows[low] * size + cols[low], cols[strict] * size + rows[strict]])
    return np.bincount(at, np.concatenate([vals[low], vals[strict]]),
                       minlength=size * size).reshape(size, size)


def centered_gradient(grid: Grid, values: np.ndarray) -> list[np.ndarray]:
    """Centered first differences of dof fields along each axis.

    ``values`` has the dof axis first; Dirichlet fields are extended by
    zero, periodic fields wrap. Matches the stencil spacing used by the
    assembled operator.
    """
    v = _ghosted(grid, values.reshape(grid.dof_shape + values.shape[1:]), 0)
    return [((_window(grid, v, axis, 1) - _window(grid, v, axis, -1)) / (2 * grid.spacing))
            .reshape(values.shape) for axis in range(grid.dim)]


def check_hypotheses(coefficients: CoefficientField, grid: Grid) -> HypothesisReport:
    """Measure a field's ellipticity, flatness and regularity; never raises on a field whose
    stencil on ``grid`` is finite (see ``make_coefficients``), symmetric or not.

    The flatness profile samples sup over ||x|| >= R of sum_jk |a_jk - delta_jk|
    at radii R in {X/4, X/2, 3X/4}. Smoothness of the coefficients cannot be
    enforced on sampled data, so finite-difference magnitudes of first and
    second differences are reported as a proxy only.
    """
    a, dim = coefficients.a, grid.dim
    lam = float(min_eigenvalues(0.5 * (a + np.transpose(a, (0, 2, 1)))).min())

    dev = np.abs(a - np.eye(dim)).sum(axis=(1, 2))
    radius = np.sqrt((grid.nodes() ** 2).sum(axis=1))
    x = grid.half_length
    profile = []
    for r in (x / 4, x / 2, 3 * x / 4):
        outside = radius >= r
        sup = float(dev[outside].max()) if outside.any() else 0.0
        profile.append((float(r), sup))

    # through the ghost ring, so a periodic grid's differences include its seam
    a_grid = _node_ring(grid, a)
    h = grid.spacing
    d1 = max(
        float(np.abs(np.diff(a_grid, axis=ax)).max()) / h for ax in range(dim)
    )
    d2 = max(
        float(np.abs(np.diff(a_grid, n=2, axis=ax)).max()) / h**2 for ax in range(dim)
    )
    return HypothesisReport(
        ellipticity_lambda=lam,
        flatness_profile=tuple(profile),
        regularity_proxy={"max_first_derivative": d1, "max_second_derivative": d2},
    )
