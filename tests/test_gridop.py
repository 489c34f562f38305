import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from fracspec.gridop import (
    CoefficientField,
    _write_csv,
    assemble,
    build_grid,
    centered_gradient,
    check_hypotheses,
    load_coefficients_csv,
    make_coefficients,
    min_eigenvalues,
)
from oracles import gershgorin_lower_bound, rolled_centered_gradient


def test_build_grid_dirichlet_1d_nodes():
    g = build_grid(1, 5, 2.0, "dirichlet")
    assert g.spacing == 1.0
    assert np.array_equal(g.axis_nodes(), [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert np.array_equal(g.dof_nodes().ravel(), [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("n", [3, 4, 34, 66, 258, 1001])
def test_dirichlet_nodes_are_exactly_antisymmetric(n):
    # node n-1-i is exactly minus node i, within 1.8e-15 of -X + i h
    g = build_grid(1, n, 8.0, "dirichlet")
    x = g.axis_nodes()
    assert np.array_equal(x, -x[::-1])
    assert np.abs(x - (-8.0 + np.arange(n) * g.spacing)).max() <= 1.8e-15
    assert x[0] == -8.0 and x[-1] == 8.0


def test_build_grid_periodic_excludes_duplicate_endpoint():
    g = build_grid(1, 4, 2.0, "periodic")
    assert g.spacing == 1.0
    assert np.array_equal(g.axis_nodes(), [-2.0, -1.0, 0.0, 1.0])
    assert g.n_dof == 4


def test_build_grid_2d_interior_count_matches_enumeration():
    g = build_grid(2, 8, 1.0, "dirichlet")
    assert g.n_nodes == 64
    # independent enumeration of nodes strictly inside the box
    count = sum(
        1
        for i in range(8)
        for j in range(8)
        if 0 < i < 7 and 0 < j < 7
    )
    assert count == 36
    assert g.n_dof == 36
    assert g.dof_nodes().shape == (36, 2)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim", [1, 2])
def test_dof_nodes_are_the_nodes_inside_the_boundary(dim, boundary):
    g = build_grid(dim, 5, 2.0, boundary)
    m = 5 if boundary == "periodic" else 3
    assert g.dof_shape == (m,) * dim and g.n_dof == m**dim
    x = g.nodes()
    inside = (np.abs(x) < 2.0).all(axis=1) | (boundary == "periodic")  # every periodic node
    assert np.array_equal(g.dof_nodes(), x[inside])


@pytest.mark.parametrize(
    "args",
    [(0, 5, 1.0, "dirichlet"), (3, 5, 1.0, "dirichlet"), (1, 2, 1.0, "dirichlet"),
     (1, 5, 0.0, "dirichlet"), (1, 5, -1.0, "periodic"), (1, 5, 1.0, "neumann"),
     (1, 5, np.nan, "dirichlet"), (1, 5, np.inf, "periodic"),
     (1, 5, 1e160, "dirichlet"), (2, 5, 1e154, "periodic")],  # dim X^2 overflows
)
def test_build_grid_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        build_grid(*args)


def test_identity_field():
    g = build_grid(1, 9, 4.0, "dirichlet")
    f = make_coefficients(g, "identity")
    assert np.all(f.a[:, 0, 0] == 1.0)
    assert np.all(f.c == 0.0)
    assert check_hypotheses(f, g).ellipticity_lambda == 1.0


def test_radial_bump_positive_scale_keeps_lambda_one():
    g = build_grid(1, 33, 8.0, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.5, "w": 1.0, "c_amp": 0.0})
    # bump only increases eigenvalues: min over the node scan stays 1
    scan = f.a[:, 0, 0].min()
    lam = check_hypotheses(f, g).ellipticity_lambda
    assert lam == pytest.approx(scan)
    assert lam == pytest.approx(1.0, abs=1e-12)


def _near_isotropic(rng, count, spread):
    """Symmetric 2x2 matrices b I + d with b in [0.5, 2] and entries of d up to ``spread``."""
    b, d = rng.uniform(0.5, 2.0, count), rng.uniform(-spread, spread, (3, count))
    return np.stack([np.stack([b + d[0], d[2]], -1), np.stack([d[2], b + d[1]], -1)], 1)


@pytest.mark.parametrize("field", ["bump_34", "bump_66", "tabulated"])
def test_min_eigenvalues_match_eigvalsh_near_a_multiple_of_the_identity(field):
    # the root of tr^2/4 - det cancels where a is near b I: 1.5e-8 off on these bumps
    if field == "tabulated":
        rng = np.random.default_rng(3)
        a = np.concatenate([_near_isotropic(rng, 1200, spread) for spread in (1e-12, 1e-8, 1e-4)])
        g = build_grid(2, 60, 4.0, "periodic")  # 3600 nodes
        f = make_coefficients(g, "tabulated", {"a": a, "c": np.zeros(g.n_nodes)})
    else:  # the benchmark's 2-D field, on its grids
        g = build_grid(2, int(field[-2:]), 8.0, "dirichlet")
        f = make_coefficients(g, "radial_bump", {"s": 0.6, "w": 2.0, "c_amp": 0.4,
                                                 "M": [[1.0, 0.4], [0.4, 0.8]]})
    exact, tol = np.linalg.eigvalsh(f.a)[:, 0], 4 * np.finfo(float).eps * np.abs(f.a).max()
    assert np.abs(min_eigenvalues(f.a) - exact).max() <= tol
    assert abs(f.hypotheses.ellipticity_lambda - exact.min()) <= tol


def test_radial_bump_whose_exponent_overflows_vanishes_there():
    # |x|^2 / w^2 overflows at every node but the origin: exp(-inf) = 0, with no warning
    g = build_grid(1, 33, 1e5, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.5, "w": 1e-150, "c_amp": 1.0})
    origin = g.nodes()[:, 0] == 0.0
    assert np.array_equal(f.a[:, 0, 0], np.where(origin, 1.5, 1.0))
    assert np.array_equal(f.c, np.where(origin, 1.0, 0.0))


def test_radial_bump_ellipticity_violation_names_origin():
    g = build_grid(1, 9, 4.0, "dirichlet")
    with pytest.raises(ValueError, match="ellipticity violated"):
        # a(0) = 1 + s = -1 < 0 at the origin
        make_coefficients(g, "radial_bump", {"s": -2.0, "w": 1.0})


@pytest.mark.parametrize("kind, params, match", [
    ("radial_bump", {"w": 0.0}, "widths"),  # 0/0 at the origin, or a silent identity
    ("radial_bump", {"c_w": -1.0}, "widths"),
    ("tabulated", {"a": np.full((5, 1, 1), np.nan), "c": np.zeros(5)}, "not finite"),
    # h = 1: 2 dim max|a| / h^2 = 1e308 is finite, and so is c, but not their sum
    ("tabulated", {"a": np.full((5, 1, 1), 0.5e308), "c": np.full(5, 1e308)},
     "stencil is not finite"),
    ("tabulated", {"a": np.array([1.0, 1.0, 0.0, 1.0, 1.0]).reshape(5, 1, 1), "c": np.zeros(5)},
     r"ellipticity violated at node 2 .* = 0\.000e\+00 <= 0"),  # an eigenvalue of exactly 0
])
def test_degenerate_fields_rejected(kind, params, match):
    g = build_grid(1, 5, 2.0, "dirichlet")
    with pytest.raises(ValueError, match=match):
        make_coefficients(g, kind, params)


def test_negative_c_rejected_with_node():
    g = build_grid(1, 5, 2.0, "dirichlet")
    a = np.ones((5, 1, 1))
    c = np.array([0.0, 0.0, -1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="node 2"):
        make_coefficients(g, "tabulated", {"a": a, "c": c})


def test_assemble_classical_laplacian_stencil():
    g = build_grid(1, 5, 2.0, "dirichlet")
    op = assemble(g, make_coefficients(g, "identity"))
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.array_equal(op.matrix, expected)


def test_assemble_variable_coefficient_flux_stencil_by_hand():
    # a(x) = 1 + x^2 on nodes {-2,-1,0,1,2}: faces 3.5, 1.5, 1.5, 3.5
    g = build_grid(1, 5, 2.0, "dirichlet")
    x = g.axis_nodes()
    f = make_coefficients(g, "tabulated", {"a": (1 + x**2).reshape(5, 1, 1), "c": np.zeros(5)})
    op = assemble(g, f)
    expected = np.array([[5.0, -1.5, 0.0], [-1.5, 3.0, -1.5], [0.0, -1.5, 5.0]])
    assert np.allclose(op.matrix, expected, rtol=0, atol=0)


def test_constant_c_is_identity_shift():
    g = build_grid(1, 9, 3.0, "dirichlet")
    f0 = make_coefficients(g, "radial_bump", {"s": 0.3, "w": 1.0})
    f1 = CoefficientField(a=f0.a, c=np.ones(g.n_nodes), kind="tabulated")
    m0 = assemble(g, f0).matrix
    m1 = assemble(g, f1).matrix
    assert np.array_equal(m1, m0 + np.eye(g.n_dof))


# --- the scipy.sparse assembly that the one-array scatter replaced: the oracle ------

def _sparse_axis_index_pairs(grid, axis):
    """(left, right) flat node indices of the faces along one axis."""
    n = grid.points_per_axis
    if grid.dim == 1:
        left = np.arange(n) if grid.boundary == "periodic" else np.arange(n - 1)
        return left, (left + 1) % n
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    flat = (ii * n + jj).ravel()
    if grid.boundary == "periodic":
        nbr = ((ii + 1) % n * n + jj) if axis == 0 else (ii * n + (jj + 1) % n)
        return flat, nbr.ravel()
    keep = ((ii if axis == 0 else jj) < n - 1).ravel()
    nbr = ((ii + 1) * n + jj) if axis == 0 else (ii * n + jj + 1)
    return flat[keep], nbr.ravel()[keep]


def _sparse_centered_difference(grid, axis):
    n, h = grid.points_per_axis, grid.spacing
    if grid.boundary == "periodic":
        m = n
        up = sp.diags([np.ones(n - 1)], [1], shape=(n, n), format="lil")
        up[n - 1, 0] = 1.0
        d1 = (up.tocsr() - up.tocsr().T) / (2 * h)
    else:
        m = n - 2
        d1 = sp.diags([np.ones(m - 1), -np.ones(m - 1)], [1, -1], shape=(m, m)) / (2 * h)
    if grid.dim == 1:
        return d1.tocsr()
    ide = sp.eye(m, format="csr")
    return (sp.kron(d1, ide) if axis == 0 else sp.kron(ide, d1)).tocsr()


def sparse_assembly(grid, coefficients):
    """The flux-form matrix through scipy.sparse and dense sums, as assembled before."""
    h = grid.spacing
    n = grid.points_per_axis
    inside = (np.arange(n) > 0) & (np.arange(n) < n - 1) | (grid.boundary == "periodic")
    mask = np.logical_and.reduce(np.meshgrid(*[inside] * grid.dim, indexing="ij")).ravel()
    dof_of_node = -np.ones(grid.n_nodes, dtype=int)
    dof_of_node[mask] = np.arange(grid.n_dof)
    rows, cols, vals = [], [], []
    diag = np.zeros(grid.n_dof)
    for axis in range(grid.dim):
        left, right = _sparse_axis_index_pairs(grid, axis)
        a_face = 0.5 * (
            coefficients.a[left, axis, axis] + coefficients.a[right, axis, axis]
        ) / h**2
        dl, dr = dof_of_node[left], dof_of_node[right]
        both = (dl >= 0) & (dr >= 0)
        # each dof's two faces on this axis are summed before they join the diagonal
        faces = np.zeros(grid.n_dof)
        np.add.at(faces, dl[dl >= 0], a_face[dl >= 0])
        np.add.at(faces, dr[dr >= 0], a_face[dr >= 0])
        diag += faces
        rows.append(dl[both])
        cols.append(dr[both])
        vals.append(-a_face[both])
    off = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(grid.n_dof, grid.n_dof)).toarray()
    matrix = off + off.T + np.diag(diag + coefficients.c[mask])
    if grid.dim == 2:
        b = coefficients.a[mask, 0, 1]
        if np.any(b != 0):
            d0 = _sparse_centered_difference(grid, 0)
            d1 = _sparse_centered_difference(grid, 1)
            k = (d0.T @ sp.diags(b) @ d1).toarray()
            matrix = matrix + (k + k.T)
    return matrix


def _oracle_field(grid, kind):
    """Coefficient fields of the oracle cases; "*_diagonal" kinds have a_01 = 0."""
    dim = grid.dim
    if kind == "identity":
        return make_coefficients(grid, "identity")
    if kind.startswith("radial_bump"):
        m = np.eye(dim) if kind.endswith("diagonal") or dim == 1 else [[1.0, 0.6], [0.6, 0.8]]
        return make_coefficients(grid, "radial_bump",
                                 {"s": 0.7, "w": 1.5, "M": m, "c_amp": 0.4})
    rng = np.random.default_rng(grid.points_per_axis)
    a = np.zeros((grid.n_nodes, dim, dim))
    a[:, range(dim), range(dim)] = rng.uniform(1.0, 2.0, (grid.n_nodes, dim))
    if dim == 2 and not kind.endswith("diagonal"):
        a[:, 0, 1] = a[:, 1, 0] = rng.uniform(-0.5, 0.5, grid.n_nodes)
    return make_coefficients(grid, "tabulated", {"a": a, "c": rng.uniform(0.0, 1.0, grid.n_nodes)})


ORACLE_KINDS = ["identity", "radial_bump", "radial_bump_diagonal", "random", "random_diagonal"]
ORACLE_GRIDS = [(dim, n) for dim in (1, 2) for n in (3, 4, 7, 16, 33)] + [(1, 66)]


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
def test_assemble_is_byte_identical_to_sparse_assembly(dim, n, boundary, kind):
    g = build_grid(dim, n, 3.0, boundary)
    f = _oracle_field(g, kind)
    assert assemble(g, f).matrix.tobytes() == sparse_assembly(g, f).tobytes()


def test_assemble_is_byte_identical_to_sparse_assembly_at_the_dof_cap():
    g = build_grid(2, 66, 8.0, "dirichlet")  # 4096 dofs
    f = _oracle_field(g, "radial_bump")
    assert assemble(g, f).matrix.tobytes() == sparse_assembly(g, f).tobytes()


def test_assemble_holds_no_dense_array_and_matrix_allocates_one():
    g = build_grid(2, 66, 8.0, "dirichlet")
    f = _oracle_field(g, "radial_bump")
    dense = 8 * g.n_dof**2  # bytes of the one (n_dof, n_dof) float64 array
    tracemalloc.start()
    try:
        op = assemble(g, f)
        assemble_held, assemble_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        matrix = op.matrix
        _, matrix_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # assemble holds the stencil, 0.93 % of the dense array here, and builds it in twice that
    stencil = sum(x.nbytes for x in op.entries)
    assert assemble_held < 0.01 * dense
    assert assemble_peak <= 2 * stencil
    assert matrix.nbytes == dense
    assert matrix_peak <= 1.1 * dense


@pytest.mark.parametrize("dim,n,boundary", [(1, 33, "dirichlet"), (2, 16, "periodic"),
                                            (2, 33, "dirichlet")])
def test_each_matrix_read_is_a_new_array_equal_to_the_sparse_oracle(dim, n, boundary):
    g = build_grid(dim, n, 3.0, boundary)
    f = _oracle_field(g, "random")
    op = assemble(g, f)
    first, second = op.matrix, op.matrix
    assert first is not second
    assert first.tobytes() == second.tobytes() == sparse_assembly(g, f).tobytes()
    first[:] = np.nan  # the caller owns each read, so writing to it changes no later one
    assert op.matrix.tobytes() == second.tobytes()


@pytest.mark.parametrize("kind", ["radial_bump", "random"])
@pytest.mark.parametrize("dim,n,boundary", [(1, 33, "dirichlet"), (1, 16, "periodic"),
                                            (2, 17, "dirichlet"), (2, 12, "periodic")])
def test_apply_is_the_matrix_product(dim, n, boundary, kind):
    g = build_grid(dim, n, 3.0, boundary)
    op = assemble(g, _oracle_field(g, kind))
    a = op.matrix
    rng = np.random.default_rng(n)
    for shape in [(g.n_dof,), (g.n_dof, 3)]:
        x = rng.standard_normal(shape)
        for f in (x, x + 1j * rng.standard_normal(shape)):
            got = op.apply(f)
            assert got.shape == f.shape and got.dtype == f.dtype
            # the sums differ only in order: a few roundings of |A| |f| per entry
            err = 8 * np.finfo(float).eps * (np.abs(a) @ np.abs(f))
            assert np.all(np.abs(got - a @ f) <= err)
    with pytest.raises(ValueError, match="dof count"):
        op.apply(np.zeros(g.n_dof + 1))


def test_discrete_operator_holds_its_stencil_and_no_dense_array():
    g = build_grid(2, 16, 3.0, "dirichlet")
    op = assemble(g, _oracle_field(g, "radial_bump"))
    assert [fld.name for fld in fields(op)] == ["grid", "coefficients", "entries"]
    assert not any(isinstance(getattr(op, fld.name), np.ndarray) for fld in fields(op))
    m = 14  # dofs per axis: the diagonal, each axis neighbour, and two mixed-term entries at
    # each diagonal neighbour
    assert all(x.shape == (m**2 + 4 * m * (m - 1) + 8 * (m - 1) ** 2,) for x in op.entries)
    assert op.entries is op.entries  # built once, by assemble
    assert op.n_dof == g.n_dof


def test_assemble_rejects_node_count_mismatch():
    g = build_grid(1, 5, 2.0, "dirichlet")
    g2 = build_grid(1, 7, 2.0, "dirichlet")
    f = make_coefficients(g2, "identity")
    with pytest.raises(ValueError, match="nodes"):
        assemble(g, f)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim,n", [(1, 17), (2, 9)])
def test_assembled_matrix_exactly_symmetric_random_bumps(dim, n, boundary):
    rng = np.random.default_rng(7)
    g = build_grid(dim, n, 4.0, boundary)
    for _ in range(250):
        s = rng.uniform(-0.5, 2.0)
        w = rng.uniform(0.5, 3.0)
        m = np.eye(dim)
        if dim == 2:
            b = rng.uniform(-0.4, 0.4)
            m = np.array([[1.0, b], [b, 1.0]])
        f = make_coefficients(g, "radial_bump",
                              {"s": s, "w": w, "M": m, "c_amp": rng.uniform(0, 1)})
        mat = assemble(g, f).matrix
        assert np.array_equal(mat, mat.T)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_quadratic_form_nonnegative_2d_anisotropic(boundary):
    rng = np.random.default_rng(11)
    g = build_grid(2, 9, 3.0, boundary)
    f = make_coefficients(
        g, "radial_bump",
        {"s": 0.8, "w": 1.5, "M": np.array([[1.0, 0.6], [0.6, 1.0]]), "c_amp": 0.5},
    )
    mat = assemble(g, f).matrix
    scale = np.abs(mat).max()
    for _ in range(100):
        u = rng.standard_normal(g.n_dof)
        q = u @ mat @ u
        assert q >= -1e-10 * scale * (u @ u)


def test_gershgorin_nonnegative_without_cross_terms():
    g = build_grid(1, 33, 8.0, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 1.0, "w": 2.0, "c_amp": 0.3})
    mat = assemble(g, f).matrix
    assert gershgorin_lower_bound(mat) >= -1e-12 * np.abs(mat).max()


def test_check_hypotheses_identity_all_flat():
    g = build_grid(1, 17, 8.0, "dirichlet")
    rep = check_hypotheses(make_coefficients(g, "identity"), g)
    assert rep.ellipticity_lambda == 1.0
    assert all(sup == 0.0 for _, sup in rep.flatness_profile)


def test_regularity_proxy_reads_across_the_periodic_seam():
    # the ramp a = 1 + i/7 jumps from 2 back to 1 between the last and the first node,
    # a face the periodic operator uses; h = 1
    ramp = {"a": 1.0 + np.arange(8) / 7.0, "c": np.zeros(8)}
    g = build_grid(1, 8, 4.0, "periodic")
    proxy = check_hypotheses(make_coefficients(g, "tabulated", dict(ramp)), g).regularity_proxy
    assert proxy["max_first_derivative"] == 1.0
    assert proxy["max_second_derivative"] == pytest.approx(8.0 / 7.0, rel=1e-15)
    # a Dirichlet grid has no seam: only the steps of 1/7 between neighbours
    g = build_grid(1, 8, 3.5, "dirichlet")
    proxy = check_hypotheses(make_coefficients(g, "tabulated", dict(ramp)), g).regularity_proxy
    assert proxy["max_first_derivative"] == pytest.approx(1.0 / 7.0, rel=1e-14)


def test_check_hypotheses_bump_flatness_value():
    # nodes at integer/4 positions include x = 4 exactly: sup = 0.5 * exp(-16)
    g = build_grid(1, 65, 8.0, "dirichlet")
    f = make_coefficients(g, "radial_bump", {"s": 0.5, "w": 1.0})
    rep = check_hypotheses(f, g)
    radii = [r for r, _ in rep.flatness_profile]
    sups = [s for _, s in rep.flatness_profile]
    assert radii == [2.0, 4.0, 6.0]
    assert sups[1] == pytest.approx(0.5 * np.exp(-16.0), rel=1e-12)
    # profile nonincreasing in R for a radial bump
    assert sups[0] >= sups[1] >= sups[2]


def test_check_hypotheses_reports_asymmetric_node_without_raising():
    g = build_grid(2, 4, 1.0, "periodic")
    a = np.broadcast_to(np.eye(2), (g.n_nodes, 2, 2)).copy()
    a[5, 0, 1] = 0.25  # one asymmetric node
    bad = CoefficientField(a=a, c=np.zeros(g.n_nodes), kind="tabulated")
    rep = check_hypotheses(bad, g)  # make_coefficients refuses it; the report measures it
    # the symmetrized a at node 5 is [[1, 0.125], [0.125, 1]], with eigenvalues 1 -+ 0.125
    assert rep.ellipticity_lambda == 0.875


def test_load_coefficients_csv_roundtrip(tmp_path):
    g = build_grid(1, 5, 2.0, "dirichlet")
    x = g.axis_nodes()
    rows = np.column_stack([np.arange(5), 1 + x**2, np.abs(x)])
    path = tmp_path / "field.csv"
    np.savetxt(path, rows, delimiter=",")
    f = load_coefficients_csv(g, path)
    assert np.allclose(f.a[:, 0, 0], 1 + x**2)
    assert np.allclose(f.c, np.abs(x))


def test_load_coefficients_csv_2d_shape_check(tmp_path):
    g = build_grid(2, 3, 1.0, "dirichlet")
    idx = [(i, j) for i in range(3) for j in range(3)]
    rows = [[i, j, 1.0, 0.1, 0.1, 1.0, 0.0] for i, j in idx]
    path = tmp_path / "field2d.csv"
    np.savetxt(path, np.asarray(rows, dtype=float), delimiter=",")
    f = load_coefficients_csv(g, path)
    assert f.a.shape == (9, 2, 2)
    assert np.all(f.a[:, 0, 1] == 0.1)


@pytest.mark.parametrize("dim,bad_row,index", [
    (1, 2, [1]),       # node 1 twice, node 2 missing
    (1, 4, [5]),       # off the grid
    (1, 0, [-1]),
    (1, 1, [1.7]),     # read as node 1 by truncation
    (2, 3, [0, 3]),    # would alias node (1, 0) as i * n + j
    (2, 8, [2, -1]),
])
def test_load_coefficients_csv_rejects_an_index_set_that_is_not_the_grid(tmp_path, dim,
                                                                        bad_row, index):
    g = build_grid(dim, 3 if dim == 2 else 5, 1.0, "dirichlet")
    idx = np.array(np.unravel_index(np.arange(g.n_nodes), (g.points_per_axis,) * dim)).T * 1.0
    idx[bad_row] = index
    a = np.broadcast_to(np.eye(dim).ravel(), (g.n_nodes, dim * dim))
    path = tmp_path / "field.csv"
    np.savetxt(path, np.column_stack([idx, a, np.zeros(g.n_nodes)]), delimiter=",")
    with pytest.raises(ValueError, match="do not enumerate the grid exactly once"):
        load_coefficients_csv(g, path)


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim,n", [(1, 3), (1, 12), (2, 3), (2, 9)])
def test_centered_gradient_is_bitwise_the_rolled_oracle(dim, n, boundary, dtype, batch):
    g = build_grid(dim, n, 2.5, boundary)
    rng = np.random.default_rng(n)
    values = rng.standard_normal((g.n_dof, *batch))
    if dtype is complex:
        values = values + 1j * rng.standard_normal(values.shape)
    grads = centered_gradient(g, values)
    oracle = rolled_centered_gradient(g, values)
    assert len(grads) == dim
    for got, want in zip(grads, oracle):
        assert got.shape == values.shape and got.dtype == values.dtype
        assert got.tobytes() == want.tobytes()


def test_write_csv_format_round_trips_floats(tmp_path):
    floats = np.array([0.1, -1.0 / 3.0, 1e-300, -2.5e-300, 4.9e-324, 1.7976931348623157e308,
                       0.0, -0.0, np.nextafter(1.0, 2.0)])
    ints = np.arange(len(floats), dtype=np.int64) * 1000
    names = [f"check_{i}" for i in range(len(floats))]
    path = tmp_path / "table.csv"
    _write_csv(path, "name,index,value", [names, ints, floats])
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().split("\n")[:-1]
    assert lines[0] == "name,index,value"
    assert len(lines) == 1 + len(floats)
    for line, name, i, v in zip(lines[1:], names, ints, floats):
        text_name, text_int, text_float = line.split(",")
        assert text_name == name
        assert text_int == str(i)
        assert float(text_float) == v
        assert np.signbit(float(text_float)) == np.signbit(v)
        assert text_float == f"{v:.17e}"


def test_write_csv_spans_chunks(tmp_path):
    n = 2 * 4096 + 7
    values = np.random.default_rng(1).standard_normal(n)
    path = tmp_path / "long.csv"
    _write_csv(path, "i,v", [np.arange(n), values])
    assert path.read_text().splitlines()[1:] == [f"{i},{v:.17e}" for i, v in enumerate(values)]


@pytest.mark.parametrize("dim", [1, 2])
def test_radial_bump_defaults_are_s_one_half_and_w_one(dim):
    g = build_grid(dim, 9, 2.0, "dirichlet")
    f = make_coefficients(g, "radial_bump")
    r2 = (g.nodes() ** 2).sum(axis=1)
    expected = (1.0 + 0.5 * np.exp(-r2))[:, None, None] * np.eye(dim)
    assert np.allclose(f.a, expected, rtol=1e-15, atol=0.0)
    assert np.array_equal(f.c, np.zeros(g.n_nodes))


def test_regularity_proxy_divides_the_differences_by_h_and_h_squared():
    # h = 1/4: the ramp 2 + x steps by h, the parabola 1 + x^2 has second differences 2 h^2
    g = build_grid(1, 9, 1.0, "dirichlet")
    x = g.axis_nodes()
    for a, first, second in ((2.0 + x, 1.0, 0.0), (1.0 + x**2, 1.75, 2.0)):
        f = make_coefficients(g, "tabulated", {"a": a, "c": np.zeros(9)})
        assert f.hypotheses.regularity_proxy == {"max_first_derivative": first,
                                                 "max_second_derivative": second}
