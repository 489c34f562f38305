import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from fracspec import spectral
from fracspec.gridop import (
    CoefficientField,
    NumericalError,
    _symmetric_scatter,
    assemble,
    build_grid,
    make_coefficients,
)
from fracspec.spectral import (
    NORM_EQUIV_WORKING_SET,
    SpectralDecomposition,
    SpectrumCapError,
    apply_function,
    eigendecompose,
    fractional_power,
    l2_norm,
    laplacian_symbol,
    norm_equivalence,
    norm_test_count,
    sobolev_norm,
    spectrum_power,
    unitary_propagate,
)
from oracles import (
    bessel_apply,
    dense_decomposition,
    eigenvectors,
    full_eigh,
    mirror_blocks,
    scaled_vectors,
    smoothing_norm_bound,
    smoothing_norm_measured,
    use_lookup,
)

needs_openblas = pytest.mark.skipif(spectral._openblas() is None,
                                    reason="numpy bundles no OpenBLAS that exports dsyevd")


def dirichlet_laplacian(n=33, x=8.0):
    g = build_grid(1, n, x, "dirichlet")
    return g, eigendecompose(assemble(g, make_coefficients(g, "identity")))


def bump_operator(n=33, x=8.0, dim=1, boundary="dirichlet", s=0.7, w=2.0, c_amp=0.4):
    g = build_grid(dim, n, x, boundary)
    f = make_coefficients(g, "radial_bump", {"s": s, "w": w, "c_amp": c_amp})
    return g, assemble(g, f)


def test_dirichlet_spectrum_matches_closed_form():
    g, dec = dirichlet_laplacian(n=33)
    n_int = g.n_dof
    h = g.spacing
    k = np.arange(1, n_int + 1)
    exact = (4.0 / h**2) * np.sin(k * np.pi / (2.0 * (n_int + 1))) ** 2
    assert np.allclose(dec.eigenvalues, exact, rtol=1e-10, atol=0)


def test_shifted_c_shifts_eigenvalues_only():
    g, op = bump_operator()
    f = op.coefficients
    shifted = CoefficientField(a=f.a, c=f.c + 1.0, kind="tabulated")
    dec0 = eigendecompose(op)
    dec1 = eigendecompose(assemble(g, shifted))
    assert np.allclose(dec1.eigenvalues, dec0.eigenvalues + 1.0, rtol=1e-12, atol=1e-11)
    # compare operator action rather than raw eigenvectors (sign/order free)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(g.n_dof)
    assert np.allclose(
        apply_function(dec1, np.exp(-0.3 * dec1.spectrum), v),
        apply_function(dec0, np.exp(-0.3 * (dec0.spectrum + 1.0)), v),
        rtol=0, atol=1e-10,
    )


def test_reconstruction_residual_random_bump():
    _, op = bump_operator(n=65)
    dec = eigendecompose(op)
    v = eigenvectors(dec)
    resid = (v * dec.eigenvalues) @ v.T - op.matrix
    assert np.abs(resid).max() <= 1e-8 * np.abs(dec.eigenvalues).max()


def test_eigenvector_signs_do_not_depend_on_the_driver(monkeypatch):
    # the 1-D Dirichlet modes are even or odd, so their largest entries tie in
    # pairs: a largest-entry-positive rule leaves syevd and evr apart on 31 columns
    _, op = bump_operator(n=130)
    lam, raw = scipy.linalg.eigh(op.matrix, driver="evr")
    assert np.any((np.linalg.eigh(op.matrix)[1] * raw).sum(axis=0) < 0)
    in_place_dec = eigendecompose(op)
    assert use_lookup(monkeypatch, "none") == "numpy.linalg.eigh"
    numpy_dec = eigendecompose(op)
    assert numpy_dec.eigensolve["driver"] == "numpy.linalg.eigh"
    signed = raw * np.where(spectral._probe(op.n_dof) @ raw < 0.0, -1.0, 1.0)
    for v in (eigenvectors(in_place_dec), signed):
        assert np.abs(eigenvectors(numpy_dec) - v).max() <= 1e-10
    # a flip by -1 is exact, so f(L) keeps its bytes
    f = np.random.default_rng(3).standard_normal(op.n_dof)
    mult = numpy_dec.spectrum ** 0.3
    assert (apply_function(dense_decomposition(lam, signed, op), mult, f).tobytes()
            == apply_function(dense_decomposition(lam, raw, op), mult, f).tobytes())


def test_in_place_solve_leaves_the_operator_matrix_intact(monkeypatch):
    g, op = bump_operator(n=20, dim=2)
    dec = eigendecompose(op)
    assert dec.eigensolve["driver"] == use_lookup(monkeypatch, "openblas")
    assert dec.source.matrix.tobytes() == assemble(g, op.coefficients).matrix.tobytes()


@needs_openblas
@pytest.mark.parametrize("case", ["split", "periodic", "split_1d_512"])
def test_in_place_and_fallback_solves_are_bit_identical(monkeypatch, case):
    # the same LAPACK dsyevd either way: numpy's eigh runs it on a copy of the block
    op = bump_operator(n=514)[1] if case == "split_1d_512" else _record_case(case)[0]
    in_place = eigendecompose(op)
    use_lookup(monkeypatch, "none")
    copy = eigendecompose(op)
    assert in_place.eigenvalues.tobytes() == copy.eigenvalues.tobytes()
    assert in_place.rank.tobytes() == copy.rank.tobytes()
    for ours, numpys in zip(in_place.blocks, copy.blocks):
        assert ours.dtype == numpys.dtype == np.float64 and ours.shape == numpys.shape
        assert ours.tobytes(order="C") == numpys.tobytes(order="C")
    assert in_place.blocks[0].flags.f_contiguous  # a view of the block LAPACK overwrote


@needs_openblas
@pytest.mark.parametrize("case", ["split", "periodic"])
def test_in_place_solve_returns_the_buffer_of_the_block_it_was_given(monkeypatch, case):
    op = _record_case(case)[0]
    scattered = []

    def scatter(*args):
        scattered.append(_symmetric_scatter(*args))
        return scattered[-1]

    monkeypatch.setattr(spectral, "_symmetric_scatter", scatter)
    dec = eigendecompose(op)
    assert len(scattered) == 2  # the even block and the odd one, empty when unsplit
    for v, block in zip(dec.blocks, scattered):
        assert v.dtype == np.float64
        if block.size:
            assert np.shares_memory(v, block) and v.ctypes.data == block.ctypes.data
        else:  # the empty odd block of an unsplit operator is scattered as an int array
            assert case == "periodic" and block.dtype == np.int64 and v.shape == (0, 0)


@pytest.mark.parametrize("lookup", ["openblas", "none"])
def test_a_nan_block_raises_numerical_error_on_either_path(monkeypatch, lookup):
    use_lookup(monkeypatch, lookup)
    block = np.diag([1.0, 2.0, 3.0, 4.0])
    block[2, 1] = block[1, 2] = np.nan
    with pytest.raises(NumericalError, match="dsyevd failed on a block of 4 dofs: info -5"):
        spectral._eigh(block)


def _record_case(case):
    """The operators of the residual record test: a split 1-D bump, and a periodic 2-D bump
    with an off-diagonal M, which is one block (p = 0)."""
    if case == "split":
        return bump_operator(n=65)[1], [32, 31]
    g = build_grid(2, 12, 8.0, "periodic")
    return assemble(g, make_coefficients(g, *_split_field(2, "radial_bump"))), [144]


@pytest.mark.parametrize("case", ["split", "periodic"])
@pytest.mark.parametrize("lookup", ["openblas", "none"])
def test_eigensolve_record_holds_the_driver_and_the_residuals(monkeypatch, lookup, case):
    op, blocks = _record_case(case)
    driver = use_lookup(monkeypatch, lookup)
    dec = eigendecompose(op)
    assert dec.eigensolve["driver"] == driver
    assert dec.eigensolve == {"driver": driver, "blocks": blocks, **dec.validate()}
    for name in ("orthonormality", "reconstruction"):
        check = dec.eigensolve[name]
        assert 0.0 <= check["measured"] <= check["bound"]
    # the residuals are per block, against the blocks folded from the matrix; a split
    # operator is its own mirror image (test_split_operators_are_their_mirror_image)
    a, p, n = op.matrix, len(dec.blocks[1]), op.n_dof
    split, lam, eps = len(dec.blocks[0]), dec.eigenvalues, np.finfo(float).eps
    ortho, recon = [], []
    for v, b, lam_b in zip(dec.blocks, mirror_blocks(a, p),
                           (lam[dec.rank[:split]], lam[dec.rank[split:]])):
        w = v.copy()
        w[:p] *= np.sqrt(2.0)
        ortho.append(np.abs(w @ w.T - np.eye(len(w))).max(initial=0.0))
        recon.append(np.abs((w * lam_b) @ w.T - b).max(initial=0.0))
    recon = max(recon)
    measured = {name: dec.eigensolve[name]["measured"]
                for name in ("orthonormality", "reconstruction")}
    assert measured["orthonormality"] == pytest.approx(max(ortho), rel=0, abs=8 * eps)
    assert measured["reconstruction"] == pytest.approx(recon, rel=0, abs=8 * eps * np.abs(a).max())
    # and each bounds the largest entry of its dense product
    v = eigenvectors(dec)
    dense = {"orthonormality": np.abs(v @ v.T - np.eye(n)).max(),
             "reconstruction": np.abs(dec.from_modes(lam[:, None] * v.T) - a).max()}
    assert dense["orthonormality"] <= measured["orthonormality"] + 8 * eps
    assert dense["reconstruction"] <= measured["reconstruction"] + 8 * eps * np.abs(a).max()


# 33 dofs take the full matrix checks, 1089 the probe checks
@pytest.mark.parametrize("dim,n", [(1, 35), (2, 35)])
def test_validate_rejects_nan(dim, n):
    _, op = bump_operator(n=n, dim=dim)
    dec = eigendecompose(op)
    mid = dec.n_dof // 2
    for k in (mid, -1):
        lam = dec.eigenvalues.copy()
        lam[k] = np.nan
        with pytest.raises(NumericalError, match="nan"):  # as the residual or the bound
            replace(dec, eigenvalues=lam).validate()
    v = eigenvectors(dec)
    v[mid // 2, mid] = np.nan
    with pytest.raises(NumericalError, match="not orthonormal.*residual nan"):
        dense_decomposition(dec.eigenvalues, v, op).validate()


def _split_field(dim, kind):
    params = {} if kind == "identity" else {
        "s": 0.6, "w": 2.0, "c_amp": 0.4, "M": [[1.0, 0.4], [0.4, 0.8]] if dim == 2 else [[1.0]]}
    return kind, params


# even and odd dof counts: 32 and 31 in 1-D, 1024 and 961 in 2-D
@pytest.mark.parametrize("kind", ["identity", "radial_bump"])
@pytest.mark.parametrize("dim,n", [(1, 34), (1, 33), (2, 34), (2, 33)])
def test_split_decomposition_matches_the_full_eigh_oracle(dim, n, kind):
    g = build_grid(dim, n, 8.0, "dirichlet")
    op = assemble(g, make_coefficients(g, *_split_field(dim, kind)))
    dec = eigendecompose(op)
    n_dof = op.n_dof
    # an even field on a Dirichlet grid splits; the middle dof of an odd count is even
    assert dec.eigensolve["blocks"] == [n_dof - n_dof // 2, n_dof // 2]
    lam, oracle = full_eigh(op)
    scale = np.abs(lam).max()
    assert np.abs(dec.eigenvalues - lam).max() <= 1e-12 * scale
    v = eigenvectors(dec)
    assert np.abs(v.T @ v - np.eye(n_dof)).max() <= 1e-13
    f = np.random.default_rng(7).standard_normal((n_dof, 3))
    action = dec.from_modes(dec.eigenvalues[:, None] * dec.to_modes(f))
    assert np.abs(action - op.matrix @ f).max() <= 1e-12 * scale * np.abs(f).max()
    # the probe sign rule: every vector has a positive product with the probe, so
    # each simple eigenvalue's vector is the oracle's, signed by the same rule
    assert np.all(dec.to_modes(spectral._probe(n_dof)) > 0.0)
    gaps = np.diff(lam)
    simple = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) > 1e-6 * scale
    assert simple.sum() >= n - 3  # at least the modes lam_i + lam_i of the 2-D identity
    assert np.abs(v[:, simple] - oracle[:, simple]).max() <= 1e-7


@pytest.mark.parametrize("dim,n", [(1, 34), (2, 33)])
def test_complex_transforms_are_the_dense_products(dim, n):
    # to_modes and from_modes take a complex batch as a real GEMM on its float view
    g = build_grid(dim, n, 8.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, *_split_field(dim, "radial_bump"))))
    v = eigenvectors(dec)
    rng = np.random.default_rng(11)
    for shape in [(dec.n_dof,), (dec.n_dof, 5)]:
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert dec.to_modes(z).dtype == dec.from_modes(z).dtype == complex
        assert np.abs(dec.to_modes(z) - v.T @ z).max() <= 1e-13
        assert np.abs(dec.from_modes(z) - v @ z).max() <= 1e-13
        assert np.abs(dec.to_modes(z.T.copy().T) - dec.to_modes(z)).max() == 0.0


@pytest.mark.parametrize("dim,n", [(1, 32), (1, 33), (2, 12), (2, 13)])
def test_periodic_grids_and_asymmetric_fields_take_one_block(dim, n):
    for kind in ("identity", "radial_bump"):
        g = build_grid(dim, n, 8.0, "periodic")
        op = assemble(g, make_coefficients(g, *_split_field(dim, kind)))
        dec = eigendecompose(op)
        assert dec.eigensolve["blocks"] == [op.n_dof]
        lam, oracle = full_eigh(op)
        assert dec.eigenvalues.tobytes() == lam.tobytes()
        assert np.array_equal(eigenvectors(dec), oracle)
    # a Dirichlet field that is not even under x -> -x: a ramp in the first axis
    g = build_grid(dim, n, 8.0, "dirichlet")
    ramp = 1.0 + 0.1 * np.arange(g.n_nodes) / g.n_nodes
    a = ramp[:, None, None] * np.eye(dim)
    op = assemble(g, make_coefficients(g, "tabulated", {"a": a, "c": np.zeros(g.n_nodes)}))
    dec = eigendecompose(op)
    assert dec.eigensolve["blocks"] == [op.n_dof]
    assert np.abs(dec.eigenvalues - full_eigh(op)[0]).max() <= 1e-12 * dec.eigenvalues[-1]


def test_an_even_tabulated_field_splits_as_its_kind_does():
    # the split reads the field's bits, not its kind
    g = build_grid(2, 18, 8.0, "dirichlet")
    bump = make_coefficients(g, *_split_field(2, "radial_bump"))
    table = make_coefficients(g, "tabulated", {"a": bump.a, "c": bump.c})
    made, loaded = (eigendecompose(assemble(g, field)) for field in (bump, table))
    assert made.eigensolve == loaded.eigensolve and made.eigensolve["blocks"] == [128, 128]
    assert made.eigenvalues.tobytes() == loaded.eigenvalues.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(made.blocks, loaded.blocks))


def _even_table(g):
    """A tabulated field that is bitwise even under x -> -x but not under either axis
    reflection alone: its entries are functions of x_0^2, x_1^2 and x_0 x_1."""
    x = g.nodes()
    r2 = (x**2).sum(axis=1)
    a = np.eye(g.dim) * (1.0 + 0.5 * np.exp(-x**2 / 4.0))[:, None, :]
    if g.dim == 2:
        a[:, 0, 1] = a[:, 1, 0] = 0.3 * x[:, 0] * x[:, 1] / (1.0 + r2)
    return make_coefficients(g, "tabulated", {"a": a, "c": 0.4 * r2 / (1.0 + r2)})


# even and odd dof counts: 32 and 31 in 1-D, 256 and 225 in 2-D
@pytest.mark.parametrize("kind", ["identity", "radial_bump", "even_table"])
@pytest.mark.parametrize("dim,n", [(1, 34), (1, 33), (2, 18), (2, 17)])
def test_fold_matches_the_mirror_blocks_oracle(dim, n, kind):
    g = build_grid(dim, n, 8.0, "dirichlet")
    field = _even_table(g) if kind == "even_table" else make_coefficients(g, *_split_field(dim, kind))
    op = assemble(g, field)
    a, n_dof = op.matrix, op.n_dof
    p = n_dof // 2
    assert eigendecompose(op).eigensolve["blocks"] == [n_dof - p, p]  # the field splits
    for odd, oracle in zip((False, True), mirror_blocks(a, p)):
        block = _symmetric_scatter(*spectral._fold(op.entries, n_dof, p, odd))
        assert block.shape == oracle.shape
        assert np.array_equal(block, block.T)  # exactly symmetric
        assert np.abs(block - oracle).max() <= 4 * np.finfo(float).eps * np.abs(a).max()
    # without pairs the even block is the matrix itself, bit for bit, and the odd one empty
    assert _symmetric_scatter(*spectral._fold(op.entries, n_dof, 0, False)).tobytes() == a.tobytes()
    assert _symmetric_scatter(*spectral._fold(op.entries, n_dof, 0, True)).shape == (0, 0)


def _random_even_table(g, seed):
    """A seeded random tabulated field, with a mixed term in 2-D, made bitwise even under
    x -> -x (the reversal of the nodes) by adding its reversal: r + r[::-1] has the bits of
    its own reversal."""
    rng = np.random.default_rng(seed)
    a = np.zeros((g.n_nodes, g.dim, g.dim))
    a[:, range(g.dim), range(g.dim)] = rng.uniform(1.0, 2.0, (g.n_nodes, g.dim))
    if g.dim == 2:
        a[:, 0, 1] = a[:, 1, 0] = rng.uniform(-0.5, 0.5, g.n_nodes)
    c = rng.uniform(0.0, 1.0, g.n_nodes)
    return make_coefficients(g, "tabulated", {"a": a + a[::-1], "c": c + c[::-1]})


# the dense cap, 4096 dofs, is the 2-D grid of 66 points
@pytest.mark.parametrize("kind", ["identity", "radial_bump", "random_0", "random_1"])
@pytest.mark.parametrize("dim,n", [(1, 34), (1, 33), (1, 258), (2, 18), (2, 17), (2, 66)])
def test_split_operators_are_their_mirror_image(dim, n, kind):
    # the mirror oracle: every operator that eigendecompose splits equals P A P bit for bit
    # for the dof reversal P, so its blocks leave out no even/odd coupling
    g = build_grid(dim, n, 8.0, "dirichlet")
    field = (_random_even_table(g, int(kind[-1])) if kind.startswith("random")
             else make_coefficients(g, *_split_field(dim, kind)))
    op = assemble(g, field)
    assert spectral._mirrored(op)  # the predicate that eigendecompose splits by
    a = op.matrix
    assert a.tobytes() == a[::-1, ::-1].tobytes()


@pytest.mark.parametrize("dim,n", [(1, 34), (1, 33), (2, 18), (2, 35)])  # 2-D: 256, 1089 dofs
def test_validate_refuses_blocks_paired_on_an_operator_that_is_not_mirrored(dim, n):
    g = build_grid(dim, n, 8.0, "dirichlet")
    field = make_coefficients(g, *_split_field(dim, "radial_bump"))
    dec = eigendecompose(assemble(g, field))
    assert len(dec.blocks[1]) == dec.n_dof // 2
    # c raised by 1e-12 at the node next to the centre: the blocks still reconstruct the
    # operator within the bound, but it is not its mirror image, so the pairing is refused
    # whatever the residuals
    c, k = field.c.copy(), g.n_nodes // 2 + 1
    c[k] += 1e-12
    skewed = assemble(g, make_coefficients(g, "tabulated", {"a": field.a, "c": c}))
    assert not spectral._mirrored(skewed)
    assert skewed.matrix.tobytes() != skewed.matrix[::-1, ::-1].tobytes()
    with pytest.raises(NumericalError, match="not their mirror image"):
        replace(dec, source=skewed).validate()
    # and on a periodic grid, whose reflection the pairing of the first and last dofs is not
    periodic = build_grid(dim, n - 2, 8.0, "periodic")
    assert periodic.n_dof == g.n_dof
    flat = assemble(periodic, make_coefficients(periodic, "identity"))
    with pytest.raises(NumericalError, match="not their mirror image"):
        replace(dec, source=flat).validate()
    # without pairs every operator is accepted: the dense eigenvectors of the skewed one
    lam, v = full_eigh(skewed)
    assert dense_decomposition(lam, v, skewed).validate()["reconstruction"]["measured"] >= 0.0


@pytest.mark.parametrize("n,how", [(34, "per block"), (35, "probe")])  # 1024, 1089 dofs
def test_validate_runs_the_per_block_check_up_to_1024_dofs(n, how):
    # the per-block bounds are the bare tolerances; the probe bounds carry the probe's size
    dec = eigendecompose(bump_operator(n=n, dim=2)[1])
    checks = dec.validate()
    per_block = {"orthonormality": spectral.ORTHONORMALITY_TOL,
                 "reconstruction": spectral.RECONSTRUCTION_TOL * dec.eigenvalues[-1]}
    for name, bound in per_block.items():
        assert (checks[name]["bound"] == pytest.approx(bound, rel=1e-12)) == (how == "per block")


def test_validate_probe_and_negativity_bounds_scale_as_stated():
    # 1089 dofs take the probe checks. Eigenvectors scaled by 1 + delta move both probe
    # residuals by about 2 delta: the orthonormality one to 2 delta |z| against its bound
    # 1e-10 |z| n, the reconstruction one to 2 delta |A z| against 1e-8 lambda_max |z|. A
    # negative lowest eigenvalue is held to 1e-10 lambda_max; this one's is 0 up to roundoff
    g = build_grid(2, 33, 8.0, "periodic")
    op = assemble(g, make_coefficients(g, "identity"))
    dec = eigendecompose(op)
    n, z, scale = dec.n_dof, spectral._probe(dec.n_dof), dec.eigenvalues[-1]
    size = np.linalg.norm(z)
    assert n > 1024 and scale > 10.0 and 0.4 < np.linalg.norm(op.apply(z)) / (scale * size) < 0.6

    # 2 delta = 5e-9: far above 1e-10, below 1e-10 n and 1e-8 lambda_max |z| / |A z|
    checks = scaled_vectors(dec, 2.5e-9).validate()
    assert checks["orthonormality"]["measured"] == pytest.approx(5e-9 * size, rel=1e-6)
    assert checks["orthonormality"]["bound"] == pytest.approx(1e-10 * size * n, rel=1e-12)
    assert checks["reconstruction"]["bound"] == pytest.approx(1e-8 * scale * size, rel=1e-12)
    with pytest.raises(NumericalError, match=r"not orthonormal \(probe check\)"):
        scaled_vectors(dec, 1e-10 * n).validate()  # 2 delta = 2e-10 n
    for factor, passes in ((0.5, True), (2.0, False)):
        lam = dec.eigenvalues.copy()
        lam[0] = -factor * spectral.NEGATIVITY_TOL * scale
        if passes:
            replace(dec, eigenvalues=lam).validate()
        else:
            with pytest.raises(NumericalError, match="not nonnegative"):
                replace(dec, eigenvalues=lam).validate()


def test_split_eigendecompose_holds_no_dense_array(monkeypatch):
    # 2-D, 1024 dofs: the blocks are folded from the entries and the full checks run per block
    g = build_grid(2, 34, 8.0, "dirichlet")
    op = assemble(g, make_coefficients(g, *_split_field(2, "radial_bump")))
    dense = 8 * op.n_dof**2  # bytes of one (n_dof, n_dof) float64 array
    tracemalloc.start()
    try:
        dec = eigendecompose(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.eigensolve["blocks"] == [512, 512]
    assert dec.eigensolve["driver"] == use_lookup(monkeypatch, "openblas")
    assert peak < dense  # one dense array alone would reach it


def test_decomposition_requires_its_source_operator():
    # the source's grid is the one grid of every norm taken with the decomposition
    with pytest.raises(TypeError, match="source"):
        SpectralDecomposition(eigenvalues=np.array([2.0]), blocks=(np.eye(1), np.zeros((0, 0))),
                              rank=np.arange(1))


def test_cap_exceeded_message(monkeypatch):
    _, op = bump_operator(n=33)
    monkeypatch.setattr(spectral, "DEFAULT_DOF_CAP", 10)
    with pytest.raises(SpectrumCapError, match="cap 10; reduce N"):
        eigendecompose(op)


def test_apply_identity_and_power_one():
    g, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.n_dof)
    assert np.allclose(apply_function(dec, np.ones(dec.n_dof), f), f, rtol=1e-12, atol=1e-13)
    assert np.allclose(apply_function(dec, dec.spectrum, f), op.matrix @ f,
                       rtol=1e-12, atol=1e-10 * np.abs(op.matrix @ f).max())


def test_power_half_matches_fft_symbol_oracle_on_periodic_grid():
    g = build_grid(1, 32, 4.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.n_dof)
    spec_path = fractional_power(dec, 0.5, f)
    oracle = np.fft.ifft(np.sqrt(laplacian_symbol(g)) * np.fft.fft(f)).real
    assert np.allclose(spec_path, oracle, rtol=0, atol=1e-10)


def test_fractional_power_integer_composition():
    g, op = bump_operator(n=65)
    dec = eigendecompose(op)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.n_dof)
    two_fold = op.matrix @ (op.matrix @ f)
    spectral2 = fractional_power(dec, 2.0, f)
    assert np.linalg.norm(two_fold - spectral2) <= 1e-9 * np.linalg.norm(two_fold)


def test_fractional_power_semigroup_of_exponents():
    g, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(g.n_dof)
    twice = fractional_power(dec, 0.5, fractional_power(dec, 0.5, f))
    once = fractional_power(dec, 1.0, f)
    assert np.linalg.norm(twice - once) <= 1e-9 * np.linalg.norm(once)


def test_fractional_power_rejects_negative_alpha():
    _, op = bump_operator()
    dec = eigendecompose(op)
    with pytest.raises(ValueError, match="alpha >= 0"):
        fractional_power(dec, -0.5, np.ones(dec.n_dof))


def test_singular_map_names_eigenvalue():
    g = build_grid(1, 8, 4.0, "periodic")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    assert dec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    with np.errstate(divide="ignore"):
        inverse = dec.spectrum**-1.0
    with pytest.raises(ValueError, match=r"singular on the spectrum \(eigenvalue .* at index 0\)"):
        apply_function(dec, inverse, np.ones(dec.n_dof))
    with pytest.raises(ValueError, match="at index 0"):  # an extension-shaped multiplier
        apply_function(dec, np.column_stack([np.ones(dec.n_dof), inverse]), np.ones(dec.n_dof))


def test_spectrum_power_raises_before_lambda_max_to_the_alpha_overflows():
    # at alpha = (1 -+ 1e-12) log(float max) / log(lambda_max), lambda_max^alpha is the float
    # max times 1 -+ 7e-10: the bits of spectrum ** alpha below, a NumericalError above. The
    # suite turns a RuntimeWarning into an error, so a guard after the overflow fails here
    _, dec = dirichlet_laplacian(n=65)
    edge = math.log(np.finfo(float).max) / math.log(dec.spectrum[-1])
    below = edge * (1.0 - 1e-12)
    powers = spectrum_power(dec, below)
    assert np.isfinite(powers).all()
    assert np.array_equal(powers.view(np.uint64), (dec.spectrum**below).view(np.uint64))
    f = np.ones(dec.n_dof)
    for call in (lambda a: spectrum_power(dec, a), lambda a: fractional_power(dec, a, f),
                 lambda a: unitary_propagate(dec, a, 1.0, f)):
        with pytest.raises(NumericalError,
                           match=r"alpha = 170\.6.*lambda_max = 6\.396145e\+01"):
            call(edge * (1.0 + 1e-12))


def test_apply_function_broadcasts_multiplier_and_state():
    # byte-equal to the conjugations written out by hand: V (M * (V^T u)[:, None])
    # for an (n_dof, n_y) multiplier, V (m[:, None] * V^T F) for an (n_dof, k) batch
    _, op = bump_operator()
    dec = eigendecompose(op)
    lam = dec.spectrum
    rng = np.random.default_rng(17)
    u = rng.standard_normal(dec.n_dof)
    per_y = np.exp(-lam[:, None] * np.array([0.1, 0.5, 2.0]))
    out = apply_function(dec, per_y, u)
    assert out.shape == (dec.n_dof, 3)
    assert out.tobytes() == dec.from_modes(per_y * dec.to_modes(u)[:, None]).tobytes()
    batch = rng.standard_normal((dec.n_dof, 4))
    m = np.exp(1j * lam**0.5)
    out = apply_function(dec, m, batch)
    assert out.shape == batch.shape
    assert out.tobytes() == dec.from_modes(m[:, None] * dec.to_modes(batch)).tobytes()


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_unitary_propagator_preserves_l2(alpha, t):
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(dec.n_dof)
    out = unitary_propagate(dec, alpha, t, f)
    assert abs(np.linalg.norm(out) / np.linalg.norm(f) - 1.0) <= 1e-10


def test_unitary_group_law():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(dec.n_dof)
    ab = unitary_propagate(dec, 0.5, 0.3, unitary_propagate(dec, 0.5, 0.7, f))
    whole = unitary_propagate(dec, 0.5, 1.0, f)
    assert np.linalg.norm(ab - whole) <= 1e-10 * np.linalg.norm(f)


def test_unitary_at_zero_is_identity():
    _, op = bump_operator()
    dec = eigendecompose(op)
    f = np.sin(np.arange(dec.n_dof))
    assert np.allclose(unitary_propagate(dec, 0.5, 0.0, f), f, rtol=0, atol=1e-14)


def test_smoothing_norm_maximization():
    # sup over lam of lam e^{-eps t lam^2} = (2 e eps t)^{-1/2} at (2 eps t)^{-1/2}
    _, op = bump_operator(n=129, x=8.0, s=0.0, c_amp=0.0)
    dec = eigendecompose(op)
    for eps, t in [(0.01, 0.1), (0.01, 1.0), (0.1, 0.1), (0.1, 1.0)]:
        measured = smoothing_norm_measured(dec, eps, t)
        bound = smoothing_norm_bound(eps, t)
        assert measured <= bound * (1 + 1e-10)
        lam_star = (2 * eps * t) ** -0.5
        if dec.eigenvalues[0] <= lam_star <= dec.eigenvalues[-1]:
            assert measured >= 0.97 * bound


def test_functional_calculus_homomorphism():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(dec.n_dof)
    lam = dec.spectrum
    pairs = [
        (np.exp(-0.2 * lam), lam**0.5),
        (lam**1.5, np.exp(-1.0 * lam)),
        ((lam + 1.0) ** -0.5, lam**2.0),
    ]
    for g_mult, f_mult in pairs:
        comp = apply_function(dec, g_mult, apply_function(dec, f_mult, f))
        prod = apply_function(dec, g_mult * f_mult, f)
        assert np.linalg.norm(comp - prod) <= 1e-9 * max(np.linalg.norm(prod), 1e-300)


def test_bounded_function_commutes_with_heat():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(10)
    f = rng.standard_normal(dec.n_dof)
    heat = np.exp(-0.5 * dec.spectrum)
    a = apply_function(dec, heat, fractional_power(dec, 0.75, f))
    b = fractional_power(dec, 0.75, apply_function(dec, heat, f))
    assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(f)


def test_fractional_power_self_adjoint():
    _, op = bump_operator()
    dec = eigendecompose(op)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(dec.n_dof)
    g = rng.standard_normal(dec.n_dof)
    left = np.dot(fractional_power(dec, 0.6, f), g)
    right = np.dot(f, fractional_power(dec, 0.6, g))
    assert abs(left - right) <= 1e-10 * abs(left)


# --- Bessel potentials ------------------------------------------------------

@pytest.mark.parametrize("shape, axes", [((254,), (0,)), ((256, 7), (0,)), ((64, 64, 3), (0, 1))])
@pytest.mark.parametrize("dtype", [float, complex])
def test_dst1_matches_scipy_dstn_oracle(shape, axes, dtype):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        x += 1j * rng.standard_normal(shape)
    y = spectral._dst1(x, axes)
    oracle = scipy.fft.dstn(x, type=1, axes=axes, norm="ortho")
    assert y.dtype == oracle.dtype
    assert np.abs(y - oracle).max() <= 1e-14 * np.abs(oracle).max()
    assert np.abs(spectral._dst1(y, axes) - x).max() <= 1e-14 * np.abs(x).max()


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_zero_order_is_identity(boundary):
    g = build_grid(1, 17, 4.0, boundary)
    rng = np.random.default_rng(12)
    f = rng.standard_normal(g.n_dof)
    assert np.allclose(bessel_apply(g, 0.0, f), f, rtol=0, atol=1e-12)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_order_two_is_one_plus_laplacian(boundary):
    g = build_grid(1, 17, 4.0, boundary)
    lap = assemble(g, make_coefficients(g, "identity")).matrix
    rng = np.random.default_rng(13)
    f = rng.standard_normal(g.n_dof)
    assert np.allclose(bessel_apply(g, 2.0, f), f + lap @ f, rtol=0, atol=1e-10)
    batch = rng.standard_normal((g.n_dof, 3)) + 1j * rng.standard_normal((g.n_dof, 3))
    assert np.allclose(bessel_apply(g, 2.0, batch), batch + lap @ batch, rtol=0, atol=1e-10)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_inverse_composition(boundary):
    g = build_grid(1, 17, 4.0, boundary)
    rng = np.random.default_rng(14)
    f = rng.standard_normal(g.n_dof)
    out = bessel_apply(g, 2.0, bessel_apply(g, -2.0, f))
    assert np.linalg.norm(out - f) <= 1e-10 * np.linalg.norm(f)
    g2 = build_grid(2, 9, 4.0, boundary)
    batch = rng.standard_normal((g2.n_dof, 3)) + 1j * rng.standard_normal((g2.n_dof, 3))
    out = bessel_apply(g2, 2.0, bessel_apply(g2, -2.0, batch))
    assert np.linalg.norm(out - batch) <= 1e-10 * np.linalg.norm(batch)


@pytest.mark.parametrize("dim, n", [(1, 33), (2, 12)])
@pytest.mark.parametrize("order", [1.5, -2.0, 4.0])
def test_bessel_dirichlet_matches_dense_spectral_calculus(dim, n, order):
    # oracle: (1 + lam)^{s/2} through the dense eigendecomposition of the
    # assembled identity-coefficient operator; sobolev_norm is its l2 norm
    g = build_grid(dim, n, 4.0, "dirichlet")
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    rng = np.random.default_rng(15)
    real = rng.standard_normal(g.n_dof)
    batch = rng.standard_normal((g.n_dof, 3))
    for f in (real, real + 1j * rng.standard_normal(g.n_dof), batch,
              batch + 1j * rng.standard_normal(batch.shape)):
        oracle = apply_function(dec, (dec.spectrum + 1.0) ** (order / 2.0), f)
        out = bessel_apply(g, order, f)
        assert out.dtype == oracle.dtype
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)
        norm = sobolev_norm(g, order, f)
        assert np.shape(norm) == f.shape[1:]
        assert np.allclose(norm, l2_norm(g, oracle), rtol=1e-13, atol=0)
        assert np.allclose(norm, l2_norm(g, out), rtol=1e-13, atol=0)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim, n", [(1, 33), (2, 12)])
def test_laplacian_symbol_is_identity_operator_spectrum(boundary, dim, n):
    g = build_grid(dim, n, 4.0, boundary)
    lam = np.linalg.eigvalsh(assemble(g, make_coefficients(g, "identity")).matrix)
    symbol = np.sort(laplacian_symbol(g).ravel())
    assert np.abs(symbol - lam).max() <= 1e-12 * lam.max()


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("dim, n", [(1, 17), (2, 10)])
def test_bessel_batch_equals_column_loop(monkeypatch, boundary, dim, n):
    g = build_grid(dim, n, 4.0, boundary)
    rng = np.random.default_rng(16)
    batch = rng.standard_normal((g.n_dof, 5)) + 1j * rng.standard_normal((g.n_dof, 5))
    out = bessel_apply(g, 1.5, batch)
    loop = np.column_stack([bessel_apply(g, 1.5, col) for col in batch.T])
    assert out.shape == batch.shape
    assert np.abs(out - loop).max() <= 1e-13 * np.abs(loop).max()
    norms = sobolev_norm(g, 1.5, batch)
    assert norms.shape == (5,)
    assert np.allclose(norms, [sobolev_norm(g, 1.5, col) for col in batch.T], rtol=1e-13, atol=0)
    # on both boundaries: the l2 norm of the oracle's field and of the dense calculus of the
    # assembled identity operator, for real and complex columns, each in one forward transform
    dec = eigendecompose(assemble(g, make_coefficients(g, "identity")))
    calls = {"dst1": 0, "fftn": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for order in (1.5, -2.0, 4.0):
        for f in (batch.real, batch, batch[:, 0].real, batch[:, 0]):
            fields = bessel_apply(g, order, f), apply_function(
                dec, (dec.spectrum + 1.0) ** (order / 2.0), f)
            with monkeypatch.context() as m:
                m.setattr(spectral, "_dst1", counted("dst1", spectral._dst1))
                m.setattr(np.fft, "fftn", counted("fftn", np.fft.fftn))
                m.setattr(np.fft, "ifftn", lambda *args, **kwargs: pytest.fail("ifftn"))
                norm = sobolev_norm(g, order, f)
            for field in fields:
                assert np.allclose(norm, l2_norm(g, field), rtol=1e-13, atol=0)
    one_per_call = 3 * 4
    assert calls == ({"dst1": one_per_call, "fftn": 0} if boundary == "dirichlet"
                     else {"dst1": 0, "fftn": one_per_call})


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_bessel_rejects_wrong_state_length(boundary):
    g = build_grid(2, 8, 2.0, boundary)
    with pytest.raises(ValueError, match="state length"):
        sobolev_norm(g, 1.0, np.ones(g.n_dof + 1))


# --- norm equivalence -------------------------------------------------------

def test_norm_equivalence_alpha_zero_ratio_is_two():
    g, op = bump_operator(n=17)
    [rep] = norm_equivalence(eigendecompose(op), [0.0], n_bumps=4, refine=False)
    assert rep.ratio_min == pytest.approx(2.0, rel=1e-12)
    assert rep.ratio_max == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_norm_equivalence_periodic_constant_bracket(alpha):
    g = build_grid(1, 64, 8.0, "periodic")
    op = assemble(g, make_coefficients(g, "identity"))
    dec = eigendecompose(op)
    # per-mode oracle: the ratio equals (1 + m^alpha) / (1 + m)^alpha
    for frac in (0.0, 0.3, 0.8, 1.0):
        k = int(frac * (dec.n_dof - 1))
        v = eigenvectors(dec)[:, k]
        m = dec.eigenvalues[k]
        m = 0.0 if m < 1e-10 * dec.eigenvalues[-1] else m
        ratio = (l2_norm(g, v) + l2_norm(g, fractional_power(dec, alpha, v))) / l2_norm(
            g, bessel_apply(g, 2 * alpha, v)
        )
        assert ratio == pytest.approx((1 + m**alpha) / (1 + m) ** alpha, rel=1e-10)
        assert 1.0 - 1e-9 <= ratio <= 2.0 ** (1 - alpha) + 1e-9


@pytest.mark.parametrize("refine", [True, False])
def test_norm_equivalence_working_set_matches_tracemalloc_peak(refine):
    # the parse-time memory guard charges norm_equiv NORM_EQUIV_WORKING_SET arrays of its
    # test functions on the grid it measures last; a 2-D Dirichlet grid, whose DST-I holds
    # two complex odd extensions, sets the peak
    _, op = bump_operator(n=20, dim=2, s=0.5, w=2.0, c_amp=0.0)
    dec = eigendecompose(op)
    last = build_grid(2, 40, 8.0, "dirichlet") if refine else op.grid
    tracemalloc.start()
    try:
        norm_equivalence(dec, [0.5], n_bumps=2000, refine=refine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tests_bytes = 8 * norm_test_count(2000) * last.n_dof
    assert NORM_EQUIV_WORKING_SET - 1.0 < peak / tests_bytes <= NORM_EQUIV_WORKING_SET


def test_norm_equivalence_report_fields_and_drift():
    _, op = bump_operator(n=33, s=0.5, w=2.0)
    [rep] = norm_equivalence(eigendecompose(op), [0.5], n_bumps=6, seed=3)
    assert 0 < rep.ratio_min <= rep.ratio_max < np.inf
    assert rep.refinement_drift <= 0.1
    d = asdict(rep)
    assert list(d) == ["alpha", "lambda_min", "lambda_max", "ratio_min",
                       "ratio_max", "refinement_drift", "n_samples"]


@pytest.mark.parametrize("kind,n_bumps,seed,sets", [("identity", 3, 1, "ratio_max"),
                                                    ("radial_bump", 6, 3, "ratio_min")])
def test_norm_equivalence_drift_is_relative_to_the_doubled_grids_own_bracket(kind, n_bumps,
                                                                             seed, sets):
    # the doubled grid's refine=False run samples the same bumps (same seed and half length)
    # and eigenvector indices; in each case the relative change of one end sets the drift
    def dec(n):
        g = build_grid(1, n, 8.0, "dirichlet")
        params = None if kind == "identity" else {"s": 0.5, "w": 2.0, "c_amp": 0.4}
        return eigendecompose(assemble(g, make_coefficients(g, kind, params)))

    [rep] = norm_equivalence(dec(17), [0.5], n_bumps=n_bumps, seed=seed)
    [fine] = norm_equivalence(dec(34), [0.5], n_bumps=n_bumps, seed=seed, refine=False)
    change = {end: abs(getattr(fine, end) - getattr(rep, end)) / getattr(rep, end)
              for end in ("ratio_min", "ratio_max")}
    assert change[sets] == max(change.values()) and rep.ratio_min > 1.1
    assert rep.refinement_drift == pytest.approx(change[sets], rel=1e-12)


def test_norm_equivalence_samples_only_the_eigenvectors_the_grid_has():
    # 1-D Dirichlet n = 34 has 32 dofs: indices 0, 1, 2, 4, 8 and 16 of
    # EIGENVECTOR_SAMPLE_INDICES exist, and 32 does not
    _, op = bump_operator(n=34)
    [rep] = norm_equivalence(eigendecompose(op), [0.5], n_bumps=3, refine=False)
    assert op.n_dof == 32 and rep.n_samples == 3 + 6


def test_norm_equivalence_takes_zero_bumps():
    # the README admits n_bumps: 0, which samples the eigenvectors alone
    _, op = bump_operator(n=65)
    assert norm_test_count(0) == 7
    [rep] = norm_equivalence(eigendecompose(op), [0.5], n_bumps=0, refine=False)
    assert rep.n_samples == 7 and 0.0 < rep.ratio_min <= rep.ratio_max


def test_sample_bump_is_centred_on_its_center():
    g = build_grid(2, 17, 8.0, "dirichlet")  # nodes at multiples of 1
    center, x = np.array([3.0, -2.0]), g.dof_nodes()
    bump = spectral._sample_bump(g, center, 1.5)
    np.testing.assert_allclose(bump, np.exp(-((x - center) ** 2).sum(axis=1) / 1.5**2))
    assert np.array_equal(x[np.argmax(bump)], center) and bump.max() == 1.0


def test_norm_equivalence_rejects_a_negative_n_bumps():
    _, op = bump_operator(n=17)
    with pytest.raises(ValueError, match="n_bumps must be >= 0, got -3"):
        norm_equivalence(eigendecompose(op), [0.5], n_bumps=-3, refine=False)


def test_norm_equivalence_rejects_zero_function():
    _, op = bump_operator(n=17)
    dec = eigendecompose(op)
    from fracspec.spectral import _equivalence_ratios

    with pytest.raises(ValueError, match="zero test function"):
        _equivalence_ratios(dec, 0.5, [(np.array([100.0]), 0.01)], ())
