import numpy as np
import pytest
from fractions import Fraction
from functools import lru_cache
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_ad_matrix,
    oracle_bracket,
    oracle_group_exp,
    oracle_jacobi_residual,
    oracle_kappa,
    oracle_norm_sq,
    oracle_structure_constants,
    oracle_to_coords,
    oracle_to_matrix,
)
from skyrme import algebra as al
from skyrme import lattice as lat
from skyrme.holonomy import CHORD_CUTOFF
from skyrme.errors import (
    CertificationError,
    ConstructionError,
    LogRangeError,
    UnsupportedAlgebraError,
)

ALL_SPECS = list(al.SUPPORTED_SPECS) + ["so3"]


@pytest.fixture(scope="module", params=ALL_SPECS)
def any_alg(request):
    return al.parse_algebra(request.param)


def test_structure_tables(any_alg):
    f = any_alg.structure_constants
    assert np.abs(f + f.transpose(1, 0, 2)).max() < 1e-12
    # closure against the matrix bracket
    worst = 0.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = rng.integers(0, any_alg.dim, 2)
        C = any_alg.basis[a] @ any_alg.basis[b] - any_alg.basis[b] @ any_alg.basis[a]
        rec = any_alg.to_matrix(f[a, b])
        worst = max(worst, np.abs(C - rec).max())
    assert worst < 1e-10
    # three-term Jacobi
    worst = 0.0
    rng = np.random.default_rng(2)
    eye = np.eye(any_alg.dim)
    for _ in range(20):
        a, b = rng.choice(any_alg.dim, 2)
        c = rng.integers(0, any_alg.dim)
        j = (any_alg.bracket(f[a, b], eye[c])
             + any_alg.bracket(f[b, c], eye[a])
             + any_alg.bracket(f[c, a], eye[b]))
        worst = max(worst, np.abs(j).max())
    assert worst < 1e-10


def test_killing_negative_definite(any_alg):
    for k, fac in enumerate(any_alg.factors):
        blk = any_alg.killing_matrix[fac.start:fac.stop, fac.start:fac.stop]
        assert np.abs(blk - blk.T).max() < 1e-9
        assert np.linalg.eigvalsh((blk + blk.T) / 2).max() < 0


def test_basis_anti_hermitian(any_alg):
    basis = any_alg.basis
    assert np.abs(basis + basis.conj().transpose(0, 2, 1)).max() < 1e-12


def test_su2_killing_and_norms(su2):
    assert np.allclose(su2.killing_matrix, -8.0 * np.eye(3))
    assert -8.0 * su2.norm_sq([0, 0, 1]) == su2.killing_matrix[2, 2] == pytest.approx(-8.0)
    assert su2.norm_sq([0, 0, 1]) == pytest.approx(1.0)
    assert su2.norm_sq(np.zeros(3)) == 0.0
    assert su2.norm_sq([1, 1, 0]) == pytest.approx(2.0)
    assert su2.norm_sq([0.3, -1.2, 0.5]) == pytest.approx(0.3 ** 2 + 1.2 ** 2 + 0.5 ** 2)


def test_g2_explicit_matrix_entries():
    g2 = al.parse_algebra("g2")
    V = g2.basis[al.G2_V_INDEX]
    # the n5 parameter enters at (5,4)/(4,5) and again at (7,6)/(6,7), 1-indexed
    expected = np.zeros((7, 7))
    expected[4, 3] = expected[6, 5] = 1.0
    expected[3, 4] = expected[5, 6] = -1.0
    assert np.abs(V - expected).max() < 1e-14
    assert g2.dim == 14 and g2.rep_dim == 7


def test_g2_killing_trace_of_v():
    g2 = al.parse_algebra("g2")
    emb = al.primitive_su2(g2)
    tr = -8.0 * g2.norm_sq(emb.image_of_v)
    assert tr == pytest.approx(-16.0, abs=1e-9)
    assert al.normalizing_constant(g2) == Fraction(1, 2)


def test_f4_structure():
    f4 = al.parse_algebra("f4")
    spin9 = al.parse_algebra("spin9")
    assert f4.dim == 52 and f4.rep_dim == 52
    # spin(9) is the subalgebra on the first 36 indices, with its own table,
    # and it acts on the 16 spinor indices without leaving them
    f = f4.structure_constants
    assert np.abs(f[:36, :36, :36] - spin9.structure_constants).max() < 1e-14
    assert np.abs(f[:36, :36, 36:]).max() == 0.0
    assert np.abs(f[:36, 36:, :36]).max() == 0.0
    # in the canonical real spinor basis the spin(9) action is a signed
    # permutation table
    assert np.abs(np.abs(f[:36, 36:, 36:]) - np.round(np.abs(f[:36, 36:, 36:]))).max() < 1e-12
    assert set(np.unique(np.round(f[:36, 36:, 36:]))) == {-1.0, 0.0, 1.0}
    # the stored basis is the adjoint representation of that table
    assert np.abs(f4.basis - f.transpose(0, 2, 1)).max() == 0.0
    emb = al.primitive_su2(f4)
    assert emb.residual < 1e-10
    # image of v is the first spin(9) pair e1 e2, embedded unchanged
    expect = np.zeros(52)
    expect[0] = 1.0
    assert np.abs(emb.image_of_v - expect).max() < 1e-12
    assert np.abs(emb.images[:, 36:]).max() == 0.0
    assert np.abs(emb.images[:, :36] - al.primitive_su2(spin9).images).max() < 1e-12
    assert al.killing_trace_of_v(f4) == -72
    assert al.normalizing_constant(f4) == Fraction(1, 9)


def test_f4_exp_log_round_trip():
    f4 = al.parse_algebra("f4")
    X = 0.05 * np.random.default_rng(5).standard_normal((6, 52))
    g = al.group_exp(f4, X)
    assert f4.check_group_elements(g) < 1e-12
    coords, res = al.group_log(f4, g)
    assert res < 1e-12
    assert np.abs(coords - X).max() < 1e-12


@pytest.mark.parametrize("spec,expected", [
    ("su2", Fraction(1)), ("su3", Fraction(2, 3)), ("su4", Fraction(1, 2)),
    ("su5", Fraction(2, 5)),
    ("spin5", Fraction(1, 3)), ("spin7", Fraction(1, 5)), ("spin9", Fraction(1, 7)),
    ("spin6", Fraction(1, 4)), ("spin8", Fraction(1, 6)),
    ("sp1", Fraction(1)), ("sp2", Fraction(2, 3)), ("sp3", Fraction(1, 2)),
    ("g2", Fraction(1, 2)), ("f4", Fraction(1, 9)),
])
def test_normalizing_constants_table(spec, expected):
    K = al.normalizing_constant(al.parse_algebra(spec))
    assert K == expected == al.table_constant(spec)


def test_primitive_su2_residuals(any_alg):
    if any_alg.family == "u1":
        return
    emb = al.primitive_su2(any_alg)
    assert emb.residual < 1e-10


def test_primitive_su2_is_identity_on_su2(su2):
    emb = al.primitive_su2(su2)
    assert np.abs(emb.images - np.eye(3)).max() < 1e-12
    assert np.abs(su2.to_matrix(emb.image_of_v) - np.diag([1j, -1j])).max() < 1e-12


def test_u1_has_no_primitive_su2(u1):
    with pytest.raises(UnsupportedAlgebraError):
        al.primitive_su2(u1)
    with pytest.raises(UnsupportedAlgebraError):
        al.normalizing_constant(u1)


# basis indices of the images of (i s1, i s2, i s3): su(n) i s1, i s2 and
# i s3 on the first two coordinates; sp(n) k, j, i of the first quaternion
# block; spin(m) and f4 the gamma pairs (2,3), (1,3), (1,2); g2 n7, n6, n5;
# so(3) -2 E_a
SU2_ROWS = {
    "su2": (0, 1, 2), "su3": (0, 1, 6), "su4": (0, 1, 12), "su5": (0, 1, 20),
    "spin3": (2, 1, 0), "spin4": (3, 1, 0), "spin5": (4, 1, 0), "spin6": (5, 1, 0),
    "spin7": (6, 1, 0), "spin8": (7, 1, 0), "spin9": (8, 1, 0),
    "sp1": (2, 1, 0), "sp2": (2, 1, 0), "sp3": (2, 1, 0),
    "g2": (13, 12, 11), "f4": (8, 1, 0), "so3": (0, 1, 2),
}


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_primitive_su2_images_are_basis_vectors(spec):
    alg = al.parse_algebra(spec)
    scale = -2.0 if spec == "so3" else 1.0
    expected = scale * np.eye(alg.dim)[list(SU2_ROWS[spec])]
    assert np.array_equal(al.primitive_su2(alg).images, expected)


def test_f4_is_built_without_an_eigensolver(monkeypatch):
    # the spinor real structure is the product of the imaginary gammas, so
    # nothing in f4's construction diagonalizes a matrix
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called while building f4")

    al._build_atomic.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", refuse)
            f4 = al.parse_algebra("f4")
    finally:
        al._build_atomic.cache_clear()
    assert f4.dim == 52 and al.killing_trace_of_v(f4) == -72


def test_theta_density_su2(su2):
    x, y, z = np.eye(3)
    assert al.theta_density(su2, 0, x, x, z) == 0.0
    assert al.theta_density(su2, 0, x, y, z) == pytest.approx(-1 / (2 * np.pi ** 2))


def test_theta_density_antisymmetry(su2):
    rng = np.random.default_rng(3)
    X, Y, Z = rng.standard_normal((3, 3))
    base = al.theta_density(su2, 0, X, Y, Z)
    assert al.theta_density(su2, 0, Y, X, Z) == pytest.approx(-base)
    assert al.theta_density(su2, 0, X, Z, Y) == pytest.approx(-base)
    assert al.theta_density(su2, 0, Z, Y, X) == pytest.approx(-base)


@pytest.mark.parametrize("spec", ["su3", "spin5", "g2"])
def test_theta_density_ad_invariance(spec):
    # closedness/bi-invariance surrogate: theta(Ad_g X, ...) = theta(X, ...)
    alg = al.parse_algebra(spec)
    rng = np.random.default_rng(4)
    X, Y, Z = rng.standard_normal((3, alg.dim))
    base = al.theta_density(alg, 0, X, Y, Z)
    g = al.group_exp(alg, 0.4 * rng.standard_normal(alg.dim))
    conj = []
    for W in (X, Y, Z):
        M = g @ alg.to_matrix(W) @ g.conj().T
        c, res = alg.to_coords(M)
        assert res < 1e-9
        conj.append(c)
    assert al.theta_density(alg, 0, *conj) == pytest.approx(base, abs=1e-9)


def test_theta_density_simple_projection_is_identity(su2):
    rng = np.random.default_rng(5)
    X, Y, Z = rng.standard_normal((3, 3))
    f = su2.structure_constants
    B = su2.killing_matrix
    raw = np.einsum("a,b,abc,cd,d->", X, Y, f, B, Z)
    K = float(al.normalizing_constant(su2))
    assert al.theta_density(su2, 0, X, Y, Z) == pytest.approx(-(K / (32 * np.pi ** 2)) * raw)


def test_theta_density_reads_only_its_factor_block(su2):
    # on su2 + su2, factor k sees only its own block: the other block's
    # coordinates never enter, and its value is that of the block alone
    s = al.direct_sum(su2, su2)
    rng = np.random.default_rng(6)
    X, Y, Z = rng.standard_normal((3, 6))
    for k, own in enumerate((slice(0, 3), slice(3, 6))):
        other = slice(3, 6) if k == 0 else slice(0, 3)
        alone = al.theta_density(su2, 0, X[own], Y[own], Z[own])
        assert al.theta_density(s, k, X, Y, Z) == pytest.approx(alone, rel=1e-14)
        Xo, Yo, Zo = X.copy(), Y.copy(), Z.copy()
        for W in (Xo, Yo, Zo):
            W[other] = rng.standard_normal(3)
        assert al.theta_density(s, k, Xo, Yo, Zo) == al.theta_density(s, k, X, Y, Z)
    X[3:] = Y[3:] = Z[3:] = 0.0
    assert al.theta_density(s, 1, X, Y, Z) == 0.0


@pytest.mark.parametrize("spec", ["su2", "su3", "g2", "su2+su3"])
def test_batched_theta_density_matches_elementwise(spec):
    # one call over a (4, 5) batch, Z broadcast from a single element,
    # equals the per-element values
    alg = al.parse_algebra(spec)
    rng = np.random.default_rng(7)
    X, Y = rng.standard_normal((2, 4, 5, alg.dim))
    Z = rng.standard_normal(alg.dim)
    for k in range(len(alg.factors)):
        batch = al.theta_density(alg, k, X, Y, Z)
        assert batch.shape == (4, 5)
        single = np.array([[al.theta_density(alg, k, X[a, b], Y[a, b], Z) for b in range(5)]
                           for a in range(4)])
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=1e-15)


def test_direct_sum_killing_blocks(su2):
    s = al.direct_sum(su2, su2)
    assert np.allclose(s.killing_matrix, -8.0 * np.eye(6))
    assert len(s.factors) == 2
    K0 = al.factor_constant(s, 0)
    assert K0 == Fraction(1)


def test_group_exp_log(su2):
    assert np.allclose(al.group_exp(su2, np.zeros(3)), np.eye(2))
    c, res = al.group_log(su2, np.eye(2))
    assert np.abs(c).max() == 0.0 and res < 1e-14
    g = al.group_exp(su2, [0, 0, np.pi / 2])
    assert np.allclose(g, np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)]))
    rng = np.random.default_rng(7)
    X = 0.25 * rng.standard_normal((30, 3))
    g = al.group_exp(su2, X)
    c, res = al.group_log(su2, g)
    assert np.abs(c - X).max() < 1e-12 and res < 1e-12
    assert np.abs(al.group_exp(su2, c) - g).max() < 1e-12


def test_group_log_range_gate(su2):
    g = al.group_exp(su2, [0, 0, 2.5])
    with pytest.raises(LogRangeError):
        al.group_log(su2, g)
    # wider threshold admits it
    c, _ = al.group_log(su2, g, threshold=1.99)
    assert c[2] == pytest.approx(2.5)


def test_span_error_mask_marks_a_nan_log(su2):
    # a near-defective matrix with both eigenvalues at e^{0.3i} logs to NaN;
    # the mask marks it, so a caller that drops the marked matrices and logs
    # the rest again always makes progress
    far = np.array([[np.exp(0.3j), 1e300], [0, np.exp(0.3j)]])
    with pytest.raises(LogRangeError, match="left the algebra") as info:
        al.group_log(su2, np.stack([np.eye(2), far]), threshold=1.99)
    assert info.value.mask.tolist() == [False, True]


@pytest.mark.parametrize("spec, block", [("sp1", slice(0, 2)), ("sp2", slice(0, 4)),
                                         ("su2+sp1", slice(2, 4)), ("sp1+su2", slice(0, 2))])
def test_symplectic_blocks_keep_their_unit_determinant(spec, block):
    # Sp(n) lies in SU(2n), so a sum with an sp block keeps the det = 1
    # check: a phase on the sp block's matrices takes them off the group
    alg = al.parse_algebra(spec)
    g = al.group_exp(alg, 0.3 * np.random.default_rng(2).standard_normal((4, alg.dim)))
    assert alg.group_kind == "special_unitary" and alg.check_group_elements(g) < 1e-12
    g[:, block, block] *= np.exp(0.4j)
    with pytest.raises(LogRangeError, match="group constraints"):
        alg.check_group_elements(g)


def test_unsupported_specs():
    with pytest.raises(UnsupportedAlgebraError):
        al.parse_algebra("su9")
    with pytest.raises(UnsupportedAlgebraError):
        al.parse_algebra("spin10")
    with pytest.raises(UnsupportedAlgebraError):  # one spelling per algebra
        al.parse_algebra("su02")
    with pytest.raises(UnsupportedAlgebraError):
        al.parse_algebra("e8")


def test_certification_report_format():
    lines, ok = al.certification_report()
    assert ok and len(lines) == len(al.SUPPORTED_SPECS)
    for line in lines:
        assert line.startswith("algebra=")
        fields = dict(kv.split("=") for kv in line.split())
        assert set(fields) == {"algebra", "dim", "trace", "K"}
        p, q = fields["K"].split("/")
        int(p), int(q), int(fields["trace"]), int(fields["dim"])
    g2_line = [l for l in lines if l.startswith("algebra=g2")][0]
    assert "trace=-16" in g2_line and "K=1/2" in g2_line
    f4_line = [l for l in lines if l.startswith("algebra=f4")][0]
    assert "trace=-72" in f4_line and "K=1/9" in f4_line
    su4_line = [l for l in lines if l.startswith("algebra=su4")][0]
    assert "K=1/2" in su4_line


KERNEL_SPECS = list(al.SUPPORTED_SPECS) + ["u1", "so3", "su2+su3", "spin7+u1"]


@lru_cache(maxsize=None)
def _algebra(spec):
    return al.parse_algebra(spec)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(KERNEL_SPECS),
       seed=st.integers(0, 2 ** 32 - 1),
       grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       scale=st.floats(1e-2, 1e2))
def test_kernels_match_matrix_oracles(spec, seed, grid, scale):
    # bracket and norm_sq on coordinate grids, against the matrix commutator
    # and the trace of ad X squared, one element at a time
    alg = _algebra(spec)
    X, Y = scale * np.random.default_rng(seed).standard_normal((2,) + grid + (alg.dim,))
    MX, MY = alg.to_matrix(X), alg.to_matrix(Y)
    err = np.linalg.norm(alg.to_matrix(alg.bracket(X, Y)) - (MX @ MY - MY @ MX), axis=(-2, -1))
    size = np.linalg.norm(MX, axis=(-2, -1)) * np.linalg.norm(MY, axis=(-2, -1))
    assert (err <= 1e-10 * size).all()
    flat = X.reshape(-1, alg.dim)
    trace = np.array([-np.trace(alg.ad_matrix(x) @ alg.ad_matrix(x)) / 8.0 for x in flat])
    norms = alg.norm_sq(X)
    assert norms.shape == grid
    np.testing.assert_allclose(norms.ravel(), trace, rtol=1e-10, atol=1e-14 * scale ** 2)


# ----------------------------------------------------------------------
# kernels against the einsum oracles of conftest, on every algebra,
# batch shape and memory layout
# ----------------------------------------------------------------------

PROPERTY_SPECS = ["su2", "su3", "spin7", "g2", "so3", "u1", "sp2", "f4", "su2+u1"]
BATCH_SHAPES = st.one_of(st.just(()),
                         st.tuples(st.integers(1, 6)),
                         st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
LAYOUTS = st.sampled_from(["contiguous", "sliced", "transposed"])


def _coords(rng, dim, shape, layout, scale=1.0):
    """Random coordinates (*shape, dim): C-contiguous, a stride-2 slice of
    a wider array, or the transpose of a (dim, *reversed shape) array."""
    if layout == "sliced":
        return scale * rng.standard_normal(shape + (2 * dim,))[..., ::2]
    if layout == "transposed":
        return scale * rng.standard_normal((dim,) + shape[::-1]).T
    return scale * rng.standard_normal(shape + (dim,))


def _assert_rel_close(got, want, rtol=1e-12):
    """Same shape, and every entry within rtol of the largest oracle entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * max(np.abs(want).max(initial=0.0), 1e-300)


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       shape=BATCH_SHAPES, layout=LAYOUTS, single=st.sampled_from([None, "X", "Y"]))
def test_bracket_and_ad_match_oracles(spec, seed, shape, layout, single):
    # `single` makes that operand one element, broadcast against the batch
    alg = _algebra(spec)
    rng = np.random.default_rng(seed)
    X = _coords(rng, alg.dim, () if single == "X" else shape, layout)
    Y = _coords(rng, alg.dim, () if single == "Y" else shape, layout)
    _assert_rel_close(alg.bracket(X, Y), oracle_bracket(alg, X, Y))
    _assert_rel_close(alg.ad_matrix(X), oracle_ad_matrix(alg, X))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       shape=BATCH_SHAPES, layout=LAYOUTS)
def test_norm_and_basis_maps_match_oracles(spec, seed, shape, layout):
    alg = _algebra(spec)
    X = _coords(np.random.default_rng(seed), alg.dim, shape, layout)
    _assert_rel_close(alg.norm_sq(X), oracle_norm_sq(alg, X))
    M = oracle_to_matrix(alg, X)
    _assert_rel_close(alg.to_matrix(X), M)
    if layout != "contiguous":
        # rows of a wider array: strided in both matrix axes
        n = alg.rep_dim
        M = np.concatenate([M, np.zeros_like(M)], axis=-1)[..., :n]
    coords, res = alg.to_coords(M, error=AssertionError)
    _assert_rel_close(coords, oracle_to_coords(alg, M))
    _assert_rel_close(coords, X)
    assert res <= 1e-12 * np.abs(M).max(initial=1.0)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(PROPERTY_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       shape=BATCH_SHAPES, layout=LAYOUTS,
       scale=st.one_of(st.sampled_from([0.0, 1e-12, 2.0]), st.floats(0.0, 2.0)))
def test_group_exp_matches_expm(spec, seed, shape, layout, scale):
    # the scales reach Q = 0 and the small-w series of the 3 x 3 closed form
    alg = _algebra(spec)
    X = _coords(np.random.default_rng(seed), alg.dim, shape, layout, scale)
    _assert_rel_close(al.group_exp(alg, X), oracle_group_exp(alg, X))


def _unitary(rng, n, real=False):
    """Haar-random element of SO(n) (real) or SU(n): QR of a Gaussian matrix."""
    Z = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(Z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    if real:
        q[:, 0] *= np.linalg.det(q)  # det is +-1
        return q
    return q * np.linalg.det(q) ** (-1.0 / n)


def _degenerate_spectra(spec, a, eps, rng):
    """(matrix, exact exponential) pairs for conjugates of diagonal elements
    with nearly equal eigenvalues: diag(ia, i(a+eps), -i(2a+eps)) and the
    pattern (theta, 0, -theta), theta = a + eps, as each group holds them.
    so3 holds only the rotation about one axis; su2+u1 holds its su2 block
    diag(ib, -ib) beside the phase i phi, with (b, phi) = (a, a + eps) and
    (a + eps, 0)."""
    if spec == "so3":
        O, t = _unitary(rng, 3, real=True), a + eps
        Lz = np.array([[0, -t, 0], [t, 0, 0], [0, 0, 0]], dtype=complex)
        Rz = np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1]])
        return [(O @ Lz @ O.T, O @ Rz @ O.T)]
    if spec == "su3":
        U = _unitary(rng, 3)
        spectra = [(a, a + eps, -2 * a - eps), (a + eps, 0.0, -a - eps)]
    else:
        U = np.eye(3, dtype=complex)
        U[:2, :2] = _unitary(rng, 2)
        spectra = [(a, -a, a + eps), (a + eps, -a - eps, 0.0)]
    return [(U @ np.diag(1j * np.array(s)) @ U.conj().T,
             U @ np.diag(np.exp(1j * np.array(s))) @ U.conj().T) for s in spectra]


@pytest.mark.parametrize("spec", ["su3", "so3", "su2+u1"])
@pytest.mark.parametrize("a", [1e-9, 1e-4, 0.3, 1.0, 2.0])
@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-7])
def test_group_exp_on_degenerate_spectra(spec, a, eps):
    # the 3 x 3 closed form meets coincident and nearly coincident eigenvalues
    # where arccos is steepest, and stays unitary and block diagonal
    alg = _algebra(spec)
    for M, exact in _degenerate_spectra(spec, a, eps, np.random.default_rng(7)):
        X, _ = alg.to_coords(M, error=AssertionError)
        g = al.group_exp(alg, X)
        assert np.abs(g - exact).max() <= 1e-14
        assert np.abs(g.conj().T @ g - np.eye(3)).max() <= 1e-14
        if spec == "su2+u1":
            assert (g[:2, 2] == 0).all() and (g[2, :2] == 0).all()


@pytest.mark.parametrize("spec,closed", [("su3", True), ("so3", True), ("su2+u1", True),
                                         ("su2", False), ("g2", False), ("spin7", False)])
def test_group_exp_takes_the_closed_form_on_every_3x3_group_only(spec, closed, monkeypatch):
    # the path is chosen by the representation size alone: a 3 x 3 group
    # takes no eigh, the link transports of an su3 form included
    alg = _algebra(spec)
    rng = np.random.default_rng(3)
    calls = []
    eigh = np.linalg.eigh

    def counted(H, *args, **kwargs):
        calls.append(np.shape(H))
        return eigh(H, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    al.group_exp(alg, 0.5 * rng.standard_normal((4, alg.dim)))
    if spec == "su3":
        L = lat.TorusLattice((4, 4, 4))
        lat.transports(lat.AlgebraOneForm(L, alg, rng.standard_normal((3, 4, 4, 4, alg.dim))))
    assert (calls == []) == closed


# ----------------------------------------------------------------------
# the chord bound behind the flatness certificate of holonomy._develop
# ----------------------------------------------------------------------

CHORD_SPECS = list(al.SUPPORTED_SPECS) + ["so3", "u1", "su2+u1"]


@pytest.mark.parametrize("spec", CHORD_SPECS)
def test_kappa_matches_oracle(spec):
    alg = _algebra(spec)
    assert alg.kappa == pytest.approx(oracle_kappa(alg), rel=1e-12, abs=1e-15)
    known = {"su2": 0.5, "su3": 0.75, "spin7": 0.625, "f4": 0.125, "u1": 0.0}
    if spec in known:
        assert alg.kappa == pytest.approx(known[spec], rel=1e-12, abs=1e-15)


@settings(max_examples=120, deadline=None)
@given(spec=st.sampled_from(CHORD_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 4), size=st.floats(1e-8, 0.55))
def test_log_norm_is_bounded_by_the_chord(spec, seed, count, size):
    # group elements P = exp(X), |X|_F = size, kept while |P - 1|_F < c: the
    # principal log exists and |log P|^2 <= kappa (2 arcsin(c/2)/c)^2 |P - 1|_F^2
    alg = _algebra(spec)
    X = np.random.default_rng(seed).standard_normal((count, alg.dim))
    X *= size / np.linalg.norm(alg.to_matrix(X), axis=(-2, -1))[:, None]
    P = al.group_exp(alg, X)
    chord = np.linalg.norm(P - np.eye(alg.rep_dim), axis=(-2, -1))
    keep = chord < CHORD_CUTOFF
    assume(keep.any())
    coords, _ = al.group_log(alg, P[keep], threshold=1.99)
    ratio = 2.0 * np.arcsin(CHORD_CUTOFF / 2.0) / CHORD_CUTOFF
    assert (alg.norm_sq(coords) <= alg.kappa * ratio ** 2 * chord[keep] ** 2).all()


# ----------------------------------------------------------------------
# construction: batched kernels against their loops, and the gates
# ----------------------------------------------------------------------

# every algebra whose constructor projects pair commutators; f4's table is
# assembled from spin9's and its spinor real structure (test_f4_structure)
FROM_BASIS_SPECS = [s for s in al.SUPPORTED_SPECS if s != "f4"] + ["so3", "u1"]


@pytest.mark.parametrize("spec", FROM_BASIS_SPECS + ["su2+u1", "u1+so3"])
def test_structure_constants_match_the_pair_loop(spec):
    # a sum takes its table from its blocks; the stacked commutator of its
    # basis must give the same bits
    alg = _algebra(spec)
    oracle = oracle_structure_constants(alg)
    assert np.array_equal(alg._structure_from_basis(), oracle)
    assert np.array_equal(alg.structure_constants, oracle)


@pytest.mark.parametrize("spec", list(al.SUPPORTED_SPECS) + ["so3", "u1", "su2+u1", "u1+so3"])
def test_jacobi_residual_matches_the_pair_loop(spec):
    alg = _algebra(spec)
    assert abs(alg._jacobi_residual() - oracle_jacobi_residual(alg)) <= 1e-15


def _bumped_su3():
    """su3 with an antisymmetric 1e-6 bump of the pair (e_0, e_1)."""
    su3 = _algebra("su3")
    f = su3.structure_constants.copy()
    f[0, 1, 2] += 1e-6
    f[1, 0, 2] -= 1e-6
    return al.LieAlgebra("su3", "su", su3.basis, factors=su3.factors, f_table=f)


def test_jacobi_residual_of_a_bumped_table_matches_the_pair_loop(monkeypatch):
    monkeypatch.setattr(al, "_JACOBI_TOL", np.inf)
    alg = _bumped_su3()
    assert alg._jacobi_residual() > 1e-7
    assert abs(alg._jacobi_residual() - oracle_jacobi_residual(alg)) <= 1e-15


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _closure_failure():
    # [i s1, i s2] = -2 i s3 leaves the span of i s1, i s2
    return al.LieAlgebra("pair", "su", 1j * PAULI[:2], factors=[])


def _antisymmetry_failure():
    # two commuting directions with f[0, 0, 1] = 1e-6: ad e_1 = 0 and
    # [ad e_0, ad e_0] = 0, so Jacobi holds; abelian, so no Killing gate
    f = np.zeros((2, 2, 2))
    f[0, 0, 1] = 1e-6
    basis = np.array([np.diag([1j, 0]), np.diag([0, 1j])])
    return al.LieAlgebra("u1+u1", "sum", basis, factors=[], f_table=f)


def _killing_failure():
    # sl(2, R) = span(i e_0, i e_1, e_2) of su2: a real Lie algebra with an
    # indefinite Killing form, on su2's anti-Hermitian basis
    f = _algebra("su2").structure_constants.copy()
    f[[0, 1], [1, 0]] *= -1
    return al.LieAlgebra("sl2", "su", 1j * PAULI, factors=[al.Factor("sl2", 0, 3)], f_table=f)


def _anti_hermitian_failure():
    # S^-1 (i s_a) S with S = diag(2, 1) brackets like su2 but is not skew
    S = np.diag([2.0, 1.0])
    return al.LieAlgebra("su2", "su", np.linalg.inv(S) @ (1j * PAULI) @ S,
                         factors=[al.Factor("su2", 0, 3)])


@pytest.mark.parametrize("build,message", [
    (_closure_failure, r"pair: bracket closure residual 2\.00e\+00"),
    (_antisymmetry_failure, r"u1\+u1: antisymmetry violated \(2\.00e-06\)"),
    (_bumped_su3, r"su3: Jacobi residual 2\.00e-06"),
    (_killing_failure, r"sl2: Killing form not negative definite on sl2 \(top eigenvalue 8\.00e\+00\)"),
    (_anti_hermitian_failure, r"su2: basis not anti-Hermitian \(1\.50e\+00\)"),
], ids=["closure", "antisymmetry", "jacobi", "killing", "anti_hermitian"])
def test_each_constructor_gate_names_its_residual(build, message):
    # each input passes every gate before the one it fails
    with pytest.raises(ConstructionError, match=message):
        build()
