"""Compact Lie algebras with explicit matrix bases.

Families: su(n) for 2 <= n <= 5, spin(m) for 3 <= m <= 9 (even Clifford
products as basis, spinor representation of dimension 2^floor(m/2)),
sp(n) for 1 <= n <= 3 (quaternionic unitary realization as 2n x 2n
complex matrices), the 7 x 7 realization of g2, f4 = spin(9) (+) Delta_9
in its 52 x 52 adjoint representation, u(1), and so(3) in its vector
representation.  Direct sums of these are supported for the fields that
need product groups.  Every algebra has a complete bracket and a matrix
chart, so exp and log are defined for all of them.  Nothing is solved
for numerically: f4's spinor real structure is a product of gammas, and
the primitive su(2) is a table of basis vectors in every family.

Algebra elements are real coordinate vectors in the stored basis; the
norm is |X|^2 = -(1/8) Tr(ad X ad X), computed from structure-constant
tables that no other module reads.  Normalizing constants K are certified
as exact rationals from the Killing trace of the image of v = diag(i, -i)
under a primitive su(2) embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CertificationError,
    ConstructionError,
    LogRangeError,
    UnsupportedAlgebraError,
)

__all__ = [
    "LieAlgebra",
    "Factor",
    "Su2Embedding",
    "parse_algebra",
    "direct_sum",
    "primitive_su2",
    "normalizing_constant",
    "theta_density",
    "group_exp",
    "group_log",
    "certification_report",
    "table_constant",
    "ATOMIC_SPECS",
    "SUPPORTED_SPECS",
]

_CLOSURE_TOL = 1e-10
_JACOBI_TOL = 1e-10
_TRACE_INT_TOL = 1e-9
_GROUP_TOL = 1e-10  # deviation from the group's defining constraints
_SU2_TOL = 1e-10    # homomorphism residual of the primitive su(2)
SPAN_TOL = 1e-9     # residual of a matrix projected onto the basis span

# the one table of the atomic algebras: spec -> (family, size), None for a
# family of one algebra; a spec is a key, so each algebra has one spelling
ATOMIC_SPECS = {
    **{f"su{n}": ("su", n) for n in range(2, 6)},
    **{f"spin{m}": ("spin", m) for m in range(3, 10)},
    **{f"sp{n}": ("sp", n) for n in range(1, 4)},
    **{fam: (fam, None) for fam in ("g2", "f4", "u1", "so3")},
}
# the specs certified by `constants`; u1 and so3 serve field-level work
SUPPORTED_SPECS = tuple(s for s in ATOMIC_SPECS if s not in ("u1", "so3"))


@dataclass(frozen=True)
class Factor:
    """Simple factor of the algebra: a contiguous block of basis indices."""

    name: str
    start: int
    stop: int


@dataclass(frozen=True)
class Su2Embedding:
    """Images of the fixed su(2) basis (i sigma_1, i sigma_2, i sigma_3)
    under a homomorphism generating the third homotopy group."""

    images: np.ndarray  # (3, dim) coordinates
    residual: float

    @property
    def image_of_v(self) -> np.ndarray:
        """Image of v = diag(i, -i) = i sigma_3."""
        return self.images[2]


class LieAlgebra:
    """Immutable compact Lie algebra with adjoint and Killing tables.

    Attributes
    ----------
    name : identifier such as "su3", "g2", or "su2+u1"
    dim : algebra dimension
    rep_dim : size N of the stored N x N matrix basis
    basis : (dim, N, N) complex, anti-Hermitian
    structure_constants : f[a, b, c] with [e_a, e_b] = sum_c f[a,b,c] e_c
    killing_matrix : B[a, b] = Tr(ad e_a ad e_b)
    factors : simple-factor blocks (empty for u1)
    pi1 : order of the fundamental group of an atomic block's group, 0
        for Z and 2 for Z/2, or None when it is simply connected

    The kernels `bracket`, `norm_sq`, `ad_matrix` and `bernoulli_pair`, and
    the charge kernel `theta_density`, are the only code that contracts
    against these tables.  They run as BLAS matmuls against flat layouts
    cached at construction (`norm_sq` against norm_gram itself):

    - ad table (dim, dim^2): row a is ad(e_a) flattened with the output
      index first, so X @ table is ad(X) for a whole batch;
    - real basis (dim, 2 N^2): the basis viewed as interleaved real and
      imaginary parts, so real coordinates @ table is the matrix viewed as
      real numbers;
    - coordinate map (2 N^2, dim): the conjugate real basis with the
      inverse basis gram folded in, so a matrix viewed as real numbers
      @ map is its least-squares coordinates;
    - on first use, `killing_3form` and ad in a trace-orthonormal frame.

    Coordinates are real arrays (..., dim) and matrices complex arrays
    (..., N, N), with any leading batch shape and any strides.  `bracket`
    broadcasts its two batches against each other, so one X can meet a
    batch of Y.

    Construction certifies the tables through gates that each raise
    ConstructionError naming their residual, in this order:

    - closure (_CLOSURE_TOL = 1e-10), when f is computed from the basis:
      one stacked commutator over the pairs a < b and one projection;
    - antisymmetry of f in (a, b), to 1e-12;
    - Jacobi (_JACOBI_TOL = 1e-10): max |[ad e_a, ad e_b] - f_abc ad e_c|,
      one row a at a time with every b as stacked GEMMs, so the largest
      temporary is (dim, dim, dim) and no dim^4 array is built;
    - a negative-definite Killing form on every simple factor;
    - an anti-Hermitian basis, to 1e-12.
    """

    def __init__(self, name, family, basis, *, factors, pi1=None,
                 group_kind="special_unitary", blocks=(), f_table=None):
        self.name = name
        self.family = family
        self.basis = np.asarray(basis, dtype=complex)
        self.dim = self.basis.shape[0]
        self.rep_dim = self.basis.shape[1]
        self.factors = tuple(factors)
        self.pi1 = pi1
        self.group_kind = group_kind
        self.blocks = tuple(blocks)

        self._gram = np.real(np.einsum("aji,bij->ab", self.basis.conj().transpose(0, 2, 1),
                                       self.basis))
        cond = np.linalg.cond(self._gram)
        if not np.isfinite(cond) or cond > 1e8:
            raise ConstructionError(f"{name}: ill-conditioned basis gram (cond={cond:.1e})")
        d, n = self.dim, self.rep_dim
        self._real_basis = np.ascontiguousarray(self.basis).view(float).reshape(d, 2 * n * n)
        self._coords_map = np.ascontiguousarray((np.linalg.inv(self._gram) @ self._real_basis).T)
        f = self._structure_from_basis() if f_table is None else f_table
        self.structure_constants = f
        self._ad_table = np.ascontiguousarray(f.transpose(0, 2, 1).reshape(d, d * d))
        self.killing_matrix = np.real(np.einsum("aqc,bcq->ab", f, f))
        # norm gram: |X|^2 = -(1/8) x^T B x, positive semidefinite
        self.norm_gram = -self.killing_matrix / 8.0
        self._validate()
        self._k_cache: dict[int, Fraction] = {}
        self._su2_cache: Su2Embedding | None = None

    # ----- construction helpers -----

    def _structure_from_basis(self) -> np.ndarray:
        d = self.dim
        a, b = np.triu_indices(d, 1)
        coef, res = self._matrix_coords(self.basis[a] @ self.basis[b] - self.basis[b] @ self.basis[a])
        if res > _CLOSURE_TOL:
            raise ConstructionError(f"{self.name}: bracket closure residual {res:.2e}")
        f = np.zeros((d, d, d))
        f[a, b] = coef
        f[b, a] = -coef
        return f

    def _validate(self) -> None:
        f = self.structure_constants
        anti = np.abs(f + f.transpose(1, 0, 2)).max()
        if anti > 1e-12:
            raise ConstructionError(f"{self.name}: antisymmetry violated ({anti:.2e})")
        jac = self._jacobi_residual()
        if jac > _JACOBI_TOL:
            raise ConstructionError(f"{self.name}: Jacobi residual {jac:.2e}")
        # compact semisimple blocks: Killing negative definite
        for fac in self.factors:
            blk = self.killing_matrix[fac.start:fac.stop, fac.start:fac.stop]
            top = np.linalg.eigvalsh((blk + blk.T) / 2).max()
            if top >= 0:
                raise ConstructionError(f"{self.name}: Killing form not negative definite "
                                        f"on {fac.name} (top eigenvalue {top:.2e})")
        herm = np.abs(self.basis + self.basis.conj().transpose(0, 2, 1)).max()
        if herm > 1e-12:
            raise ConstructionError(f"{self.name}: basis not anti-Hermitian ({herm:.2e})")

    def _jacobi_residual(self) -> float:
        """max |[ad e_a, ad e_b] - sum_c f_abc ad e_c| over a, b: one row a
        at a time, every b at once as stacked GEMMs on (dim, dim, dim)."""
        d = self.dim
        ad = self._ad_table.reshape(d, d, d)
        worst = 0.0
        for a in range(d):
            rhs = (self.structure_constants[a] @ self._ad_table).reshape(d, d, d)
            worst = max(worst, np.abs(ad[a] @ ad - ad @ ad[a] - rhs).max())
        return float(worst)

    # ----- elements -----

    def basis_vector(self, a: int) -> np.ndarray:
        v = np.zeros(self.dim)
        v[a] = 1.0
        return v

    def to_matrix(self, coords) -> np.ndarray:
        """Real coordinates (..., dim) -> representation matrices (..., N, N)."""
        coords = np.asarray(coords, dtype=float)
        n = self.rep_dim
        return (coords @ self._real_basis).view(complex).reshape(coords.shape[:-1] + (n, n))

    def _matrix_coords(self, M):
        n = self.rep_dim
        flat = np.ascontiguousarray(M).view(float).reshape(M.shape[:-2] + (2 * n * n,))
        coef = flat @ self._coords_map
        res = np.abs(self.to_matrix(coef) - M).max(initial=0.0)
        return coef, float(res)

    def to_coords(self, M, error=None):
        """Project matrices onto the basis span.

        Returns (coords, residual), the residual being the worst projection
        defect over the batch.  This is the one span gate: given `error`, a
        residual above SPAN_TOL raises error(residual), so each caller names
        its own exception and message.
        """
        coords, res = self._matrix_coords(np.asarray(M, dtype=complex))
        if error is not None and not res <= SPAN_TOL:  # NaN fails too
            raise error(res)
        return coords, res

    # ----- kernels: no other module contracts against the tables -----

    def bracket(self, X, Y) -> np.ndarray:
        """[X, Y] = ad(X) Y in coordinates, broadcast over leading axes."""
        # the batched matvec is an einsum: a stacked matmul is slower on
        # su2 (2x), su3 and spin7 and ties on g2
        return np.einsum("...cb,...b->...c", self.ad_matrix(X), np.asarray(Y, dtype=float))

    def norm_sq(self, X) -> np.ndarray:
        """Pointwise |X|^2 = -(1/8) Tr(ad X ad X) over the trailing axis."""
        X = np.asarray(X)
        return ((X @ self.norm_gram) * X).sum(axis=-1)

    @cached_property
    def kappa(self) -> float:
        """sup |X|^2 / |X|_F^2 over the algebra, with |X|_F the Frobenius norm
        of X's matrix: the top eigenvalue of norm_gram relative to the basis
        gram, so norm_sq(X) <= kappa |X|_F^2 (0 for u1, whose norm vanishes)."""
        L_inv = np.linalg.inv(np.linalg.cholesky(self._gram))
        return max(0.0, float(np.linalg.eigvalsh(L_inv @ self.norm_gram @ L_inv.T).max()))

    @cached_property
    def killing_3form(self) -> tuple[np.ndarray, ...]:
        """Per simple factor, T_abd = B([e_a, e_b], e_d) on its basis block laid
        out (d_k, d_k^2), so L @ T is T(L, ., .) for a batch L (..., d_k).  T is
        totally antisymmetric: f is in (a, b), and B is ad-invariant."""
        f, B = self.structure_constants, self.killing_matrix
        return tuple(np.einsum("abc,cd->abd", f[k, k, k], B[k, k]).reshape(k.stop - k.start, -1)
                     for k in (slice(fac.start, fac.stop) for fac in self.factors))

    @cached_property
    def block_layout(self) -> tuple[tuple[int, "LieAlgebra"], ...]:
        """(representation offset, block) for every atomic block, in order;
        an atomic algebra is its own block at offset 0."""
        out, off = [], 0
        for blk in self.blocks or (self,):
            out.append((off, blk))
            off += blk.rep_dim
        return tuple(out)

    def owning_block(self, k: int) -> tuple[int, "LieAlgebra"]:
        """(representation offset, block) of the block holding simple factor
        k; a sum lists its blocks' factors in block order."""
        n = k
        for off, blk in self.block_layout:
            if 0 <= n < len(blk.factors):
                return off, blk
            n -= len(blk.factors)
        raise IndexError(f"{self.name} has no simple factor {k}")

    def ad_matrix(self, X) -> np.ndarray:
        """Matrices (..., dim, dim) of ad(X) acting on coordinates, rows =
        output index, batched over the leading axes of X (..., dim)."""
        X = np.asarray(X, dtype=float)
        return (X @ self._ad_table).reshape(X.shape[:-1] + (self.dim, self.dim))

    @cached_property
    def orthonormal_ad(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(R, R^-1, F) with R^T R the trace-form gram Re Tr(e_a^* e_b) and
        F (dim, dim^2) the rows R ad(e_a) R^-1 flattened.  ad is skew for that
        positive-definite, ad-invariant form, so X @ F gives ad(X) as a real
        skew matrix in the orthonormal frame R x (abelian directions
        included, where the Killing form vanishes)."""
        R = np.linalg.cholesky(self._gram).T
        R_inv = np.linalg.inv(R)
        return R, R_inv, (R @ self.ad_matrix(np.eye(self.dim)) @ R_inv).reshape(self.dim, -1)

    def bernoulli_pair(self, ell, v) -> tuple[np.ndarray, np.ndarray]:
        """(B(ad ell) v, B(-ad ell) v), B(z) = z / (1 - e^-z), exactly, batched
        over the leading axes of ell and v (..., dim).

        B(z) = z/2 + (z/2) coth(z/2).  In the trace-orthonormal frame ad_ell
        is a real skew A with eigenvalues i w, and A^T A = W diag(w^2) W^T,
        so the even part is W diag((w/2) cot(w/2)) W^T, shared by both signs;
        the link-log range keeps |w| < 2 pi, away from the poles of cot."""
        R, R_inv, F = self.orthonormal_ad
        A = (ell @ F).reshape(ell.shape[:-1] + (self.dim, self.dim))
        vt = (v @ R.T)[..., None]
        w2, W = np.linalg.eigh(np.swapaxes(A, -1, -2) @ A)
        half = 0.5 * np.sqrt(np.clip(w2, 0.0, None))
        even = np.cos(half) / np.sinc(half / np.pi)  # x cot x, 1 at x = 0
        ev = W @ (even[..., None] * (np.swapaxes(W, -1, -2) @ vt))
        odd = 0.5 * (A @ vt)
        return ((ev + odd)[..., 0] @ R_inv.T, (ev - odd)[..., 0] @ R_inv.T)

    # ----- group realization -----

    def group_identity(self) -> np.ndarray:
        return np.eye(self.rep_dim, dtype=complex)

    def check_group_elements(self, g) -> float:
        """Max deviation from the group's defining constraints (unitarity,
        plus realness for so(3) and unit determinant for determinant-1
        kinds); raises LogRangeError above _GROUP_TOL, its `site` the batch
        index of the worst matrix and `value` that matrix's deviation."""
        g = np.asarray(g, dtype=complex)
        eye = np.eye(self.rep_dim)
        dev = np.abs(np.einsum("...ji,...jk->...ik", g.conj(), g) - eye).max(axis=(-2, -1))
        if self.group_kind == "special_orthogonal":
            dev = np.maximum(dev, np.abs(g.imag).max(axis=(-2, -1)))
        if self.group_kind in ("special_unitary", "special_orthogonal", "symplectic"):
            dev = np.maximum(dev, np.abs(np.linalg.det(g) - 1.0))
        worst = np.unravel_index(np.argmax(dev), dev.shape)  # NaN is the first maximum
        if not dev[worst] <= _GROUP_TOL:  # NaN fails too
            raise LogRangeError(f"{self.name}: matrices fail group constraints "
                                f"({dev[worst]:.2e})", site=worst, value=float(dev[worst]))
        return float(dev[worst])


# ----------------------------------------------------------------------
# family constructors
# ----------------------------------------------------------------------

def _su_basis(n: int) -> np.ndarray:
    out = []
    for p in range(n):
        for q in range(p + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[p, q] = sym[q, p] = 1j
            asym = np.zeros((n, n), dtype=complex)
            asym[p, q] = 1.0
            asym[q, p] = -1.0
            out += [sym, asym]
    for p in range(n - 1):
        d = np.zeros((n, n), dtype=complex)
        d[p, p] = 1j
        d[p + 1, p + 1] = -1j
        out.append(d)
    return np.stack(out)


def _pauli() -> np.ndarray:
    return np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _gamma_matrices(m: int) -> np.ndarray:
    """Hermitian gammas with {g_a, g_b} = 2 delta_ab in dimension 2^floor(m/2)."""
    k = m // 2
    sx, sy, sz = _pauli()
    eye = np.eye(2, dtype=complex)

    def kron_chain(mats):
        out = np.array([[1.0 + 0j]])
        for M in mats:
            out = np.kron(out, M)
        return out

    gammas = []
    for j in range(1, k + 1):
        pre = [sz] * (j - 1)
        post = [eye] * (k - j)
        gammas.append(kron_chain(pre + [sx] + post))
        gammas.append(kron_chain(pre + [sy] + post))
    if m % 2 == 1:
        gammas.append(kron_chain([sz] * k))
    gammas = np.stack(gammas[:m])
    acom = gammas[:, None] @ gammas + gammas @ gammas[:, None]
    if np.abs(acom - 2 * np.eye(m)[:, :, None, None] * np.eye(2 ** k)).max() > 1e-12:
        raise ConstructionError(f"spin({m}): gamma anticommutator failure")
    return gammas


def _spin_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _spin_basis(m: int) -> np.ndarray:
    g = _gamma_matrices(m)
    # e_i = i gamma_i, so e_i e_j = -gamma_i gamma_j
    return np.stack([-(g[i - 1] @ g[j - 1]) for i, j in _spin_pairs(m)])


def _quat_block(a: float, b: float, c: float, d: float) -> np.ndarray:
    """a + bi + cj + dk as a 2 x 2 complex matrix."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def _sp_basis(n: int) -> np.ndarray:
    units = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    out = []
    for p in range(n):
        for u in units:
            M = np.zeros((2 * n, 2 * n), dtype=complex)
            M[2 * p:2 * p + 2, 2 * p:2 * p + 2] = _quat_block(*u)
            out.append(M)
    for p in range(n):
        for q in range(p + 1, n):
            for u in [(1, 0, 0, 0)] + units:
                M = np.zeros((2 * n, 2 * n), dtype=complex)
                blk = _quat_block(*u)
                M[2 * p:2 * p + 2, 2 * q:2 * q + 2] = blk
                M[2 * q:2 * q + 2, 2 * p:2 * p + 2] = -blk.conj().T
                out.append(M)
    return np.stack(out)


# 7 x 7 family: rows/columns follow the explicit matrix; the 14 parameters
# are ordered (l2..l7, m3..m7, n5, n6, n7).
def _g2_matrix(p) -> np.ndarray:
    l2, l3, l4, l5, l6, l7, m3, m4, m5, m6, m7, n5, n6, n7 = p
    return np.array([
        [0, -l2, -l3, -l4, -l5, -l6, -l7],
        [l2, 0, -m3, -m4, -m5, -m6, -m7],
        [l3, m3, 0, m5 - l6, -l7 - m4, l4 - m7, l5 + m6],
        [l4, m4, l6 - m5, 0, -n5, -n6, -n7],
        [l5, m5, l7 + m4, n5, 0, -l2 - n7, n6 - l3],
        [l6, m6, -l4 + m7, n6, l2 + n7, 0, -m3 - n5],
        [l7, m7, -l5 - m6, n7, l3 - n6, m3 + n5, 0],
    ], dtype=complex)


def _g2_basis() -> np.ndarray:
    return np.stack([_g2_matrix(np.eye(14)[i]) for i in range(14)])


G2_V_INDEX = 11  # the n5 = 1 basis element


def _so3_basis() -> np.ndarray:
    L = np.zeros((3, 3, 3), dtype=complex)
    L[0, 1, 2], L[0, 2, 1] = -1.0, 1.0
    L[1, 2, 0], L[1, 0, 2] = -1.0, 1.0
    L[2, 0, 1], L[2, 1, 0] = -1.0, 1.0
    return L


def _u1_basis() -> np.ndarray:
    return np.array([[[1j]]])


def _build_f4() -> LieAlgebra:
    """Compact f4 = spin(9) (+) Delta_9, stored as its adjoint matrices.

    The 16-dimensional spinor representation rho of spin(9) is real
    (Adams): C = g2 g4 g6 g8, the product of the gammas with no real part,
    is a real symmetric involution with C conj(rho(X)) = rho(X) C, since
    it commutes with each real gamma and anticommutes with each imaginary
    one.  R = (1 + C)/2 - i (1 - C)/2 is a unitary basis of the real form
    {v : C conj(v) = v}, in which every rho(e_a) is a real skew matrix
    r_a.  Besides spin(9)'s own table, the brackets are
    [e_a, s_j] = sum_k r_a[k, j] s_k and [s_j, s_k] = sum_a r_a[k, j] e_a.
    The constructor's Jacobi, Killing and anti-Hermitian gates certify the
    table; its Killing form is -72 I.
    """
    spin9 = _build_atomic("spin9")
    rho, m, n = spin9.basis, spin9.dim, spin9.rep_dim
    eye = np.eye(n)
    g = _gamma_matrices(9)
    C = g[1] @ g[3] @ g[5] @ g[7]
    C = C * np.sign(C.real.flat[np.flatnonzero(C)[0]])  # first nonzero entry positive
    if np.abs(C.imag).max() > 1e-10 or np.abs(C.real @ C.real - eye).max() > 1e-10:
        raise ConstructionError("f4: spinor real structure is not a real involution")
    if np.abs(C @ rho.conj() - rho @ C).max() > 1e-10:
        raise ConstructionError("f4: spinor real structure does not commute with spin(9)")
    R = (eye + C.real) / 2 - 0.5j * (eye - C.real)
    r = np.real(np.einsum("ji,ajk,kl->ail", R.conj(), rho, R))
    f = np.zeros((m + n, m + n, m + n))
    f[:m, :m, :m] = spin9.structure_constants
    f[:m, m:, m:] = r.transpose(0, 2, 1)
    f[m:, :m, m:] = -r.transpose(2, 0, 1)
    f[m:, m:, :m] = r.transpose(2, 1, 0)
    return LieAlgebra("f4", "f4", f.transpose(0, 2, 1), factors=[Factor("f4", 0, m + n)],
                      group_kind="special_orthogonal", f_table=f)


@lru_cache(maxsize=None)
def _build_atomic(spec: str) -> LieAlgebra:
    """The algebra of a key of ATOMIC_SPECS, built once per process."""
    family, n = ATOMIC_SPECS[spec]
    if family == "f4":
        return _build_f4()
    if family == "u1":
        return LieAlgebra(spec, family, _u1_basis(), factors=[], pi1=0, group_kind="unitary")
    if family in ("su", "spin", "sp"):
        basis = {"su": _su_basis, "spin": _spin_basis, "sp": _sp_basis}[family](n)
        kind = "symplectic" if family == "sp" else "special_unitary"
    else:
        basis = _g2_basis() if family == "g2" else _so3_basis()
        kind = "special_orthogonal"
    return LieAlgebra(spec, family, basis, factors=[Factor(spec, 0, len(basis))],
                      pi1=2 if family == "so3" else None, group_kind=kind)


def parse_algebra(spec: str) -> LieAlgebra:
    """Parse "su3", "spin7+u1", ... into an algebra: each part a key of
    ATOMIC_SPECS, a sum their direct sum."""
    algs = []
    for p in (p.strip() for p in spec.split("+")):
        if p not in ATOMIC_SPECS:
            raise UnsupportedAlgebraError(f"unsupported algebra: {p!r}")
        algs.append(_build_atomic(p))
    return algs[0] if len(algs) == 1 else direct_sum(*algs)


def direct_sum(*algs: LieAlgebra) -> LieAlgebra:
    """Block-diagonal direct sum; factors and lift data concatenate.

    A summand that is itself a sum contributes its blocks, so a nested sum
    has the blocks, factors and lift channels of the flat sum of the same
    name."""
    algs = [blk for a in algs for blk in (a.blocks or (a,))]
    dim = sum(a.dim for a in algs)
    rep = sum(a.rep_dim for a in algs)
    basis = np.zeros((dim, rep, rep), dtype=complex)
    f = np.zeros((dim, dim, dim))
    factors = []
    do, ro = 0, 0
    for a in algs:
        basis[do:do + a.dim, ro:ro + a.rep_dim, ro:ro + a.rep_dim] = a.basis
        f[do:do + a.dim, do:do + a.dim, do:do + a.dim] = a.structure_constants
        for fac in a.factors:
            factors.append(Factor(f"{a.name}:{fac.name}", do + fac.start, do + fac.stop))
        do += a.dim
        ro += a.rep_dim
    kind = "special_unitary" if all(a.group_kind == "special_unitary" for a in algs) else "unitary"
    name = "+".join(a.name for a in algs)
    return LieAlgebra(name, "sum", basis, factors=factors, group_kind=kind,
                      blocks=algs, f_table=f)


# ----------------------------------------------------------------------
# Killing data, embeddings, constants
# ----------------------------------------------------------------------

def primitive_su2(alg: LieAlgebra) -> Su2Embedding:
    """A homomorphic su(2) image generating the primitive 3-sphere class.

    The long-root su(2), which generates pi_3 (Bott), is spanned by basis
    vectors in every family, so the images of (i s1, i s2, i s3) are read
    from a table of basis indices: su(n) i s1, i s2, i s3 on the first two
    coordinates (0, 1, n(n-1)); sp(n) k, j, i of the first quaternion
    block (2, 1, 0); spin(m) and f4 the gamma pairs (2,3), (1,3), (1,2);
    g2 the parameters n7, n6, n5 (13, 12, G2_V_INDEX); so(3) -2 E_a.  The
    homomorphism residual [h(x_a), h(x_b)] = h([x_a, x_b]) certifies the
    table and is kept as the embedding's residual."""
    if alg._su2_cache is not None:
        return alg._su2_cache
    fam, scale = alg.family, 1.0
    if fam == "su":
        rows = (0, 1, alg.rep_dim * (alg.rep_dim - 1))
    elif fam == "sp":
        rows = (2, 1, 0)
    elif fam in ("spin", "f4"):
        pairs = _spin_pairs(9 if fam == "f4" else ATOMIC_SPECS[alg.name][1])
        rows = tuple(pairs.index(p) for p in ((2, 3), (1, 3), (1, 2)))
    elif fam == "g2":
        rows = (13, 12, G2_V_INDEX)
    elif fam == "so3":
        rows, scale = (0, 1, 2), -2.0
    else:
        raise UnsupportedAlgebraError(f"no primitive su(2) for {alg.name}")
    images = scale * np.eye(alg.dim)[list(rows)]
    # [i s_a, i s_b] = -2 eps_abc i s_c
    res = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        lhs = alg.bracket(images[a], images[b])
        res = max(res, np.abs(lhs + 2.0 * images[c]).max())
    if res > _SU2_TOL:
        raise ConstructionError(f"{alg.name}: su(2) homomorphism residual {res:.2e}")
    emb = Su2Embedding(images, float(res))
    alg._su2_cache = emb
    return emb


def normalizing_constant(alg: LieAlgebra) -> Fraction:
    """Exact rational K = (-8) / Tr(ad(h(v))^2) for a simple algebra."""
    if len(alg.factors) != 1 or alg.blocks:
        raise UnsupportedAlgebraError(f"{alg.name}: normalizing constant needs a simple algebra")
    return factor_constant(alg, 0)


def factor_constant(alg: LieAlgebra, k: int) -> Fraction:
    """Normalizing constant of simple factor k, certified and cached."""
    if k not in alg._k_cache:
        alg._k_cache[k] = Fraction(-8, killing_trace_of_v(alg.owning_block(k)[1]))
    return alg._k_cache[k]


def killing_trace_of_v(alg: LieAlgebra) -> int:
    """Integer-certified Tr(ad(h(v))^2), the trace behind every constant K."""
    tr = -8.0 * float(alg.norm_sq(primitive_su2(alg).image_of_v))
    if abs(tr - round(tr)) > _TRACE_INT_TOL:
        raise CertificationError(f"{alg.name}: non-integral Killing trace {tr!r}")
    return round(tr)


def table_constant(spec: str) -> Fraction:
    """Closed-form normalizing constant for a simple atomic spec."""
    family, n = ATOMIC_SPECS.get(spec, (None, None))
    if family == "su":
        return Fraction(2, n)
    if family == "spin":
        return Fraction(1, n - 2)
    if family == "sp":
        return Fraction(2, n + 1)
    fixed = {"g2": Fraction(1, 2), "f4": Fraction(1, 9), "so3": Fraction(1, 1)}
    if family not in fixed:
        raise UnsupportedAlgebraError(f"no table constant for {spec!r}")
    return fixed[family]


def theta_density(alg: LieAlgebra, k: int, X, Y, Z) -> np.ndarray:
    """The normalized bi-invariant 3-form of simple factor k, the one charge
    kernel: -(K_k / 32 pi^2) Tr(ad [X^, Y^] ad Z^), ^ the Killing projection
    onto the factor's coordinate block.  X, Y, Z (..., dim) broadcast: X's
    block @ `killing_3form[k]` is T(X, ., .), then Y and Z contract it.
    Totally antisymmetric in (X, Y, Z)."""
    fac = alg.factors[k]
    d = fac.stop - fac.start
    X, Y, Z = (np.asarray(W, dtype=float)[..., fac.start:fac.stop] for W in (X, Y, Z))
    M = (X @ alg.killing_3form[k]).reshape(X.shape[:-1] + (d, d))
    val = np.einsum("...b,...b->...", Y, np.einsum("...bd,...d->...b", M, Z))
    return -(float(factor_constant(alg, k)) / (32.0 * np.pi ** 2)) * val


# ----------------------------------------------------------------------
# exponential and principal logarithm
# ----------------------------------------------------------------------

def group_exp(alg: LieAlgebra, X) -> np.ndarray:
    """exp of algebra coordinates into the matrix group, batched."""
    M = alg.to_matrix(np.asarray(X))
    w, V = np.linalg.eigh(-1j * M)  # Hermitian for anti-Hermitian M
    phase = np.exp(1j * w)
    # two-operand einsum: a stacked matmul is slower on the 2 x 2 and 3 x 3 groups
    return np.einsum("...ab,...cb->...ac", V * phase[..., None, :], V.conj())


def group_log(alg: LieAlgebra, g, threshold: float = 1.0):
    """Principal matrix log projected to the algebra basis span.

    Returns (coords, residual) where residual is the worst projection
    defect over the batch.  Raises LogRangeError when any matrix has an
    eigenvalue farther than `threshold` from 1, or a log outside the basis
    span; its `site` is the batch index of the worst matrix, `mask` marks
    every failing one and `value` is the worst |lambda - 1| (None for span).
    """
    g = np.asarray(g, dtype=complex)
    w, V = np.linalg.eig(g)
    dist = np.abs(w - 1.0).max(axis=-1)
    far = dist.max()
    if far >= threshold:
        raise LogRangeError(f"{alg.name}: log out of range (|lambda - 1| = {far:.3f})",
                            site=np.unravel_index(np.argmax(dist), dist.shape),
                            value=float(far), mask=dist >= threshold)
    lw = 1j * np.angle(w)
    # V diag(lw) V^-1 without forming the inverse: solve against V^T on the right
    VD = V * lw[..., None, :]
    L = np.swapaxes(np.linalg.solve(np.swapaxes(V, -1, -2), np.swapaxes(VD, -1, -2)), -1, -2)
    def span_error(res):  # per-matrix defects, only once the batch has failed
        defect = np.abs(alg.to_matrix(alg.to_coords(L)[0]) - L).max(axis=(-2, -1))
        return LogRangeError(f"{alg.name}: log left the algebra (span residual {res:.2e})",
                             site=np.unravel_index(np.argmax(defect), defect.shape),
                             mask=defect > SPAN_TOL)
    return alg.to_coords(L, error=span_error)


# ----------------------------------------------------------------------
# certification report
# ----------------------------------------------------------------------

def certification_report():
    """Certify normalizing constants; returns (lines, all_match).

    Line format: ``algebra=<name> dim=<d> trace=<t> K=<p>/<q>``.
    """
    lines = []
    ok = True
    for spec in SUPPORTED_SPECS:
        alg = parse_algebra(spec)
        tr = killing_trace_of_v(alg)
        K = normalizing_constant(alg)
        match = K == table_constant(spec)
        ok = ok and match
        lines.append(f"algebra={alg.name} dim={alg.dim} trace={tr} "
                     f"K={K.numerator}/{K.denominator}")
        if not match:
            lines[-1] += " MISMATCH"
    return lines, ok
