"""Developing maps, edge-path holonomy, and gauge reconstruction.

A flat potential is integrated by an axis-ordered sweep of its
`lattice.transports` T_i = exp(h_i b_i), g <- g T_i(x) for u' = u a: last
axis first from the corner, then the middle axis per slice, then the first
axis filling the volume.  A form holds link coefficients b, as one-form
files do, so the gate, the development, `path_transport`, the gauge
action `log_derivative(u, T)` and the connection descent all see the
same transports.

The links the sweep multiplies form a maximal tree, so g puts the form in
the maximal-tree (axial) gauge of Wilson, Phys. Rev. D 10 (1974) 2445:
each link becomes its residual R_i(x) = g(x) T_i(x) g(x+e_i)^-1, stored
as the exact identity on the tree.  Development comes before the flatness
gate, so a curved form is developed and then refused.  The curvature is
read off R in the tree gauge: a plaquette of R is that of T conjugated by
g in G, so its chord and its log's norm are those of T up to rounding.
Off the seam slab a plaquette in a plane of the first axis takes no
product, and plane (2, 0) reuses the halves of plane (0, 2) with A and B
swapped, so only plane (1, 2) is multiplied through.  The curvature
density is computed once per site, and each cube's flatness residual is
its window sum over the cube interior.

The gate is first certified without a matrix log.  Write a plaquette as
P = A B^H with A = R_i(x) R_j(x+e_i), B = R_j(x) R_i(x+e_j); B is
unitary, so the chord |P - 1|_F equals |A - B|_F.  While every chord is
below the cutoff c = CHORD_CUTOFF = 0.5, every eigenvalue of P lies
within c of 1 and

    |log P|_F <= (2 arcsin(c/2) / c) |P - 1|_F            (factor 1.0107)
    |F|^2 <= kappa (2 arcsin(c/2) / c)^2 |A - B|_F^2 / (h_i h_j)^2

for F = log P / (h_i h_j) projected onto the basis span (the projection
does not increase the Frobenius norm; kappa is `LieAlgebra.kappa`).  When
every chord is below c and every cube's residual computed from this bound
passes the gate, the true residuals pass too and no log is taken; on a
log derivative the chords are rounding noise.  Otherwise the plaquettes of
all three planes are logged in one batched `group_log`, and the gate
decides on them exactly as without the bound.  A plaquette with no log in
the algebra gives its cube an infinite residual: the LogRangeError's mask
marks every such plaquette, and the others are logged again.

The holonomy is read off one development of the whole torus.  The sweep
starts with g = 1 at the anchor, the corner of the cover's base star
(-spacing mod n_i on each axis), and covers the fundamental domain.  The
residual links are 1 off the seam (exactly on the tree, up to the
curvature elsewhere), and on the seam (the links from x_i = anchor_i - 1
back to the anchor plane) the holonomy of the loop through x; on the line
through the anchor it is the generator holonomy rho_i.  The constancy gate
asks every off-seam residual to lie within `tol` of 1 and every seam
residual within `tol` of its axis's base seam link.  Flat forms with
conjugate holonomy are gauge equivalent by u = g1^-1 C g2, where
C rho2_i C^-1 = rho1_i, verified link by link as C^-1 R1 C = R2; against
a zero form C = 1.

A sector query develops the same form twice in a row, once for its
holonomy and again for the gauge reconstruction, so `build_atlas` keeps
the atlas of the last developed non-zero form in one slot (see there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, group_log
from .errors import AtlasError, FlatnessError, HolonomyMismatchError, LogRangeError
from .lattice import PLANES, AlgebraOneForm, GroupField, TorusLattice, transports

__all__ = [
    "CubicalCover",
    "DevelopingAtlas",
    "HolonomyRep",
    "develop_cube",
    "path_transport",
    "build_atlas",
    "holonomy_rep",
    "gauge_from_holonomy",
]

DEFAULT_FLATNESS_FACTOR = 10.0  # gate: residual <= factor * max spacing
DEFAULT_ATLAS_TOL = 1e-6
CHORD_CUTOFF = 0.5  # c: plaquettes with |P - 1|_F < c are bounded without a log
# sup |log P|_F / |P - 1|_F over unitary P with every |lambda - 1| < c
_LOG_PER_CHORD = 2.0 * np.arcsin(CHORD_CUTOFF / 2.0) / CHORD_CUTOFF

# (key, read-only coefficient copy, atlas) of the last developed non-zero form
_last_atlas: tuple | None = None


# ----------------------------------------------------------------------
# cover combinatorics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CubicalCover:
    """Coarse vertex sublattice with stars of side 2s sites.

    Vertices are coarse index triples on the grid `shape`; the star of v
    is the closed cube of 2s+1 fine sites centered on it, so adjacent
    stars overlap in a slab of s+1 sites.  The stars window the curvature
    gate, and the corner of the base star anchors the development.
    """

    lattice: TorusLattice
    spacing: int

    def __post_init__(self):
        s = self.spacing
        if s < 2:
            raise ValueError("cover spacing must be at least 2 sites")
        for n in self.lattice.dims:
            if n % s != 0:
                raise ValueError(f"cover spacing {s} must divide lattice dims {self.lattice.dims}")
            if n // s < 2:
                raise ValueError("need at least 2 cover vertices per axis")

    @classmethod
    def for_lattice(cls, lattice: TorusLattice, spacing: int | None = None) -> "CubicalCover":
        if spacing is None:
            # the largest valid spacing up to dims[0] // 4, else the next above
            fits = [s for s in range(2, min(lattice.dims) // 2 + 1)
                    if not any(n % s for n in lattice.dims)]
            if not fits:
                raise ValueError(f"no valid cover spacing for dims {lattice.dims}")
            spacing = max((s for s in fits if s <= max(2, lattice.dims[0] // 4)),
                          default=fits[0])
        return cls(lattice, int(spacing))

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(n // self.spacing for n in self.lattice.dims)

    @property
    def base(self) -> tuple[int, int, int]:
        return (0, 0, 0)

    def vertices(self):
        """Coarse vertices in lexicographic order, the base first."""
        return list(np.ndindex(self.shape))

    def star_corner(self, v) -> tuple[int, int, int]:
        return tuple((v[i] * self.spacing - self.spacing) % self.lattice.dims[i]
                     for i in range(3))

    def star_indices(self) -> np.ndarray:
        """Wrapped site indices of every star, (S, 3, 2s+1) in vertices() order."""
        corners = np.array([self.star_corner(v) for v in self.vertices()])
        dims = np.array(self.lattice.dims)
        return (corners[:, :, None] + np.arange(2 * self.spacing + 1)) % dims[:, None]


# ----------------------------------------------------------------------
# development
# ----------------------------------------------------------------------

def _develop(a: AlgebraOneForm, corner, shape, windows=None, flatness_gate: float | None = None,
             vertices=None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate u' = u a over the `shape` sites from the wrapped `corner`
    with u(corner) = 1, then gate a's curvature on every cube of `windows`
    (three (S, n_i) arrays of indices; default the developed cube).
    Returns the residual links R_i = u T_i u(x+e_i)^-1 of a's `transports`
    T and the (n1, n2, n3, N, N) development, swept along the last axis
    from the corner, then the middle axis per slice, then the first axis
    through the volume.  Over the whole torus (shape = dims) the arrays and
    `windows` are indexed by site, so R wraps through the seam; over a
    smaller cube they are indexed from the corner, and a link leaving the
    cube has no meaning in R.

    The sweep's links form a tree, on which R is stored as the exact
    identity: every first-axis link but the last slab, the middle-axis
    links of the first plane but its last row, and the last-axis links of
    the first line but its last.  The first axis takes no product off that
    slab, and the other two one each way per link.  The plaquette halves
    take products only in plane (1, 2) and on the slab: plane (2, 0) is
    plane (0, 2) with its halves swapped, the same bits, in the chord pass
    and the exact pass alike.  The curvature is the
    plaquette defect of R, conjugate to that of T (zero for a log
    derivative however steep the field), computed once per site from the
    chords or else from one batched log of every plaquette, its unloggable
    ones read off the error's mask (see the module docstring).  A cube's
    residual is sqrt(cell volume * window sum of |F|^2 over its interior);
    the first above the gate (default 10 * max spacing) raises
    FlatnessError, naming its corner site, and its vertex when `vertices`
    lists the cubes'.
    """
    alg, lattice = a.algebra, a.lattice
    h, N, dims = lattice.spacings, alg.rep_dim, lattice.dims
    T = transports(a)
    origin = (0, 0, 0)
    if tuple(shape) != dims:  # a cube: its links, indexed from the corner
        T = T[(slice(None),) + np.ix_(*((corner[i] + np.arange(shape[i])) % dims[i]
                                        for i in range(3)))]
        origin, corner = tuple(corner), (0, 0, 0)
    x, y, z = ((corner[i] + np.arange(shape[i])) % shape[i] for i in range(3))
    u = np.empty(tuple(shape) + (N, N), dtype=complex)
    u[x[0], y[0], z[0]] = np.eye(N)
    for k in range(1, len(z)):
        u[x[0], y[0], z[k]] = u[x[0], y[0], z[k - 1]] @ T[2][x[0], y[0], z[k - 1]]
    for k in range(1, len(y)):
        u[x[0], y[k]] = u[x[0], y[k - 1]] @ T[1][x[0], y[k - 1]]
    for k in range(1, len(x)):
        u[x[k]] = u[x[k - 1]] @ T[0][x[k - 1]]

    # T becomes R in place: the slab s = x[-1] closes the first axis
    R, s, eye = T, x[-1], np.eye(N)
    R[0][s] = u[s] @ R[0][s] @ u[x[0]].conj().swapaxes(-1, -2)
    R[0][x[:-1]] = eye
    for ax in (1, 2):
        R[ax] = u @ R[ax] @ np.roll(u, -1, axis=ax).conj().swapaxes(-1, -2)
    R[1][x[0], y[:-1]] = eye
    R[2][x[0], y[0], z[:-1]] = eye

    def halves(i, j):
        """A and B of the plaquettes P = A B^H of R, one per path x -> x + e_i + e_j."""
        if i == 1:  # plane (1, 2), the one plane multiplied through
            return R[1] @ np.roll(R[2], -1, axis=1), R[2] @ np.roll(R[1], -1, axis=2)
        # R[0] is 1 off the slab s, so there A is R[k] at x + e_1 and B is R[k] at
        # x; plane (2, 0) is plane (0, 2) with A and B swapped, bit for bit
        k = i or j
        A, B = np.roll(R[k], -1, axis=0), R[k].copy()
        A[s] = R[0][s] @ A[s]
        B[s] = B[s] @ np.roll(R[0][s], -1, axis=k - 1)
        return (A, B) if i == 0 else (B, A)

    if windows is None:
        windows = x[None], y[None], z[None]
    w0, w1, w2 = (w[:, :-1] for w in windows)
    interior = w0[:, :, None, None], w1[:, None, :, None], w2[:, None, None, :]
    flatness_gate = DEFAULT_FLATNESS_FACTOR * max(h) if flatness_gate is None else flatness_gate
    bound = 0.0
    for i, j in PLANES:
        A, B = halves(i, j)
        chord_sq = (np.abs(A - B) ** 2).sum(axis=(-2, -1))
        per_chord = alg.kappa * _LOG_PER_CHORD ** 2 / (h[i] * h[j]) ** 2
        bound = bound + np.where(chord_sq < CHORD_CUTOFF ** 2, per_chord * chord_sq, np.inf)
    resid = np.sqrt(lattice.cell_volume * bound[interior].sum(axis=(1, 2, 3)))
    if not (resid <= flatness_gate).all():
        P = np.stack([A @ B.conj().swapaxes(-1, -2)
                      for A, B in (halves(i, j) for i, j in PLANES)])
        area = np.array([h[i] * h[j] for i, j in PLANES])
        # a plaquette with an eigenvalue 1.99 or more from 1, or a log off the
        # basis span, keeps an infinite density; each refusal drops at least one
        density = np.full(P.shape[:4], np.inf)
        logged = np.ones(P.shape[:4], dtype=bool)
        while logged.any():
            try:
                F = group_log(alg, P[logged], threshold=1.99)[0] / area[logged.nonzero()[0], None]
            except LogRangeError as exc:
                logged[logged] = ~exc.mask
                continue
            density[logged] = alg.norm_sq(F)
            break
        resid = np.sqrt(lattice.cell_volume * sum(density)[interior].sum(axis=(1, 2, 3)))
    if (resid > flatness_gate).any():
        k = int(np.argmax(resid > flatness_gate))
        corner = tuple(int(origin[i] + w[k, 0]) % dims[i] for i, w in enumerate(windows))
        vertex = None if vertices is None else tuple(vertices[k])
        where = "cube" if vertex is None else f"star of vertex {vertex}"
        raise FlatnessError(f"connection not flat on {where} at corner {corner} (residual "
                            f"{resid[k]:.3e} > {flatness_gate:.3e})", vertex=vertex,
                            corner=corner, residual=float(resid[k]), gate=float(flatness_gate))
    return R, u


def develop_cube(a: AlgebraOneForm, corner, shape,
                 flatness_gate: float | None = None) -> np.ndarray:
    """Integrate u' = u a over a cube with u(corner) = 1; returns the
    (n1, n2, n3, N, N) chart on the `shape` sites from the wrapped `corner`.

    Every link of the torus is exponentiated, however small the cube, and
    the cube's own links are multiplied into the tree gauge of its sweep.
    The curvature of those residual links summed over the cube interior
    must pass the flatness gate (default 10 * max spacing); path dependence
    would otherwise make the sweep meaningless.  The gate is applied after
    the sweep, so a curved form is developed and then refused.
    """
    u = _develop(a, corner, shape, flatness_gate=flatness_gate)[1]
    if tuple(shape) == a.lattice.dims:  # indexed by site: roll to the corner
        u = np.roll(u, [-c for c in corner], axis=(0, 1, 2))
    return u


def path_transport(T: np.ndarray, path) -> np.ndarray:
    """Ordered product of the link transports T along a lattice polyline,
    so the product equals the developed chart along the same path.

    T is the (3,) + dims + (N, N) array of `lattice.transports`, taken
    once for any number of paths.  `path` is a sequence of site index
    triples; consecutive sites must differ by one step along a single
    axis (periodic wrap allowed).
    """
    dims = T.shape[1:4]
    g = np.eye(T.shape[-1], dtype=complex)
    for k in range(len(path) - 1):
        p = tuple(int(v) % dims[i] for i, v in enumerate(path[k]))
        q = tuple(int(v) % dims[i] for i, v in enumerate(path[k + 1]))
        delta = [(q[i] - p[i]) % dims[i] for i in range(3)]
        moves = [(i, d) for i, d in enumerate(delta) if d != 0]
        if len(moves) != 1 or moves[0][1] not in (1, dims[moves[0][0]] - 1):
            raise ValueError(f"path hop {p} -> {q} is not a single link")
        ax, d = moves[0]
        g = g @ (T[(ax,) + p] if d == 1 else T[(ax,) + q].conj().T)
    return g


# ----------------------------------------------------------------------
# atlas and holonomy
# ----------------------------------------------------------------------

def _project_group(alg: LieAlgebra, M: np.ndarray) -> np.ndarray:
    """Polar factors of a batch (..., N, N) of matrices M in the matrix group
    of `group_kind`: the nearest elements of U(N), then det-normalized into
    SU(N) for the special unitary kind, or of SO(N) for a real kind.  That
    group contains G and can be larger (SO(7) for g2, SU(8) for spin7), so
    the factor of a matrix off G need not lie in G.  Raises AtlasError if
    any real M projects onto the wrong orthogonal component."""
    if alg.group_kind == "special_orthogonal":
        M = M.real.astype(complex)
    W, _, Vh = np.linalg.svd(M)
    g = W @ Vh
    if alg.group_kind == "special_unitary":
        det = np.linalg.det(g)
        g = g * np.exp(-1j * np.angle(det) / alg.rep_dim)[..., None, None]
    elif alg.group_kind == "special_orthogonal":
        if (np.linalg.det(g.real) < 0).any():
            raise AtlasError("matrix projected onto the wrong orthogonal component")
        g = g.real.astype(complex)
    return g


def _seam(cover: CubicalCover, ax: int) -> tuple:
    """Site of the seam link of axis `ax` on the line through the anchor."""
    anchor = cover.star_corner(cover.base)
    return tuple((anchor[i] - (i == ax)) % cover.lattice.dims[i] for i in range(3))


def _seam_plane(cover: CubicalCover, ax: int) -> tuple:
    """Index of the plane of seam links of axis `ax` in a dims-indexed array."""
    return (slice(None),) * ax + (_seam(cover, ax)[ax],)


@dataclass
class DevelopingAtlas:
    """One development of a flat potential over the torus in the tree
    gauge: `g` on every site, indexed by site, with g(anchor) = 1, and the
    residual links R_i(x) = g(x) T_i(x) g(x+e_i)^-1, 1 off the seam and the
    holonomy of the loop through x on it.  Both are read-only."""

    cover: CubicalCover
    algebra: LieAlgebra
    g: np.ndarray  # dims + (N, N)
    residuals: np.ndarray  # (3,) + dims + (N, N)

    def holonomy(self) -> "HolonomyRep":
        """Holonomy of each torus generator: the seam link of its axis on
        the line through the anchor."""
        return HolonomyRep(np.stack([self.residuals[(ax,) + _seam(self.cover, ax)]
                                     for ax in range(3)]))

    @property
    def labels(self) -> np.ndarray:
        """(3, n1, n2, n3, N, N) constant labels of the coarse edges
        v -> v + e_axis in the tree gauge: the identity, except rho_axis on
        the edges that cross the seam (the last coarse index along the axis)."""
        N = self.algebra.rep_dim
        labels = np.broadcast_to(np.eye(N, dtype=complex), (3,) + self.cover.shape + (N, N)).copy()
        for ax, rho in enumerate(self.holonomy().elements):
            np.moveaxis(labels[ax], ax, 0)[-1] = rho
        return labels


@dataclass
class HolonomyRep:
    """Generator-loop holonomies based at the anchor, the corner of the
    cover's base star."""

    elements: np.ndarray  # (3, N, N)

    @property
    def traces(self) -> np.ndarray:
        return np.einsum("lii->l", self.elements)


def build_atlas(a: AlgebraOneForm, cover: CubicalCover | None = None,
                tol: float = DEFAULT_ATLAS_TOL,
                flatness_gate: float | None = None) -> DevelopingAtlas:
    """Develop a over the torus from the anchor (the corner of the base
    star), gate its curvature over the stars of `cover` and keep the
    residual links `_develop` returns, which its gate read too.  The
    default cover is `CubicalCover.for_lattice` of a's lattice; this is the
    one place that chooses it, and a cover of another lattice raises
    ValueError.  The constancy gate (see the module docstring) bounds the
    entries of each link's deviation by `tol`; otherwise AtlasError names
    the worst link's site, axis and deviation.  The tree links are the
    exact identity and deviate by 0.  An identically zero form is not
    developed: g and every residual link are the identity.

    The atlas of the last non-zero form developed is memoized in one slot.
    It is returned again when the algebra object, lattice, cover,
    `tol` and `flatness_gate` are the same and the coefficients equal,
    bit for bit, the copy taken when it was built; so a hit is exactly an
    atlas whose gates passed on this input.  Errors are never stored.  On
    a miss the slot is emptied before developing, so the old development
    is freed before the new one is allocated.  `g` and the residuals are
    read-only, cached or not.
    """
    global _last_atlas
    if cover is None:
        cover = CubicalCover.for_lattice(a.lattice)
    elif cover.lattice != a.lattice:
        raise ValueError(f"cover of dims {cover.lattice.dims}, lengths {cover.lattice.lengths}, "
                         f"for a form on dims {a.lattice.dims}, lengths {a.lattice.lengths}")
    dims = a.lattice.dims
    if a.is_zero():
        eye = a.algebra.group_identity()
        return DevelopingAtlas(cover, a.algebra, np.broadcast_to(eye, dims + eye.shape),
                               np.broadcast_to(eye, (3,) + dims + eye.shape))
    key = (a.algebra, a.lattice, cover, tol, flatness_gate)
    if (_last_atlas is not None and _last_atlas[0] == key
            and np.array_equal(_last_atlas[1], a.coeffs)):
        return _last_atlas[2]
    _last_atlas = None
    coeffs = a.coeffs.copy()
    coeffs.flags.writeable = False
    anchor = cover.star_corner(cover.base)
    R, g = _develop(a, anchor, dims, cover.star_indices().transpose(1, 0, 2), flatness_gate,
                    cover.vertices())
    dev = np.empty((3,) + dims)
    for ax in range(3):
        dev[ax] = np.abs(R[ax] - np.eye(g.shape[-1])).max(axis=(-2, -1))
        seam = _seam_plane(cover, ax)
        dev[ax][seam] = np.abs(R[ax][seam] - R[(ax,) + _seam(cover, ax)]).max(axis=(-2, -1))
    if not (dev <= tol).all():  # a NaN tol or deviation fails; argmax takes the first NaN
        ax, *site = (int(i) for i in np.unravel_index(np.argmax(dev), dev.shape))
        site, deviation = tuple(site), float(dev[(ax, *site)])
        raise AtlasError(f"residual link at site {site} along axis {ax + 1} deviates by "
                         f"{deviation:.3e} > {tol:.1e} from the tree gauge",
                         site=site, axis=ax + 1, deviation=deviation)
    g.flags.writeable = R.flags.writeable = False
    atlas = DevelopingAtlas(cover, a.algebra, g, R)
    _last_atlas = (key, coeffs, atlas)
    return atlas


def holonomy_rep(a: AlgebraOneForm, cover: CubicalCover | None = None,
                 tol: float = DEFAULT_ATLAS_TOL) -> HolonomyRep:
    """Holonomy of each torus generator of a, read off its atlas over
    `cover`; `cover` and `tol` go to `build_atlas`."""
    return build_atlas(a, cover, tol).holonomy()


# ----------------------------------------------------------------------
# gauge reconstruction from conjugate holonomy
# ----------------------------------------------------------------------

def _align_constant(alg: LieAlgebra, rho1: np.ndarray, rho2: np.ndarray,
                    tol: float) -> np.ndarray:
    """Matrix C with C rho2_l C^-1 = rho1_l for all generators, built, not
    searched for.  The solutions X of X rho2_l = rho1_l X, the null space of
    the stacked Sylvester operators, are C0 A for any conjugator C0 and the
    commutant A of rho2, a *-algebra, so the polar factor of any invertible
    solution conjugates.  The null space is cut at rounding or, if that leaves
    it empty, at singular value sqrt(3 N) tol, the most a unitary conjugating
    to within `tol` leaves.  C is the `_project_group` factor of the identity's
    projection onto it (1 when rho1 = rho2) or, if that does not conjugate
    within `tol`, of the generic solution sum_k (1 + k/(pi n)) v_k of the n
    null vectors v_k, singular only for a measure-zero set of bases; a real
    kind of odd N takes its sign with det > 0, for even N det -1 is refused.
    An empty null space or a failed factor raises HolonomyMismatchError."""
    N = alg.rep_dim
    eye = np.eye(N)
    M = np.concatenate([np.kron(eye, r2.T) - np.kron(r1, eye) for r1, r2 in zip(rho1, rho2)])
    _, svals, Vh = np.linalg.svd(M)
    exact, bound = svals < 1e-8 * max(1.0, svals.max()), np.sqrt(len(rho1) * N) * tol
    null = Vh.conj()[exact if exact.any() else svals <= bound]
    if null.shape[0] == 0:
        raise HolonomyMismatchError(f"holonomies differ (no conjugator exists: smallest "
                                    f"Sylvester singular value {svals.min():.3e} > {bound:.3e})")
    proj_id = sum((vec.conj() @ eye.reshape(-1)) * vec for vec in null).reshape(N, N)
    generic = ((1.0 + np.arange(len(null)) / (np.pi * len(null))) @ null).reshape(N, N)
    if alg.group_kind == "special_orthogonal" and N % 2:
        generic = generic.real * np.sign(np.linalg.det(generic.real))
    err = np.inf
    for cand in (proj_id, generic):
        try:
            C = _project_group(alg, cand)
        except AtlasError:
            continue
        err = min(err, max(np.abs(C @ r2 @ C.conj().T - r1).max() for r1, r2 in zip(rho1, rho2)))
        if err <= tol:
            return C
    raise HolonomyMismatchError(f"holonomies differ (conjugacy defect {err:.3e})")


def gauge_from_holonomy(a1: AlgebraOneForm, a2: AlgebraOneForm,
                        cover: CubicalCover | None = None,
                        tol: float = DEFAULT_ATLAS_TOL) -> GroupField:
    """Reconstruct u with a2 = gauge_transform(a1, u) from conjugate holonomy.

    Both potentials are developed by `build_atlas` over `cover` with `tol`
    as the constancy bound, so an atlas `holonomy_rep` built with the same
    `tol` is a memo hit.  With C rho2 C^-1 = rho1, u = g1^-1 C g2, and
    gauge_transform(a1, u) = a2 exactly when C^-1 R1 C = R2 on every link;
    a link defect beyond `tol` raises HolonomyMismatchError.  Forms of
    different algebras or lattices raise ValueError.

    When either form is the zero form, C = 1 and no conjugator is built:
    the other form's constancy gate has bounded its off-seam links by
    `tol` from 1, so only its seam planes are checked against 1, and u is
    a writeable copy of g2, or g1^H when a2 is the zero form.  That u is in
    G for every group, g2 and spin7 included.

    g1 and g2 are G-valued, and C = 1 when rho1 = rho2, so u is G-valued
    then.  When the holonomies are conjugate but not equal, C is the polar
    factor `_align_constant` builds in U(N), SU(N) or SO(N), which for g2 and
    spin7 can leave G: on gauge-transformed constant forms at 8^3 the span
    residual of u e_a u^-1 reached 4e-4.  The links u carries a1 to,
    C^-1 R1 C = R2 in the tree gauge, are a2's own and checked against it,
    so the equivalence answer is unaffected.
    """
    if a1.algebra.name != a2.algebra.name or a1.lattice != a2.lattice:
        raise ValueError("forms differ in group or lattice: " + " against ".join(
            f"{a.algebra.name} on dims {a.lattice.dims}, lengths {a.lattice.lengths}"
            for a in (a1, a2)))
    A1 = build_atlas(a1, cover, tol=tol)
    A2 = build_atlas(a2, A1.cover, tol=tol)
    rho1, rho2 = A1.holonomy().elements, A2.holonomy().elements
    tr_gap = np.abs(rho1.trace(axis1=1, axis2=2) - rho2.trace(axis1=1, axis2=2)).max()
    if not tr_gap <= 10 * tol:
        raise HolonomyMismatchError(f"holonomies differ (trace gap {tr_gap:.3e})")
    zero1, zero2 = a1.is_zero(), a2.is_zero()
    if zero1 or zero2:
        # C = 1, and the other form's constancy gate bounded its off-seam links
        other = A1 if zero2 else A2
        eye = np.eye(a1.algebra.rep_dim)
        worst = max(float(np.abs(other.residuals[ax][_seam_plane(A1.cover, ax)] - eye).max())
                    for ax in range(3))
    else:
        C = _align_constant(a1.algebra, rho1, rho2, tol=10 * tol)
        # C^-1 R1 C as two GEMMs against the stacked links
        worst = max(float(np.abs(np.einsum("ji,...jk,kl->...il", C.conj(), A1.residuals[ax], C,
                                           optimize=True) - A2.residuals[ax]).max())
                    for ax in range(3))
    if not worst <= tol:
        raise HolonomyMismatchError(f"holonomies differ (link defect {worst:.3e})")
    if zero1:
        return GroupField(a1.lattice, a1.algebra, A2.g.copy())
    if zero2:
        return GroupField(a1.lattice, a1.algebra,
                          np.ascontiguousarray(A1.g.conj().swapaxes(-1, -2)))
    return GroupField(a1.lattice, a1.algebra,
                      np.matmul(A1.g.conj().swapaxes(-1, -2), C @ A2.g))
