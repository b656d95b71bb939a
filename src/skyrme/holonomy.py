"""Developing maps, edge-path holonomy, and gauge reconstruction.

A flat potential is integrated over cubes by an axis-ordered sweep of
its `lattice.transports` T_i = exp(h_i b_i), g <- g T_i(x) for u' = u a:
last axis first from the cube corner, then the middle axis per slice,
then the first axis filling the volume.  b = `lattice.link_form(a)` is
the identity on a link form and what one-form files hold, so the gate,
the charts, `path_transport`, the gauge action `log_derivative(u, T)`
and the connection descent all see the same transports.  All cubes of a
cover are developed in one batched sweep; the curvature density is
computed once on the torus from the plaquettes of the transports, and
each cube's flatness residual is its window sum over the cube interior.

The gate is first certified without a matrix log.  Write a plaquette as
P = A B^H with A = T_i(x) T_j(x+e_i), B = T_j(x) T_i(x+e_j); B is
unitary, so the chord |P - 1|_F equals |A - B|_F.  While every chord is
below the cutoff c = CHORD_CUTOFF = 0.5, every eigenvalue of P lies
within c of 1 and

    |log P|_F <= (2 arcsin(c/2) / c) |P - 1|_F            (factor 1.0107)
    |F|^2 <= kappa (2 arcsin(c/2) / c)^2 |A - B|_F^2 / (h_i h_j)^2

for F = log P / (h_i h_j) projected onto the basis span (the projection
does not increase the Frobenius norm; kappa is `LieAlgebra.kappa`).  When
every chord is below c and every cube's residual computed from this bound
passes the gate, the true residuals pass too and no log is taken; on a
log derivative the chords are rounding noise.  Otherwise the plaquette
logs are taken and the gate decides on them exactly as without the bound.
A plaquette with no log in the algebra gives its cube an infinite residual.

The holonomy of the torus is read off a cubical cover: one chart per
coarse vertex, constant edge labels g_[p,q] estimated on star overlaps,
and generator loops multiplied along circuits that close through the
single non-tree edge of each axis.  Two flat potentials with the same
holonomy are gauge equivalent; the reconstruction aligns the second
atlas at the base vertex, propagates corrections down a maximal tree,
verifies the circuit labels, and glues (u^1)^-1 u^2 into a global gauge.

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
    """Coarse vertex sublattice with stars of side 2s sites and a rooted tree.

    Vertices are coarse index triples; the star of v is the closed cube of
    2s+1 fine sites centered on it, so adjacent stars overlap in a slab of
    s+1 sites.  Each torus generator circuit runs along one axis and uses
    exactly one non-tree (wrap-around) edge.
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
        """Coarse vertices in lexicographic order, the base first; every
        `tree_parent` comes before its children."""
        return list(np.ndindex(self.shape))

    def star_corner(self, v) -> tuple[int, int, int]:
        return tuple((v[i] * self.spacing - self.spacing) % self.lattice.dims[i]
                     for i in range(3))

    def neighbor(self, v, axis: int):
        w = list(v)
        w[axis] = (w[axis] + 1) % self.shape[axis]
        return tuple(w)

    def edges(self):
        """Oriented edges (v, axis): v -> v + e_axis on the coarse grid."""
        return [(v, ax) for v in self.vertices() for ax in range(3)]

    def tree_parent(self, v):
        """Parent of v in the maximal tree rooted at the base, as
        (parent, axis) with edge parent -> v, or None at the root."""
        if v[2] > 0:
            return (v[0], v[1], v[2] - 1), 2
        if v[1] > 0:
            return (v[0], v[1] - 1, 0), 1
        if v[0] > 0:
            return (v[0] - 1, 0, 0), 0
        return None

    def circuit(self, axis: int):
        """Generator loop along `axis` through the base: oriented edge list."""
        n = self.shape[axis]
        out = []
        v = self.base
        for _ in range(n):
            out.append((v, axis))
            v = self.neighbor(v, axis)
        return out

    def star_indices(self) -> np.ndarray:
        """Wrapped site indices of every star, (S, 3, 2s+1) in vertices() order."""
        corners = np.array([self.star_corner(v) for v in self.vertices()])
        dims = np.array(self.lattice.dims)
        return (corners[:, :, None] + np.arange(2 * self.spacing + 1)) % dims[:, None]


# ----------------------------------------------------------------------
# cube development
# ----------------------------------------------------------------------

def _grid(windows) -> tuple:
    """Index tuple picking the (S, n1, n2, n3) sites of S cubes from their
    wrapped per-axis windows, three arrays of shape (S, n_i)."""
    w0, w1, w2 = windows
    return w0[:, :, None, None], w1[:, None, :, None], w2[:, None, None, :]


def _plaquette_density(alg: LieAlgebra, plaq: np.ndarray, area: float) -> np.ndarray:
    """|log P / area|^2 for a batch (k, N, N) of plaquettes P.

    A plaquette without a log in the algebra (an eigenvalue 1.99 or more
    from 1, or a principal log outside the basis span) has infinite density,
    so its cube fails any finite gate.  They are found by bisecting the
    batch, so a gate that passes takes one batched log per plane."""
    try:
        return alg.norm_sq(group_log(alg, plaq, threshold=1.99)[0] / area)
    except LogRangeError:
        if len(plaq) == 1:
            return np.array([np.inf])
    half = len(plaq) // 2
    return np.concatenate([_plaquette_density(alg, plaq[:half], area),
                           _plaquette_density(alg, plaq[half:], area)])


def _develop(a: AlgebraOneForm, windows, flatness_gate: float | None,
             vertices=None) -> np.ndarray:
    """Integrate u' = u a over S cubes at once, each with u(corner) = 1.

    `windows` holds the cubes' wrapped site indices, three (S, n_i) arrays;
    returns the (S, n1, n2, n3, N, N) charts of a's `transports`, taken on
    the whole torus.  The curvature is their plaquette defect (zero for a
    log derivative however steep the field), computed once per torus site.
    A cube's residual is sqrt(cell volume * window sum of |F|^2 over its
    interior); the first above the gate (default 10 * max spacing) raises
    FlatnessError.
    The gate is first certified from the plaquette chords, with no log
    taken (see the module docstring); failing that, the plaquette logs decide.
    """
    alg = a.algebra
    lattice = a.lattice
    h = lattice.spacings
    N = alg.rep_dim
    w0, w1, w2 = windows
    if flatness_gate is None:
        flatness_gate = DEFAULT_FLATNESS_FACTOR * max(h)
    interior = _grid([w[:, :-1] for w in windows])

    def residuals(density):
        return np.sqrt(lattice.cell_volume * density[interior].sum(axis=(1, 2, 3)))

    core = np.zeros(lattice.dims, dtype=bool)
    core[interior] = True
    T = transports(a)

    def halves(i, j):
        """A and B of the plaquettes P = A B^H on the interiors, one per
        path x -> x + e_i + e_j."""
        return (T[i][core] @ np.roll(T[j], -1, axis=i)[core],
                T[j][core] @ np.roll(T[i], -1, axis=j)[core])

    bound = np.zeros(lattice.dims)
    for i, j in PLANES:
        A, B = halves(i, j)
        chord_sq = (np.abs(A - B) ** 2).sum(axis=(-2, -1))
        bound[core] += np.where(chord_sq < CHORD_CUTOFF ** 2,
                                (alg.kappa * _LOG_PER_CHORD ** 2 / (h[i] * h[j]) ** 2)
                                * chord_sq, np.inf)
    resid = residuals(bound)
    if not (resid <= flatness_gate).all():
        density = np.zeros(lattice.dims)
        for i, j in PLANES:
            A, B = halves(i, j)
            density[core] += _plaquette_density(alg, A @ B.conj().swapaxes(-1, -2),
                                                h[i] * h[j])
        resid = residuals(density)
    if (resid > flatness_gate).any():
        s = int(np.argmax(resid > flatness_gate))
        corner = tuple(int(w[s, 0]) for w in windows)
        vertex = None if vertices is None else tuple(vertices[s])
        where = "cube" if vertex is None else f"star of vertex {vertex}"
        raise FlatnessError(f"connection not flat on {where} at corner {corner} (residual "
                            f"{resid[s]:.3e} > {flatness_gate:.3e})", vertex=vertex,
                            corner=corner, residual=float(resid[s]), gate=float(flatness_gate))

    def steps(ax, sel):
        """Transports along axis `ax` for the hops inside the windows `sel`."""
        sel = list(sel)
        sel[ax] = sel[ax][:, :-1]
        return T[ax][_grid(sel)]

    shape = tuple(w.shape[1] for w in windows)
    u = np.empty((w0.shape[0],) + shape + (N, N), dtype=complex)
    u[:, 0, 0, 0] = np.eye(N)
    steps3 = steps(2, (w0[:, :1], w1[:, :1], w2))[:, 0, 0]  # (S, n3-1, N, N)
    for z in range(1, shape[2]):
        u[:, 0, 0, z] = u[:, 0, 0, z - 1] @ steps3[:, z - 1]
    steps2 = steps(1, (w0[:, :1], w1, w2))[:, 0]  # (S, n2-1, n3, N, N)
    for y in range(1, shape[1]):
        u[:, 0, y] = u[:, 0, y - 1] @ steps2[:, y - 1]
    # transports are gathered one x-slab at a time to bound memory
    for x in range(1, shape[0]):
        u[:, x] = u[:, x - 1] @ steps(0, (w0[:, x - 1:x + 1], w1, w2))[:, 0]
    return u


def develop_cube(a: AlgebraOneForm, corner, shape,
                 flatness_gate: float | None = None) -> np.ndarray:
    """Integrate u' = u a over a cube with u(corner) = 1; returns the
    (n1, n2, n3, N, N) chart on the `shape` sites from the wrapped `corner`.

    The one-cube case of the batched developer: every link of the torus is
    exponentiated, however small the cube.  The sweep fills the last axis
    from the corner, then the middle axis on each slice, then the first
    axis through the volume.  The curvature density, computed per site as
    for a whole cover, is summed over the cube interior, which must pass
    the flatness gate (default 10 * max spacing); path dependence would
    otherwise make the sweep meaningless.
    """
    dims = a.lattice.dims
    windows = [(corner[i] + np.arange(int(shape[i])))[None] % dims[i] for i in range(3)]
    return _develop(a, windows, flatness_gate)[0]


def path_transport(a: AlgebraOneForm, path) -> np.ndarray:
    """Ordered product of a's `transports` along a lattice polyline, so the
    product equals the developed chart along the same path.  Every link of
    the torus is exponentiated, however short the path.

    `path` is a sequence of site index triples; consecutive sites must
    differ by one step along a single axis (periodic wrap allowed).
    """
    T = transports(a)
    dims = a.lattice.dims
    g = np.eye(a.algebra.rep_dim, dtype=complex)
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
    """Nearest group element to M: polar factor, det-normalized when needed."""
    if alg.group_kind == "special_orthogonal":
        M = M.real.astype(complex)
    W, _, Vh = np.linalg.svd(M)
    g = W @ Vh
    if alg.group_kind in ("special_unitary", "symplectic"):
        det = np.linalg.det(g)
        g = g * np.exp(-1j * np.angle(det) / alg.rep_dim)
    elif alg.group_kind == "special_orthogonal":
        if np.linalg.det(g.real).real < 0:
            raise AtlasError("overlap mean projected onto the wrong orthogonal component")
        g = g.real.astype(complex)
    return g


@dataclass
class DevelopingAtlas:
    """Charts per cover vertex with constant edge labels on overlaps."""

    cover: CubicalCover
    algebra: LieAlgebra
    charts: dict
    edge_labels: dict   # (v, axis) -> group element g_[v, v+e_axis]
    edge_scores: dict   # (v, axis) -> sup deviation of u_p u_q^-1 from g

    def label(self, v, axis: int) -> np.ndarray:
        return self.edge_labels[(tuple(v), axis)]

    def pair_label(self, p, q) -> tuple[np.ndarray, float]:
        """Constant g with u_p = g u_q on st(p) cap st(q), for any two
        vertices whose stars overlap (not only axis neighbors)."""
        cov = self.cover
        s = cov.spacing
        sl_p, sl_q = [], []
        for i in range(3):
            d = (q[i] - p[i]) % cov.shape[i]
            if d == 0:
                sl_p.append(slice(0, 2 * s + 1))
                sl_q.append(slice(0, 2 * s + 1))
            elif d == 1:
                sl_p.append(slice(s, 2 * s + 1))
                sl_q.append(slice(0, s + 1))
            elif d == cov.shape[i] - 1:
                sl_p.append(slice(0, s + 1))
                sl_q.append(slice(s, 2 * s + 1))
            else:
                raise ValueError(f"stars of {p} and {q} do not overlap")
        up = self.charts[tuple(p)][tuple(sl_p)]
        uq = self.charts[tuple(q)][tuple(sl_q)]
        prod = np.einsum("...ij,...kj->...ik", up, uq.conj())
        g = _project_group(self.algebra, prod.reshape(-1, *prod.shape[-2:]).mean(axis=0))
        score = np.abs(prod - g).max()
        return g, float(score)

    def holonomy(self) -> "HolonomyRep":
        """Holonomy of each torus generator as the ordered product of edge labels."""
        els = []
        for ax in range(3):
            g = np.eye(self.algebra.rep_dim, dtype=complex)
            for v, eax in self.cover.circuit(ax):
                g = g @ self.label(v, eax)
            els.append(g)
        return HolonomyRep(np.stack(els))


@dataclass
class HolonomyRep:
    """Generator-loop holonomies anchored at the cover's base vertex."""

    elements: np.ndarray  # (3, N, N)

    @property
    def traces(self) -> np.ndarray:
        return np.einsum("lii->l", self.elements)

    def commutator_defect(self) -> float:
        e = self.elements
        return float(max(np.abs(e[i] @ e[j] - e[j] @ e[i]).max() for i, j in PLANES))


def build_atlas(a: AlgebraOneForm, cover: CubicalCover | None = None,
                tol: float = DEFAULT_ATLAS_TOL,
                flatness_gate: float | None = None) -> DevelopingAtlas:
    """Develop every star of `cover` in one batched sweep and estimate the
    constant edge labels.  The default cover is `CubicalCover.for_lattice`
    of a's lattice; this is the one place that chooses it.

    The label of an oriented edge [p, q] is the overlap mean of
    u_p(x) u_q(x)^-1 projected back to the group (`pair_label`); its
    recorded score is the sup deviation from constancy and must stay
    below `tol`.  An identically zero form is not developed: F = 0 passes
    any gate, and every chart and edge label is the identity.

    The atlas of the last non-zero form developed is memoized in one slot.
    It is returned again when the algebra object, sampling, lattice, cover,
    `tol` and `flatness_gate` are the same and the coefficients equal,
    bit for bit, the copy taken when it was built; so a hit is exactly an
    atlas whose gates passed on this input.  Errors are never stored.  On
    a miss the slot is emptied before developing, so the old charts are
    freed before the new ones are allocated and peak memory stays that of
    one atlas.  Charts and edge labels are read-only, cached or not.
    """
    global _last_atlas
    if cover is None:
        cover = CubicalCover.for_lattice(a.lattice)
    verts = cover.vertices()
    if a.is_zero():
        n, eye = 2 * cover.spacing + 1, a.algebra.group_identity()
        eye.flags.writeable = False
        charts = np.broadcast_to(eye, (len(verts), n, n, n) + eye.shape)
        return DevelopingAtlas(cover, a.algebra, dict(zip(verts, charts)),
                               dict.fromkeys(cover.edges(), eye),
                               dict.fromkeys(cover.edges(), 0.0))
    key = (a.algebra, a.sampling, a.lattice, cover, tol, flatness_gate)
    if (_last_atlas is not None and _last_atlas[0] == key
            and np.array_equal(_last_atlas[1], a.coeffs)):
        return _last_atlas[2]
    _last_atlas = None
    coeffs = a.coeffs.copy()
    coeffs.flags.writeable = False
    charts = _develop(a, cover.star_indices().transpose(1, 0, 2), flatness_gate, verts)
    charts.flags.writeable = False
    atlas = DevelopingAtlas(cover, a.algebra, dict(zip(verts, charts)), {}, {})
    for v, ax in cover.edges():
        g, score = atlas.pair_label(v, cover.neighbor(v, ax))
        if not score <= tol:  # a NaN tol or score fails
            raise AtlasError(f"overlap constancy violated on edge {v}+e{ax + 1} "
                             f"(score {score:.3e} > {tol:.1e})")
        g.flags.writeable = False
        atlas.edge_labels[(v, ax)] = g
        atlas.edge_scores[(v, ax)] = score
    _last_atlas = (key, coeffs, atlas)
    return atlas


def holonomy_rep(a: AlgebraOneForm, cover: CubicalCover | None = None,
                 **kwargs) -> HolonomyRep:
    """Holonomy of each torus generator of a, read off its atlas over
    `cover`; `cover` and `kwargs` go to `build_atlas`."""
    return build_atlas(a, cover, **kwargs).holonomy()


# ----------------------------------------------------------------------
# gauge reconstruction from equal holonomy
# ----------------------------------------------------------------------

def _align_constant(alg: LieAlgebra, rho1: np.ndarray, rho2: np.ndarray,
                    tol: float) -> np.ndarray:
    """Group element C with C rho2_l C^-1 = rho1_l for all generators.

    Solved as the null space of the stacked Sylvester operators, then
    projected to the group; raises on failure (holonomies not conjugate).
    """
    N = alg.rep_dim
    eye = np.eye(N)
    M = np.concatenate([np.kron(eye, r2.T) - np.kron(r1, eye) for r1, r2 in zip(rho1, rho2)])
    _, svals, Vh = np.linalg.svd(M)
    null = Vh.conj()[svals < 1e-8 * max(1.0, svals.max())]
    if null.shape[0] == 0:
        null = Vh.conj()[-1:]  # best effort: smallest singular vector
    candidates = [vec.reshape(N, N) for vec in null]
    # prefer the null-space representative closest to the identity
    proj_id = sum((vec.conj() @ eye.reshape(-1)) * vec for vec in null).reshape(N, N)
    candidates.insert(0, proj_id)
    best, best_err = None, np.inf
    for cand in candidates:
        if np.linalg.norm(cand) < 1e-12:
            continue
        try:
            C = _project_group(alg, cand)
        except AtlasError:
            continue
        err = max(np.abs(C @ r2 @ C.conj().T - r1).max() for r1, r2 in zip(rho1, rho2))
        if err < best_err:
            best, best_err = C, err
    if best is None or not best_err <= tol:
        raise HolonomyMismatchError(f"holonomies differ (conjugacy defect {best_err:.3e})")
    return best


def gauge_from_holonomy(a1: AlgebraOneForm, a2: AlgebraOneForm,
                        cover: CubicalCover | None = None,
                        tol: float = DEFAULT_ATLAS_TOL) -> GroupField:
    """Reconstruct u with a2 = gauge_transform(a1, u) from equal holonomy.

    Both potentials are developed over the cover (`build_atlas`'s default
    for None) with `tol` as the edge score bound, so an atlas `holonomy_rep`
    built with the same `tol` is a memo hit.  The second atlas is aligned
    at the base vertex, corrected down the maximal tree so its tree labels
    match the first atlas, and the non-tree circuit labels are compared:
    any defect beyond `tol` means the holonomies differ (never a field).
    The glued gauge is (u^1_p)^-1 k_p u^2_p, chart-assembled.  Forms of
    different algebras or lattices raise ValueError.
    """
    if a1.algebra.name != a2.algebra.name or a1.lattice != a2.lattice:
        raise ValueError("forms differ in group or lattice: " + " against ".join(
            f"{a.algebra.name} on dims {a.lattice.dims}, lengths {a.lattice.lengths}"
            for a in (a1, a2)))
    A1 = build_atlas(a1, cover, tol=tol)
    cover = A1.cover
    A2 = build_atlas(a2, cover, tol=tol)
    rho1 = A1.holonomy().elements
    rho2 = A2.holonomy().elements
    tr_gap = np.abs(rho1.trace(axis1=1, axis2=2) - rho2.trace(axis1=1, axis2=2)).max()
    if not tr_gap <= 10 * tol:
        raise HolonomyMismatchError(f"holonomies differ (trace gap {tr_gap:.3e})")
    C = _align_constant(a1.algebra, rho1, rho2, tol=10 * tol)

    # tree correction: k_child = g1_e^-1 k_parent g2_e along parent -> child
    k = {cover.base: C}
    for v in cover.vertices():
        par = cover.tree_parent(v)
        if par is None:
            continue
        p, ax = par
        k[v] = A1.label(p, ax).conj().T @ k[p] @ A2.label(p, ax)

    # all corrected labels must now match; non-tree edges test the holonomy
    worst = 0.0
    for v, ax in cover.edges():
        q = cover.neighbor(v, ax)
        gbar = k[v] @ A2.label(v, ax) @ k[q].conj().T
        worst = max(worst, float(np.abs(gbar - A1.label(v, ax)).max()))
    if not worst <= 50 * tol:
        raise HolonomyMismatchError(f"holonomies differ (circuit defect {worst:.3e})")

    # glue (u^1)^-1 k u^2 from the chart of the nearest vertex
    s = cover.spacing
    stars = cover.star_indices()
    gauges = [np.einsum("...ji,...jl->...il", A1.charts[v].conj(), k[v] @ A2.charts[v])
              for v in cover.vertices()]
    out = np.empty(cover.lattice.dims + gauges[0].shape[-2:], dtype=complex)
    owner_written = np.zeros(cover.lattice.dims, dtype=bool)
    # ownership: the central s x s x s block of each star tiles the torus
    lo, hi = s - s // 2, s - s // 2 + s
    owned = _grid(stars[:, :, lo:hi].transpose(1, 0, 2))
    out[owned] = np.stack([g[lo:hi, lo:hi, lo:hi] for g in gauges])
    owner_written[owned] = True
    if not owner_written.all():
        raise AtlasError("atlas inconsistent: ownership tiling left gaps")
    # overlap agreement: compare every chart against the assembled field
    overlap_dev = max(float(np.abs(out[np.ix_(*w)] - g).max()) for w, g in zip(stars, gauges))
    if not overlap_dev <= 50 * tol:
        raise AtlasError(f"atlas inconsistent (overlap deviation {overlap_dev:.3e})")
    return GroupField(cover.lattice, a1.algebra, out)
