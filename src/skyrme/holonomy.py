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

The holonomy of the torus is read off a cubical cover.  The atlas holds
arrays over the coarse grid: a chart per vertex and, per axis, the
constant label g_[v, v+e] of every edge, estimated in one batched step on
the star overlaps.  A generator loop multiplies one axis's labels along
the coarse line through the base.  Two flat potentials with the same
holonomy are gauge equivalent; the reconstruction aligns the second atlas
at the base vertex, sweeps corrections down a maximal tree, verifies every
corrected label, and glues (u^1)^-1 u^2 into a global gauge.

A sector query develops the same form twice in a row, once for its
holonomy and again for the gauge reconstruction, so `build_atlas` keeps
the atlas of the last developed non-zero form in one slot (see there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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
    stars overlap in a slab of s+1 sites.
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
    """Nearest group elements to a batch (..., N, N) of matrices M: polar
    factors, det-normalized when needed.  Raises AtlasError if any real M
    projects onto the wrong orthogonal component."""
    if alg.group_kind == "special_orthogonal":
        M = M.real.astype(complex)
    W, _, Vh = np.linalg.svd(M)
    g = W @ Vh
    if alg.group_kind in ("special_unitary", "symplectic"):
        det = np.linalg.det(g)
        g = g * np.exp(-1j * np.angle(det) / alg.rep_dim)[..., None, None]
    elif alg.group_kind == "special_orthogonal":
        if (np.linalg.det(g.real) < 0).any():
            raise AtlasError("overlap mean projected onto the wrong orthogonal component")
        g = g.real.astype(complex)
    return g


def _edge_labels(alg: LieAlgebra, charts: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(3, n1, n2, n3, N, N) labels and (3, n1, n2, n3) scores of the edges
    v -> v + e_axis, from (n1, n2, n3, m, m, m, N, N) charts with m = 2s + 1:
    the label g is the mean of u_v u_(v+e_axis)^-1 over the overlap (the
    upper s + 1 sites of v's star along the axis), projected to the group,
    and the score is the sup deviation of that product from g."""
    grid, N = charts.shape[:3], charts.shape[-1]

    def along(ax):  # one axis at a time: its temporaries are freed before the next
        cut = (slice(None),) * (3 + ax)
        prod = np.einsum("...ij,...kj->...ik", charts[cut + (slice(s, None),)],
                         np.roll(charts[cut + (slice(None, s + 1),)], -1, axis=ax).conj())
        g = _project_group(alg, prod.reshape(grid + (-1, N, N)).mean(axis=3))
        prod -= g[:, :, :, None, None, None]
        return g, np.abs(prod).max(axis=(3, 4, 5, 6, 7))

    labels, scores = zip(*map(along, range(3)))
    return np.stack(labels), np.stack(scores)


@dataclass
class DevelopingAtlas:
    """Arrays over the coarse grid `cover.shape` = (n1, n2, n3): the chart
    of every vertex, and per axis the constant label and score of every
    edge v -> v + e_axis.  All three are read-only."""

    cover: CubicalCover
    algebra: LieAlgebra
    charts: np.ndarray  # (n1, n2, n3, m, m, m, N, N), m = 2s + 1: u_v on the star of v
    labels: np.ndarray  # (3, n1, n2, n3, N, N): g with u_v = g u_(v+e_axis) on the overlap
    scores: np.ndarray  # (3, n1, n2, n3): sup deviation of u_v u_(v+e_axis)^-1 from g

    def holonomy(self) -> "HolonomyRep":
        """Holonomy of each torus generator: the ordered product of the
        labels of its axis along the coarse line through the base vertex."""
        eye = np.eye(self.algebra.rep_dim, dtype=complex)
        lines = (np.moveaxis(self.labels[ax], ax, 0)[:, 0, 0] for ax in range(3))
        return HolonomyRep(np.stack([reduce(np.matmul, line, eye) for line in lines]))


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
    of a's lattice; this is the one place that chooses it, and a cover of
    another lattice raises ValueError.

    The charts are the developed stars laid out on the coarse grid, and
    `_edge_labels` estimates every edge label and score from them in one
    batched step.  Every score must stay below `tol`; otherwise AtlasError
    names the first failing edge in (vertex, axis) order.  An identically
    zero form is not developed: F = 0 passes any gate, every chart and
    edge label is the identity and every score is zero.

    The atlas of the last non-zero form developed is memoized in one slot.
    It is returned again when the algebra object, sampling, lattice, cover,
    `tol` and `flatness_gate` are the same and the coefficients equal,
    bit for bit, the copy taken when it was built; so a hit is exactly an
    atlas whose gates passed on this input.  Errors are never stored.  On
    a miss the slot is emptied before developing, so the old charts are
    freed before the new ones are allocated and peak memory stays that of
    one atlas.  Charts, labels and scores are read-only, cached or not.
    """
    global _last_atlas
    if cover is None:
        cover = CubicalCover.for_lattice(a.lattice)
    elif cover.lattice != a.lattice:
        raise ValueError(f"cover of dims {cover.lattice.dims}, lengths {cover.lattice.lengths}, "
                         f"for a form on dims {a.lattice.dims}, lengths {a.lattice.lengths}")
    grid = cover.shape
    if a.is_zero():
        eye, m = a.algebra.group_identity(), 2 * cover.spacing + 1
        return DevelopingAtlas(cover, a.algebra, np.broadcast_to(eye, grid + (m,) * 3 + eye.shape),
                               np.broadcast_to(eye, (3,) + grid + eye.shape),
                               np.broadcast_to(0.0, (3,) + grid))
    key = (a.algebra, a.sampling, a.lattice, cover, tol, flatness_gate)
    if (_last_atlas is not None and _last_atlas[0] == key
            and np.array_equal(_last_atlas[1], a.coeffs)):
        return _last_atlas[2]
    _last_atlas = None
    coeffs = a.coeffs.copy()
    coeffs.flags.writeable = False
    charts = _develop(a, cover.star_indices().transpose(1, 0, 2), flatness_gate, cover.vertices())
    charts = charts.reshape(grid + charts.shape[1:])
    labels, scores = _edge_labels(a.algebra, charts, cover.spacing)
    if not (scores <= tol).all():  # a NaN tol or score fails
        first = np.argmax(~(np.moveaxis(scores, 0, -1) <= tol))
        *v, ax = (int(i) for i in np.unravel_index(first, grid + (3,)))
        raise AtlasError(f"overlap constancy violated on edge {tuple(v)}+e{ax + 1} "
                         f"(score {scores[(ax, *v)]:.3e} > {tol:.1e})")
    for arr in (charts, labels, scores):
        arr.flags.writeable = False
    atlas = DevelopingAtlas(cover, a.algebra, charts, labels, scores)
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
    at the base vertex by a constant C, and corrections k are swept down a
    maximal tree so its labels match the first atlas: along the first axis
    on the base line, then the second over that line, then the third
    through the volume (the development's axis sweep, axes reversed).  Every
    corrected label is then compared; a defect beyond `tol` on the closing
    edges means the holonomies differ (never a field).  The glued gauge is
    (u^1_v)^-1 k_v u^2_v, chart-assembled.  Forms of different algebras or
    lattices raise ValueError.
    """
    if a1.algebra.name != a2.algebra.name or a1.lattice != a2.lattice:
        raise ValueError("forms differ in group or lattice: " + " against ".join(
            f"{a.algebra.name} on dims {a.lattice.dims}, lengths {a.lattice.lengths}"
            for a in (a1, a2)))
    A1 = build_atlas(a1, cover, tol=tol)
    cover = A1.cover
    A2 = build_atlas(a2, cover, tol=tol)
    rho1, rho2 = A1.holonomy().elements, A2.holonomy().elements
    tr_gap = np.abs(rho1.trace(axis1=1, axis2=2) - rho2.trace(axis1=1, axis2=2)).max()
    if not tr_gap <= 10 * tol:
        raise HolonomyMismatchError(f"holonomies differ (trace gap {tr_gap:.3e})")
    C = _align_constant(a1.algebra, rho1, rho2, tol=10 * tol)

    # tree correction k_w = g1^-1 k_v g2 along each tree edge v -> w = v + e_axis;
    # sweeping axis ax fills the axes before it, the ones after stay at 0
    L1, L2 = A1.labels, A2.labels
    k = np.empty(cover.shape + C.shape, dtype=complex)
    k[cover.base] = C
    for ax in range(3):
        kk, g1, g2 = (np.moveaxis(x, ax, 0) for x in (k, L1[ax], L2[ax]))
        part = (slice(None),) * ax + (0,) * (2 - ax)
        for i in range(1, cover.shape[ax]):
            v = (i - 1,) + part
            kk[(i,) + part] = g1[v].conj().swapaxes(-1, -2) @ kk[v] @ g2[v]

    # all corrected labels must now match; the closing edges test the holonomy
    worst = max(float(np.abs(k @ L2[ax] @ np.roll(k, -1, axis=ax).conj().swapaxes(-1, -2)
                             - L1[ax]).max()) for ax in range(3))
    if not worst <= 50 * tol:
        raise HolonomyMismatchError(f"holonomies differ (circuit defect {worst:.3e})")

    # glue (u^1)^-1 k u^2 = conj((u^1)^T conj(k u^2)), conjugated in place
    s = cover.spacing
    stars = cover.star_indices().transpose(1, 0, 2)
    gauges = k[:, :, :, None, None, None] @ A2.charts
    gauges = np.einsum("...ji,...jl->...il", A1.charts, np.conjugate(gauges, out=gauges))
    np.conjugate(gauges, out=gauges)
    gauges = gauges.reshape((-1,) + gauges.shape[3:])  # (S, m, m, m, N, N), vertices() order
    out = np.empty(cover.lattice.dims + gauges.shape[-2:], dtype=complex)
    owner_written = np.zeros(cover.lattice.dims, dtype=bool)
    # ownership: the central s x s x s block of each star tiles the torus
    lo, hi = s - s // 2, s - s // 2 + s
    owned = _grid(stars[:, :, lo:hi])
    out[owned] = gauges[:, lo:hi, lo:hi, lo:hi]
    owner_written[owned] = True
    if not owner_written.all():
        raise AtlasError("atlas inconsistent: ownership tiling left gaps")
    # overlap agreement: compare every chart against the assembled field
    gauges -= out[_grid(stars)]
    overlap_dev = float(np.abs(gauges).max())
    if not overlap_dev <= 50 * tol:
        raise AtlasError(f"atlas inconsistent (overlap deviation {overlap_dev:.3e})")
    return GroupField(cover.lattice, a1.algebra, out)
