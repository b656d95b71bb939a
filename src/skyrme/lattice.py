"""Discretized flat 3-torus, group-valued fields, and the two energies.

A `GroupField` stores one representation matrix per lattice site.  Its
logarithmic derivative L_i(x) = (1/h_i) log(u(x)^-1 u(x+e_i)) is an
`AlgebraOneForm`, an algebra-valued 1-form on links: every form is a
lattice connection with transports T_i = exp(h_i b_i), and `transports`
is the one exponential of link coefficients.  Values sampled at sites
are turned into link coefficients once, when the form is built.  The
gauge action of u on any form is `log_derivative(u, T)`, the one link-log
kernel.  The two energies

    E(u)  = sum_x vol ( 1/2 |L|^2 + 1/4 |L ^ L|^2 )
    E[a]  = sum_x vol ( 1/2 |a|^2 + 1/16 |[a, a]|^2 )

agree identically through a = L because [a, a]_{ij} = 2 [a_i, a_j].
Brackets and norms, |X|^2 = -(1/8) Tr(ad X ad X), come from the algebra's
batched kernels `LieAlgebra.bracket` and `LieAlgebra.norm_sq`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .algebra import LieAlgebra, group_exp, group_log, primitive_su2
from .errors import GeneratorError, LogRangeError

__all__ = [
    "TorusLattice",
    "GroupField",
    "AlgebraOneForm",
    "PLANES",
    "log_derivative",
    "wedge_bracket",
    "skyrme_energy_map",
    "skyrme_energy_connection",
    "transports",
    "gauge_transform",
    "make_hedgehog",
    "make_winding",
    "make_random",
    "constant_field",
    "zero_one_form",
    "multiply",
    "inverse_field",
]

# two-form plane p holds the (i, j) component
PLANES = ((1, 2), (2, 0), (0, 1))

# Link logs demand every eigenvalue of the link within this distance of 1.
# The principal branch is unambiguous below 2; the default keeps a 0.9
# safety fraction of that, wide enough for the coarse closed-form fields
# (a once-winding loop at N = 3 sits at |lambda - 1| = sqrt(3)).
LINK_LOG_THRESHOLD = 1.8


@dataclass(frozen=True)
class TorusLattice:
    """Periodic grid: dims sites per axis, lengths physical periods."""

    dims: tuple[int, int, int]
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(n) < 3 for n in self.dims):
            raise ValueError("need three axes with at least 3 sites each")
        if len(self.lengths) != 3 or not all(0 < l < np.inf for l in self.lengths):
            raise ValueError("lengths must be finite and positive")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))

    @property
    def spacings(self) -> tuple[float, float, float]:
        return tuple(l / n for l, n in zip(self.lengths, self.dims))

    @property
    def cell_volume(self) -> float:
        h = self.spacings
        return h[0] * h[1] * h[2]

    def coordinates(self):
        """Physical site coordinates, three (N1,N2,N3) arrays."""
        axes = [np.arange(n) * h for n, h in zip(self.dims, self.spacings)]
        return np.meshgrid(*axes, indexing="ij")


@dataclass
class GroupField:
    """Group elements on lattice sites: values[(x1,x2,x3)] is N x N."""

    lattice: TorusLattice
    algebra: LieAlgebra
    values: np.ndarray

    def __post_init__(self):
        expect = self.lattice.dims + (self.algebra.rep_dim, self.algebra.rep_dim)
        if self.values.shape != expect:
            raise ValueError(f"field shape {self.values.shape} != {expect}")

    def validate(self) -> float:
        return self.algebra.check_group_elements(self.values)

    def copy(self) -> "GroupField":
        return GroupField(self.lattice, self.algebra, self.values.copy())


@dataclass(init=False)
class AlgebraOneForm:
    """A lattice connection: three grids of link coefficients b_i(x), units
    1/length, the link x -> x + e_i carrying exp(h_i b_i(x)).

    `sampling` says where the passed `coeffs` live and is not stored:
    "link" keeps them, "site" replaces them once by their fourth-order
    Magnus links (`_site_links`).
    """

    lattice: TorusLattice
    algebra: LieAlgebra
    coeffs: np.ndarray  # (3, N1, N2, N3, dim)

    def __init__(self, lattice: TorusLattice, algebra: LieAlgebra, coeffs: np.ndarray,
                 sampling: str = "link"):
        expect = (3,) + lattice.dims + (algebra.dim,)
        if coeffs.shape != expect:
            raise ValueError(f"one-form shape {coeffs.shape} != {expect}")
        if sampling == "site":
            coeffs = _site_links(lattice, algebra, coeffs)
        elif sampling != "link":
            raise ValueError(f"unknown sampling {sampling!r}")
        self.lattice, self.algebra, self.coeffs = lattice, algebra, coeffs

    def copy(self) -> "AlgebraOneForm":
        return replace(self, coeffs=self.coeffs.copy())

    def is_zero(self) -> bool:
        return not self.coeffs.any()


# ----------------------------------------------------------------------
# log derivative and energies
# ----------------------------------------------------------------------

def log_derivative(u: GroupField, T: np.ndarray | None = None) -> AlgebraOneForm:
    """Link log form L_i(x) = (1/h_i) log(u(x)^-1 T_i(x) u(x+e_i)), the one
    link-log kernel: T the (3,) + dims + (N, N) `transports` of a
    connection, None for the map's own links u(x)^-1 u(x+e_i).

    All three axes are checked first; for a field too rough for this
    lattice the LogRangeError names the worst link's axis, site and
    |lambda - 1| (None, outranking any distance, when its log left the
    algebra), and its mask marks every failing link."""
    alg = u.algebra
    h = u.lattice.spacings
    comps = []
    mask = np.zeros((3,) + u.lattice.dims, dtype=bool)
    # (rank, value, axis, site) of the worst link; holding the caught
    # exception instead would tie this frame into a cycle through its traceback
    worst = None
    for ax in range(3):
        up = np.roll(u.values, -1, axis=ax)
        if T is not None:
            up = T[ax] @ up
        link = np.einsum("...ji,...jk->...ik", u.values.conj(), up)
        try:
            coords, _ = group_log(alg, link, threshold=LINK_LOG_THRESHOLD)
        except LogRangeError as exc:
            mask[ax] = exc.mask
            rank = np.inf if exc.value is None else exc.value
            if worst is None or rank > worst[0]:
                worst = (rank, exc.value, ax + 1, tuple(int(c) for c in exc.site))
            continue
        comps.append(coords / h[ax])
    if worst is not None:
        _, value, axis, site = worst
        if value is None:
            what = "has a log that left the algebra"
        elif value > 2 + 1e-9:  # beyond rounding, no unit-circle eigenvalue is this far
            what = f"is not in the group (|lambda - 1| = {value:.3e} > 2)"
        else:
            what = f"has |lambda - 1| = {value:.4f} >= {LINK_LOG_THRESHOLD}"
        raise LogRangeError(
            f"field too rough for this lattice: link at site {site} on axis {axis} "
            f"{what} ({int(mask.sum())} links out of range)",
            axis=axis, site=site, value=value, mask=mask)
    return AlgebraOneForm(u.lattice, alg, np.stack(comps))


def wedge_bracket(L: AlgebraOneForm) -> np.ndarray:
    """Site-local plane brackets [L_i, L_j] for (i, j) in PLANES, as
    (3,) + dims + (dim,) coordinates (units 1/length^2): the one owner of
    the three plane brackets, read by the energy and its gradient."""
    return np.stack([L.algebra.bracket(L.coeffs[i], L.coeffs[j]) for i, j in PLANES])


def skyrme_energy_map(u: GroupField) -> float:
    """E(u); zero iff every link increment is the identity."""
    return skyrme_energy_connection(log_derivative(u))


def skyrme_energy_connection(a: AlgebraOneForm) -> float:
    """E[a] with the 1/16 |[a,a]|^2 quartic term; equals E(u) when a = Du."""
    alg = a.algebra
    quad = 0.5 * alg.norm_sq(a.coeffs).sum()
    quart = 0.0
    for W in wedge_bracket(a):
        quart += 0.25 * alg.norm_sq(W).sum()
    return float(a.lattice.cell_volume * (quad + quart))


def _site_links(lattice: TorusLattice, alg: LieAlgebra, a: np.ndarray) -> np.ndarray:
    """Link coefficients of the site values a: the link x -> x + e_i
    carries exp(h b_i(x)) with

        h b_i(x) = (h/24)(-a(x-e_i) + 13 a(x) + 13 a(x+e_i) - a(x+2e_i))
                   + (h^2/12) [a(x), a(x+e_i)],

    the fourth-order two-point Magnus step with the cubic cell average
    (Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numerica 9 (2000)).  Every
    link of the torus is interior; the step is exact on constant forms.
    """
    h = lattice.spacings
    coeffs = []
    for i in range(3):
        before, a0, a1, after = (np.roll(a[i], k, axis=i) for k in (1, 0, -1, -2))
        pair = a0 + a1
        # the cubic correction (pair - before - after)/24 vanishes on constants
        coeffs.append(pair / 2.0 + (pair - (before + after)) / 24.0
                      + (h[i] / 12.0) * alg.bracket(a0, a1))
    return np.stack(coeffs)


def transports(a: AlgebraOneForm) -> np.ndarray:
    """The link transports T_i(x) = exp(h_i a_i(x)) of the connection a,
    as a (3,) + dims + (N, N) array: the one exponential of link
    coefficients."""
    return group_exp(a.algebra, np.reshape(a.lattice.spacings, (3, 1, 1, 1, 1)) * a.coeffs)


def gauge_transform(b: AlgebraOneForm, u: GroupField) -> AlgebraOneForm:
    """Gauge action of the map u on the potential b.

    u acts exactly on the `transports` T_i of b,
    b_i -> (1/h_i) log(u(x)^-1 T_i u(x+e_i)) (Wilson, Phys. Rev. D 10
    (1974) 2445): gauge_transform(log_derivative(v), w) =
    log_derivative(v w), holonomy is kept and the cocycle identity holds
    to rounding, and b = 0 gives log_derivative(u).
    """
    return log_derivative(u, None if b.is_zero() else transports(b))


# ----------------------------------------------------------------------
# field generators
# ----------------------------------------------------------------------

def constant_field(lattice: TorusLattice, alg: LieAlgebra) -> GroupField:
    vals = np.broadcast_to(alg.group_identity(),
                           lattice.dims + (alg.rep_dim, alg.rep_dim)).copy()
    return GroupField(lattice, alg, vals)


def zero_one_form(lattice: TorusLattice, alg: LieAlgebra, sampling: str = "link") -> AlgebraOneForm:
    return AlgebraOneForm(lattice, alg, np.zeros((3,) + lattice.dims + (alg.dim,)), sampling)


def multiply(u: GroupField, w: GroupField) -> GroupField:
    """Pointwise product (u w)(x) = u(x) w(x)."""
    return GroupField(u.lattice, u.algebra,
                      np.einsum("...ij,...jk->...ik", u.values, w.values))


def inverse_field(u: GroupField) -> GroupField:
    return GroupField(u.lattice, u.algebra, u.values.conj().swapaxes(-1, -2))


def _quintic_step(t: np.ndarray) -> np.ndarray:
    """C^2 monotone step: 0 -> 0, 1 -> 1, flat at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def make_hedgehog(lattice: TorusLattice, alg: LieAlgebra, radius: float,
                  charge: int = 1, center=None) -> GroupField:
    """Radial profile field exp(f(r) n.(images of i sigma)) supported in a
    ball; f(0) = charge * pi, f(r >= radius) = 0.  A degree-`charge`
    representative through the primitive su(2).
    """
    if not 0 < radius < min(lattice.lengths) / 2:
        raise GeneratorError(f"profile radius {radius} must lie in (0, min period / 2)")
    emb = primitive_su2(alg)
    xs = lattice.coordinates()
    center = tuple(l / 2 for l in lattice.lengths) if center is None else center
    # displacement on the torus: wrap into [-L/2, L/2)
    disp = []
    for x, c, l in zip(xs, center, lattice.lengths):
        d = x - c
        disp.append(d - l * np.round(d / l))
    dx = np.stack(disp, axis=-1)
    r = np.linalg.norm(dx, axis=-1)
    prof = charge * np.pi * _quintic_step(1.0 - r / radius)
    # unit direction; at r = 0 pin the third axis so exp(f * image) is exact
    nhat = np.where(r[..., None] > 1e-12, dx / np.maximum(r, 1e-12)[..., None],
                    np.array([0.0, 0.0, 1.0]))
    coords = prof[..., None] * np.einsum("...k,ka->...a", nhat, emb.images)
    return GroupField(lattice, alg, group_exp(alg, coords))


def make_winding(lattice: TorusLattice, alg: LieAlgebra, m, axis=None) -> GroupField:
    """u(x) = exp(2 pi sum_l m_l x^l / L_l * X_axis), periodic because
    exp(2 pi X_axis) = 1 (checked to 1e-9).

    The default loop is the block's generating circle.  For u1 and so3 it
    generates pi_1 (the U(1) phase; the SO(3) rotation about the third
    axis, whose lift to SU(2) ends at -1), and it is the reference loop of
    `invariants.reference_map`.  For other groups it is the circle
    through the primitive su(2)'s v, contractible in a simply connected
    group."""
    m = tuple(int(v) for v in m)
    if axis is None:
        if alg.family == "u1":
            axis = np.array([1.0])
        elif alg.family == "so3":
            axis = alg.basis_vector(2)  # z rotations generate the order-2 class
        else:
            axis = primitive_su2(alg).image_of_v
    axis = np.asarray(axis, dtype=float)
    closure = group_exp(alg, 2.0 * np.pi * axis)
    if np.abs(closure - alg.group_identity()).max() > 1e-9:
        raise GeneratorError("axis does not close: exp(2 pi X) != 1")
    xs = lattice.coordinates()
    phase = sum(mi * x / l for mi, x, l in zip(m, xs, lattice.lengths))
    coords = (2.0 * np.pi * phase)[..., None] * axis
    return GroupField(lattice, alg, group_exp(alg, coords))


def make_random(lattice: TorusLattice, alg: LieAlgebra, seed: int,
                smoothness: float = 2.0, amplitude: float = 0.5) -> GroupField:
    """Smoothed algebra-valued noise, exponentiated; deterministic per seed.

    Every component is white noise smoothed on the torus by a Gaussian of
    width `smoothness` sites.  The noise X is then scaled so that
    `amplitude` = max over sites of sqrt(|X|^2 + |X_ab|_F^2), with |X|^2
    the Killing norm `norm_sq` and |X_ab|_F the Frobenius (trace-form) norm
    of the matrix of X's abelian part: its coordinates on the basis vectors
    where the Killing norm vanishes, the u1 blocks.  So `amplitude` bounds
    every block, the u1 phase included; without a u1 block it bounds |X|.
    """
    if not (0 <= smoothness < np.inf and 0 <= amplitude < np.inf):
        raise GeneratorError(f"smoothness {smoothness}, amplitude {amplitude}: need finite >= 0")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(lattice.dims + (alg.dim,))
    noise = gaussian_filter(noise, sigma=(smoothness,) * 3 + (0,), mode="wrap")
    sq = alg.norm_sq(noise)
    abelian = alg.norm_sq(np.eye(alg.dim)) == 0  # where the Killing norm vanishes
    if abelian.any():
        sq = sq + (np.abs(alg.to_matrix(noise * abelian)) ** 2).sum(axis=(-2, -1))
    noise *= amplitude / np.sqrt(sq.max())
    return GroupField(lattice, alg, group_exp(alg, noise))
