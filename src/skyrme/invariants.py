"""Sector invariants: per-factor topological charge and the 1-d holonomy
coordinates.

The charge of a map u relative to a reference v is

    c^k = -(K_k / 192 pi^2) sum_x vol sum_{perm} eps^{ijl}
              Tr( ad[Lb_i^, Lb_j^] ad Lb_l^ )
        = sum_x vol theta_k(Lb_1, Lb_2, Lb_3)

where Lb is the site-symmetrized log derivative of w = u v^-1, the hat
is Killing projection onto factor k, and the 192 = 6 * 32 pairs the
six-term antisymmetrization with the 3-form normalization.  theta_k is
`algebra.theta_density`, the one charge kernel.  Site
symmetrization (the mean of the two adjacent link logs per axis) keeps
the product consistently centered; without it the staggered midpoints
cost an order of accuracy on composite fields.

A flat potential a relative to the zero form has the charges of the map u
with a = Du.  `invariant_of_connection` reads them off a's own link
coefficients, with no matrix log, when three conditions hold: the
reference is the zero form; u's holonomy coordinates are all zero, so
v_alpha = 1; and every link passes the certificate
|h a|_F < 2 arcsin(LINK_LOG_THRESHOLD / 2), which bounds each eigen-angle,
so h a is the principal log of its transport and in the link log range.
Otherwise it calls `sector_of(u)`, which takes the logs of u's links as
for any map.  Like the chord certificate of the holonomy gate, the bound
is proven without a log, and the logs are taken only when it fails.

The 1-d invariant lifts each torus generator loop to the covering group:
U(1) unwinds phases to an integer, SO(3) tracks the +-1 ambiguity of the
unit-quaternion lift, and simply connected groups contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import LieAlgebra, group_exp, group_log, parse_algebra, theta_density
from .errors import HolonomyMismatchError, LogRangeError, SectorError
from .holonomy import gauge_from_holonomy
from .lattice import (
    LINK_LOG_THRESHOLD,
    AlgebraOneForm,
    GroupField,
    TorusLattice,
    constant_field,
    inverse_field,
    log_derivative,
    make_winding,
    multiply,
)

__all__ = [
    "SectorInvariants",
    "topological_charge",
    "one_dim_invariant",
    "reference_map",
    "sector_of",
    "invariant_of_connection",
    "pi1_orders",
]

DEFAULT_SECTOR_TOL = 0.25
# a link coefficient X = h b with |X|_F below this has every eigen-angle
# below it, so every |lambda - 1| = 2 sin(angle / 2) of exp(X) is below
# LINK_LOG_THRESHOLD, and every angle is below pi
_LINK_NORM_CUTOFF = 2.0 * np.arcsin(LINK_LOG_THRESHOLD / 2.0)

@dataclass(frozen=True)
class SectorInvariants:
    """Holonomy coordinates mod their orders plus rounded factor charges."""

    alpha: tuple
    alpha_orders: tuple
    charges_raw: tuple
    charges: tuple
    residuals: tuple

    def report_line(self) -> str:
        a = ",".join(str(v) for v in self.alpha)
        craw = ",".join(f"{v:.6f}" for v in self.charges_raw)
        c = ",".join(str(v) for v in self.charges)
        r = ",".join(f"{v:.6f}" for v in self.residuals)
        return f"alpha=({a}) c~=({craw}) c=({c}) residual=({r})"

    def same_sector(self, other: "SectorInvariants") -> bool:
        return self.alpha == other.alpha and self.charges == other.charges


def _lift_channels(alg: LieAlgebra):
    """(rep_offset, block, order) for every block with nontrivial
    fundamental group; order 0 means pi_1 = Z, order 2 means Z/2."""
    return [(off, blk, blk.pi1) for off, blk in alg.block_layout if blk.pi1 is not None]


def pi1_orders(alg: LieAlgebra) -> tuple:
    """Cyclic orders r of the holonomy coordinates (0 meaning infinite)."""
    return tuple(r for _, _, r in _lift_channels(alg))


def _alpha_table(alpha, channels) -> tuple:
    """Per-axis rows of per-channel values, each reduced mod its order.

    A public alpha entry is an int for one lift channel and a tuple of
    ints for several; with no channel every entry must be zero and each
    row is empty.
    """
    if len(alpha) != 3:
        raise SectorError(f"alpha needs one entry per torus axis, got {alpha!r}")
    rows = []
    for entry in alpha:
        vals = entry if isinstance(entry, tuple) else (entry,)
        if not channels:
            if any(v != 0 for v in vals):
                raise SectorError("nonzero alpha for a simply connected group")
            rows.append(())
            continue
        if len(vals) != len(channels):
            raise SectorError(f"alpha entry {entry!r} does not match lift channels")
        rows.append(tuple(int(v) if r == 0 else int(v) % r
                          for v, (_, _, r) in zip(vals, channels)))
    return tuple(rows)


def _alpha_entry(vals):
    """Public alpha entry of one axis row: 0 with no channel, an int with
    one, a tuple with several (the inverse of `_alpha_table`)."""
    if not vals:
        return 0
    return vals[0] if len(vals) == 1 else tuple(vals)


# ----------------------------------------------------------------------
# topological charge
# ----------------------------------------------------------------------

def _link_charges(L: AlgebraOneForm) -> np.ndarray:
    """Per-factor charges of the link coefficients L: the cell volume times
    the site sum of theta_k of their site symmetrization."""
    c = L.coeffs
    Lb = np.stack([0.5 * (c[i] + np.roll(c[i], 1, axis=i)) for i in range(3)])
    return np.array([L.lattice.cell_volume * theta_density(L.algebra, k, *Lb).sum()
                     for k in range(len(L.algebra.factors))])


def topological_charge(u: GroupField, v_ref: GroupField | None = None) -> np.ndarray:
    """Unrounded per-factor charges of u relative to v_ref (identity if None):
    per factor k, the cell volume times the site sum of
    `algebra.theta_density(k, Lb_1, Lb_2, Lb_3)`.

    That is the six-term sum over permutations divided by 6: the 3-form is
    totally antisymmetric, since f_abc is antisymmetric in (a, b) and the
    Killing form is ad-invariant, B([X, Y], Z) = -B(Y, [X, Z]).
    """
    w = u if v_ref is None else multiply(u, inverse_field(v_ref))
    return _link_charges(log_derivative(w))


# ----------------------------------------------------------------------
# one-dimensional invariant
# ----------------------------------------------------------------------

def _refused_link(what: str, axis: int, angles: np.ndarray) -> LogRangeError:
    """The error naming the link of the base line along `axis` (0-based)
    turned farthest by `angles`: its site, 1-based axis and |lambda - 1|."""
    k = int(np.argmax(angles))
    site = tuple(k if i == axis else 0 for i in range(3))
    return LogRangeError(f"field too rough: {what} at site {site} on axis {axis + 1} (turned "
                         f"by {angles[k]:.4f} rad)", axis=axis + 1, site=site,
                         value=float(2.0 * np.sin(angles[k] / 2.0)))


def _winding_u1(line: np.ndarray, axis: int) -> int:
    phases = np.angle(line[..., 0, 0])
    steps = np.diff(np.append(phases, phases[0]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    if np.abs(np.abs(steps) - np.pi).min() < 1e-9:
        raise _refused_link("half-turn link defeats the U(1) lift", axis, np.abs(steps))
    # the wrapped steps of a closed loop sum to 2 pi n up to rounding
    return int(round(steps.sum() / (2 * np.pi)))


def _lift_sign_so3(line: np.ndarray, block: LieAlgebra, axis: int) -> int:
    """Parity of the SU(2) lift of a closed SO(3) loop.

    Each link is lifted near 1 through the Lie algebra homomorphism
    so(3) -> su(2), E_a -> -(1/2) i sigma_a: so(3) has [E_0, E_1] = E_2 and
    [i sigma_0, i sigma_1] = -2 i sigma_2, so the minus sign makes the map
    preserve brackets, and the lifted links multiply as the links do.  The
    links telescope to 1, so the lifted loop closes on +1 (parity 0) or -1
    (parity 1) up to rounding.
    """
    links = np.einsum("xji,xjk->xik", np.conj(line), np.roll(line, -1, axis=0))
    # rotation angles from the traces 1 + 2 cos(theta), before any log
    angles = np.arccos(np.clip((np.einsum("xii->x", links).real - 1.0) / 2.0, -1.0, 1.0))
    if angles.max() >= np.pi / 2:
        raise _refused_link("SO(3) link outside half the injectivity radius", axis, angles)
    coords, _ = group_log(block, links, threshold=1.9)
    # rotation by theta about n -> exp(-(theta/2) n.i sigma)
    q = group_exp(parse_algebra("su2"), -0.5 * coords)
    total = np.eye(2, dtype=complex)
    for qk in q:
        total = total @ qk
    return 0 if (total[0, 0] + total[1, 1]).real > 0 else 1


def one_dim_invariant(u: GroupField) -> tuple:
    """Holonomy coordinates per torus generator; entries exact integers.

    Single lift channel gives a 3-tuple of ints (the common case); direct
    sums with several nontrivial blocks give a 3-tuple of int tuples.
    """
    channels = _lift_channels(u.algebra)
    per_axis = []
    for ax in range(3):
        # the generator line through the base site
        line = u.values[tuple(slice(None) if i == ax else 0 for i in range(3))]
        vals = []
        for off, blk, r in channels:
            sub = line[..., off:off + blk.rep_dim, off:off + blk.rep_dim]
            vals.append(_winding_u1(sub, ax) if r == 0 else _lift_sign_so3(sub, blk, ax))
        per_axis.append(_alpha_entry(vals))
    return tuple(per_axis)


# ----------------------------------------------------------------------
# reference maps
# ----------------------------------------------------------------------

@lru_cache(maxsize=8)
def _reference_map(lattice: TorusLattice, name: str, table: tuple) -> GroupField:
    alg = parse_algebra(name)
    vals = constant_field(lattice, alg).values
    for (off, blk, _), column in zip(_lift_channels(alg), zip(*table)):
        if any(column):  # a zero column keeps the exact identity
            sl = slice(off, off + blk.rep_dim)
            vals[..., sl, sl] = make_winding(lattice, blk, column).values
    vals.flags.writeable = False
    return GroupField(lattice, alg, vals)


def reference_map(lattice: TorusLattice, algebra: LieAlgebra, alpha) -> GroupField:
    """The fixed representative v_alpha with holonomy coordinates alpha.

    alpha is first reduced mod the orders of its lift channels.  In the
    block of lift channel c, v_alpha is that block's `make_winding` loop
    with windings (alpha_1[c], alpha_2[c], alpha_3[c]) along the three
    torus directions: the U(1) phase, or the SO(3) rotation about the
    third axis.  Every other block is the identity.  Maps are cached per
    (lattice, algebra name, reduced alpha) for the few most recent keys,
    rebuilt from the name on a miss, and their values are read-only.
    """
    table = _alpha_table(alpha, _lift_channels(algebra))
    return _reference_map(lattice, algebra.name, table)


# ----------------------------------------------------------------------
# sector assignment
# ----------------------------------------------------------------------

def _sector(alpha: tuple, alg: LieAlgebra, raw: np.ndarray) -> SectorInvariants:
    """The invariants of holonomy coordinates alpha and unrounded charges
    raw; SectorError when a charge is DEFAULT_SECTOR_TOL or more from all integers."""
    rounded = np.round(raw).astype(int)
    resid = np.abs(raw - rounded)
    if resid.size and resid.max() >= DEFAULT_SECTOR_TOL:
        raise SectorError(f"lattice too coarse to resolve sector (residual {resid.max():.3f})")
    return SectorInvariants(
        alpha=alpha,
        alpha_orders=pi1_orders(alg),
        charges_raw=tuple(float(v) for v in raw),
        charges=tuple(int(v) for v in rounded),
        residuals=tuple(float(v) for v in resid),
    )


def sector_of(u: GroupField) -> SectorInvariants:
    """Full invariant tuple of a lattice map; rejects unresolved charges.

    A non-finite entry makes numpy fail (an eigensolver's LinAlgError, or
    the U(1) winding's int of NaN); only then is u searched, and the first
    such site is named by SectorError."""
    try:
        alpha = one_dim_invariant(u)
        v = reference_map(u.lattice, u.algebra, alpha)
        return _sector(alpha, u.algebra, topological_charge(u, v_ref=v))
    except ValueError as exc:  # LinAlgError is a ValueError
        bad = np.argwhere(~np.isfinite(u.values).all(axis=(-2, -1)))
        if not len(bad):
            raise
        site = tuple(int(i) for i in bad[0])
        raise SectorError(f"field has a non-finite entry at site {site}") from exc


def _in_log_range(b: AlgebraOneForm) -> bool:
    """Whether `_LINK_NORM_CUTOFF` certifies every link of the link form b:
    then each h b is the principal log of its transport exp(h b), and the
    transport is inside the link log range."""
    return all((np.abs(b.algebra.to_matrix(h * c)) ** 2).sum(axis=(-2, -1)).max()
               < _LINK_NORM_CUTOFF ** 2 for h, c in zip(b.lattice.spacings, b.coeffs))


def invariant_of_connection(a, b, cover=None) -> SectorInvariants:
    """Invariants of a flat potential a relative to the reference b.

    Reconstructs u with a = gauge_transform(b, u) (the exact action on the
    transports of b) from equal holonomy, and reports the invariants of u;
    fails when a and b sit in different holonomy strata.  `cover` goes to
    `gauge_from_holonomy`.

    With b = 0 the links u(x)^-1 u(x+e_i) are a's transports, up to the
    residual links the atlas bounds by its tol.  So when b is the zero
    form, u's holonomy coordinates are all zero (v_alpha = 1), and every
    link coefficient X = h_i a_i(x) has
    |X|_F < 2 arcsin(LINK_LOG_THRESHOLD / 2) (the Frobenius norm bounds
    every eigen-angle, so X is the principal log of its transport and
    inside the range of `log_derivative`), the charges are read off a's
    link coefficients with no matrix log: the lattice form of the flat
    Chern-Simons integral -(1/24 pi^2) int tr a^3.  Otherwise `sector_of(u)`
    takes the logs of u's links, as for any map, and refuses a link out of
    range by its axis and site.
    """
    try:
        u = gauge_from_holonomy(b, a, cover)
    except HolonomyMismatchError as exc:
        raise HolonomyMismatchError(f"not in the same holonomy stratum: {exc}") from exc
    if b.is_zero() and _in_log_range(a):
        alpha = one_dim_invariant(u)
        if not np.any(alpha):
            return _sector(alpha, a.algebra, _link_charges(a))
    return sector_of(u)
