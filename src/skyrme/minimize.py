"""Sector-preserving energy descent for lattice maps and flat potentials.

The update is the right variation u <- u exp(-tau G) with G the exact
first variation of the lattice energy.  Differentiating the link log
l = log(u(x)^-1 u(x+e)) under u(x) -> u(x) exp(t X), u(x+e) -> u(x+e)
exp(t Y) gives

    dl/dt = B(ad_l) Y - B(-ad_l) X,      B(z) = z / (1 - e^-z),

so each link scatters its energy gradient to both endpoint sites through
the transpose of B.  `LieAlgebra.bernoulli_pair` applies B(+-ad_l)
exactly, from the spectrum of ad_l: its eigenvalues are i w with
|w| < 2 pi on the link-log range, where the Bernoulli series of B
converges too slowly (and diverges at 2 pi).

Armijo backtracking keeps the energy non-increasing.  The link-log range
is an inequality constraint: a trial that pushes links out of range
freezes both endpoint sites of each such link and is retried, and the
Armijo test uses the gradient projected onto the free sites.  A descent
whose projected gradient falls to grad_tol at the range barrier ends
with termination "barrier"; one that finds no step while the projected
gradient is larger raises LineSearchError.  The sector invariants are
recomputed at fixed intervals and any drift aborts the run.

Flat potentials are minimized over the gauge orbit a = gauge_transform(b, u)
of a flat potential b, which fixes its holonomy stratum: with b's
`transports` T taken once it is log_derivative(u, T), whose links
u(x)^-1 T(x) u(x+e) vary with u exactly as the map links do, so one
gradient, `_gradient` of the link logs, serves both descents.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, group_exp
from .errors import FlatnessError, LineSearchError, LogRangeError, SectorError
from .holonomy import build_atlas
from .invariants import SectorInvariants, reference_map, sector_of
from .lattice import (
    PLANES,
    AlgebraOneForm,
    GroupField,
    TorusLattice,
    log_derivative,
    make_hedgehog,
    skyrme_energy_connection,
    skyrme_energy_map,
    transports,
    wedge_bracket,
)

__all__ = [
    "MinimizeOptions",
    "MinimizeTrace",
    "lattice_gradient",
    "minimize_map",
    "minimize_connection",
    "seed_field",
]

# seed lumps have radius this fraction of the shortest period
SEED_RADIUS_FRACTION = 0.46

# Armijo backtracking (Nocedal & Wright, Numerical Optimization, ch. 3);
# MAX_ROTATION caps |tau G| per site, which keeps trials in log range
INITIAL_STEP = 0.5
SHRINK = 0.5
GROW = 1.5
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 40
MAX_ROTATION = 0.4


@dataclass
class MinimizeOptions:
    max_iters: int = 1000
    grad_tol: float = 1e-6
    sector_interval: int = 25

    def __post_init__(self):
        # each value outside its range would run silently wrong: no step,
        # a sector gate that never runs, or convergence declared at once
        for ok, what in ((self.max_iters >= 1, "max_iters must be at least 1"),
                         (0.0 <= self.grad_tol < np.inf, "grad_tol must be finite and >= 0"),
                         (self.sector_interval >= 1, "sector_interval must be at least 1")):
            if not ok:
                raise ValueError(what)


@dataclass
class MinimizeTrace:
    """Per-iteration descent record; energies are non-increasing.

    Row k is iteration k: the gradient norm at its start, the step its line
    search started from, and the energy at its end, that of the returned
    field in the last row.  A sector snapshot at iteration k is that of the
    field after k iterations, 0 being the input.  `termination` is
    "converged" (gradient norm at or below grad_tol), "max_iters", or
    "barrier": the gradient projected off the sites frozen at the link-log
    range barrier is at or below grad_tol, while the full gradient is not.
    `barrier` then holds (site, axis, |lambda - 1|) of the worst link that
    blocked the step, axis 1-based, |lambda - 1| of that logged link at the
    current field.  `projected_steps` counts accepted steps that froze
    sites.  A stalled line search or a sector drift raises instead.
    """

    energies: list = field(default_factory=list, init=False)
    grad_norms: list = field(default_factory=list, init=False)
    steps: list = field(default_factory=list, init=False)
    sectors: list = field(default_factory=list, init=False)  # (iteration, SectorInvariants)
    termination: str = field(default="", init=False)
    projected_steps: int = field(default=0, init=False)
    barrier: tuple | None = field(default=None, init=False)

    def append(self, energy, grad_norm, step):
        self.energies.append(float(energy))
        self.grad_norms.append(float(grad_norm))
        self.steps.append(float(step))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("iter,energy,grad_norm,step,alpha,c_rounded,c_residual\n")
        snap = {it: s for it, s in self.sectors}
        last = None
        for i, (e, g, s) in enumerate(zip(self.energies, self.grad_norms, self.steps)):
            last = snap.get(i, last)
            if last is None:
                a = c = r = ""
            else:
                a = "(" + " ".join(str(v) for v in last.alpha) + ")"
                c = "(" + " ".join(str(v) for v in last.charges) + ")"
                r = "(" + " ".join(f"{v:.4f}" for v in last.residuals) + ")"
            out.write(f"{i},{e:.12e},{g:.6e},{s:.6e},{a},{c},{r}\n")
        return out.getvalue()


def _energy_gradient_terms(L: AlgebraOneForm) -> np.ndarray:
    """P_i = dE-density/d(component i): a_i + 1/2 sum_j [a_j, [a_i, a_j]].

    Each plane (i, j) of `wedge_bracket` holds W = [a_i, a_j] once and
    gives 1/2 [a_j, W] to P_i and -1/2 [a_i, W] to P_j."""
    alg, comps = L.algebra, L.coeffs
    P = comps.copy()
    for (i, j), W in zip(PLANES, wedge_bracket(L)):
        P[i] += 0.5 * alg.bracket(comps[j], W)
        P[j] -= 0.5 * alg.bracket(comps[i], W)
    return P


def _gradient(L: AlgebraOneForm) -> np.ndarray:
    """Site gradient of the energy of the link-log form L, as algebra
    coordinates per site: each link scatters its energy gradient to both
    endpoint sites through B(+-ad_l)^T."""
    alg = L.algebra
    h = L.lattice.spacings
    cellvol = L.lattice.cell_volume
    P = _energy_gradient_terms(L)
    G = np.zeros(L.lattice.dims + (alg.dim,))
    for i in range(3):
        plus, minus = alg.bernoulli_pair(h[i] * L.coeffs[i], P[i])
        G -= (cellvol / h[i]) * plus
        G += (cellvol / h[i]) * np.roll(minus, 1, axis=i)
    return G


def lattice_gradient(u: GroupField) -> np.ndarray:
    """First variation of E(u) under u(x) -> u(x) exp(t X_x), per site.

    Returns algebra coordinates of shape dims + (dim,), the representative
    in the norm metric: dE/dt = sum_x G_x . norm_gram . X_x (the plain
    coordinate derivative where norm_gram is the identity, as for su2).
    The descent direction is the negative of this field.
    """
    return _gradient(log_derivative(u))


def _link_distance(u: GroupField, T: np.ndarray | None, site: tuple, axis: int) -> float:
    """|lambda - 1| of the link from `site` along `axis` (1-based) that the
    descent logs: u(x)^-1 T(x) u(x+e), the map link for T None."""
    up = tuple((c + (k == axis - 1)) % n for k, (c, n) in enumerate(zip(site, u.lattice.dims)))
    step = np.eye(u.algebra.rep_dim) if T is None else T[(axis - 1,) + site]
    link = u.values[site].conj().T @ step @ u.values[up]
    return float(np.abs(np.linalg.eigvals(link) - 1.0).max())


def _check_sector(trace: MinimizeTrace, it: int, u: GroupField, where):
    """Record the sector of u at iteration `it`; raise if it left the first
    or, after the input's, cannot be resolved."""
    try:
        snap = sector_of(u)
    except SectorError as exc:
        if not trace.sectors:  # the input's own sector
            raise
        raise SectorError(f"sector unresolved at iteration {it} ({exc}); the input resolved to "
                          f"{trace.sectors[0][1].report_line()}") from exc
    trace.sectors.append((it, snap))
    sector0 = trace.sectors[0][1]
    if not snap.same_sector(sector0):
        raise SectorError(f"sector drift {where}: "
                          f"{snap.report_line()} != {sector0.report_line()}")


def _descend(u: GroupField, energy_fn, grad_fn, opts: MinimizeOptions | None = None,
             T: np.ndarray | None = None) -> tuple[GroupField, MinimizeTrace]:
    """Descent of energy_fn by grad_fn from u, its sector checked on entry, every
    sector_interval steps and at the end; energy_fn logs u's links through T (None: u's own)."""
    opts = opts or MinimizeOptions()
    trace = MinimizeTrace()
    _check_sector(trace, 0, u, "")
    E = energy_fn(u)
    step = INITIAL_STEP
    alg = u.algebra
    for it in range(opts.max_iters):
        G = grad_fn(u)
        site_sq = alg.norm_sq(G)
        gnorm = float(np.sqrt(site_sq.sum()))
        if gnorm <= opts.grad_tol:
            trace.append(E, gnorm, step)
            trace.termination = "converged"
            break
        tau = min(step, MAX_ROTATION / max(np.sqrt(site_sq.max()), 1e-300))
        # sites whose step would push a link out of the log range stay put;
        # the Armijo decrease is that of the projected direction
        frozen = np.zeros(u.lattice.dims, dtype=bool)
        proj_sq = site_sq.sum()
        armijo = ranged = 0
        moved = None  # u exp(-tau G), kept while tau is
        for _ in range(MAX_BACKTRACKS):
            if moved is None:
                moved = np.einsum("...ij,...jk->...ik", u.values, group_exp(alg, -tau * G))
            trial = GroupField(u.lattice, alg,
                               np.where(frozen[..., None, None], u.values, moved))
            try:
                E_t = energy_fn(trial)
            except LogRangeError as exc:
                ranged += 1
                for ax in range(3):
                    frozen |= exc.mask[ax] | np.roll(exc.mask[ax], 1, axis=ax)
                proj_sq = site_sq[~frozen].sum()
                if np.sqrt(proj_sq) <= opts.grad_tol:
                    trace.barrier = (exc.site, exc.axis,
                                     _link_distance(u, T, exc.site, exc.axis))
                    break
                continue
            if E_t <= E - ARMIJO_C * tau * proj_sq:
                break
            armijo += 1
            tau *= SHRINK
            moved = None
        else:
            raise LineSearchError(
                f"stalled: no step accepted after {MAX_BACKTRACKS} backtracks "
                f"({armijo} Armijo rejections, {ranged} range rejections) at iteration {it}, "
                f"projected gradient norm {np.sqrt(proj_sq):.3e}")
        if trace.barrier is not None:
            trace.append(E, gnorm, step)
            trace.termination = "barrier"
            break
        trace.append(E_t, gnorm, step)
        trace.projected_steps += bool(frozen.any())
        u, E = trial, E_t
        step = min(tau * GROW, INITIAL_STEP * 8)
        if (it + 1) % opts.sector_interval == 0:
            _check_sector(trace, it + 1, u, f"at iteration {it + 1}")
    else:
        trace.termination = "max_iters"
    _check_sector(trace, len(trace.energies), u, "at termination")
    return u, trace


def minimize_map(u0: GroupField, opts: MinimizeOptions | None = None):
    """Armijo gradient descent on E(u); the sector is checked and conserved."""
    return _descend(u0, skyrme_energy_map, lattice_gradient, opts)


def seed_field(lattice: TorusLattice, alg: LieAlgebra, sector: SectorInvariants) -> GroupField:
    """A representative map with the requested invariants: the fixed
    reference for alpha times one profile lump per charged factor.  With
    no charge it is the cached, read-only reference map itself."""
    if len(sector.charges) != len(alg.factors):
        raise SectorError(f"no seed field for sector: {len(sector.charges)} charges "
                          f"for {len(alg.factors)} simple factors of {alg.name}")
    u = reference_map(lattice, alg, sector.alpha)
    radius = SEED_RADIUS_FRACTION * min(lattice.lengths)
    for k, c in enumerate(sector.charges):
        if c == 0:
            continue
        # build the lump inside the owning block and embed it
        off, blk = alg.owning_block(k)
        lump = make_hedgehog(lattice, blk, radius, charge=int(c))
        vals = u.values.copy()
        sl = slice(off, off + blk.rep_dim)
        vals[..., sl, sl] = np.einsum("...ij,...jk->...ik", vals[..., sl, sl], lump.values)
        u = GroupField(lattice, alg, vals)
    got = sector_of(u)
    if not (got.alpha == sector.alpha and got.charges == tuple(sector.charges)):
        raise SectorError(f"no seed field for sector {sector.alpha};{sector.charges} "
                          f"(got {got.alpha};{got.charges})")
    return u


def minimize_connection(b: AlgebraOneForm, sector: SectorInvariants,
                        opts: MinimizeOptions | None = None):
    """Minimize E[a] over the gauge orbit a = gauge_transform(b, u) of the
    flat reference b, within the requested sector.

    A non-zero b must pass `build_atlas` over the default cover, the gate
    of every sector query; its `transports` T, a lattice connection with
    b's holonomy, are then taken once, and every iterate is
    a = log_derivative(u, T).  Returns (a_final, trace), a_final
    link-sampled; the trace reports E[a] at each iterate.
    """
    T = None
    if not b.is_zero():
        try:
            build_atlas(b)
        except ValueError as exc:  # no default cover fits the lattice
            raise FlatnessError(f"reference potential cannot be gated: {exc}") from exc
        T = transports(b)
    final_u, trace = _descend(seed_field(b.lattice, b.algebra, sector),
                              lambda u: skyrme_energy_connection(log_derivative(u, T)),
                              lambda u: _gradient(log_derivative(u, T)), opts, T)
    return log_derivative(final_u, T), trace
