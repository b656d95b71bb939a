"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured numbers (run with pytest -s to see them)."""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import analytic_exp_field, coarse_edges, sup_deviation_mod_constant
from skyrme import algebra as al
from skyrme import holonomy as hol
from skyrme import invariants as inv
from skyrme import lattice as lat
from skyrme import minimize as mz
from skyrme.errors import HolonomyMismatchError


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert ok, detail


def test_criterion_1_table_certification():
    t0 = time.time()
    expected = {
        **{f"su{n + 1}": Fraction(2, n + 1) for n in range(1, 5)},
        **{f"spin{2 * n + 1}": Fraction(1, 2 * n - 1) for n in (2, 3, 4)},
        **{f"sp{n}": Fraction(2, n + 1) for n in (1, 2, 3)},
        **{f"spin{2 * n}": Fraction(1, 2 * n - 2) for n in (3, 4)},
        "g2": Fraction(1, 2),
        "f4": Fraction(1, 9),
    }
    traces = {}
    ok = True
    for spec, K_expect in expected.items():
        alg = al.parse_algebra(spec)
        traces[spec] = al.killing_trace_of_v(alg)
        ok = ok and al.normalizing_constant(alg) == K_expect
    ok = ok and traces["g2"] == -16 and traces["f4"] == -72
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(1, ok, f"{len(expected)} constants exact as rationals, g2 trace "
                  f"{traces['g2']}, f4 trace {traces['f4']}, {elapsed:.1f}s < 10s")


def test_criterion_2_theta_normalization():
    su2 = al.parse_algebra("su2")
    t0 = time.time()
    errs = {}
    for n in (16, 24, 32):
        L = lat.TorusLattice((n, n, n))
        c = inv.topological_charge(lat.make_hedgehog(L, su2, 0.45))[0]
        errs[n] = abs(c - 1.0)
    per_lattice = (time.time() - t0) / 3
    ok = errs[24] <= 0.05 and errs[16] / errs[32] >= 2.0 and per_lattice < 60.0
    report(2, ok, f"|c~-1| = {errs[16]:.4f}/{errs[24]:.4f}/{errs[32]:.4f} at 16/24/32; "
                  f"24-err <= 0.05, 16->32 ratio {errs[16] / errs[32]:.1f} >= 2; "
                  f"{per_lattice:.1f}s per lattice")


def test_criterion_3_charge_additivity():
    su2 = al.parse_algebra("su2")
    L = lat.TorusLattice((24, 24, 24))
    u = lat.make_hedgehog(L, su2, 0.45)
    cu = inv.topological_charge(u)[0]
    worst = 0.0
    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        w = lat.make_winding(L, su2, m)
        cw = inv.topological_charge(w)[0]
        cuw = inv.topological_charge(lat.multiply(u, w))[0]
        worst = max(worst, abs(cuw - cu - cw))
    report(3, worst <= 0.02, f"max additivity defect {worst:.4f} <= 0.02 at N=24 "
                             f"over hedgehog x winding pairs")


def test_criterion_4_energy_identity():
    su2 = al.parse_algebra("su2")
    L = lat.TorusLattice((12, 12, 12))
    worst = 0.0
    for seed in range(20):
        u = lat.make_random(L, su2, seed=seed, smoothness=2.0, amplitude=0.6)
        gap = abs(lat.skyrme_energy_map(u)
                  - lat.skyrme_energy_connection(lat.log_derivative(u)))
        worst = max(worst, gap)
    closed = 0.0
    for n in (4, 5, 8, 16, 32):
        Ln = lat.TorusLattice((n, n, n))
        E = lat.skyrme_energy_map(lat.make_winding(Ln, su2, (1, 0, 0)))
        closed = max(closed, abs(E - 2 * np.pi ** 2))
    ok = worst <= 1e-10 and closed <= 1e-10
    report(4, ok, f"max |E(u) - E[Du]| = {worst:.2e} over 20 random 12^3 fields; "
                  f"max closed-form gap {closed:.2e} over N in 4..32")


def test_criterion_5_one_dimensional_invariant():
    u1 = al.parse_algebra("u1")
    so3 = al.parse_algebra("so3")
    su2 = al.parse_algebra("su2")
    L = lat.TorusLattice((12, 12, 12))
    a_u1 = inv.one_dim_invariant(lat.make_winding(L, u1, (1, 2, 0)))
    a_so3 = inv.one_dim_invariant(lat.make_winding(L, so3, (1, 0, 0)))
    consts = [inv.one_dim_invariant(lat.constant_field(L, g)) for g in (u1, so3, su2)]
    ok = (a_u1 == (1, 2, 0) and a_so3 == (1, 0, 0)
          and all(c == (0, 0, 0) for c in consts))
    report(5, ok, f"U(1) winding {a_u1} == (1,2,0); SO(3) z-rotation {a_so3} == "
                  f"(1,0,0) mod 2; constants all (0,0,0)")


def test_criterion_6_developing_map():
    su2 = al.parse_algebra("su2")
    devs = {}
    for n in (16, 32):
        L = lat.TorusLattice((n, n, n))
        w, A = analytic_exp_field(su2, L, amp=0.5, seed=3)
        chart = hol.develop_cube(A, (0, 0, 0), (n, n, n), flatness_gate=np.inf)
        devs[n] = sup_deviation_mod_constant(su2, chart, w.values)
    order = np.log2(devs[16] / devs[32])
    ok = order >= 1.8 and devs[32] <= 1e-3
    report(6, ok, f"sup deviation from g*w: {devs[16]:.2e} (16^3) -> {devs[32]:.2e} "
                  f"(32^3), order {order:.2f} >= 1.8, 32^3 value <= 1e-3")


def test_criterion_7_holonomy():
    su2 = al.parse_algebra("su2")
    L = lat.TorusLattice((16, 16, 16))
    theta = 0.7
    a = lat.zero_one_form(L, su2)
    a.coeffs[0, ..., 2] = theta
    cover = hol.CubicalCover(L, 4)
    rep = hol.holonomy_rep(a, cover)
    closed = max(
        np.abs(rep.elements[0] - al.group_exp(su2, [0, 0, theta])).max(),
        np.abs(rep.elements[1] - np.eye(2)).max(),
        np.abs(rep.elements[2] - np.eye(2)).max(),
    )
    refine = np.abs(rep.traces - hol.holonomy_rep(a, hol.CubicalCover(L, 2)).traces).max()

    atlas = hol.build_atlas(a, cover)
    rng = np.random.default_rng(1)
    h = {v: al.group_exp(su2, 0.6 * rng.standard_normal(3)) for v in cover.vertices()}
    relab = {}
    for v, ax, q in coarse_edges(cover):
        relab[(v, ax)] = h[v] @ atlas.labels[(ax,) + v] @ h[q].conj().T
    relabel_gap = 0.0
    for ell in range(3):
        g = np.eye(2, dtype=complex)
        for i in range(cover.shape[ell]):
            g = g @ relab[(tuple(i if d == ell else 0 for d in range(3)), ell)]
        relabel_gap = max(relabel_gap, abs(np.trace(g) - rep.traces[ell]))

    w = lat.make_random(L, su2, seed=7, smoothness=2.5, amplitude=0.5)
    triv = np.abs(hol.holonomy_rep(lat.log_derivative(w), cover).elements
                  - np.eye(2)).max()
    ok = closed <= 1e-8 and refine <= 1e-8 and relabel_gap <= 1e-8 and triv <= 1e-8
    report(7, ok, f"abelian closed form {closed:.1e}; refinement {refine:.1e}; "
                  f"relabeling {relabel_gap:.1e}; trivial holonomy of Du {triv:.1e} "
                  f"(all <= 1e-8)")


def test_criterion_8_gauge_reconstruction():
    su2 = al.parse_algebra("su2")
    L = lat.TorusLattice((16, 16, 16))
    cover = hol.CubicalCover(L, 4)
    z = lat.zero_one_form(L, su2)
    w = lat.make_random(L, su2, seed=9, smoothness=2.5, amplitude=0.6)
    a2 = lat.gauge_transform(z, w)
    u = hol.gauge_from_holonomy(z, a2, cover)
    resid = sup_deviation_mod_constant(su2, u.values, w.values)

    a1 = lat.zero_one_form(L, su2)
    a1.coeffs[0, ..., 2] = 0.3
    refused = False
    try:
        hol.gauge_from_holonomy(a1, z, cover)
    except HolonomyMismatchError:
        refused = True
    ok = resid <= 1e-6 and refused
    report(8, ok, f"recovered w up to one constant, residual {resid:.2e} <= 1e-6 at "
                  f"N=16; inequivalent inputs refused with 'holonomies differ'")


def _energy_density(u):
    """Per-site energy density with the link-tail convention; summing it
    gives skyrme_energy_map exactly."""
    L = lat.log_derivative(u)
    gram = u.algebra.norm_gram
    dens = 0.5 * sum(np.einsum("...a,ab,...b->...", L.coeffs[i], gram, L.coeffs[i])
                     for i in range(3))
    W = lat.wedge_bracket(L)
    dens = dens + 0.25 * sum(np.einsum("...a,ab,...b->...", W[p], gram, W[p])
                             for p in range(3))
    return u.lattice.cell_volume * dens


def test_criterion_9_gradient_correctness():
    # central differences at step 1e-5; a site perturbation only touches the
    # densities at the site and its three backward neighbors, so the
    # difference is taken over those four sites (identical in exact
    # arithmetic, free of global-sum cancellation)
    su2 = al.parse_algebra("su2")
    L = lat.TorusLattice((8, 8, 8))
    rng = np.random.default_rng(4)
    worst = 0.0
    t = 1e-5
    for seed in (0, 1):
        u = lat.make_random(L, su2, seed=seed, smoothness=1.5, amplitude=0.6)
        G = mz.lattice_gradient(u)
        for _ in range(10):
            s = tuple(rng.integers(0, 8, 3))
            touched = [s] + [tuple((np.array(s) - np.eye(3, dtype=int)[i]) % 8)
                             for i in range(3)]
            for d in range(3):
                X = np.zeros(3)
                X[d] = 1.0
                up = u.copy()
                up.values[s] = u.values[s] @ al.group_exp(su2, t * X)
                um = u.copy()
                um.values[s] = u.values[s] @ al.group_exp(su2, -t * X)
                dp, dm = _energy_density(up), _energy_density(um)
                fd = sum(dp[q] - dm[q] for q in touched) / (2 * t)
                worst = max(worst, abs(fd - G[s][d]) / max(abs(fd), 1e-9))
    report(9, worst <= 1e-6, f"max relative gradient error {worst:.2e} <= 1e-6 "
                             f"(20 sites x 3 directions, random 8^3 fields)")


def test_criterion_10_minimization_properties():
    su2 = al.parse_algebra("su2")

    # trivial sector: perturbed constant relaxes to the vacuum floor
    t0 = time.time()
    L12 = lat.TorusLattice((12, 12, 12))
    u0 = lat.make_random(L12, su2, seed=5, smoothness=2.0, amplitude=0.1)
    final, tr_triv = mz.minimize_map(u0, mz.MinimizeOptions(max_iters=6000, grad_tol=1e-12))
    t_triv = time.time() - t0
    triv_ok = tr_triv.energies[-1] <= 1e-8 and t_triv < 300.0

    # charge-1 descent at 16^3: monotone, sector constant throughout
    L16 = lat.TorusLattice((16, 16, 16))
    hh = lat.make_hedgehog(L16, su2, 0.45)
    _, tr_hh = mz.minimize_map(hh, mz.MinimizeOptions(max_iters=150, sector_interval=10))
    mono = (np.diff(tr_hh.energies) <= 1e-12).all()
    sector_ok = all(s.charges == (1,) for _, s in tr_hh.sectors)

    # connection-side and map-side agree to 1e-10
    sector = inv.sector_of(lat.make_hedgehog(L12, su2, 0.45))
    opts = mz.MinimizeOptions(max_iters=15, sector_interval=50)
    _, tr_conn = mz.minimize_connection(lat.zero_one_form(L12, su2), sector, opts)
    _, tr_map = mz.minimize_map(mz.seed_field(L12, su2, sector), opts)
    gap = np.abs(np.array(tr_conn.energies) - np.array(tr_map.energies)).max()

    ok = triv_ok and mono and sector_ok and gap <= 1e-10
    report(10, ok, f"trivial sector E={tr_triv.energies[-1]:.1e} <= 1e-8 in "
                   f"{t_triv:.0f}s (<300s); charge-1 16^3 monotone={mono} with "
                   f"{len(tr_hh.sectors)} constant sector snapshots; "
                   f"connection/map energy gap {gap:.1e} <= 1e-10")
