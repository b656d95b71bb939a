import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    analytic_exp_field,
    coarse_edges,
    flat_site_form,
    oracle_star_residuals,
    sup_deviation_mod_constant,
)
from skyrme import algebra as al
from skyrme import holonomy as hol
from skyrme import invariants as inv
from skyrme import lattice as lat
from skyrme.errors import AtlasError, FlatnessError, HolonomyMismatchError


@pytest.fixture
def cover16(lat16):
    return hol.CubicalCover.for_lattice(lat16)


def abelian_form(lattice, su2, theta, axis=0):
    a = lat.zero_one_form(lattice, su2, sampling="site")
    a.coeffs[axis, ..., 2] = theta
    return a


# ----------------------------------------------------------------------
# cover combinatorics
# ----------------------------------------------------------------------

def test_cover_structure(lat16):
    cov = hol.CubicalCover.for_lattice(lat16)
    assert cov.spacing == 4 and cov.shape == (4, 4, 4)
    assert len(cov.vertices()) == 64


def test_cover_rejects_bad_spacing():
    with pytest.raises(ValueError):
        hol.CubicalCover(lat.TorusLattice((10, 10, 10)), 4)
    with pytest.raises(ValueError):
        hol.CubicalCover(lat.TorusLattice((8, 8, 8)), 8)


@pytest.mark.parametrize("dims", [(9, 9, 9), (6, 6, 9)])
def test_default_cover_looks_above_a_quarter_of_the_first_axis(dims):
    # no spacing up to dims[0] // 4 = 2 divides these dims, but 3 does
    assert hol.CubicalCover.for_lattice(lat.TorusLattice(dims)).spacing == 3


def test_default_cover_refuses_a_lattice_without_a_spacing():
    with pytest.raises(ValueError, match="no valid cover spacing"):
        hol.CubicalCover.for_lattice(lat.TorusLattice((5, 5, 5)))


def test_default_cover_is_the_largest_valid_spacing_up_to_a_quarter():
    for dims in itertools.product(range(3, 19), repeat=3):
        L = lat.TorusLattice(dims)
        valid = []
        for s in range(2, max(dims) + 1):
            try:
                valid.append(hol.CubicalCover(L, s).spacing)
            except ValueError:
                pass
        if not valid:
            with pytest.raises(ValueError):
                hol.CubicalCover.for_lattice(L)
            continue
        quarter = [s for s in valid if s <= dims[0] // 4]
        expect = max(quarter) if quarter else min(valid)
        assert hol.CubicalCover.for_lattice(L).spacing == expect, dims


# ----------------------------------------------------------------------
# cube development and transport
# ----------------------------------------------------------------------

def test_develop_zero_is_identity(su2, lat8):
    ch = hol.develop_cube(lat.zero_one_form(lat8, su2), (0, 0, 0), (5, 5, 5))
    assert np.abs(ch - np.eye(2)).max() < 1e-14


def test_develop_log_derivative_reconstructs_exactly(su2, lat16):
    w = lat.make_random(lat16, su2, seed=3, smoothness=2.5, amplitude=0.5)
    a = lat.log_derivative(w)
    ch = hol.develop_cube(a, (0, 0, 0), (16, 16, 16))
    assert sup_deviation_mod_constant(su2, ch, w.values) < 1e-12


def test_develop_constant_abelian_closed_form(su2, lat8):
    c = 0.9
    a = abelian_form(lat8, su2, c)
    ch = hol.develop_cube(a, (0, 0, 0), (8, 8, 8))
    x1 = np.arange(8) / 8.0
    expect = al.group_exp(su2, np.stack([np.zeros(8), np.zeros(8), c * x1], axis=-1))
    assert np.abs(ch - expect[:, None, None]).max() < 1e-12


def test_develop_site_sampled_convergence(su2):
    devs = []
    for n in (8, 16):
        L = lat.TorusLattice((n, n, n))
        w, A = analytic_exp_field(su2, L, amp=0.5, seed=3)
        ch = hol.develop_cube(A, (0, 0, 0), (n, n, n), flatness_gate=np.inf)
        devs.append(sup_deviation_mod_constant(su2, ch, w.values))
    order = np.log2(devs[0] / devs[1])
    assert order >= 1.8


@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_develop_site_form_converges_at_fourth_order(spec):
    # the Magnus step of `link_form` with its cubic cell average is fourth
    # order, and the default gate passes the flat site form at both sizes
    alg = al.parse_algebra(spec)
    devs = []
    for n in (8, 16):
        L = lat.TorusLattice((n, n, n))
        w, A = analytic_exp_field(alg, L, amp=0.5, seed=3)
        ch = hol.develop_cube(A, (0, 0, 0), (n, n, n))
        devs.append(sup_deviation_mod_constant(alg, ch, w.values))
    assert np.log2(devs[0] / devs[1]) >= 3.5


def test_develop_flatness_gate(su2, lat8):
    rng = np.random.default_rng(0)
    a = lat.zero_one_form(lat8, su2, sampling="site")
    a.coeffs[:] = rng.standard_normal(a.coeffs.shape) * 3.0
    with pytest.raises(FlatnessError, match="not flat"):
        hol.develop_cube(a, (0, 0, 0), (5, 5, 5))


def test_path_transport(su2, lat16):
    z = lat.zero_one_form(lat16, su2)
    loop = [(i, 0, 0) for i in range(17)]
    assert np.abs(hol.path_transport(lat.transports(z), loop) - np.eye(2)).max() == 0.0
    T = lat.transports(abelian_form(lat16, su2, 2 * np.pi))
    g = hol.path_transport(T, loop)
    assert np.abs(g - np.eye(2)).max() < 1e-10
    half = [(i, 0, 0) for i in range(9)]
    fwd = hol.path_transport(T, half)
    bwd = hol.path_transport(T, half[::-1])
    assert np.abs(fwd @ bwd - np.eye(2)).max() < 1e-12
    with pytest.raises(ValueError):
        hol.path_transport(T, [(0, 0, 0), (2, 0, 0)])


def test_path_transport_site_step_on_nonabelian_data():
    # su3 site data, where the bracket term of the Magnus step is far from
    # zero; the oracle is expm of the step formula on matrices
    su3 = al.parse_algebra("su3")
    L = lat.TorusLattice((8, 8, 8))
    _, a = analytic_exp_field(su3, L, amp=0.5, seed=3)
    path = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (2, 0, 0), (2, 7, 0), (2, 7, 1),
            (2, 7, 0), (1, 7, 0), (0, 7, 0), (7, 7, 0), (7, 7, 7)]
    h = L.spacings
    expect = np.eye(3, dtype=complex)
    no_bracket = np.eye(3, dtype=complex)
    for p, q in zip(path, path[1:]):
        ax = next(i for i in range(3) if p[i] != q[i])
        forward = (q[ax] - p[ax]) % L.dims[ax] == 1
        tail = p if forward else q

        def A(k):
            site = list(tail)
            site[ax] = (site[ax] + k) % L.dims[ax]
            return su3.to_matrix(a.coeffs[(ax,) + tuple(site)])

        mean = (h[ax] / 24.0) * (-A(-1) + 13.0 * A(0) + 13.0 * A(1) - A(2))
        step = expm(mean + (h[ax] ** 2 / 12.0) * (A(0) @ A(1) - A(1) @ A(0)))
        expect = expect @ (step if forward else np.linalg.inv(step))
        no_bracket = no_bracket @ expm(mean if forward else -mean)
    assert np.abs(expect - no_bracket).max() > 1e-6
    assert np.abs(hol.path_transport(lat.transports(a), path) - expect).max() < 1e-12


def _sweep_path(corner, far):
    """Sites of the developing sweep from `corner` to the site `far` steps
    on: last axis, then middle, then first."""
    c = corner
    return ([(c[0], c[1], c[2] + k) for k in range(far[2] + 1)]
            + [(c[0], c[1] + k, c[2] + far[2]) for k in range(1, far[1] + 1)]
            + [(c[0] + k, c[1] + far[1], c[2] + far[2]) for k in range(1, far[0] + 1)])


def _smooth_form(alg, n, sampling, seed=4):
    w = lat.make_random(lat.TorusLattice((n, n, n)), alg, seed=seed, smoothness=2.0,
                        amplitude=0.5)
    a = lat.log_derivative(w)
    return lat.AlgebraOneForm(a.lattice, alg, a.coeffs, sampling=sampling)


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7", "g2"])
@pytest.mark.parametrize("sampling", ["link", "site"])
@pytest.mark.parametrize("n,spacing", [(6, 2), (8, 4)])
def test_batched_atlas_matches_per_star_development(spec, sampling, n, spacing):
    # one sweep develops the whole torus from the anchor, the corner -s of
    # the base star, so it wraps the torus; the base star's own development
    # is the same products on their common sites (at 8^3 a star of 9 sites
    # crosses the seam in its last plane, where the two part)
    alg = al.parse_algebra(spec)
    if sampling == "link":
        a = _smooth_form(alg, n, sampling)
    else:
        _, a = analytic_exp_field(alg, lat.TorusLattice((n, n, n)), amp=0.5, seed=4)
    cover = hol.CubicalCover(a.lattice, spacing)
    anchor = cover.star_corner(cover.base)
    assert anchor == (n - spacing,) * 3
    # site data is not an exact derivative: its residual links are not constant
    atlas = hol.build_atlas(a, cover, tol=1e-6 if sampling == "link" else np.inf)
    g = np.roll(atlas.g, [-c for c in anchor], axis=(0, 1, 2))  # indexed from the anchor
    assert np.array_equal(g, hol.develop_cube(a, anchor, a.lattice.dims))
    m = min(2 * spacing + 1, n)
    star = hol.develop_cube(a, anchor, (2 * spacing + 1,) * 3)
    assert np.array_equal(g[:m, :m, :m], star[:m, :m, :m])
    # independent check: the sweep's path, multiplied link by link
    T = lat.transports(a)
    assert np.abs(g[-1, -1, -1] - hol.path_transport(T, _sweep_path(anchor, (n - 1,) * 3))).max() \
        <= 1e-12


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7", "g2"])
@pytest.mark.parametrize("n", [8, 16])
def test_flat_site_form_passes_the_default_gate(spec, n):
    # the gate sees the plaquettes of the transports the sweep multiplies,
    # so g at every cover vertex is the product of `path_transport` along
    # the sweep from the anchor
    alg = al.parse_algebra(spec)
    _, a = analytic_exp_field(alg, lat.TorusLattice((n, n, n)), amp=0.5, seed=3)
    cover = hol.CubicalCover.for_lattice(a.lattice)
    atlas = hol.build_atlas(a, cover, tol=np.inf)
    T = lat.transports(lat.link_form(a))
    anchor = cover.star_corner(cover.base)
    for v in cover.vertices():
        site = tuple(v[i] * cover.spacing for i in range(3))
        far = tuple((site[i] - anchor[i]) % n for i in range(3))
        g = hol.path_transport(T, _sweep_path(anchor, far))
        assert np.abs(atlas.g[site] - g).max() <= 1e-12


def test_site_gate_residual_is_windowed_flatness_density(su2, lat8):
    a = _smooth_form(su2, 8, "site", seed=12)
    cover = hol.CubicalCover(lat8, 2)
    with pytest.raises(FlatnessError) as info:
        hol.build_atlas(a, cover, flatness_gate=0.0)
    exc = info.value
    assert exc.vertex == cover.base and exc.corner == cover.star_corner(cover.base)
    expect = oracle_star_residuals(lat.link_form(a), cover)[0]
    assert abs(exc.residual - expect) <= 1e-12 * expect


def test_flatness_error_names_the_star_of_a_bump(su2, lat16, cover16):
    bump = (9, 5, 13)
    a = lat.zero_one_form(lat16, su2, sampling="site")
    a.coeffs[0][bump] = 5.0
    with pytest.raises(FlatnessError, match="not flat") as info:
        hol.build_atlas(a, cover16)
    exc = info.value
    assert exc.exit_code == 5 and exc.residual > exc.gate
    assert f"vertex {exc.vertex}" in str(exc) and f"corner {exc.corner}" in str(exc)
    verts = cover16.vertices()
    windows = cover16.star_indices()
    assert all(bump[i] in windows[verts.index(exc.vertex)][i] for i in range(3))
    # a_1 at the bump curves the sites whose forward differences reach it;
    # the named star is the first in vertex order with one in its interior
    curved = [bump, (9, 4, 13), (9, 5, 12)]
    failing = [v for v, w in zip(verts, windows)
               if any(all(x[i] in w[i][:-1] for i in range(3)) for x in curved)]
    assert exc.vertex == failing[0]


def test_out_of_range_plaquette_fails_the_gate(su2, lat8):
    # plaquettes past the log's range give their cubes an infinite residual:
    # any finite gate names the cube, an infinite gate lets development go on
    a = lat.AlgebraOneForm(lat8, su2, np.random.default_rng(0).normal(size=(3, 8, 8, 8, 3)) * 30,
                           sampling="link")
    cover = hol.CubicalCover(lat8, 2)
    with pytest.raises(FlatnessError, match="not flat") as info:
        hol.develop_cube(a, (2, 3, 4), (5, 5, 5), flatness_gate=1e300)
    exc = info.value
    assert exc.exit_code == 5 and exc.corner == (2, 3, 4) and exc.vertex is None
    assert exc.residual == np.inf
    with pytest.raises(FlatnessError) as info:
        hol.build_atlas(a, cover, flatness_gate=1e300)
    exc = info.value
    assert exc.residual == np.inf and exc.corner == cover.star_corner(exc.vertex)
    assert f"vertex {exc.vertex}" in str(exc) and f"corner {exc.corner}" in str(exc)
    resid = oracle_star_residuals(a, cover)
    assert exc.vertex == cover.vertices()[int(np.argmax(resid == np.inf))]
    assert hol.develop_cube(a, (2, 3, 4), (5, 5, 5), flatness_gate=np.inf).shape == \
        (5, 5, 5, 2, 2)
    atlas = hol.build_atlas(a, cover, tol=np.inf, flatness_gate=np.inf)
    assert atlas.g.shape[:3] == a.lattice.dims


@pytest.mark.parametrize("spec", ["su3", "spin7"])
def test_plaquette_log_outside_the_algebra_fails_the_gate(spec):
    # on rough su3 and spin7 forms some in-range plaquettes have principal
    # logs outside the algebra; they too give their stars infinite residuals
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((6, 6, 6))
    cover = hol.CubicalCover(L, 2)
    a = lat.AlgebraOneForm(L, alg, np.random.default_rng(5).standard_normal((3, 6, 6, 6, alg.dim))
                           * 8, sampling="link")
    resid = oracle_star_residuals(a, cover)
    with pytest.raises(FlatnessError) as info:
        hol.build_atlas(a, cover, flatness_gate=1e300)
    assert info.value.residual == np.inf
    assert info.value.vertex == cover.vertices()[int(np.argmax(resid == np.inf))]
    atlas = hol.build_atlas(a, cover, tol=np.inf, flatness_gate=np.inf)
    assert atlas.g.shape[:3] == a.lattice.dims


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7"])
def test_certified_gate_decides_as_the_plaquette_logs(spec):
    # a flat form with one link bumped by graded amplitudes, from certified
    # passes through failures to plaquettes past the log's range; each gate is
    # the default or just either side of the worst oracle residual
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((6, 6, 6))
    cover = hol.CubicalCover(L, 2)
    verts = cover.vertices()
    base = lat.log_derivative(lat.make_random(L, alg, seed=7, smoothness=1.5, amplitude=0.8))
    direction = np.random.default_rng(1).standard_normal(alg.dim)
    direction /= np.sqrt(alg.norm_sq(direction))
    default = hol.DEFAULT_FLATNESS_FACTOR * max(L.spacings)
    for amp in (0.5, 2.0, 2.5, 8.0, 30.0):
        a = replace(base, coeffs=base.coeffs.copy())
        a.coeffs[1, 2, 3, 4] += amp * direction
        resid = oracle_star_residuals(a, cover)
        worst = resid.max()
        gates = [None] + ([worst * (1 - 1e-9), worst * (1 + 1e-9)] if np.isfinite(worst) else [])
        for gate in gates:
            bound = default if gate is None else gate
            if not (resid > bound).any():
                hol.build_atlas(a, cover, tol=np.inf, flatness_gate=gate)
                continue
            with pytest.raises(FlatnessError) as info:
                hol.build_atlas(a, cover, tol=np.inf, flatness_gate=gate)
            s = int(np.argmax(resid > bound))
            exc = info.value
            assert exc.vertex == verts[s] and exc.corner == cover.star_corner(verts[s])
            assert exc.residual == pytest.approx(resid[s], rel=1e-9) and exc.gate == bound


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7"])
def test_flat_link_form_is_certified_without_a_log(spec, monkeypatch):
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((8, 8, 8))
    cover = hol.CubicalCover(L, 2)
    a = lat.log_derivative(lat.make_random(L, alg, seed=3, smoothness=2.5, amplitude=0.5))
    logs = []
    group_log = hol.group_log

    def counted(alg, g, *args, **kwargs):
        logs.append(g.shape[:-2])
        return group_log(alg, g, *args, **kwargs)

    monkeypatch.setattr(hol, "group_log", counted)
    atlas = hol.build_atlas(a, cover)
    assert logs == []
    # with every chord past the cutoff the gate takes the plaquette logs, and
    # the development, residual links and holonomy are the same bits
    hol._last_atlas = None
    monkeypatch.setattr(hol, "CHORD_CUTOFF", 0.0)
    exact = hol.build_atlas(a, cover)
    assert len(logs) == 3
    assert np.array_equal(atlas.g, exact.g)
    assert np.array_equal(atlas.residuals, exact.residuals)
    assert np.array_equal(atlas.holonomy().elements, exact.holonomy().elements)


# ----------------------------------------------------------------------
# atlas
# ----------------------------------------------------------------------

def test_atlas_zero_form(su2, lat16, cover16):
    atlas = hol.build_atlas(lat.zero_one_form(lat16, su2), cover16)
    assert np.abs(atlas.labels - np.eye(2)).max() < 1e-13
    assert np.abs(atlas.residuals - np.eye(2)).max() < 1e-13


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7"])
@pytest.mark.parametrize("sampling", ["link", "site"])
def test_zero_form_atlas_skips_development(spec, sampling, monkeypatch):
    alg = al.parse_algebra(spec)
    z = lat.zero_one_form(lat.TorusLattice((8, 8, 8)), alg, sampling=sampling)
    cover = hol.CubicalCover(z.lattice, 2)
    anchor = cover.star_corner(cover.base)
    _, developed = hol._develop(z, anchor, z.lattice.dims,
                                cover.star_indices().transpose(1, 0, 2), None)

    def refuse(*args, **kwargs):
        raise AssertionError("the zero form was developed")

    monkeypatch.setattr(hol, "_develop", refuse)
    atlas = hol.build_atlas(z, cover)
    assert not atlas.g.flags.writeable and not atlas.residuals.flags.writeable
    assert np.abs(atlas.g - np.roll(developed, anchor, axis=(0, 1, 2))).max() <= 1e-14
    assert atlas.residuals.shape == (3,) + z.lattice.dims + (alg.rep_dim,) * 2
    assert np.array_equal(atlas.residuals, np.broadcast_to(np.eye(alg.rep_dim),
                                                           atlas.residuals.shape))
    assert atlas.labels.shape == (3,) + cover.shape + (alg.rep_dim,) * 2
    assert np.array_equal(atlas.labels, np.broadcast_to(np.eye(alg.rep_dim), atlas.labels.shape))


def test_atlas_gates_refuse_a_nan_tol(su2, lat8):
    # NaN compares false, so each gate reads `not x <= tol` and fails;
    # an infinite tol stays legal and passes every edge
    c = lat.zero_one_form(lat8, su2, sampling="link")
    c.coeffs[0, ..., 2] = 0.7
    with pytest.raises(AtlasError):
        hol.build_atlas(c, tol=np.nan)
    assert hol.build_atlas(c, tol=np.inf).holonomy().elements.shape == (3, 2, 2)
    rho = np.stack([np.eye(2, dtype=complex)] * 3)
    with pytest.raises(HolonomyMismatchError):
        hol._align_constant(su2, rho, rho, tol=np.nan)


def test_atlas_log_derivative_scores(su2, lat16, cover16):
    # the constancy gate's deviations: a log derivative is flat with trivial
    # holonomy, so every residual link is 1 to rounding
    w = lat.make_random(lat16, su2, seed=5, smoothness=2.5, amplitude=0.5)
    atlas = hol.build_atlas(lat.log_derivative(w), cover16)
    assert np.abs(atlas.residuals - np.eye(2)).max() < 1e-10


def test_constancy_failure_names_its_link():
    # one link off the tree of a log derivative, turned by exp(1e-4 X): the
    # curvature stays far below the gate, and the constancy gate names the link
    su3 = al.parse_algebra("su3")
    L = lat.TorusLattice((8, 8, 8))
    a = lat.log_derivative(lat.make_random(L, su3, seed=3, smoothness=2.5, amplitude=0.5))
    cover = hol.CubicalCover.for_lattice(L)
    assert cover.star_corner(cover.base) == (6, 6, 6)  # the axis-3 tree is the line (6, 6, z)
    link = (2, 3, 5, 7)
    X = np.random.default_rng(1).standard_normal(su3.dim)
    turned = lat.transports(a)[link] @ al.group_exp(su3, 1e-4 * X / np.sqrt(su3.norm_sq(X)))
    a.coeffs[link] = al.group_log(su3, turned)[0] / L.spacings[2]
    assert hol.build_atlas(a, cover, tol=np.inf).holonomy().elements.shape == (3, 3, 3)
    with pytest.raises(AtlasError) as info:
        hol.build_atlas(a, cover)
    exc = info.value
    assert exc.exit_code == 6 and exc.site == (3, 5, 7) and exc.axis == 3
    assert 1e-6 < exc.deviation < 2e-4
    assert "site (3, 5, 7)" in str(exc) and "axis 3" in str(exc)
    assert f"{exc.deviation:.3e}" in str(exc)


def test_atlas_relabeling_covariance(su2, lat16, cover16):
    # u_p -> h_p u_p turns g_[p,q] into h_p g h_q^-1 and conjugates the
    # circuit products by h at the base vertex
    a = abelian_form(lat16, su2, 0.7)
    atlas = hol.build_atlas(a, cover16)
    rng = np.random.default_rng(8)
    h = {v: al.group_exp(su2, 0.5 * rng.standard_normal(3)) for v in cover16.vertices()}
    rho = atlas.holonomy().elements
    relabeled = {}
    for v, ax, q in coarse_edges(cover16):
        relabeled[(v, ax)] = h[v] @ atlas.labels[(ax,) + v] @ h[q].conj().T
    prods = []
    for ax in range(3):
        g = np.eye(2, dtype=complex)
        for i in range(cover16.shape[ax]):
            g = g @ relabeled[(tuple(i if d == ax else 0 for d in range(3)), ax)]
        prods.append(g)
    hb = h[cover16.base]
    for ax in range(3):
        assert np.abs(prods[ax] - hb @ rho[ax] @ hb.conj().T).max() < 1e-10
        assert abs(np.trace(prods[ax]) - np.trace(rho[ax])) < 1e-8


def _tree_transport(atlas, T, path):
    """Transport along a lattice path in the tree gauge g of the atlas:
    g(start) P g(end)^-1, with P multiplied link by link."""
    g = atlas.g
    return g[path[0]] @ hol.path_transport(T, path) @ g[path[-1]].conj().T


def _line(start, ax, steps, dims):
    return [tuple((start[i] + (i == ax) * k) % dims[i] for i in range(3)) for k in range(steps + 1)]


def test_simple_equivalence_labels_compose(su2, lat16, cover16):
    # g_[p,q] g_[q,r] = g_[p,r]: the labels are transports of the tree gauge,
    # so the diagonal pair (p, r) is reached by either route around the square
    w = lat.make_random(lat16, su2, seed=6, smoothness=2.5, amplitude=0.5)
    a = lat.log_derivative(w)
    atlas = hol.build_atlas(a, cover16)
    T = lat.transports(a)
    p, q, r = (0, 0, 0), (1, 0, 0), (1, 1, 0)
    cp = cover16.star_corner(p)
    s = cover16.spacing
    up = _line(cp, 1, s, lat16.dims)
    g_pr = _tree_transport(atlas, T, up + _line(up[-1], 0, s, lat16.dims)[1:])
    g_pq, g_qr = atlas.labels[(0,) + p], atlas.labels[(1,) + q]
    assert np.abs(g_pq @ g_qr - g_pr).max() < 1e-10


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7", "so3"])
@pytest.mark.parametrize("spacing", [2, 4])
def test_batched_labels_match_the_per_edge_oracle(spec, spacing):
    # a gauge-transformed constant commuting form has holonomy far from 1;
    # each label, read from the holonomy, is the tree-gauge transport across
    # its edge, multiplied link by link: exactly 1 off the seam, rho on it.
    # At spacing 4 the coarse grid is 2 wide and both neighbors of a vertex
    # along an axis coincide
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((8, 8, 8))
    X = np.random.default_rng(2).standard_normal(alg.dim)
    b = lat.zero_one_form(L, alg, sampling="link")
    for i in range(3):
        b.coeffs[i] = (0.4 + 0.3 * i) / np.sqrt(alg.norm_sq(X)) * X
    a = lat.gauge_transform(b, lat.make_random(L, alg, seed=5, smoothness=2.5, amplitude=0.5))
    cover = hol.CubicalCover(L, spacing)
    atlas = hol.build_atlas(a, cover)
    rho = atlas.holonomy().elements
    assert np.abs(rho - np.eye(alg.rep_dim)).max() > 0.1
    T = lat.transports(a)
    for v, ax, _ in coarse_edges(cover):
        label = atlas.labels[(ax,) + v]
        seam = v[ax] == cover.shape[ax] - 1
        assert np.array_equal(label, rho[ax] if seam else np.eye(alg.rep_dim))
        edge = _line(cover.star_corner(v), ax, spacing, L.dims)
        assert np.abs(label - _tree_transport(atlas, T, edge)).max() <= 1e-12


def test_batched_projection_refuses_the_wrong_orthogonal_component(so3):
    rng = np.random.default_rng(2)
    batch = al.group_exp(so3, rng.standard_normal((2, 3, 3)))
    g = hol._project_group(so3, batch + 1e-3 * rng.standard_normal(batch.shape))
    assert g.shape == batch.shape and np.abs(g - batch).max() < 1e-2
    batch[1, 2] = batch[1, 2] @ np.diag([1.0, 1.0, -1.0])  # one reflection in the batch
    with pytest.raises(AtlasError, match="wrong orthogonal component"):
        hol._project_group(so3, batch)


@pytest.mark.parametrize("dims,spacing", [((6, 6, 6), 2), ((4, 4, 4), 2), ((12, 12, 12), 4)])
def test_a_cover_of_another_lattice_is_refused(su2, lat8, dims, spacing):
    # smaller covers read the 8^3 form at the wrong sites and answered a
    # wrong holonomy; a larger one indexed past its transports
    a = lat.zero_one_form(lat8, su2, sampling="link")
    a.coeffs[0, ..., 2] = 0.7
    zero = lat.zero_one_form(lat8, su2, sampling="link")
    cover = hol.CubicalCover(lat.TorusLattice(dims), spacing)
    for query in (lambda: hol.holonomy_rep(a, cover),
                  lambda: inv.invariant_of_connection(a, zero, cover)):
        with pytest.raises(ValueError) as info:
            query()
        assert f"cover of dims {dims}" in str(info.value)
        assert "form on dims (8, 8, 8)" in str(info.value)


# ----------------------------------------------------------------------
# atlas memo
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_sector_query_develops_its_form_once(spec, develop_calls):
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((8, 8, 8))
    a = lat.log_derivative(lat.make_random(L, alg, seed=3, smoothness=2.5, amplitude=0.5))
    cover = hol.CubicalCover(L, 2)
    rep = hol.holonomy_rep(a, cover)
    sector = inv.invariant_of_connection(a, lat.zero_one_form(L, alg, sampling="link"), cover)
    assert develop_calls == [a]
    assert np.abs(rep.elements - np.eye(alg.rep_dim)).max() < 1e-12
    assert sector.alpha == (0, 0, 0) and sector.charges == (0,)


def test_in_place_edit_develops_again(su2, lat8, develop_calls):
    cover = hol.CubicalCover(lat8, 2)
    a = abelian_form(lat8, su2, 0.7)
    first = hol.build_atlas(a, cover)
    assert hol.build_atlas(a, cover) is first
    a.coeffs[0, ..., 2] = 0.9
    edited = hol.build_atlas(a, cover)
    assert len(develop_calls) == 2
    assert np.abs(edited.holonomy().elements - first.holonomy().elements).max() > 0.1
    hol._last_atlas = None
    fresh = hol.build_atlas(a, cover)
    assert len(develop_calls) == 3
    assert np.array_equal(edited.g, fresh.g)
    assert np.array_equal(edited.residuals, fresh.residuals)


@pytest.mark.parametrize("change", ["tol", "flatness_gate", "spacing", "sampling",
                                    "algebra", "lattice"])
def test_atlas_memo_misses_on_any_other_input(change, su2, lat8, develop_calls):
    a = abelian_form(lat8, su2, 0.7)
    cover = hol.CubicalCover(lat8, 2)
    first = hol.build_atlas(a, cover)
    assert hol.build_atlas(a, cover) is first and len(develop_calls) == 1
    kwargs = {}
    if change == "tol":
        kwargs["tol"] = 1e-5
    elif change == "flatness_gate":
        kwargs["flatness_gate"] = 1.0
    elif change == "spacing":
        cover = hol.CubicalCover(lat8, 4)
    elif change == "sampling":
        a = replace(a, sampling="link")
    elif change == "algebra":
        a = replace(a, algebra=al.parse_algebra("sp1"))  # same shapes, another group
    else:
        a = replace(a, lattice=lat.TorusLattice(lat8.dims, (2.0, 2.0, 2.0)))
        cover = hol.CubicalCover(a.lattice, 2)
    assert hol.build_atlas(a, cover, **kwargs) is not first
    assert len(develop_calls) == 2


def test_atlas_gate_failures_are_never_memoized(su2, lat8, develop_calls):
    # site data is not an exact derivative: its overlaps are not constant
    a = _smooth_form(su2, 8, "site")
    cover = hol.CubicalCover(lat8, 2)
    built = hol.build_atlas(a, cover, tol=np.inf)
    assert hol.build_atlas(a, cover, tol=np.inf) is built
    for kwargs, error in [({"tol": np.inf, "flatness_gate": 0.0}, FlatnessError),
                          ({}, AtlasError)]:
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                hol.build_atlas(a, cover, **kwargs)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert len(develop_calls) == 5
    # the failures emptied the slot and stored nothing
    assert hol.build_atlas(a, cover, tol=np.inf) is not built
    assert len(develop_calls) == 6


def test_memoized_atlas_is_read_only(su2, lat8):
    a = abelian_form(lat8, su2, 0.7)
    cover = hol.CubicalCover(lat8, 2)
    atlas = hol.build_atlas(a, cover)
    assert hol.build_atlas(a, cover) is atlas
    assert not atlas.g.flags.writeable and not atlas.residuals.flags.writeable
    with pytest.raises(ValueError):
        atlas.g[0, 0, 0] = 0.0


# ----------------------------------------------------------------------
# holonomy representation
# ----------------------------------------------------------------------

def test_holonomy_zero(su2, lat16, cover16):
    rep = hol.holonomy_rep(lat.zero_one_form(lat16, su2), cover16)
    assert np.abs(rep.elements - np.eye(2)).max() < 1e-12


def test_holonomy_abelian_closed_form(su2, lat16, cover16):
    theta = 0.7
    rep = hol.holonomy_rep(abelian_form(lat16, su2, theta), cover16)
    expect = al.group_exp(su2, [0, 0, theta])
    assert np.abs(rep.elements[0] - expect).max() < 1e-8
    assert np.abs(rep.elements[1] - np.eye(2)).max() < 1e-8
    assert np.abs(rep.elements[2] - np.eye(2)).max() < 1e-8


def test_holonomy_of_log_derivative_trivial(su2, lat16, cover16):
    w = lat.make_random(lat16, su2, seed=7, smoothness=2.5, amplitude=0.5)
    rep = hol.holonomy_rep(lat.log_derivative(w), cover16)
    assert np.abs(rep.elements - np.eye(2)).max() < 1e-8


def test_holonomy_subdivision_invariance(su2, lat16):
    a = abelian_form(lat16, su2, 1.1)
    t4 = hol.holonomy_rep(a, hol.CubicalCover(lat16, 4)).traces
    t2 = hol.holonomy_rep(a, hol.CubicalCover(lat16, 2)).traces
    assert np.abs(t4 - t2).max() < 1e-8


def test_holonomy_gauge_invariance(su2, lat16, cover16):
    a = abelian_form(lat16, su2, 0.7)
    base = hol.holonomy_rep(a, cover16).traces
    w = lat.make_random(lat16, su2, seed=11, smoothness=2.5, amplitude=1e-3)
    ag = lat.gauge_transform(a, w)
    t = hol.holonomy_rep(ag, cover16, tol=1e-3).traces
    assert np.abs(t - base).max() < 1e-6


@pytest.mark.parametrize("spec,n", [("su2", 8), ("su2", 16), ("su3", 16)])
@pytest.mark.parametrize("amplitude", [1e-3, 0.1, 0.5])
def test_site_form_holonomy_is_gauge_invariant(spec, n, amplitude):
    # a site form acts through its link form, so its gauge transform
    # conjugates every holonomy by w(base) exactly; the su3 form is flat to
    # the order of the link stencil, so its residual links reach about 1e-4
    a = flat_site_form(spec, n)
    base = hol.holonomy_rep(a, tol=1e-3).traces
    w = lat.make_random(a.lattice, a.algebra, seed=3, amplitude=amplitude)
    got = hol.holonomy_rep(lat.gauge_transform(a, w), tol=1e-3).traces
    assert np.abs(got - base).max() <= 1e-12


def test_holonomy_weak_limit_surrogate(su2, lat16, cover16):
    # theta_n -> theta with small gauge wiggles: traces converge
    theta = 0.9
    target = hol.holonomy_rep(abelian_form(lat16, su2, theta), cover16).traces
    gaps = []
    for n in (1, 4, 16):
        an = abelian_form(lat16, su2, theta + 0.3 / n)
        w = lat.make_random(lat16, su2, seed=n, smoothness=2.5, amplitude=1e-4 / n)
        gaps.append(np.abs(hol.holonomy_rep(lat.gauge_transform(an, w), cover16,
                                            tol=1e-2).traces - target).max())
    assert gaps[2] < gaps[0] / 10


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7", "g2", "so3"])
@settings(max_examples=4, deadline=None)
@given(dims=st.tuples(*[st.sampled_from((8, 12, 16))] * 3), seed=st.integers(0, 2 ** 32 - 1),
       turns=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.05, 2.5),
                                   st.floats(-2.5, -0.05))] * 3),
       amplitude=st.floats(0.0, 0.6))
def test_tree_gauge_reads_holonomy_and_gauge_of_a_transformed_constant_form(spec, dims, seed,
                                                                          turns, amplitude):
    # b_i = t_i X / L_i is flat with holonomy exp(t_i X); X has spectral radius
    # 1, so |t_i| <= 2.5 keeps the eigenvalue gaps of exp(t_i X) off 2 pi and
    # every constant that aligns the holonomies commutes with X
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice(dims)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(alg.dim)
    X /= np.abs(np.linalg.eigvals(alg.to_matrix(X))).max()
    b = lat.zero_one_form(L, alg, sampling="link")
    for i in range(3):
        b.coeffs[i] = turns[i] / L.lengths[i] * X
    w = lat.make_random(L, alg, seed=seed, smoothness=2.5, amplitude=amplitude)
    a = lat.gauge_transform(b, w)
    anchor = hol.CubicalCover.for_lattice(L).star_corner((0, 0, 0))
    T = lat.transports(a)
    rep = hol.holonomy_rep(a)
    for i in range(3):
        loop = [tuple(anchor[k] + (k == i) * step for k in range(3)) for step in range(dims[i] + 1)]
        assert np.abs(rep.elements[i] - hol.path_transport(T, loop)).max() <= 1e-12
    u = hol.gauge_from_holonomy(b, a)
    assert sup_deviation_mod_constant(alg, u.values, w.values) <= 1e-10


# ----------------------------------------------------------------------
# gauge reconstruction
# ----------------------------------------------------------------------

def test_gauge_from_holonomy_trivial(su2, lat16, cover16):
    z = lat.zero_one_form(lat16, su2)
    u = hol.gauge_from_holonomy(z, z, cover16)
    assert np.abs(u.values - u.values[0, 0, 0]).max() < 1e-12


@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_gauge_from_holonomy_recovers_gauge(spec, lat16, cover16):
    alg = al.parse_algebra(spec)
    z = lat.zero_one_form(lat16, alg)
    w = lat.make_random(lat16, alg, seed=9, smoothness=2.5, amplitude=0.6)
    a2 = lat.gauge_transform(z, w)
    u = hol.gauge_from_holonomy(z, a2, cover16)
    assert sup_deviation_mod_constant(alg, u.values, w.values) <= 1e-6
    # direction convention: a2 = gauge_transform(a1, u)
    back = lat.gauge_transform(z, u)
    assert np.abs(back.coeffs - a2.coeffs).max() < 1e-9


def test_gauge_from_holonomy_nonzero_reference(su2, lat16, cover16):
    # same holonomy through a nontrivial abelian reference
    a1 = abelian_form(lat16, su2, 0.5)
    w = lat.make_random(lat16, su2, seed=10, smoothness=2.5, amplitude=1e-3)
    a2 = lat.gauge_transform(a1, w)
    u = hol.gauge_from_holonomy(a1, a2, cover16, tol=1e-2)
    back = lat.gauge_transform(a1, u)
    assert np.abs(back.coeffs - a2.coeffs).max() < 1e-2


def test_gauge_from_holonomy_between_curved_charts(lat16, cover16):
    # both potentials are nonzero and non-abelian, so the first development
    # is neither the identity nor diagonal and u = g1^-1 C g2 must invert it.
    # a1 = D w1 and a2 = D(w1 w2); any gauge u has w1 u = K w1 w2, K constant
    su3 = al.parse_algebra("su3")
    w1 = lat.make_random(lat16, su3, seed=21, smoothness=2.5, amplitude=0.6)
    w12 = lat.multiply(w1, lat.make_random(lat16, su3, seed=22, smoothness=2.5, amplitude=0.6))
    u = hol.gauge_from_holonomy(lat.log_derivative(w1), lat.log_derivative(w12), cover16)
    assert sup_deviation_mod_constant(su3, lat.multiply(w1, u).values, w12.values) <= 1e-6


@pytest.mark.parametrize("spec", ["su2", "su3", "so3"])
def test_gauge_from_holonomy_is_the_identity_at_the_anchor(spec, lat8):
    # with equal holonomy C = 1, so u is the one gauge with u(anchor) = 1:
    # w1 u = K w1 w2 with K = w1(p) w2(p)^-1 w1(p)^-1 at the anchor p.  The
    # conjugacy errors of the candidates for C differ by rounding only, and
    # the minimum once picked a constant factor up to 1.59 from the identity
    alg = al.parse_algebra(spec)
    w1, w2 = (lat.make_random(lat8, alg, seed=s, amplitude=0.5).values for s in (31, 32))
    a1, a2 = (lat.log_derivative(lat.GroupField(lat8, alg, w)) for w in (w1, w1 @ w2))
    cover = hol.CubicalCover.for_lattice(lat8)
    p = cover.star_corner(cover.base)
    u = hol.gauge_from_holonomy(a1, a2, cover)
    K = w1[p] @ w2[p].conj().T @ w1[p].conj().T
    assert np.abs(u.values - w1.conj().swapaxes(-1, -2) @ K @ w1 @ w2).max() < 1e-12
    assert np.abs(u.values[p] - np.eye(alg.rep_dim)).max() < 1e-12


@pytest.mark.parametrize("spec", ["su2", "su3", "sp2", "so3", "g2", "spin7"])
def test_gauge_from_holonomy_is_group_valued_for_equal_holonomy(spec, lat8):
    # with equal holonomy C = 1 and u = g1^-1 g2 is a product of developments;
    # u e_a u^-1 staying in the span is membership in G, not only in U(N)
    alg = al.parse_algebra(spec)
    w1, w2 = (lat.make_random(lat8, alg, seed=s, amplitude=0.5).values for s in (41, 42))
    a1, a2 = (lat.log_derivative(lat.GroupField(lat8, alg, w)) for w in (w1, w1 @ w2))
    u = hol.gauge_from_holonomy(a1, a2).values
    assert alg.check_group_elements(u) <= 1e-12
    conj = u[..., None, :, :] @ alg.basis @ u.conj().swapaxes(-1, -2)[..., None, :, :]
    assert alg.to_coords(conj)[1] <= 1e-12


def test_gauge_from_holonomy_mismatch(su2, lat16, cover16):
    a1 = abelian_form(lat16, su2, 0.3)
    z = lat.zero_one_form(lat16, su2)
    with pytest.raises(HolonomyMismatchError, match="holonomies differ"):
        hol.gauge_from_holonomy(a1, z, cover16)


def test_sector_query_memory_peak():
    # the development, its residual links and u each hold one matrix per
    # torus site or link, so no array grows with the overlap of the stars
    su3 = al.parse_algebra("su3")
    L = lat.TorusLattice((12, 12, 12))
    a = lat.log_derivative(lat.make_hedgehog(L, su3, 0.45))
    zero = lat.zero_one_form(L, su3, sampling="link")
    cover = hol.CubicalCover(L, 4)
    tracemalloc.start()
    try:
        sector = inv.invariant_of_connection(a, zero, cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sector.charges == (1,)
    assert peak <= 7.0e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("other", [(12, "su2"), (8, "su3")])
def test_gauge_from_holonomy_rejects_forms_of_other_lattices_or_groups(su2, lat8, other):
    n, spec = other
    a = lat.log_derivative(lat.make_hedgehog(lat8, su2, 0.3))
    b = lat.zero_one_form(lat.TorusLattice((n, n, n)), al.parse_algebra(spec))
    for first, second in ((a, b), (b, a)):
        with pytest.raises(ValueError) as info:
            hol.gauge_from_holonomy(first, second)
        assert "su2 on dims (8, 8, 8)" in str(info.value)
        assert f"{spec} on dims ({n}, {n}, {n})" in str(info.value)


# ----------------------------------------------------------------------
# a non-toral commuting triple
# ----------------------------------------------------------------------

def cut_form(lattice, alg, logs, slab=1):
    """Link form a_i = X_i / h_i on the links x_i = slab of axis i, zero
    elsewhere.  It is flat when the exp X_i commute, with generator
    holonomies (exp X_1, exp X_2, exp X_3)."""
    a = lat.zero_one_form(lattice, alg, sampling="link")
    for i, X in enumerate(logs):
        idx = [slice(None)] * 3
        idx[i] = slab
        a.coeffs[(i, *idx)] = X / lattice.spacings[i]
    return a


def test_spin7_non_toral_triple_holonomy(lat8):
    # g1 = y0y1y2y3, g2 = y0y1y4y5, g3 = y0y2y4y6 in the spinor rep commute,
    # with no common torus; X_i = (pi/2)(e_ab + e_cd) has exp X_i = g_i
    spin7 = al.parse_algebra("spin7")
    gam = al._gamma_matrices(7)
    quads = [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6)]
    g = np.stack([gam[p] @ gam[q] @ gam[r] @ gam[s] for p, q, r, s in quads])
    # the basis element e_ab is -y_a y_b
    X = [spin7.to_coords(-(np.pi / 2) * (gam[p] @ gam[q] + gam[r] @ gam[s]))[0]
         for p, q, r, s in quads]
    assert np.abs(al.group_exp(spin7, np.stack(X)) - g).max() < 1e-12
    a = cut_form(lat8, spin7, X)
    rep = hol.holonomy_rep(a)
    assert np.abs(rep.elements - g).max() <= 1e-10
    with pytest.raises(HolonomyMismatchError, match="holonomies differ"):
        hol.gauge_from_holonomy(lat.zero_one_form(lat8, spin7), a)
