import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import six_term_charge, u1_half_turn_field
from skyrme import algebra as al
from skyrme import holonomy as hol
from skyrme import invariants as inv
from skyrme import lattice as lat
from skyrme.errors import HolonomyMismatchError, LogRangeError, SectorError


def test_charge_constant_zero(su2, lat8):
    q = inv.topological_charge(lat.constant_field(lat8, su2))
    assert np.abs(q).max() == 0.0


def test_charge_winding_zero(su2, lat12):
    q = inv.topological_charge(lat.make_winding(lat12, su2, (2, 1, 0)))
    assert abs(q[0]) < 1e-12  # abelian image: bracket term vanishes identically


def test_hedgehog_charge_near_one(su2, lat16):
    q = inv.topological_charge(lat.make_hedgehog(lat16, su2, 0.45))[0]
    assert abs(q - 1.0) < 0.1


def test_hedgehog_charge_sign_and_multiplicity(su2):
    L = lat.TorusLattice((16, 16, 16))
    qm = inv.topological_charge(lat.make_hedgehog(L, su2, 0.45, charge=-1))[0]
    assert abs(qm + 1.0) < 0.1


@pytest.mark.parametrize("spec", ["spin5", "g2"])
def test_hedgehog_charge_other_groups(spec):
    # the normalizing constant makes the primitive lump report 1 in any group
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((12, 12, 12))
    q = inv.topological_charge(lat.make_hedgehog(L, alg, 0.45))[0]
    assert abs(q - 1.0) < 0.2


def test_charge_additivity(su2):
    L = lat.TorusLattice((16, 16, 16))
    u = lat.make_hedgehog(L, su2, 0.45)
    w = lat.make_winding(L, su2, (1, 0, 0))
    cu = inv.topological_charge(u)[0]
    cw = inv.topological_charge(w)[0]
    cuw = inv.topological_charge(lat.multiply(u, w))[0]
    assert abs(cuw - cu - cw) < 0.04


@lru_cache(maxsize=None)
def _algebra(spec):
    return al.parse_algebra(spec)


CHART_SPECS = list(al.SUPPORTED_SPECS) + ["u1", "so3", "su2+su3", "spin7+u1"]


@pytest.mark.parametrize("spec", CHART_SPECS)
def test_killing_3form_is_totally_antisymmetric(spec):
    # the identity behind topological_charge's single contraction: every
    # permutation term of the six-term sum is sgn * T(Lb_1, Lb_2, Lb_3)
    for T in _algebra(spec).killing_3form:
        T = T.reshape(len(T), len(T), len(T))
        assert np.abs(T + T.transpose(1, 0, 2)).max() <= 1e-12
        assert np.abs(T + T.transpose(0, 2, 1)).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(["su2", "su3", "sp2", "spin7", "g2", "so3", "su2+su3"]),
       seed=st.integers(0, 2 ** 32 - 2),
       smoothness=st.floats(1.0, 2.5),
       amplitude=st.floats(0.1, 0.8))
def test_charge_of_random_field_matches_six_term_sum(spec, seed, smoothness, amplitude):
    alg = _algebra(spec)
    L = lat.TorusLattice((6, 6, 6))
    u = lat.make_random(L, alg, seed=seed, smoothness=smoothness, amplitude=amplitude)
    v = lat.make_random(L, alg, seed=seed + 1, smoothness=2.5, amplitude=0.3)
    for ref in (None, v):
        assert np.abs(inv.topological_charge(u, ref) - six_term_charge(u, ref)).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(spec=st.sampled_from(["su2", "su3", "sp2", "spin7", "g2"]),
       center=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       charge=st.sampled_from([1, -1]))
def test_charge_of_hedgehog_matches_six_term_sum(spec, center, charge):
    u = lat.make_hedgehog(lat.TorusLattice((6, 6, 6)), _algebra(spec), 0.45, charge, center)
    assert np.abs(inv.topological_charge(u) - six_term_charge(u)).max() <= 1e-12


@pytest.mark.parametrize("spec", ["su2", "su3", "su2+su3", "so3"])
def test_charge_is_the_cell_volume_times_the_theta_density_sum(spec):
    alg = _algebra(spec)
    L = lat.TorusLattice((6, 6, 6))
    u = lat.make_random(L, alg, seed=11, amplitude=0.8)
    Ld = lat.log_derivative(u).coeffs
    Lb = [0.5 * (Ld[i] + np.roll(Ld[i], 1, axis=i)) for i in range(3)]  # site-symmetrized
    expect = [L.cell_volume * al.theta_density(alg, k, Lb[0], Lb[1], Lb[2]).sum()
              for k in range(len(alg.factors))]
    np.testing.assert_allclose(inv.topological_charge(u), expect, rtol=1e-14, atol=1e-16)


def test_u1_winding_invariant(u1, lat12):
    f = lat.make_winding(lat12, u1, (1, 2, 0))
    assert inv.one_dim_invariant(f) == (1, 2, 0)
    s = inv.sector_of(f)
    assert s.alpha == (1, 2, 0) and s.alpha_orders == (0,) and s.charges == ()


def test_u1_negative_winding(u1, lat12):
    f = lat.make_winding(lat12, u1, (-2, 0, 3))
    assert inv.one_dim_invariant(f) == (-2, 0, 3)


def test_u1_half_turn_link_is_refused():
    with pytest.raises(LogRangeError, match="half-turn") as info:
        inv.one_dim_invariant(u1_half_turn_field())
    exc = info.value
    assert exc.site == (0, 0, 0) and exc.axis == 1 and exc.value == 2.0


def test_nested_sum_keeps_its_lift_channel(su2, u1, lat8):
    nested = al.direct_sum(al.direct_sum(su2, u1), su2)
    flat = al.parse_algebra("su2+u1+su2")
    assert inv.pi1_orders(nested) == inv.pi1_orders(flat) == (0,)
    assert [b.name for b in nested.blocks] == [b.name for b in flat.blocks] == ["su2", "u1", "su2"]
    # wind the U(1) block, coordinate 3 after su2's three
    axis = np.eye(nested.dim)[3]
    alphas = [inv.one_dim_invariant(lat.make_winding(lat8, alg, (1, -2, 0), axis=axis))
              for alg in (nested, flat)]
    assert alphas[0] == alphas[1] == (1, -2, 0)


def test_so3_invariant(so3, lat12):
    r = lat.make_winding(lat12, so3, (1, 0, 0))
    assert inv.one_dim_invariant(r) == (1, 0, 0)
    s = inv.sector_of(r)
    assert s.alpha == (1, 0, 0) and s.alpha_orders == (2,)
    assert s.charges == (0,)  # u v_alpha^-1 is constant


def test_so3_winding_mod_two(so3, lat12):
    r2 = lat.make_winding(lat12, so3, (2, 0, 0))
    assert inv.one_dim_invariant(r2) == (0, 0, 0)


def test_constant_invariants(su2, so3, u1, lat8):
    for alg in (su2, so3, u1):
        assert inv.one_dim_invariant(lat.constant_field(lat8, alg)) == (0, 0, 0)


def test_reference_map_round_trip(so3, u1, lat12):
    assert np.abs(inv.reference_map(lat12, u1, (0, 0, 0)).values - 1.0).max() < 1e-14
    for alpha in [(1, 0, 0), (0, 1, 1), (1, 1, 0)]:
        v = inv.reference_map(lat12, so3, alpha)
        assert inv.one_dim_invariant(v) == alpha
    for alpha in [(1, 2, 0), (-1, 0, 3)]:
        v = inv.reference_map(lat12, u1, alpha)
        assert inv.one_dim_invariant(v) == alpha


def test_reference_map_reduces_mod_order(so3, lat12):
    v = inv.reference_map(lat12, so3, (3, 0, 0))
    assert inv.one_dim_invariant(v) == (1, 0, 0)


def test_reference_map_rejects_malformed_alpha(su2, u1, lat8):
    with pytest.raises(SectorError, match="one entry per torus axis"):
        inv.reference_map(lat8, u1, (1, 0))
    with pytest.raises(SectorError, match="simply connected"):
        inv.reference_map(lat8, su2, (1, 0, 0))
    with pytest.raises(SectorError, match="does not match lift channels"):
        inv.reference_map(lat8, u1, ((1, 2), 0, 0))


def _public_alpha(rows):
    """An alpha from per-axis rows of channel values: ints for one channel,
    tuples for several."""
    return tuple(row[0] if len(row) == 1 else tuple(row) for row in rows)


# every lift-channel layout: one U(1) or SO(3) block, alone or beside
# simply connected blocks, and two or three channels of either order
LIFT_SPECS = ["u1", "so3", "su2+u1", "u1+so3", "u1+u1", "so3+su2+u1"]
LAT6 = lat.TorusLattice((6, 6, 6))


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(LIFT_SPECS), data=st.data())
def test_reference_map_carries_its_alpha(spec, data):
    alg = _algebra(spec)
    orders = inv.pi1_orders(alg)
    # |winding| <= 2 keeps a U(1) link below the half turn at 6 sites
    rows = [[data.draw(st.integers(-2, 2) if r == 0 else st.integers(-3, 3)) for r in orders]
            for _ in range(3)]
    reduced = _public_alpha([[v % r if r else v for v, r in zip(row, orders)] for row in rows])
    v = inv.reference_map(LAT6, alg, _public_alpha(rows))
    assert inv.one_dim_invariant(v) == reduced
    s = inv.sector_of(v)
    assert s.alpha == reduced and s.alpha_orders == orders
    assert s.charges == (0,) * len(alg.factors)


# the holonomy coordinates are invariants of every field of a sector, not
# only of fields whose links commute along the generator loops
INVARIANCE_SPECS = ["so3", "u1", "su2+u1", "u1+so3", "su2+u1+su2"]
LAT8 = lat.TorusLattice((8, 8, 8))


@pytest.mark.parametrize("spec", INVARIANCE_SPECS)
@settings(max_examples=4, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 31), amplitude=st.floats(0.05, 0.4),
       shift=st.tuples(*[st.integers(0, 7)] * 3))
def test_sector_of_noisy_reference_is_invariant(spec, data, seed, amplitude, shift):
    # reference_map(alpha) times small smooth noise is homotopic to the
    # reference: sector_of reads alpha with zero charges, and so it does
    # after a lattice translation, left or right multiplication by a
    # constant, and conjugation by a constant
    alg = _algebra(spec)
    orders = inv.pi1_orders(alg)
    alpha = _public_alpha([[data.draw(st.integers(0, 1) if r == 2 else st.integers(-1, 1))
                            for r in orders] for _ in range(3)])
    u = lat.multiply(inv.reference_map(LAT8, alg, alpha),
                     lat.make_random(LAT8, alg, seed=seed, amplitude=amplitude))
    g = al.group_exp(alg, 2.0 * np.random.default_rng(seed).standard_normal(alg.dim))
    fields = [u, lat.GroupField(LAT8, alg, np.roll(u.values, shift, axis=(0, 1, 2))),
              lat.GroupField(LAT8, alg, g @ u.values), lat.GroupField(LAT8, alg, u.values @ g),
              lat.GroupField(LAT8, alg, g @ u.values @ g.conj().T)]
    for w in fields:
        s = inv.sector_of(w)
        assert s.alpha == alpha and s.charges == (0,) * len(alg.factors)


def test_sector_of_hedgehog(su2, lat16):
    s = inv.sector_of(lat.make_hedgehog(lat16, su2, 0.45))
    assert s.alpha == (0, 0, 0)
    assert s.charges == (1,)
    assert s.residuals[0] < 0.25
    line = s.report_line()
    assert line.startswith("alpha=(0,0,0)") and "c=(1)" in line


def test_sector_right_translation_invariance(su2, lat16):
    u = lat.make_hedgehog(lat16, su2, 0.45)
    g = al.group_exp(su2, [0.3, 0.7, -0.2])
    assert inv.sector_of(lat.GroupField(lat16, su2, u.values @ g)).same_sector(inv.sector_of(u))


def test_sector_rejects_unresolved(su2, lat8):
    u = lat.make_hedgehog(lat8, su2, 0.3)  # raw charge ~0.535 at N=8
    with pytest.raises(SectorError):
        inv.sector_of(u)


def test_invariant_of_connection_trivial(su2, lat16):
    z = lat.zero_one_form(lat16, su2)
    s = inv.invariant_of_connection(z, z)
    assert s.alpha == (0, 0, 0) and s.charges == (0,)


@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_invariant_of_connection_hedgehog(spec, lat16):
    alg = _algebra(spec)
    b = lat.zero_one_form(lat16, alg)
    a = lat.gauge_transform(b, lat.make_hedgehog(lat16, alg, 0.45))
    s = inv.invariant_of_connection(a, b)
    assert s.charges == (1,)


def test_invariant_of_connection_gauge_well_defined(su2, lat16):
    # invariants of gauge_transform(b, u) relative to b match the map side
    b = lat.zero_one_form(lat16, su2)
    u = lat.make_random(lat16, su2, seed=13, amplitude=0.4)
    s = inv.invariant_of_connection(lat.gauge_transform(b, u), b)
    assert s.same_sector(inv.sector_of(u))


def test_invariant_of_connection_conjugation_invariance(su2, lat16):
    b = lat.zero_one_form(lat16, su2)
    a = lat.gauge_transform(b, lat.make_hedgehog(lat16, su2, 0.45))
    g = al.group_exp(su2, [0.2, -0.5, 0.4])
    conj = a.copy()
    for i in range(3):
        M = su2.to_matrix(a.coeffs[i])
        conj.coeffs[i], _ = su2.to_coords(np.einsum("ji,...jk,kl->...il", g.conj(), M, g))
    s = inv.invariant_of_connection(conj, b)
    assert s.charges == (1,)


def test_invariant_of_connection_mismatch(su2, lat16):
    b = lat.zero_one_form(lat16, su2)
    a = lat.zero_one_form(lat16, su2)
    a.coeffs[0, ..., 2] = 0.8
    with pytest.raises(HolonomyMismatchError, match="holonomy stratum"):
        inv.invariant_of_connection(a, b)


# ----------------------------------------------------------------------
# the charge of a flat connection read off its own link coefficients
# ----------------------------------------------------------------------

def _map_sector(a, b):
    """The answer read off the map: `sector_of` the reconstructed gauge,
    or the type, message, axis and site of its refusal."""
    try:
        return inv.sector_of(hol.gauge_from_holonomy(b, a))
    except (LogRangeError, SectorError) as exc:
        return type(exc), str(exc), getattr(exc, "axis", None), getattr(exc, "site", None)


@pytest.fixture
def sector_of_calls(monkeypatch):
    """Maps passed to `invariants.sector_of`, one entry per call."""
    calls = []
    sector_of = inv.sector_of

    def counted(u, *args, **kwargs):
        calls.append(u)
        return sector_of(u, *args, **kwargs)

    monkeypatch.setattr(inv, "sector_of", counted)
    return calls


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(["su2", "su3", "spin7", "g2", "so3"]),
       kind=st.sampled_from(["random", "hedgehog"]), n=st.sampled_from([8, 12]),
       seed=st.integers(0, 2 ** 31), amplitude=st.floats(0.1, 0.6))
def test_charge_off_the_links_equals_the_charge_of_the_map(spec, kind, n, seed, amplitude):
    alg = _algebra(spec)
    L = lat.TorusLattice((n, n, n))
    if kind == "random":
        u = lat.make_random(L, alg, seed=seed, amplitude=amplitude)
    else:
        off = np.random.default_rng(seed).uniform(-1.0, 1.0, 3) / n
        u = lat.make_hedgehog(L, alg, 0.45, center=tuple(0.5 + off))
    try:
        a = lat.log_derivative(u)
    except LogRangeError:  # a field too rough for its lattice has no log derivative
        assume(False)
    zero = lat.zero_one_form(L, alg)
    want = _map_sector(a, zero)
    if isinstance(want, inv.SectorInvariants):
        got = inv.invariant_of_connection(a, zero)
        assert (got.alpha, got.alpha_orders, got.charges) == \
            (want.alpha, want.alpha_orders, want.charges)
        assert np.abs(np.subtract(got.charges_raw, want.charges_raw)).max() <= 1e-12
    else:
        with pytest.raises(want[0]) as info:
            inv.invariant_of_connection(a, zero)
        assert str(info.value) == want[1]


@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_a_nonzero_reference_takes_the_link_logs(spec, lat12, sector_of_calls):
    alg = _algebra(spec)
    w1 = lat.make_random(lat12, alg, seed=5, amplitude=0.5)
    b = lat.log_derivative(w1)
    a = lat.log_derivative(lat.multiply(w1, lat.make_hedgehog(lat12, alg, 0.45)))
    got = inv.invariant_of_connection(a, b)
    assert len(sector_of_calls) == 1 and got.charges == (1,)
    assert got == _map_sector(a, b)


@pytest.mark.parametrize("spec,alpha", [("so3", (1, 0, 0)), ("su2+u1", (0, 1, -1))])
def test_a_winding_takes_the_link_logs(spec, alpha, lat12, sector_of_calls):
    alg = _algebra(spec)
    u = lat.multiply(inv.reference_map(lat12, alg, alpha),
                     lat.make_random(lat12, alg, seed=6, amplitude=0.3))
    a = lat.log_derivative(u)
    zero = lat.zero_one_form(lat12, alg)
    got = inv.invariant_of_connection(a, zero)
    assert len(sector_of_calls) == 1 and got.alpha == alpha
    assert got == _map_sector(a, zero)


@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_a_link_out_of_the_log_range_is_refused_by_the_link_logs(spec, lat8, sector_of_calls):
    # one site turned by 2.5 rad: |lambda - 1| = 2 sin(1.25) = 1.90 on its
    # links, a log the link log range (1.8) refuses; the form keeps the
    # principal logs, so it is exactly flat
    alg = _algebra(spec)
    u = lat.make_random(lat8, alg, seed=7, amplitude=0.2)
    p = (3, 4, 5)
    u.values[p] = u.values[p] @ al.group_exp(alg, 2.5 * alg.basis_vector(0))
    h = lat8.spacings
    a = lat.AlgebraOneForm(lat8, alg, np.stack([
        al.group_log(alg, u.values.conj().swapaxes(-1, -2) @ np.roll(u.values, -1, axis=i),
                     threshold=1.99)[0] / h[i] for i in range(3)]))
    zero = lat.zero_one_form(lat8, alg)
    with pytest.raises(LogRangeError) as info:
        inv.invariant_of_connection(a, zero)
    assert len(sector_of_calls) == 1
    err = info.value
    assert (type(err), str(err), err.axis, err.site) == _map_sector(a, zero)
    step = np.eye(3, dtype=int)[err.axis - 1]
    assert p in (err.site, tuple(int(v) for v in (np.array(err.site) + step) % 8))


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7", "g2"])
def test_an_in_range_log_derivative_takes_no_matrix_log(spec, monkeypatch):
    alg = _algebra(spec)
    L = lat.TorusLattice((8, 8, 8))
    a = lat.log_derivative(lat.make_random(L, alg, seed=11, amplitude=0.5))
    zero = lat.zero_one_form(L, alg)
    calls = []

    def counted(log):
        def wrapper(*args, **kwargs):
            calls.append(args[1].shape)
            return log(*args, **kwargs)
        return wrapper

    for module in (al, lat, hol, inv):
        monkeypatch.setattr(module, "group_log", counted(module.group_log))
    got = inv.invariant_of_connection(a, zero)
    assert calls == []
    monkeypatch.undo()
    assert got.charges == _map_sector(a, zero).charges == (0,)


def test_charge_integrality_refinement(su2):
    resids = []
    for n in (12, 16, 24):
        L = lat.TorusLattice((n, n, n))
        q = inv.topological_charge(lat.make_hedgehog(L, su2, 0.45))[0]
        resids.append(abs(q - 1.0))
    assert resids[0] > resids[1] > resids[2]


@pytest.mark.parametrize("spec", ["su2", "so3", "u1"])
@pytest.mark.parametrize("site", [(3, 2, 1), (3, 0, 0)])
def test_sector_of_names_a_non_finite_site(spec, site, lat8):
    # numpy fails on the NaN (an eigensolver, or on u1's base line the int of
    # the winding), and only then is the field searched for the site
    alg = al.parse_algebra(spec)
    u = lat.make_random(lat8, alg, seed=0, amplitude=0.5)
    u.values[site][0, 0] = np.nan
    with pytest.raises(SectorError, match=re.escape(f"non-finite entry at site {site}")):
        inv.sector_of(u)


@pytest.mark.parametrize("spec, axis, site", [("su2", 2, (3, 2, 1)), ("u1", 1, (2, 2, 1))])
def test_sector_of_says_a_huge_link_is_not_in_the_group(spec, axis, site, lat8):
    # no unitary matrix has an eigenvalue farther than 2 from 1, so past 2
    # the link is off the group and its distance prints in three digits
    u = lat.make_random(lat8, al.parse_algebra(spec), seed=1)
    u.values[3, 2, 1][0, 0] = 1e300
    with pytest.raises(LogRangeError, match=r"is not in the group \(\|lambda - 1\| = ") as info:
        inv.sector_of(u)
    assert (info.value.site, info.value.axis) == (site, axis)
    assert len(str(info.value)) < 200


def test_a_link_in_the_group_keeps_its_range_message(su2, lat8):
    u = lat.constant_field(lat8, su2)
    u.values[2, 3, 4] = al.group_exp(su2, [0, 0, 1.2])
    u.values[2, 4, 4] = al.group_exp(su2, [0, 0, -1.5])
    with pytest.raises(LogRangeError) as info:
        inv.sector_of(u)
    assert str(info.value) == (f"field too rough for this lattice: link at site (2, 3, 4) on "
                               f"axis 2 has |lambda - 1| = {2 * np.sin(1.35):.4f} >= 1.8 "
                               f"(1 links out of range)")
