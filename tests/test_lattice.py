import numpy as np
import pytest

from conftest import flat_site_form, oracle_random_noise, span_failure_field
from skyrme import algebra as al
from skyrme import holonomy as hol
from skyrme import lattice as lat
from skyrme.errors import GeneratorError, LogRangeError


def test_lattice_validation():
    with pytest.raises(ValueError):
        lat.TorusLattice((2, 8, 8))
    with pytest.raises(ValueError):
        lat.TorusLattice((8, 8, 8), (1.0, -1.0, 1.0))
    L = lat.TorusLattice((8, 4, 16), (2.0, 1.0, 4.0))
    assert L.spacings == (0.25, 0.25, 0.25)
    assert L.cell_volume == pytest.approx(0.25 ** 3)


def test_log_derivative_constant_and_winding(su2, lat8):
    const = lat.constant_field(lat8, su2)
    assert np.abs(lat.log_derivative(const).coeffs).max() == 0.0
    for n in (3, 8):
        L = lat.TorusLattice((n, n, n))
        u = lat.make_winding(L, su2, (1, 0, 0))
        D = lat.log_derivative(u)
        expect = np.zeros_like(D.coeffs)
        expect[0, ..., 2] = 2 * np.pi
        assert np.abs(D.coeffs - expect).max() < 1e-12


def test_log_derivative_rough_field_raises(su2, lat8):
    vals = np.empty(lat8.dims + (2, 2), dtype=complex)
    parity = (np.indices(lat8.dims).sum(axis=0)) % 2
    g = al.group_exp(su2, [0, 0, 0.8 * np.pi])
    vals[parity == 0] = np.eye(2)
    vals[parity == 1] = g
    with pytest.raises(LogRangeError):
        lat.log_derivative(lat.GroupField(lat8, su2, vals))


def test_log_derivative_names_the_worst_link(su2, lat8):
    # one link turns by 2.7 rad, |lambda - 1| = 2 sin(1.35); its neighbours
    # turn by 1.2 or 1.5 rad and stay in range
    u = lat.constant_field(lat8, su2)
    u.values[2, 3, 4] = al.group_exp(su2, [0, 0, 1.2])
    u.values[2, 4, 4] = al.group_exp(su2, [0, 0, -1.5])
    with pytest.raises(LogRangeError, match=r"site \(2, 3, 4\) on axis 2") as info:
        lat.log_derivative(u)
    exc = info.value
    assert (exc.site, exc.axis) == ((2, 3, 4), 2)
    assert exc.value == pytest.approx(2 * np.sin(1.35))
    expect = np.zeros((3,) + lat8.dims, dtype=bool)
    expect[1, 2, 3, 4] = True
    assert np.array_equal(exc.mask, expect)


def test_right_translation_leaves_energy(su2, lat8):
    u = lat.make_random(lat8, su2, seed=1, amplitude=0.5)
    g = al.group_exp(su2, [0.3, -0.2, 0.9])
    assert lat.skyrme_energy_map(lat.GroupField(lat8, su2, u.values @ g)) == pytest.approx(
        lat.skyrme_energy_map(u), abs=1e-10)


def test_wedge_bracket(su2, lat8):
    a = lat.zero_one_form(lat8, su2)
    a.coeffs[0, ..., 2] = 0.7  # abelian: everything along i sigma_3
    a.coeffs[1, ..., 2] = -1.1
    assert np.abs(lat.wedge_bracket(a)).max() < 1e-14

    b = lat.zero_one_form(lat8, su2)
    b.coeffs[0, ..., 0] = 1.0  # L_1 = i sigma_1
    b.coeffs[1, ..., 1] = 1.0  # L_2 = i sigma_2
    W = lat.wedge_bracket(b)
    # plane (1,2) in 1-based axes is PLANES index 2; [is1, is2] = -2 is3
    assert np.abs(W[2][..., 2] + 2.0).max() < 1e-14
    assert np.abs(W[0]).max() < 1e-14

    # antisymmetry under swapping the two one-form slots
    c = lat.zero_one_form(lat8, su2)
    c.coeffs[0] = b.coeffs[1]
    c.coeffs[1] = b.coeffs[0]
    assert np.abs(lat.wedge_bracket(c)[2] + W[2]).max() < 1e-14


@pytest.mark.parametrize("n", [4, 8, 16])
def test_energy_closed_form(su2, n):
    L = lat.TorusLattice((n, n, n))
    u = lat.make_winding(L, su2, (1, 0, 0))
    assert abs(lat.skyrme_energy_map(u) - 2 * np.pi ** 2) < 1e-10


def test_energy_two_direction_closed_form(su2):
    # exp(2 pi x1 is3) exp(2 pi x2 is3) = exp(2 pi (x1+x2) is3): E = 4 pi^2
    for n in (8, 16, 32):
        L = lat.TorusLattice((n, n, n))
        u = lat.multiply(lat.make_winding(L, su2, (1, 0, 0)),
                         lat.make_winding(L, su2, (0, 1, 0)))
        assert abs(lat.skyrme_energy_map(u) - 4 * np.pi ** 2) < 1e-10


def test_energy_identity_map_vs_connection(su2, lat8):
    for seed in range(3):
        u = lat.make_random(lat8, su2, seed=seed, amplitude=0.6)
        a = lat.log_derivative(u)
        assert abs(lat.skyrme_energy_map(u) - lat.skyrme_energy_connection(a)) <= 1e-10


def test_quartic_factor_bookkeeping(su2, lat8):
    # (1/16)|[a,a]|^2 = (1/4) sum_{i<j} |[a_i,a_j]|^2 with [a,a]_{ij} = 2[a_i,a_j]
    u = lat.make_random(lat8, su2, seed=5, amplitude=0.7)
    a = lat.log_derivative(u)
    W = lat.wedge_bracket(a)
    gram = su2.norm_gram
    quart_planes = sum(np.einsum("...a,ab,...b->...", W[p], gram, W[p]).sum()
                       for p in range(3))
    quad = sum(np.einsum("...a,ab,...b->...", a.coeffs[i], gram, a.coeffs[i]).sum()
               for i in range(3))
    expected = lat8.cell_volume * (0.5 * quad + (1.0 / 16.0) * 4.0 * quart_planes)
    assert lat.skyrme_energy_connection(a) == pytest.approx(expected, rel=1e-12)


def test_connection_energy_invariant_under_constant_conjugation(su2, lat8):
    u = lat.make_random(lat8, su2, seed=2, amplitude=0.5)
    a = lat.log_derivative(u)
    g = al.group_exp(su2, [0.4, 0.1, -0.7])
    conj = a.copy()
    for i in range(3):
        M = su2.to_matrix(a.coeffs[i])
        conj.coeffs[i], res = su2.to_coords(np.einsum("ji,...jk,kl->...il", g.conj(), M, g))
        assert res < 1e-9
    assert lat.skyrme_energy_connection(conj) == pytest.approx(
        lat.skyrme_energy_connection(a), abs=1e-10)


def test_flatness_examples(su2, lat8):
    # the plaquettes of the zero form and of a constant commuting site form
    # are exactly the identity, so both pass a gate at rounding level
    a = lat.zero_one_form(lat8, su2)
    hol.develop_cube(a, (0, 0, 0), lat8.dims, flatness_gate=1e-12)
    a.coeffs[0, ..., 2] = 1.3  # constant commuting component
    hol.develop_cube(a, (0, 0, 0), lat8.dims, flatness_gate=1e-12)


def test_gauge_transform_basics(su2, lat8):
    b = lat.zero_one_form(lat8, su2)
    const = lat.GroupField(lat8, su2, lat.constant_field(lat8, su2).values
                           @ al.group_exp(su2, [0.1, 0.2, 0.3]))
    assert np.abs(lat.gauge_transform(b, const).coeffs).max() < 1e-14
    u = lat.make_random(lat8, su2, seed=4, amplitude=0.5)
    D = lat.log_derivative(u)
    assert np.abs(lat.gauge_transform(b, u).coeffs - D.coeffs).max() < 1e-14


def test_gauge_transform_cocycle_small_fields(su2, lat12):
    # the exact link action satisfies the cocycle identity to rounding;
    # small fields keep the link logs near zero, so 1e-9 is loose
    b = lat.zero_one_form(lat12, su2)
    u = lat.make_random(lat12, su2, seed=7, amplitude=2e-5)
    w = lat.make_random(lat12, su2, seed=8, amplitude=2e-5)
    lhs = lat.gauge_transform(lat.gauge_transform(b, u), w)
    rhs = lat.gauge_transform(b, lat.multiply(u, w))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-9


def test_gauge_transform_preserves_flatness_scale(su2, lat12):
    b = lat.zero_one_form(lat12, su2)
    b.coeffs[0, ..., 2] = 0.6
    w = lat.make_random(lat12, su2, seed=9, amplitude=0.3)
    # flat reference stays flat: the default gate and atlas tolerance pass
    hol.build_atlas(lat.gauge_transform(b, w), hol.CubicalCover.for_lattice(lat12))


def test_hedgehog_generator(su2, lat16):
    u = lat.make_hedgehog(lat16, su2, 0.45)
    u.validate()
    v = lat.make_hedgehog(lat16, su2, 0.45)
    assert np.array_equal(u.values, v.values)
    # supported in the ball: identity at the corner of the torus
    assert np.abs(u.values[0, 0, 0] - np.eye(2)).max() < 1e-12
    with pytest.raises(GeneratorError):
        lat.make_hedgehog(lat16, su2, 0.5)


def test_winding_generator(su2, lat8):
    u = lat.make_winding(lat8, su2, (0, 0, 0))
    assert np.abs(u.values - np.eye(2)).max() < 1e-14
    with pytest.raises(GeneratorError):
        lat.make_winding(lat8, su2, (1, 0, 0), axis=np.array([0.0, 0.0, 0.37]))


def test_random_generator_deterministic(su2, lat8):
    a = lat.make_random(lat8, su2, seed=11)
    b = lat.make_random(lat8, su2, seed=11)
    c = lat.make_random(lat8, su2, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    a.validate()


def test_group_field_shape_check(su2, lat8):
    with pytest.raises(ValueError):
        lat.GroupField(lat8, su2, np.zeros((8, 8, 7, 2, 2), dtype=complex))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("spec", ["su2", "su3", "spin7"])
def test_gauge_transform_is_the_exact_link_action(spec, n):
    # on a link form the gauge action is T -> u(x)^-1 T u(x + e) on the
    # transports T = exp(h b): exact on log derivatives, an exact cocycle
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((n, n, n))
    v, u, w = (lat.make_random(L, alg, seed=s, amplitude=0.6) for s in (1, 2, 3))
    b = lat.log_derivative(v)
    got = lat.gauge_transform(b, w)
    assert np.abs(got.coeffs - lat.log_derivative(lat.multiply(v, w)).coeffs).max() <= 1e-12
    lhs = lat.gauge_transform(lat.gauge_transform(b, u), w)
    rhs = lat.gauge_transform(b, lat.multiply(u, w))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12


@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_site_form_gauge_transform_is_an_exact_cocycle(spec):
    a = flat_site_form(spec, 12)
    u, w = (lat.make_random(a.lattice, a.algebra, seed=s, amplitude=0.5) for s in (3, 5))
    lhs = lat.gauge_transform(lat.gauge_transform(a, u), w)
    rhs = lat.gauge_transform(a, lat.multiply(u, w))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12


@pytest.mark.parametrize("spec", ["su2", "su3"])
def test_site_form_acts_through_its_link_form(spec):
    # site values are turned into links once, when the form is built: the
    # form holds only the links and answers no sampling, and neither a copy
    # nor a form built from its links turns them again
    a = flat_site_form(spec, 8)
    with pytest.raises(AttributeError):
        a.sampling
    b = lat.AlgebraOneForm(a.lattice, a.algebra, a.coeffs)
    assert b.coeffs is a.coeffs
    assert np.array_equal(a.copy().coeffs, a.coeffs)
    with pytest.raises(ValueError, match="unknown sampling 'mid'"):
        lat.AlgebraOneForm(a.lattice, a.algebra, a.coeffs, sampling="mid")


def test_log_derivative_names_a_link_whose_log_left_the_algebra():
    u = span_failure_field()
    with pytest.raises(LogRangeError, match="on axis 1 has a log that left the algebra") as info:
        lat.log_derivative(u)
    exc = info.value
    assert exc.axis == 1 and exc.value is None
    assert len(exc.site) == 3 and exc.mask[(0,) + exc.site]
    assert exc.mask[0].all() and not exc.mask[1:].any()


@pytest.mark.parametrize("spec", ["su2", "su3", "spin7", "g2", "su2+su3"])
@pytest.mark.parametrize("dims", [(4, 5, 6), (8, 8, 8)])
@pytest.mark.parametrize("smoothness", [0.5, 1.0, 2.0])
def test_make_random_matches_per_component_smoothing(spec, dims, smoothness):
    # one filter over the component axis with sigma 0 there, bit for bit
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice(dims)
    noise = oracle_random_noise(L, alg, 3, smoothness)
    noise *= 0.4 / np.sqrt(alg.norm_sq(noise).max())
    u = lat.make_random(L, alg, seed=3, smoothness=smoothness, amplitude=0.4)
    assert np.array_equal(u.values, al.group_exp(alg, noise))


@pytest.mark.parametrize("spec", ["u1", "su2+u1", "u1+so3"])
def test_make_random_amplitude_bounds_abelian_blocks(spec):
    # the Killing norm vanishes on u1; amplitude bounds its phase as well
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((8, 8, 8))
    abelian = np.ones(alg.dim, dtype=bool)
    for fac in alg.factors:
        abelian[fac.start:fac.stop] = False
    fields = []
    for amplitude in (0.1, 0.5):
        u = lat.make_random(L, alg, seed=0, smoothness=0.5, amplitude=amplitude)
        X = al.group_log(alg, u.values)[0]
        phase = np.abs(X[..., abelian]).max()
        size = np.sqrt(alg.norm_sq(X) + (X[..., abelian] ** 2).sum(axis=-1)).max()
        assert 0 < phase <= amplitude * (1 + 1e-12)
        assert size == pytest.approx(amplitude, rel=1e-12)
        fields.append(u.values)
    assert not np.allclose(fields[0], fields[1])
