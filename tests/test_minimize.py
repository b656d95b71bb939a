import numpy as np
import pytest

from conftest import link_distances, local_fd_gradient
from skyrme import algebra as al
from skyrme import invariants as inv
from skyrme import lattice as lat
from skyrme import minimize as mz
from skyrme.errors import FlatnessError, LineSearchError, SectorError


@pytest.mark.parametrize("options", [
    {"grad_tol": -1e-6}, {"grad_tol": np.inf}, {"grad_tol": np.nan}, {"grad_tol": -np.inf},
    {"max_iters": 0}, {"max_iters": -1}, {"sector_interval": 0}, {"sector_interval": -1},
])
def test_options_reject_values_that_run_silently_wrong(options):
    # an infinite grad_tol declares convergence before any step, and no
    # iteration or no sector check leaves the descent unchecked
    with pytest.raises(ValueError, match=next(iter(options))):
        mz.MinimizeOptions(**options)


def test_options_keep_their_edge_values():
    mz.MinimizeOptions(max_iters=1, grad_tol=0.0, sector_interval=1)


def test_gradient_constant_zero(su2, lat8):
    G = mz.lattice_gradient(lat.constant_field(lat8, su2))
    assert np.abs(G).max() == 0.0


def test_gradient_geodesic_critical(su2, lat8):
    u = lat.make_winding(lat8, su2, (1, 0, 0))
    assert np.abs(mz.lattice_gradient(u)).max() < 1e-8


def test_gradient_matches_finite_differences(su2):
    L = lat.TorusLattice((6, 6, 6))
    u = lat.make_random(L, su2, seed=9, smoothness=1.5, amplitude=0.6)
    G = mz.lattice_gradient(u)
    rng = np.random.default_rng(1)
    t = 1e-5
    for _ in range(12):
        s = tuple(rng.integers(0, 6, 3))
        d = rng.integers(0, 3)
        X = np.zeros(3)
        X[d] = 1.0
        up = u.copy()
        up.values[s] = u.values[s] @ al.group_exp(su2, t * X)
        um = u.copy()
        um.values[s] = u.values[s] @ al.group_exp(su2, -t * X)
        fd = (lat.skyrme_energy_map(up) - lat.skyrme_energy_map(um)) / (2 * t)
        assert abs(fd - G[s][d]) <= 1e-6 * max(abs(fd), 1e-9)


@pytest.mark.parametrize("spec, amplitude", [("su2", 2.2), ("su3", 2.5)])
def test_gradient_rough_fields_match_finite_differences(spec, amplitude):
    # links up to |lambda - 1| >= 1.7, next to the 1.8 log-range threshold:
    # ad_l has eigenvalues up to |w| ~ 4.4 there, where a truncated
    # Bernoulli series of B(ad_l) misses the 1e-6 bound
    alg = al.parse_algebra(spec)
    L = lat.TorusLattice((8, 8, 8))
    u = lat.make_random(L, alg, seed=0, smoothness=0.7, amplitude=amplitude)
    dist = link_distances(u)
    assert dist.max() >= 1.7
    G = mz.lattice_gradient(u)
    # both endpoints of the four roughest links, and four random sites
    sites = set()
    for flat in np.argsort(dist.ravel())[-4:]:
        ax, *x = np.unravel_index(flat, dist.shape)
        sites.add(tuple(int(c) for c in x))
        sites.add(tuple(int(c) for c in (np.array(x) + np.eye(3, dtype=int)[ax]) % 8))
    rng = np.random.default_rng(2)
    sites |= {tuple(int(c) for c in rng.integers(0, 8, 3)) for _ in range(4)}
    worst = 0.0
    for s in sorted(sites):
        fd = local_fd_gradient(u, s)
        # G represents the first variation in the norm metric: dE = <G, X>
        exact = alg.norm_gram @ G[s]
        worst = max(worst, (np.abs(fd - exact) / np.maximum(np.abs(fd), 1e-9)).max())
    assert worst <= 1e-6


def test_negative_gradient_is_descent_direction(su2, lat8):
    u = lat.make_random(lat8, su2, seed=3, amplitude=0.5)
    G = mz.lattice_gradient(u)
    t = 1e-6
    step = al.group_exp(su2, -t * G)
    trial = lat.GroupField(lat8, su2, np.einsum("...ij,...jk->...ik", u.values, step))
    assert lat.skyrme_energy_map(trial) < lat.skyrme_energy_map(u)


def test_minimize_constant_returns_immediately(su2, lat8):
    u0 = lat.constant_field(lat8, su2)
    final, trace = mz.minimize_map(u0)
    assert trace.termination == "converged"
    assert len(trace.energies) == 1
    assert np.array_equal(final.values, u0.values)


def test_minimize_perturbed_constant_reaches_floor(su2, lat8):
    u0 = lat.make_random(lat8, su2, seed=5, smoothness=2.0, amplitude=0.1)
    opts = mz.MinimizeOptions(max_iters=4000, grad_tol=1e-12)
    final, trace = mz.minimize_map(u0, opts)
    assert trace.energies[-1] <= 1e-8
    diffs = np.diff(trace.energies)
    assert (diffs <= 1e-14).all()
    assert all(s.same_sector(trace.sectors[0][1]) for _, s in trace.sectors)


def test_minimize_hedgehog_monotone_with_sector(su2, lat16):
    u0 = lat.make_hedgehog(lat16, su2, 0.45)
    opts = mz.MinimizeOptions(max_iters=25, sector_interval=5)
    final, trace = mz.minimize_map(u0, opts)
    assert (np.diff(trace.energies) <= 1e-12).all()
    for _, s in trace.sectors:
        assert s.charges == (1,)
        assert abs(s.charges_raw[0] - 1.0) < 0.1


def test_line_search_stall_raises(su2, lat8, monkeypatch):
    u0 = lat.make_random(lat8, su2, seed=6, amplitude=0.3)
    monkeypatch.setattr(mz, "MAX_BACKTRACKS", 0)
    with pytest.raises(LineSearchError, match="stalled"):
        mz.minimize_map(u0)


def _second_sector_call(monkeypatch, replace):
    """Patch the descent's sector_of so that its second call returns
    replace(real sector) instead, the first staying the real one."""
    calls = []

    def patched(u):
        calls.append(u)
        got = inv.sector_of(u)
        return got if len(calls) == 1 else replace(got)

    monkeypatch.setattr(mz, "sector_of", patched)
    return calls


def test_unresolved_sector_mid_run_names_its_iteration(su2, lat8, monkeypatch):
    # a charge that stops resolving after the input did is a SectorError that
    # names the iteration and the input's sector, chained to the original
    cause = SectorError("lattice too coarse to resolve sector (residual 0.251)")

    def unresolved(got):
        raise cause

    _second_sector_call(monkeypatch, unresolved)
    u0 = lat.make_random(lat8, su2, seed=5, smoothness=2.0, amplitude=0.1)
    with pytest.raises(SectorError, match="unresolved at iteration 2") as info:
        mz.minimize_map(u0, mz.MinimizeOptions(max_iters=5, sector_interval=2))
    msg = str(info.value)
    assert str(cause) in msg and inv.sector_of(u0).report_line() in msg
    assert info.value.__cause__ is cause


def test_sector_drift_mid_run_names_both_sectors(su2, lat8, monkeypatch):
    def drifted(got):
        return inv.SectorInvariants(alpha=got.alpha, alpha_orders=got.alpha_orders,
                                    charges_raw=(1.0,), charges=(1,), residuals=(0.0,))

    calls = _second_sector_call(monkeypatch, drifted)
    u0 = lat.make_random(lat8, su2, seed=5, smoothness=2.0, amplitude=0.1)
    with pytest.raises(SectorError, match="sector drift at iteration 2: ") as info:
        mz.minimize_map(u0, mz.MinimizeOptions(max_iters=5, sector_interval=2))
    assert "c=(1)" in str(info.value) and inv.sector_of(u0).report_line() in str(info.value)
    assert len(calls) == 2


@pytest.mark.parametrize("options, counts", [
    (dict(MAX_BACKTRACKS=2, ARMIJO_C=0.5, INITIAL_STEP=100.0), "(2 Armijo rejections, 0 range"),
    (dict(MAX_BACKTRACKS=1, MAX_ROTATION=3.0, INITIAL_STEP=100.0), "(0 Armijo rejections, 1 range"),
])
def test_line_search_stall_counts_rejections(su2, lat8, monkeypatch, options, counts):
    # the line-search constants set as stated, so one step stalls
    u0 = lat.make_random(lat8, su2, seed=0, smoothness=0.7, amplitude=2.2)
    for name, value in options.items():
        monkeypatch.setattr(mz, name, value)
    with pytest.raises(LineSearchError, match="stalled") as info:
        mz.minimize_map(u0)
    assert counts in str(info.value)


def test_charged_descent_steps_along_the_barrier(su2, lat12):
    # the centred charge-1 lump drives links onto the log-range barrier; the
    # descent takes projected steps there instead of stalling
    u0 = lat.make_hedgehog(lat12, su2, 0.45)
    final, trace = mz.minimize_map(u0, mz.MinimizeOptions(max_iters=100, sector_interval=10))
    assert trace.termination == "max_iters"
    assert len(trace.energies) == 100
    assert trace.projected_steps > 0
    assert (np.diff(trace.energies) <= 1e-12).all()
    assert [it for it, _ in trace.sectors] == list(range(0, 101, 10)) + [100]
    assert all(s.charges == (1,) for _, s in trace.sectors)


def test_max_iters_trace_ends_at_the_returned_energy(su2, lat8):
    # the last row is the energy after the last step, not before it
    u0 = lat.make_random(lat8, su2, seed=1, amplitude=0.5)
    final, trace = mz.minimize_map(u0, mz.MinimizeOptions(max_iters=5))
    assert trace.termination == "max_iters" and len(trace.energies) == 5
    assert trace.energies[-1] == lat.skyrme_energy_map(final)
    assert (np.diff([lat.skyrme_energy_map(u0)] + trace.energies) < 0).all()


def test_barrier_termination_names_the_blocking_link(su2):
    # maximizing E pushes every link outward until each site's step would
    # cross the log range: the projected gradient vanishes, the full one not
    L = lat.TorusLattice((3, 3, 3))
    u0 = lat.make_random(L, su2, seed=0, smoothness=0.5, amplitude=1.0)
    opts = mz.MinimizeOptions(max_iters=200)
    u, trace = mz._descend(u0, lambda v: -lat.skyrme_energy_map(v),
                           lambda v: -mz.lattice_gradient(v), opts)
    assert trace.termination == "barrier"
    assert trace.grad_norms[-1] > opts.grad_tol
    assert (np.diff(trace.energies) <= 1e-12).all()
    site, axis, dist = trace.barrier
    assert dist == pytest.approx(link_distances(u)[(axis - 1,) + site], abs=1e-12)
    assert dist < lat.LINK_LOG_THRESHOLD


def test_trace_csv_format(su2, lat8):
    u0 = lat.make_random(lat8, su2, seed=5, smoothness=2.0, amplitude=0.05)
    final, trace = mz.minimize_map(u0, mz.MinimizeOptions(max_iters=8))
    csv = trace.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "iter,energy,grad_norm,step,alpha,c_rounded,c_residual"
    assert len(lines) == len(trace.energies) + 1
    assert lines[1].startswith("0,")


def test_seed_field_matches_sector(su2, lat16):
    sector = inv.sector_of(lat.make_hedgehog(lat16, su2, 0.45))
    seed = mz.seed_field(lat16, su2, sector)
    assert inv.sector_of(seed).same_sector(sector)


@pytest.mark.parametrize("spec, charges", [("su2+su3", (1, 0)), ("su2+su3", (0, 1)),
                                           ("su2+u1", (1,))])
def test_seed_field_on_direct_sums(spec, charges, lat12):
    # the lump is built in the block owning the charged factor and embedded
    alg = al.parse_algebra(spec)
    sector = inv.SectorInvariants(alpha=(0, 0, 0), alpha_orders=inv.pi1_orders(alg),
                                  charges_raw=tuple(map(float, charges)), charges=charges,
                                  residuals=(0.0,) * len(charges))
    got = inv.sector_of(mz.seed_field(lat12, alg, sector))
    assert got.same_sector(sector)
    for k, c in enumerate(charges):
        assert got.charges_raw[k] == (pytest.approx(0.8585, abs=1e-4) if c
                                      else pytest.approx(0.0, abs=1e-12))
        _, blk = alg.owning_block(k)
        assert alg.factors[k].name == f"{blk.name}:{blk.name}"
        assert al.factor_constant(alg, k) == al.normalizing_constant(blk)


def test_seed_field_rejects_unrepresentable(u1, lat8):
    bad = inv.SectorInvariants(alpha=(0, 0, 0), alpha_orders=(0,),
                               charges_raw=(1.0,), charges=(1,), residuals=(0.0,))
    with pytest.raises(SectorError, match="no seed field"):
        mz.seed_field(lat8, u1, bad)


def test_minimize_connection_trivial_sector(su2, lat8):
    b = lat.zero_one_form(lat8, su2)
    sector = inv.sector_of(lat.constant_field(lat8, su2))
    a_final, trace = mz.minimize_connection(b, sector,
                                            mz.MinimizeOptions(max_iters=50))
    assert trace.energies[-1] <= 1e-8
    assert lat.skyrme_energy_connection(a_final) == pytest.approx(
        trace.energies[-1], abs=1e-10)


def test_minimize_connection_matches_map_side(su2, lat12):
    # with the trivial reference the two objectives are the same function,
    # and the runs must report identical energies
    sector = inv.sector_of(lat.make_hedgehog(lat12, su2, 0.45))
    opts = mz.MinimizeOptions(max_iters=15, sector_interval=50)
    b = lat.zero_one_form(lat12, su2)
    a_final, trace_conn = mz.minimize_connection(b, sector, opts)
    u0 = mz.seed_field(lat12, su2, sector)
    _, trace_map = mz.minimize_map(u0, opts)
    assert len(trace_conn.energies) == len(trace_map.energies)
    assert np.abs(np.array(trace_conn.energies) - np.array(trace_map.energies)).max() <= 1e-10


def test_minimize_connection_preserves_holonomy(su2, lat8):
    from skyrme import holonomy as hol

    sector = inv.sector_of(lat.constant_field(lat8, su2))
    b = lat.zero_one_form(lat8, su2)
    a_final, _ = mz.minimize_connection(b, sector, mz.MinimizeOptions(max_iters=20))
    cover = hol.CubicalCover.for_lattice(lat8)
    rep = hol.holonomy_rep(a_final, cover)
    assert np.abs(rep.traces - 2.0).max() < 1e-8


def test_minimize_connection_nonzero_flat_reference(su2, lat8):
    # abelian flat reference: descent still monotone, energies consistent
    b = lat.zero_one_form(lat8, su2)
    b.coeffs[0, ..., 2] = 0.5
    sector = inv.sector_of(lat.constant_field(lat8, su2))
    a_final, trace = mz.minimize_connection(b, sector, mz.MinimizeOptions(max_iters=30))
    assert (np.diff(trace.energies) <= 1e-12).all()
    assert lat.skyrme_energy_connection(a_final) == pytest.approx(
        trace.energies[-1], abs=1e-10)


def test_minimize_connection_on_a_log_derivative_reference(su2, lat16):
    # a log derivative is a flat lattice connection with trivial holonomy;
    # its gauge orbit is descended link for link and stays in its stratum
    from skyrme import holonomy as hol

    b = lat.log_derivative(lat.make_random(lat16, su2, seed=1, amplitude=0.6))
    sector = inv.sector_of(lat.constant_field(lat16, su2))
    a_final, trace = mz.minimize_connection(b, sector, mz.MinimizeOptions(max_iters=20))
    assert len(trace.energies) <= 20
    assert (np.diff(trace.energies) <= 1e-12).all()
    assert trace.energies[-1] < 0.5 * trace.energies[0]
    assert a_final.sampling == "link"
    assert lat.skyrme_energy_connection(a_final) <= trace.energies[-1]
    rep = hol.holonomy_rep(a_final)
    assert np.abs(rep.elements - np.eye(2)).max() <= 1e-8


def test_connection_gradient_matches_finite_differences(su2, lat8):
    # the map scatter of the gauge orbit's link logs is the exact gradient
    b = lat.log_derivative(lat.make_random(lat8, su2, seed=1, amplitude=0.6))
    u = lat.make_random(lat8, su2, seed=2, smoothness=1.5, amplitude=0.6)
    G = mz._gradient(lat.gauge_transform(b, u))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        s = tuple(int(c) for c in rng.integers(0, 8, 3))
        fd = local_fd_gradient(u, s, links=lambda v: lat.gauge_transform(b, v))
        exact = su2.norm_gram @ G[s]
        worst = max(worst, (np.abs(fd - exact) / np.maximum(np.abs(fd), 1e-9)).max())
    assert worst <= 1e-6


def test_connection_barrier_names_the_logged_link(su2):
    # maximizing E on the orbit of b = Dv: the logged links are those of the
    # map v u, not of u, and the barrier reports their distance
    L = lat.TorusLattice((3, 3, 3))
    v = lat.make_random(L, su2, seed=1, smoothness=0.5, amplitude=0.3)
    b = lat.log_derivative(v)
    u0 = lat.make_random(L, su2, seed=0, smoothness=0.5, amplitude=1.0)
    u, trace = mz._descend(u0, lambda w: -lat.skyrme_energy_connection(lat.gauge_transform(b, w)),
                           lambda w: -mz._gradient(lat.gauge_transform(b, w)),
                           mz.MinimizeOptions(max_iters=200), lat.transports(b))
    assert trace.termination == "barrier"
    site, axis, dist = trace.barrier
    logged = link_distances(lat.multiply(v, u))[(axis - 1,) + site]
    assert dist == pytest.approx(logged, abs=1e-12)
    assert abs(dist - link_distances(u)[(axis - 1,) + site]) > 1e-3


def test_minimize_connection_exponentiates_the_reference_once(su2, lat8, monkeypatch):
    # the gate's development and the descent's `transports` take the only
    # exponentials of b's link coefficients; no energy or gradient call does
    from skyrme import holonomy as hol

    b = lat.log_derivative(lat.make_random(lat8, su2, seed=1, amplitude=0.6))
    counted = []

    def counting(alg, X):
        counted.append(np.shape(X) == b.coeffs.shape)
        return al.group_exp(alg, X)

    for mod in (lat, hol, inv, mz):
        if hasattr(mod, "group_exp"):
            monkeypatch.setattr(mod, "group_exp", counting)
    sector = inv.sector_of(lat.constant_field(lat8, su2))
    _, trace = mz.minimize_connection(b, sector, mz.MinimizeOptions(max_iters=4))
    assert len(trace.energies) == 4 and len(counted) >= 4  # one step exp per iteration
    assert sum(counted) <= 2


def test_minimize_connection_gates_the_reference(su2, lat8):
    sector = inv.sector_of(lat.constant_field(lat8, su2))
    curved = lat.zero_one_form(lat8, su2, sampling="link")
    curved.coeffs[0, ..., 0] = 3.0 * np.arange(8)[None, :, None]
    with pytest.raises(FlatnessError):
        mz.minimize_connection(curved, sector)
    L5 = lat.TorusLattice((5, 5, 5))
    b = lat.zero_one_form(L5, su2)
    b.coeffs[0, ..., 2] = 0.5
    with pytest.raises(FlatnessError, match="cannot be gated"):
        mz.minimize_connection(b, inv.sector_of(lat.constant_field(L5, su2)))
