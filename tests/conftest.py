import numpy as np
import pytest

from skyrme import algebra as alg_mod
from skyrme import holonomy as hol
from skyrme.lattice import GroupField, TorusLattice, zero_one_form


@pytest.fixture(autouse=True)
def empty_atlas_slot():
    """Start every test with no memoized atlas, so that no test can pass on
    an atlas developed by an earlier one."""
    hol._last_atlas = None


@pytest.fixture
def develop_calls(monkeypatch):
    """Forms passed to `holonomy._develop`, one entry per call."""
    calls = []
    develop = hol._develop

    def counted(a, *args, **kwargs):
        calls.append(a)
        return develop(a, *args, **kwargs)

    monkeypatch.setattr(hol, "_develop", counted)
    return calls


@pytest.fixture(scope="session")
def su2():
    return alg_mod.parse_algebra("su2")


@pytest.fixture(scope="session")
def so3():
    return alg_mod.parse_algebra("so3")


@pytest.fixture(scope="session")
def u1():
    return alg_mod.parse_algebra("u1")


@pytest.fixture
def lat8():
    return TorusLattice((8, 8, 8))


@pytest.fixture
def lat12():
    return TorusLattice((12, 12, 12))


@pytest.fixture
def lat16():
    return TorusLattice((16, 16, 16))


def optimal_left_constant(alg, u_vals, w_vals):
    """argmin_g max-ish |u - g w|: polar factor of sum u w^dagger."""
    n = alg.rep_dim
    S = np.einsum("xij,xkj->ik", u_vals.reshape(-1, n, n), w_vals.conj().reshape(-1, n, n))
    W, _, Vh = np.linalg.svd(S)
    g = W @ Vh
    if alg.group_kind in ("special_unitary", "symplectic"):
        g = g * np.exp(-1j * np.angle(np.linalg.det(g)) / n)
    return g


def sup_deviation_mod_constant(alg, u_vals, w_vals):
    g = optimal_left_constant(alg, u_vals, w_vals)
    return float(np.abs(u_vals - np.einsum("ij,...jk->...ik", g, w_vals)).max())


def analytic_exp_field(alg, lattice, amp, seed, n_modes=6):
    """w = exp(X) for a low-frequency coordinate field X, together with the
    exact Maurer-Cartan components w^-1 d_i w sampled at sites.

    The derivative uses d/dt exp(X) = exp(X) D(ad_X) dX with
    D(z) = (1 - e^-z)/z summed far past machine precision.
    """
    rng = np.random.default_rng(seed)
    xs = lattice.coordinates()
    dim = alg.dim
    modes = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)][:n_modes]
    X = np.zeros(lattice.dims + (dim,))
    dX = np.zeros((3,) + lattice.dims + (dim,))
    for a in range(dim):
        for kv in modes:
            ph = rng.uniform(0, 2 * np.pi)
            c = rng.normal() * amp / len(modes)
            arg = 2 * np.pi * sum(k * x / l for k, x, l in zip(kv, xs, lattice.lengths)) + ph
            X[..., a] += c * np.cos(arg)
            for ax in range(3):
                dX[ax, ..., a] += -c * 2 * np.pi * kv[ax] / lattice.lengths[ax] * np.sin(arg)
    f = alg.structure_constants
    A = np.empty_like(dX)
    for ax in range(3):
        cur = dX[ax]
        out = cur.copy()
        fact = 1.0
        for k in range(1, 20):
            cur = -np.einsum("...a,...b,abc->...c", X, cur, f)
            fact *= k + 1
            out += cur / fact
        A[ax] = out
    from skyrme.algebra import group_exp
    from skyrme.lattice import AlgebraOneForm, GroupField

    w = GroupField(lattice, alg, group_exp(alg, X))
    form = AlgebraOneForm(lattice, alg, A, sampling="site")
    return w, form


def flat_site_form(spec, n):
    """A flat site form on the n^3 torus: for su2 the constant commuting
    form theta = 0.7 on the first axis, for su3 the exact Maurer-Cartan
    form of `analytic_exp_field` seed 4 read at sites."""
    alg = alg_mod.parse_algebra(spec)
    L = TorusLattice((n, n, n))
    if spec == "su3":
        return analytic_exp_field(alg, L, amp=0.5, seed=4)[1]
    a = zero_one_form(L, alg)
    a.coeffs[0, ..., 2] = 0.7
    return a


def local_fd_gradient(u, site, t=1e-5, links=None):
    """Central differences of E(u) under u(site) -> u(site) exp(+-t e_d), one
    per basis direction d.  A site perturbation changes only the densities
    at the site and its three backward neighbors, so the difference is
    summed over those four sites, free of global-sum cancellation.

    `links` maps a field to the link-log form whose energy is taken
    (default `log_derivative`); for a connection b it is the gauge orbit
    v -> gauge_transform(b, v), whose links move alike."""
    from skyrme.algebra import group_exp
    from skyrme.lattice import log_derivative, wedge_bracket

    links = links or log_derivative

    def density(v):
        L = links(v)
        gram = v.algebra.norm_gram
        dens = 0.5 * sum(np.einsum("...a,ab,...b->...", L.coeffs[i], gram, L.coeffs[i])
                         for i in range(3))
        W = wedge_bracket(L)
        dens = dens + 0.25 * sum(np.einsum("...a,ab,...b->...", W[p], gram, W[p])
                                 for p in range(3))
        return v.lattice.cell_volume * dens

    alg = u.algebra
    dims = np.array(u.lattice.dims)
    touched = [site] + [tuple((np.array(site) - np.eye(3, dtype=int)[i]) % dims)
                        for i in range(3)]
    out = np.empty(alg.dim)
    for d in range(alg.dim):
        X = t * alg.basis_vector(d)
        up = u.copy()
        up.values[site] = u.values[site] @ group_exp(alg, X)
        um = u.copy()
        um.values[site] = u.values[site] @ group_exp(alg, -X)
        dp, dm = density(up), density(um)
        out[d] = sum(dp[q] - dm[q] for q in touched) / (2 * t)
    return out


def span_failure_field():
    """su3 field on 4^3 alternating 1 and diag(e^{2.2i}, e^{2.2i}, e^{(2 pi - 4.4)i})
    along the first axis.  Every eigenvalue of its links is in log range,
    but the principal logs have trace 2 pi i: they leave su(3)."""
    from skyrme.algebra import parse_algebra
    from skyrme.lattice import constant_field

    u = constant_field(TorusLattice((4, 4, 4)), parse_algebra("su3"))
    u.values[1::2] = np.diag(np.exp(1j * np.array([2.2, 2.2, 2 * np.pi - 4.4])))
    return u


def u1_half_turn_field():
    """u1 field on 4^3 with phase pi on odd x: every link along the first
    axis turns by pi, where the lift cannot tell a winding from its reverse."""
    phase = np.exp(1j * np.pi * (np.arange(4) % 2))
    vals = np.broadcast_to(phase[:, None, None, None, None], (4, 4, 4, 1, 1)).copy()
    return GroupField(TorusLattice((4, 4, 4)), alg_mod.parse_algebra("u1"), vals)


def link_distances(u):
    """max |lambda - 1| of every link u(x)^-1 u(x + e_i), shape (3,) + dims."""
    out = []
    for ax in range(3):
        link = np.einsum("...ji,...jk->...ik", u.values.conj(), np.roll(u.values, -1, axis=ax))
        out.append(np.abs(np.linalg.eigvals(link) - 1.0).max(axis=-1))
    return np.stack(out)


_EPS3 = [(0, 1, 2, +1), (1, 2, 0, +1), (2, 0, 1, +1),
         (2, 1, 0, -1), (0, 2, 1, -1), (1, 0, 2, -1)]


def six_term_charge(u, v_ref=None):
    """Per-factor charges as the explicit sum over the six permutations
    eps^{ijl} T(Lb_i, Lb_j, Lb_l), one four-operand contraction per term:
    the reference for `topological_charge`'s single contraction."""
    from skyrme.algebra import factor_constant
    from skyrme.lattice import inverse_field, log_derivative, multiply

    alg = u.algebra
    w = u if v_ref is None else multiply(u, inverse_field(v_ref))
    L = log_derivative(w).coeffs
    Lb = [0.5 * (L[i] + np.roll(L[i], 1, axis=i)) for i in range(3)]  # site-symmetrized
    f = alg.structure_constants
    B = alg.killing_matrix
    out = []
    for k, fac in enumerate(alg.factors):
        idx = slice(fac.start, fac.stop)
        T = np.einsum("abc,cd->abd", f[idx, idx, idx], B[idx, idx])
        comps = [Lb[i][..., idx] for i in range(3)]
        dens = sum(sgn * np.einsum("...a,...b,...d,abd->...", comps[i], comps[j], comps[l], T)
                   for i, j, l, sgn in _EPS3)
        K = float(factor_constant(alg, k))
        out.append(-(K / (192.0 * np.pi ** 2)) * u.lattice.cell_volume * dens.sum())
    return np.array(out)


# Einsum oracles for the LieAlgebra kernels: each contracts the public
# tables directly, independent of the kernels' cached flat layouts.

def oracle_bracket(alg, X, Y):
    return np.einsum("...a,...b,abc->...c", X, Y, alg.structure_constants)


def oracle_ad_matrix(alg, X):
    return np.einsum("...a,abc->...cb", X, alg.structure_constants)


def oracle_norm_sq(alg, X):
    return np.einsum("...a,ab,...b->...", X, alg.norm_gram, X)


def oracle_to_matrix(alg, X):
    return np.einsum("...a,anm->...nm", X, alg.basis)


def oracle_to_coords(alg, M):
    """Least-squares coordinates: the normal equations of the trace form."""
    gram = np.real(np.einsum("aij,bij->ab", alg.basis.conj(), alg.basis))
    rhs = np.real(np.einsum("aij,...ij->...a", alg.basis.conj(), M))
    return np.linalg.solve(gram, rhs.reshape(-1, alg.dim).T).T.reshape(rhs.shape)


def oracle_group_exp(alg, X):
    from scipy.linalg import expm

    return expm(oracle_to_matrix(alg, X))


def oracle_kappa(alg):
    """sup |X|^2 / |X|_F^2: eigvalsh of norm_gram whitened by the symmetric
    inverse square root of the trace-form gram of the public basis."""
    gram = np.real(np.einsum("aij,bij->ab", alg.basis.conj(), alg.basis))
    w, V = np.linalg.eigh(gram)
    W = (V / np.sqrt(w)) @ V.T
    return float(np.linalg.eigvalsh(W @ alg.norm_gram @ W).max())


def oracle_star_residuals(a, cover):
    """Flatness residual of every star of a link form, one plaquette at a
    time: expm transports, each plaquette's principal log from its complex
    Schur form, the trace-form projection and the public norm.  A plaquette
    with an eigenvalue 1.99 or more from 1, or whose log leaves the basis
    span, has infinite density."""
    from scipy.linalg import expm, schur

    alg, lattice = a.algebra, a.lattice
    h, dims = lattice.spacings, lattice.dims
    T = np.empty((3,) + dims + (alg.rep_dim,) * 2, dtype=complex)
    for i in range(3):
        for x in np.ndindex(dims):
            T[(i,) + x] = expm(h[i] * oracle_to_matrix(alg, a.coeffs[(i,) + x]))
    density = np.zeros(dims)
    for x in np.ndindex(dims):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            xi = tuple((x[k] + (k == i)) % dims[k] for k in range(3))
            xj = tuple((x[k] + (k == j)) % dims[k] for k in range(3))
            P = T[(i,) + x] @ T[(j,) + xi] @ T[(i,) + xj].conj().T @ T[(j,) + x].conj().T
            R, Z = schur(P, output="complex")
            eigs = np.diag(R)
            log_p = (Z * np.log(eigs)) @ Z.conj().T
            coords = oracle_to_coords(alg, log_p)
            if (np.abs(eigs - 1.0).max() >= 1.99
                    or np.abs(oracle_to_matrix(alg, coords) - log_p).max() > 1e-9):
                density[x] = np.inf
                continue
            density[x] += oracle_norm_sq(alg, coords / (h[i] * h[j]))
    return np.array([np.sqrt(lattice.cell_volume * density[np.ix_(*(w[:-1] for w in win))].sum())
                     for win in cover.star_indices()])


def coarse_edges(cover):
    """(v, axis, v + e_axis) for every oriented edge of the cover's coarse grid."""
    for v in cover.vertices():
        for ax in range(3):
            yield v, ax, tuple((v[i] + (i == ax)) % cover.shape[i] for i in range(3))


# Loop oracles for the batched construction kernels: the per-pair and
# per-component loops the batched code replaced, with the same arithmetic.

def oracle_structure_constants(alg):
    """One commutator and one `to_coords` projection per pair a < b."""
    d = alg.dim
    f = np.zeros((d, d, d))
    for a in range(d):
        for b in range(a + 1, d):
            C = alg.basis[a] @ alg.basis[b] - alg.basis[b] @ alg.basis[a]
            f[a, b] = alg.to_coords(C)[0]
            f[b, a] = -f[a, b]
    return f


def oracle_jacobi_residual(alg):
    """max |[ad e_a, ad e_b] - sum_c f_abc ad e_c|, one pair (a, b) at a time."""
    f = alg.structure_constants
    worst = 0.0
    for a in range(alg.dim):
        for b in range(alg.dim):
            lhs = f[a].T @ f[b].T - f[b].T @ f[a].T
            rhs = np.tensordot(f[a, b], f.transpose(0, 2, 1), axes=(0, 0))
            worst = max(worst, np.abs(lhs - rhs).max())
    return worst


def oracle_random_noise(lattice, alg, seed, smoothness):
    """`make_random`'s smoothed noise before scaling, one component at a time."""
    from scipy.ndimage import gaussian_filter

    noise = np.random.default_rng(seed).standard_normal(lattice.dims + (alg.dim,))
    for a in range(alg.dim):
        noise[..., a] = gaussian_filter(noise[..., a], sigma=smoothness, mode="wrap")
    return noise
