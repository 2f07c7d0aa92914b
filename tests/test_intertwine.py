import numpy as np
import pytest
import sympy

from isophasal.brackets import Bracket, builtin_bracket
from isophasal.coord import FDScheme, first_derivative
from isophasal.metric import CutoffProfile, inverse_metric_at, inverse_metric_divergence, polar_to_cartesian
from isophasal import intertwine as itw
from conftest import random_bracket, random_orthogonal
from oracles import assembled_jets

M, K = 6, 3
TF = itw.TestFunction(m=M, freq=(1, -2, 0), powers=(1, 0, 2), x_bump_rsq=1.2, u_bump_rsq=1.1)


def sample_points(rng, n=6, lo=-0.4, hi=0.4):
    return np.concatenate([rng.uniform(lo, hi, size=(n, M)), rng.uniform(lo, hi, size=(n, 2 * K))], axis=1)


# --- test functions -----------------------------------------------------------

def test_testfunction_derivatives_match_fd(rng):
    pts = sample_points(rng)
    val, grad, hess = assembled_jets(TF, pts)
    scheme = FDScheme(h=1e-4, richardson=False)
    gfd = first_derivative(lambda q: TF(q), pts, scheme)
    np.testing.assert_allclose(grad, gfd, atol=1e-10)
    hfd = first_derivative(lambda q: assembled_jets(TF, q)[1], pts, scheme)
    np.testing.assert_allclose(hess, hfd.transpose(0, 2, 1), atol=1e-9)


ORACLE_FUNCTIONS = [
    # both bumps, exponent 2, a negative and a zero frequency, amplitude != 1
    itw.TestFunction(m=M, freq=(2, -1, 0), powers=(2, 0, 1), x_bump_rsq=1.2, u_bump_rsq=1.1, amplitude=-1.7),
    # no bumps: the bare polynomial
    itw.TestFunction(m=M, freq=(-2, 0, 1), powers=(0, 1, 0, 0, 0, 2), x_bump_rsq=None, u_bump_rsq=None, amplitude=0.6),
    # one bump each way, no x monomial
    itw.TestFunction(m=M, freq=(0, 2, -2), x_bump_rsq=None, u_bump_rsq=0.9),
    itw.TestFunction(m=M, freq=(0, 0, 0), powers=(1, 1), x_bump_rsq=1.1, u_bump_rsq=None, amplitude=2.5),
]


@pytest.mark.parametrize("fn", ORACLE_FUNCTIONS, ids=lambda f: f"freq{f.freq}-powers{f.powers}")
def test_testfunction_derivatives_match_sympy(fn):
    # full symbolic oracle for the value, gradient and Hessian of f(x, u)
    xs = sympy.symbols(f"x0:{M}")
    us = sympy.symbols(f"u0:{2 * K}")
    bump = lambda t: sympy.exp(1 - 1 / (1 - t))
    expr = sympy.Float(fn.amplitude)
    if fn.x_bump_rsq is not None:
        expr *= bump(sum(v**2 for v in xs) / sympy.Float(fn.x_bump_rsq))
    if fn.u_bump_rsq is not None:
        expr *= bump(sum(v**2 for v in us) / sympy.Float(fn.u_bump_rsq))
    for v, e in zip(xs, fn.powers):
        expr *= v**e
    for p, z in enumerate(fn.freq):
        expr *= (us[2 * p] + sympy.I * (1 if z >= 0 else -1) * us[2 * p + 1]) ** abs(z)
    syms = xs + us
    grad = [sympy.diff(expr, v) for v in syms]
    hess = [[sympy.diff(g, v) for v in syms] for g in grad]
    oracle = sympy.lambdify(syms, [expr, grad, hess], "mpmath")
    pts = np.array([
        [0.31, -0.22, 0.17, 0.08, -0.12, 0.27, 0.33, -0.41, 0.24, 0.18, -0.29, 0.36],
        [0.0, -0.22, 0.0, 0.08, -0.12, 0.27, 0.33, -0.41, 0.24, 0.18, -0.29, 0.36],  # x_i = 0
        [0.31, -0.22, 0.17, 0.08, -0.12, 0.27, 0.0, 0.0, 0.24, 0.18, -0.29, 0.36],  # u plane 0 at its origin
        [0.31, 0.0, 0.17, 0.08, -0.12, 0.0, 0.33, -0.41, 0.24, 0.18, 0.0, 0.0],  # u plane 2 at its origin
    ])
    val, grad_a, hess_a = assembled_jets(fn, pts)
    for i, pt in enumerate(pts):
        v_o, g_o, h_o = oracle(*pt)
        for got, want in ((val[i], v_o), (grad_a[i], g_o), (hess_a[i], h_o)):
            want = np.array(want, dtype=complex)
            scale = np.max(np.abs(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 * scale)


def test_testfunction_single_mode(rng):
    x0 = rng.uniform(-0.3, 0.3, size=M)
    r0 = rng.uniform(0.2, 0.4, size=K)
    th0 = rng.uniform(0, 2 * np.pi, size=K)
    dth = rng.uniform(0, 2 * np.pi, size=K)
    p0 = np.concatenate([x0, polar_to_cartesian(r0[None], th0[None])[0]])
    p1 = np.concatenate([x0, polar_to_cartesian(r0[None], (th0 + dth)[None])[0]])
    f0 = TF(p0[None])[0]
    f1 = TF(p1[None])[0]
    assert abs(f1 - f0 * np.exp(1j * np.dot(TF.freq, dth))) < 1e-14


def test_testfunction_compact_support(rng):
    pts = sample_points(rng)
    pts[:, :M] *= 3.0  # outside the x bump
    assert np.max(np.abs(TF(pts))) == 0.0


def test_band_limit():
    assert TF.band_limit == 2
    assert itw.TestFunction(m=M, freq=(0, 0, 0)).band_limit == 0


# --- Fourier decomposition ------------------------------------------------------

def test_fourier_single_mode(rng):
    field = itw.FourierField(lambda q: TF(q), N=2, k=K)
    x0 = rng.uniform(-0.3, 0.3, size=M)
    r0 = rng.uniform(0.2, 0.4, size=K)
    coefs = field.coefficients_all(x0[None], r0[None])
    live = {Z for Z, c in coefs.items() if abs(c[0]) > 1e-13}
    assert live == {TF.freq}


def test_fourier_constant_in_theta(rng):
    f0 = itw.TestFunction(m=M, freq=(0, 0, 0), powers=(1,))
    field = itw.FourierField(lambda q: f0(q), N=1, k=K)
    coefs = field.coefficients_all(rng.uniform(-0.3, 0.3, size=(1, M)), rng.uniform(0.2, 0.4, size=(1, K)))
    live = {Z for Z, c in coefs.items() if abs(c[0]) > 1e-13}
    assert live == {(0, 0, 0)}


def test_fourier_reconstruction_and_parseval(rng):
    # random band-limited combination: trapezoid recovery is exact
    fns = [
        itw.TestFunction(m=M, freq=(1, 0, -1), powers=(1,)),
        itw.TestFunction(m=M, freq=(0, 2, 1), powers=(0, 1)),
        itw.TestFunction(m=M, freq=(-2, 0, 0)),
    ]
    w = rng.normal(size=3) + 1j * rng.normal(size=3)

    def f(q):
        return sum(wi * fi(q) for wi, fi in zip(w, fns))

    field = itw.FourierField(f, N=2, k=K)
    x0 = rng.uniform(-0.25, 0.25, size=M)
    r0 = rng.uniform(0.2, 0.4, size=K)
    th0 = rng.uniform(0, 2 * np.pi, size=K)
    direct = f(np.concatenate([x0, polar_to_cartesian(r0[None], th0[None])[0]])[None])[0]
    coefs = {Z: c[0] for Z, c in field.coefficients_all(x0[None], r0[None]).items()}
    series = sum(c * np.exp(1j * np.dot(Z, th0)) for Z, c in coefs.items())
    assert abs(series - direct) < 1e-12
    # Parseval on the fiber: sum |f_Z|^2 equals the grid mean of |f|^2
    G = field.sigma.shape[0]
    fiber = np.concatenate([np.tile(x0, (G, 1)), polar_to_cartesian(np.tile(r0, (G, 1)), field.sigma)], axis=1)
    assert abs(sum(abs(c) ** 2 for c in coefs.values()) - np.mean(np.abs(f(fiber)) ** 2)) < 1e-10


def smooth_all_modes(q):
    # not band-limited: every angular mode of the grid carries weight
    q = np.atleast_2d(q)
    x, u = q[:, :M], q[:, M:]
    a = np.array([0.9, -0.7j, 0.6 + 0.3j, 0.8, -0.5, 0.7j])
    return (1.0 + x[:, 0] - 0.5j * x[:, 2]) * np.exp(u @ a)


@pytest.mark.parametrize("N", [2, 4])
def test_fourier_fft_matches_trapezoid_sums(rng, N):
    # the fftn spectrum against direct sums mean(vals * exp(-i Z.sigma)) on the
    # same 2N+1 grid, over every |Z|_inf <= N (negative frequencies included)
    field = itw.FourierField(smooth_all_modes, N=N, k=K)
    assert field.grid_size == 2 * N + 1
    x0 = rng.uniform(-0.3, 0.3, size=M)
    r0 = rng.uniform(0.8, 1.2, size=K)
    G = field.sigma.shape[0]
    fiber = np.concatenate([np.tile(x0, (G, 1)), polar_to_cartesian(np.tile(r0, (G, 1)), field.sigma)], axis=1)
    vals = smooth_all_modes(fiber)
    coefs = {Z: c[0] for Z, c in field.coefficients_all(x0[None], r0[None]).items()}
    assert list(coefs) == itw.mode_vectors(N, K)
    direct = {Z: np.mean(vals * np.exp(-1j * field.sigma @ np.asarray(Z, dtype=float))) for Z in coefs}
    scale = max(abs(c) for c in direct.values())
    for Z, c in coefs.items():
        assert abs(c - direct[Z]) <= 1e-14 * scale
    for Z in ((-N,) * K, (N, -N, 0), (0, 1, -N)):
        assert abs(field.coefficient(Z, x0[None], r0[None])[0] - direct[Z]) <= 1e-14 * scale
    assert min(abs(c) for c in direct.values()) > 1e-12 * scale  # every mode carries weight


def test_fourier_batched_fibers(rng):
    # a batch of fibers gives each fiber's coefficients, one frequency per fiber,
    # the same as each fiber taken as a one-fiber batch
    field = itw.FourierField(smooth_all_modes, N=2, k=K)
    xs = rng.uniform(-0.3, 0.3, size=(4, M))
    rs = rng.uniform(0.2, 0.5, size=(4, K))
    Zs = np.array([(0, 0, 0), (-2, 1, 0), (1, -1, 2), (2, 2, -2)])
    batched = field.coefficients_all(xs, rs)
    picked = field.coefficient(Zs, xs, rs)
    for i in range(4):
        single = {Z: c[0] for Z, c in field.coefficients_all(xs[i:i + 1], rs[i:i + 1]).items()}
        for Z, c in single.items():
            assert abs(batched[Z][i] - c) <= 1e-15 * max(1.0, abs(c))
        assert abs(picked[i] - single[tuple(Zs[i])]) <= 1e-15 * max(1.0, abs(picked[i]))


# --- Q ---------------------------------------------------------------------------

def test_apply_q_identity_pair(cross1, rng):
    Qf = itw.apply_Q(itw.build_conjugators(cross1, cross1, itw.mode_vectors(2, K)), TF)
    pts = sample_points(rng)
    np.testing.assert_allclose(Qf(pts), TF(pts), atol=1e-12)


def test_apply_q_out_of_band_is_zero(cross1, quaternion, reference_profile, monkeypatch, rng):
    # the truncated Q maps a mode beyond the band to the zero function: only
    # the in-band Qf reaches the first metric's Laplacian, and the residual of
    # the out-of-band one is that of a zero left-hand side
    in_band = itw.TestFunction(m=M, freq=(1, 0, 0), x_bump_rsq=1.3, u_bump_rsq=1.3)
    lhs_functions, transported = [], []
    laplacian, transport = itw.laplacian, itw._transport

    def laplacian_spy(bracket, profile, f, pts):
        if isinstance(f, itw.RotatedFunction):
            lhs_functions.append(f)
        return laplacian(bracket, profile, f, pts)

    def transport_spy(*args):
        transported.append(transport(*args))
        return transported[-1]

    monkeypatch.setattr(itw, "laplacian", laplacian_spy)
    monkeypatch.setattr(itw, "_transport", transport_spy)
    rep = itw.intertwine_residual(
        cross1, quaternion, reference_profile, [in_band, TF], small_points(reference_profile, n=3), N=1
    )
    [Q_in] = lhs_functions
    assert Q_in.base == in_band
    assert np.any(Q_in(sample_points(rng)))
    rhs = transported[1]
    assert np.any(rhs)
    assert rep.per_function[1] == float(np.max(np.abs(rhs) / (1.0 + np.abs(rhs))))


def test_apply_q_requires_built_conjugator(cross1, quaternion):
    # no silent zero: an in-band mode whose conjugator was not built is an error
    conj = itw.build_conjugators(cross1, quaternion, [(0, 0, 0), (1, 0, 0)])
    assert set(conj) == {(0, 0, 0), (1, 0, 0)}
    with pytest.raises(KeyError, match="no conjugator"):
        itw.apply_Q(conj, TF)


def test_q_preserves_modes(cross1, cross2, rng):
    Qf = itw.apply_Q(itw.build_conjugators(cross1, cross2, itw.mode_vectors(2, K)), TF)
    field = itw.FourierField(lambda q: Qf(q), N=2, k=K)
    coefs = field.coefficients_all(rng.uniform(-0.3, 0.3, size=(1, M)), rng.uniform(0.2, 0.4, size=(1, K)))
    live = {Z for Z, c in coefs.items() if abs(c[0]) > 1e-13}
    assert live == {TF.freq}


def test_q_linear(cross1, quaternion, rng):
    f1 = itw.TestFunction(m=M, freq=(1, -2, 0), powers=(1,))
    f2 = itw.TestFunction(m=M, freq=(1, -2, 0), powers=(0, 0, 2))
    a, b = 1.7, -0.4 + 0.9j
    conj = itw.build_conjugators(cross1, quaternion, itw.mode_vectors(2, K))
    pts = sample_points(rng)
    combined = a * itw.apply_Q(conj, f1)(pts) + b * itw.apply_Q(conj, f2)(pts)
    # same frequency, so the combination is again a single-mode function with
    # the same rotation: Q of the sum is the sum composed with x -> A x
    rotated = pts.copy()
    rotated[:, :M] = pts[:, :M] @ conj[f1.freq].A.T
    direct = a * f1(rotated) + b * f2(rotated)
    np.testing.assert_allclose(combined, direct, atol=1e-13)


def test_q_unitary_on_fibers(cross1, quaternion, rng):
    # per-mode fiber norms transport exactly: |(Qf)_Z(x, r)| = |f_Z(A_Z x, r)|,
    # and summing modes gives Parseval equality of the fiber L2 norms
    fns = [
        itw.TestFunction(m=M, freq=(1, 0, -1), powers=(1,)),
        itw.TestFunction(m=M, freq=(0, 2, 1)),
    ]
    conj = itw.build_conjugators(cross1, quaternion, itw.mode_vectors(2, K))

    def f(q):
        return sum(fi(q) for fi in fns)

    def Qf(q):
        return sum(itw.apply_Q(conj, fi)(q) for fi in fns)

    field_f = itw.FourierField(f, N=2, k=K)
    field_Qf = itw.FourierField(Qf, N=2, k=K)
    for _ in range(4):
        x0 = rng.uniform(-0.3, 0.3, size=M)
        r0 = rng.uniform(0.2, 0.4, size=K)
        total_q = 0.0
        total_f = 0.0
        for fi in fns:
            Z = fi.freq
            cq = field_Qf.coefficient(Z, x0[None], r0[None])[0]
            cf = field_f.coefficient(Z, (conj[Z].A @ x0)[None], r0[None])[0]
            assert abs(abs(cq) - abs(cf)) < 1e-8
            total_q += abs(cq) ** 2
            total_f += abs(cf) ** 2
        assert abs(total_q - total_f) < 1e-8


# --- Laplacian --------------------------------------------------------------------

def fd_jet(fn, pts, scheme):
    """fn's values with their finite-difference gradient and (symmetrised) Hessian."""
    fn_ = lambda q: np.asarray(fn(q))
    grad = first_derivative(fn_, pts, scheme)
    hess = first_derivative(lambda q: first_derivative(fn_, q, scheme), pts, scheme)
    return fn_(pts), grad, 0.5 * (hess + hess.transpose(0, 2, 1))


class FDFactors:
    """Product evaluator whose factor jets are finite differences of each factor's values.

    fx maps x (N, M) and fu maps u (N, 2K) to the values of the two factors.
    """

    def __init__(self, fx, fu, scheme):
        self.fx = fx
        self.fu = fu
        self.scheme = scheme

    def factor_jets(self, pts):
        pts = np.atleast_2d(pts)
        return fd_jet(self.fx, pts[:, :M], self.scheme), fd_jet(self.fu, pts[:, M:], self.scheme)


def gaussian_jet(y):
    v = np.exp(-0.5 * np.sum(y * y, axis=1))
    return v, -y * v[:, None], (y[:, :, None] * y[:, None, :] - np.eye(y.shape[1])) * v[:, None, None]


class Gaussian:
    """e^(-|x|^2/2) e^(-|u|^2/2), both factor jets in closed form."""

    def factor_jets(self, pts):
        pts = np.atleast_2d(pts)
        return gaussian_jet(pts[:, :M]), gaussian_jet(pts[:, M:])


def test_laplacian_euclidean_gaussian(zero_bracket, reference_profile, rng):
    pts = sample_points(rng, lo=-0.7, hi=0.7)
    lap = itw.laplacian(zero_bracket, reference_profile, Gaussian(), pts)
    t = np.sum(pts * pts, axis=1)
    np.testing.assert_allclose(lap.real, (12 - t) * np.exp(-0.5 * t), atol=1e-10)
    np.testing.assert_allclose(lap.imag, 0.0, atol=1e-12)


def test_laplacian_flat_polar_phase(cross1, reference_profile, rng):
    # in the flat region, Delta e^{i Z.theta} = (sum_p Z_p^2 / r_p^2) e^{i Z.theta};
    # checked with finite-difference derivatives of the values only, the x
    # factor being the constant one
    Z = np.array([2.0, -1.0, 1.0])
    r0 = rng.uniform(0.8, 1.2, size=K)
    th0 = rng.uniform(0, 2 * np.pi, size=K)
    x0 = np.full(M, 0.8)  # |x| = 1.96: outside the metric support

    def phase(u):
        u = np.atleast_2d(u)
        th = np.arctan2(u[:, 1::2], u[:, 0::2])
        return np.exp(1j * th @ Z)

    pt = np.concatenate([x0, polar_to_cartesian(r0[None], th0[None])[0]])[None]
    fn = FDFactors(lambda x: np.ones(len(x)), phase, FDScheme(h=1e-4, richardson=True))
    lap = itw.laplacian(cross1, reference_profile, fn, pt)
    want = np.sum(Z**2 / r0**2) * phase(pt[:, M:])
    np.testing.assert_allclose(lap, want, rtol=1e-5)


def test_laplacian_fd_vs_analytic(cross1, reference_profile, rng):
    pts = sample_points(rng, n=3)
    a = itw.laplacian(cross1, reference_profile, TF, pts)
    scheme = FDScheme(h=1e-3 * max(reference_profile.x_radius, reference_profile.u_radius), richardson=False)
    # each factor's values, read off TF at a point whose other block is zero
    fx = lambda x: TF.factor_jets(np.concatenate([x, np.zeros((len(x), 2 * K))], axis=1))[0][0]
    fu = lambda u: TF.factor_jets(np.concatenate([np.zeros((len(u), M)), u], axis=1))[1][0]
    f = itw.laplacian(cross1, reference_profile, FDFactors(fx, fu, scheme), pts)
    np.testing.assert_allclose(a, f, atol=1e-6)


@pytest.mark.parametrize("s", [1.0, 16.0])
@pytest.mark.parametrize("m, k", [(5, 2), (6, 3), (7, 3)])
def test_laplacian_blocks_match_dense_contraction(m, k, s, reference_profile, rng):
    # laplacian's block contraction of the factor jets against the dense
    # -(<G^-1, H> + div . grad f) of the assembled jets, for test functions
    # and their rotations
    bracket = random_bracket(m, k, rng)
    profile = reference_profile.scaled(s)
    x, r, theta = itw.default_points(m, k, profile, n_points=16, seed=3)
    pts = np.concatenate([x, polar_to_cartesian(r, theta)], axis=1)
    Gi = inverse_metric_at(bracket, profile, x, pts[:, m:])
    div = inverse_metric_divergence(bracket, profile, x, pts[:, m:])
    fns = itw.default_test_functions(m, k, profile)
    A = random_orthogonal(m, rng)
    for fn in fns + [itw.RotatedFunction(base=f, A=A) for f in fns]:
        _val, grad, hess = assembled_jets(fn, pts)
        dense = -(np.einsum("nab,nab->n", Gi, hess) + np.einsum("na,na->n", div, grad))
        lap = itw.laplacian(bracket, profile, fn, pts)
        scale = np.max(np.abs(lap))
        assert scale > 0.0
        assert np.max(np.abs(lap - dense)) <= 1e-13 * scale


# --- intertwining -------------------------------------------------------------------

def small_points(profile, n=6):
    return itw.default_points(M, K, profile, n_points=n, seed=5)


def test_intertwine_identity_pair(cross1, reference_profile):
    fns = itw.default_test_functions(M, K, reference_profile)[:3]
    rep = itw.intertwine_residual(cross1, cross1, reference_profile, fns, small_points(reference_profile))
    assert rep.max_residual <= 1e-12


def test_intertwine_isospectral_pairs(cross1, cross2, quaternion, reference_profile):
    fns = itw.default_test_functions(M, K, reference_profile)[:3]
    pts = small_points(reference_profile)
    for other in (cross2, quaternion):
        rep = itw.intertwine_residual(cross1, other, reference_profile, fns, pts)
        assert rep.max_residual <= 1e-12
        assert rep.truncation_tail <= 1e-12
        assert rep.residual_conj <= 1e-10
        assert rep.residual_orth <= 1e-10
        # the report covers only the modes Q reads; check every conjugator of the band
        band = itw.build_conjugators(cross1, other, itw.mode_vectors(2, K)).values()
        assert max(c.residual_conj for c in band) <= 1e-10
        assert max(c.residual_orth for c in band) <= 1e-10


@pytest.mark.parametrize("m, k", [(2, 1), (2, 2)])
def test_intertwine_below_three_dimensions(m, k, reference_profile, rng):
    # the basket's monomials are cut to the m coordinates, as its frequencies are to k
    b1 = random_bracket(m, k, rng)
    A = np.linalg.qr(rng.normal(size=(m, m)))[0]
    b2 = Bracket(A.T @ b1.tensor @ A)  # j_2(Z) = A^T j_1(Z) A for every Z
    fns = itw.default_test_functions(m, k, reference_profile)
    pts = itw.default_points(m, k, reference_profile, n_points=6, seed=5)
    rep = itw.intertwine_residual(b1, b2, reference_profile, fns, pts)
    assert rep.max_residual <= 1e-12


def test_intertwine_negative_control(cross1, cross2):
    profile = CutoffProfile(1.0, 1.0, amplitude=2.5)
    lam = cross2.tensor.copy()
    lam[0] *= 4.0
    bad = Bracket(lam)
    fns = itw.default_test_functions(M, K, profile)[:4]
    rep = itw.intertwine_residual(cross1, bad, profile, fns, small_points(profile, n=8), strict=False)
    assert rep.max_residual > 1e-1


def test_inverse_metric_divergence_matches_fd(cross1, cross2, quaternion, reference_profile):
    # closed-form d_mu G^{mu nu} against the coordinate oracle's differences of
    # inverse_metric_at: order-4 convergence from a coarse step, then agreement
    # far below any intertwining tolerance
    lam = cross2.tensor.copy()
    lam[0] *= 4.0
    control = Bracket(lam)
    for profile in (reference_profile, CutoffProfile(1.0, 1.0, amplitude=2.5)):
        x, r, theta = small_points(profile, n=8)
        pts = np.concatenate([x, polar_to_cartesian(r, theta)], axis=1)
        for bracket in (cross1, cross2, quaternion, control):
            div = inverse_metric_divergence(bracket, profile, pts[:, :M], pts[:, M:])
            assert np.all(div[:, :M] == 0.0)
            assert np.max(np.abs(div[:, M:])) > 1e-3

            def ginv(q):
                return itw.inverse_metric_at(bracket, profile, q[:, :M], q[:, M:])

            err = []
            for h in (2e-2, 1e-2, 1e-3):
                dGi = first_derivative(ginv, pts, FDScheme(h=h, richardson=False))
                err.append(np.max(np.abs(np.einsum("nmmv->nv", dGi) - div)))
            assert err[1] < err[0] / 8.0
            assert err[2] < 1e-8


def test_intertwine_band_refinement(cross1, quaternion, reference_profile, conjugator_calls):
    # truncating below the band limit loses a live mode; widening to the band
    # limit restores the identity
    f = itw.TestFunction(m=M, freq=(2, 0, 0), x_bump_rsq=1.3, u_bump_rsq=1.3)
    pts = small_points(reference_profile, n=3)
    rep_narrow = itw.intertwine_residual(cross1, quaternion, reference_profile, [f], pts, N=1)
    rep_full = itw.intertwine_residual(cross1, quaternion, reference_profile, [f], pts, N=2)
    assert rep_full.max_residual <= 1e-12
    assert rep_narrow.max_residual > 1e3 * rep_full.max_residual
    # at N = 1 the mode aliases onto (-1, 0, 0), which gets its conjugator
    assert conjugator_calls == [(-1, 0, 0), (2, 0, 0)]


@pytest.fixture
def conjugator_calls(monkeypatch):
    """The mode of every conjugator call intertwine makes, in call order."""
    calls = []
    conjugator = itw.conjugator

    def counting(b1, b2, Z, require_match=True):
        calls.append(tuple(int(z) for z in Z))
        return conjugator(b1, b2, Z, require_match=require_match)

    monkeypatch.setattr(itw, "conjugator", counting)
    return calls


def test_intertwine_builds_only_the_modes_q_uses(cross1, cross2, reference_profile, conjugator_calls):
    # one conjugator call per distinct nonzero mode Q reads, and the report
    # says how many modes its conjugator residuals cover
    fns = itw.default_test_functions(M, K, reference_profile)[:6]
    rep = itw.intertwine_residual(cross1, cross2, reference_profile, fns, small_points(reference_profile))
    assert len(conjugator_calls) == 5
    assert sorted(conjugator_calls) == sorted({f.freq for f in fns} - {(0, 0, 0)})
    assert rep.n_conjugators == 6  # A_0 = I included
    assert rep.max_residual <= 1e-12


def test_intertwine_tail_on_widest_function(cross1, quaternion, reference_profile):
    # the tail is measured once per pair, on the widest-band function even
    # when it comes after a narrower one: at N = 1 a band-2 mode is all tail
    narrow = itw.TestFunction(m=M, freq=(1, 0, 0), x_bump_rsq=1.3, u_bump_rsq=1.3)
    wide = itw.TestFunction(m=M, freq=(0, 2, 0), x_bump_rsq=1.3, u_bump_rsq=1.3)
    pts = small_points(reference_profile, n=3)
    rep = itw.intertwine_residual(cross1, quaternion, reference_profile, [narrow, narrow, wide], pts, N=1)
    assert rep.truncation_tail > 0.1
    assert itw.intertwine_residual(cross1, quaternion, reference_profile, [narrow], pts, N=1).truncation_tail <= 1e-12
