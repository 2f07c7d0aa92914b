import contextlib

import numpy as np
import pytest

from isophasal import frame, heat
from isophasal.brackets import Bracket, builtin_bracket
from isophasal.coord import FDScheme, christoffel_fd, first_derivative, make_metric_fn
from isophasal.metric import CutoffProfile, metric_at


@pytest.fixture(scope="session")
def cross1():
    return builtin_bracket("cross1")


@pytest.fixture(scope="session")
def cross2():
    return builtin_bracket("cross2")


@pytest.fixture(scope="session")
def quaternion():
    return builtin_bracket("quaternion")


@pytest.fixture(scope="session")
def zero_bracket():
    return builtin_bracket("zero")


@pytest.fixture(scope="session")
def reference_profile():
    return CutoffProfile(r1sq=1.0, r2sq=1.0, amplitude=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def opened_pools(monkeypatch):
    """Worker counts of the pools heat._node_pool opens while the test runs, in order."""
    opened = []
    node_pool = heat._node_pool

    @contextlib.contextmanager
    def spy(*args, **kwargs):
        with node_pool(*args, **kwargs) as pool:
            if pool is not None:
                opened.append(pool._max_workers)
            yield pool

    monkeypatch.setattr(heat, "_node_pool", spy)
    return opened


def random_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def random_bracket(m: int, k: int, rng: np.random.Generator, scale: float = 1.0) -> Bracket:
    lam = rng.normal(size=(k, m, m)) * scale
    return Bracket(lam - lam.transpose(0, 2, 1))


def frame_vectors_cartesian(bracket, profile, pts: np.ndarray) -> np.ndarray:
    """Cartesian components of the adapted orthonormal frame, shape (N, n, n).

    Column alpha holds E_alpha.  Independent of the frame engine: built
    straight from the frame's definition (xhat_i = e_i + sum_q a_iq dtheta_q,
    rhat = radial unit, that = angular unit), so it can transport
    coordinate-oracle tensors into the frame for cross-checks.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m, k = bracket.m, bracket.k
    n = m + 2 * k
    x, u = pts[:, :m], pts[:, m:]
    t1 = np.sum(x * x, axis=1)
    t2 = np.sum(u * u, axis=1)
    pd = profile.value_and_derivs(t1, t2)
    L = np.einsum("nj,pji->nip", x, bracket.tensor)
    a = pd.value[:, None, None] * L  # (N, m, k)
    E = np.zeros((pts.shape[0], n, n))
    for i in range(m):
        E[:, i, i] = 1.0
        for q in range(k):
            # a_iq * dtheta_q with dtheta_q = (-u_{2q+1}, u_{2q}) in plane q
            E[:, m + 2 * q, i] = -a[:, i, q] * u[:, 2 * q + 1]
            E[:, m + 2 * q + 1, i] = a[:, i, q] * u[:, 2 * q]
    r = np.hypot(u[:, 0::2], u[:, 1::2])
    for p in range(k):
        E[:, m + 2 * p, m + p] = u[:, 2 * p] / r[:, p]
        E[:, m + 2 * p + 1, m + p] = u[:, 2 * p + 1] / r[:, p]
        E[:, m + 2 * p, m + k + p] = -u[:, 2 * p + 1] / r[:, p]
        E[:, m + 2 * p + 1, m + k + p] = u[:, 2 * p] / r[:, p]
    return E


def frame_christoffel_oracle(bracket, profile, pt: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Frame Christoffels by transporting the coordinate oracle, single point.

    Gamma[gamma, alpha, beta] = g(nabla_{E_beta} E_alpha, E_gamma) computed
    from coordinate Christoffels plus finite differences of the frame fields.
    """
    pt = np.asarray(pt, dtype=float).reshape(1, -1)
    fn = make_metric_fn(bracket, profile)
    G = fn(pt)[0]
    Gam = christoffel_fd(fn, pt, scheme)[0]
    E = frame_vectors_cartesian(bracket, profile, pt)[0]
    dE = first_derivative(lambda q: frame_vectors_cartesian(bracket, profile, q), pt, scheme)[0]
    # cov[l, a, b] = (nabla_{E_b} E_a)^l = E_b^mu (d_mu E_a^l + Gamma^l_{mu nu} E_a^nu)
    cov = np.einsum("mb,mla->lab", E, dE) + np.einsum("mb,lmv,va->lab", E, Gam, E)
    return np.einsum("ls,sg,lab->gab", G, E, cov)


def frame_riemann_oracle(bracket, profile, pt: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Fully lowered Riemann tensor transported into the frame (tensorial, no frame derivatives)."""
    from isophasal.coord import riemann_fd

    pt = np.asarray(pt, dtype=float).reshape(1, -1)
    fn = make_metric_fn(bracket, profile)
    _G, _Gi, Rdn = riemann_fd(fn, pt, scheme)
    E = frame_vectors_cartesian(bracket, profile, pt)[0]
    return np.einsum("rsmv,ra,sb,mc,vd->abcd", Rdn[0], E, E, E, E)


def dense_scalars_reference(bracket, profile, x: np.ndarray, r: np.ndarray):
    """(tau, |Ric|^2, |Riem|^2) through the dense Koszul path, one batch, in long double.

    The float64 Koszul tau loses digits to the cancelling 1/r^2 polar terms
    (about 1e-11 of max|tau| for cross1 at s = 16); long double keeps the
    reference well below the closed forms' rounding.
    """
    x = np.asarray(x, dtype=np.longdouble)
    r = np.asarray(r, dtype=np.longdouble)
    c, dc = frame.structure_constants(frame.coupling_coeffs(bracket, profile, x, r), r)
    Riem, Ric, tau = frame.curvature(frame.christoffels(c), frame.christoffel_derivs(dc), c)
    return tau, np.einsum("nab,nab->n", Ric, Ric), np.einsum("nabcd,nabcd->n", Riem, Riem)
