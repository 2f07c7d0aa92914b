"""Analytic curvature engine in the adapted orthonormal frame.

On the dense open set where every plane radius r_p is positive, polar
coordinates (x, r, theta) and the orthonormal frame

    xhat_i = e_i + sum_q a_iq(x, r) d/dtheta_q,   rhat_p = d/dr_p,
    that_q = (1/r_q) d/dtheta_q,

with coupling coefficients a_iq = phi_s(|x|^2, |r|^2) <[x, e_i], Z_q>, turn the
metric into constant coefficients; all curvature information sits in the frame
structure constants.  The metric

    |dx|^2 + |dr|^2 + sum_q r_q^2 (dtheta_q - A_q)^2,   A_q = sum_i a_iq dx_i,

is a T^k bundle over the flat half-space of y = (x, r), with connection A_q
and fibre metric diag(r_q^2).  With E_alpha running over the xhat and rhat
fields (the y frame) and a_alpha,q = 0 for an rhat index, the nonzero
brackets are

    [E_alpha, E_beta] = sum_q F^q_alpha,beta that_q,   F^q = r_q (D_q - D_q^T),
    [rhat_q, that_q] = -(1/r_q) that_q,

with D_q[e, i] = d a_iq / d y_e: F^q is the field strength r_q dA_q read in
the frame, and the last bracket is the flat polar term.  In the coframe
e^alpha = dy_alpha, e^{t_q} = r_q (dtheta_q - A_q), Cartan's structure
equations give the connection forms

    omega^alpha_beta = 1/2 sum_q F^q_alpha,beta e^{t_q},
    omega^{t_q}_alpha = s_q delta_{alpha rho_q} e^{t_q} - 1/2 sum_gamma F^q_alpha,gamma e^gamma,

where rho_q is rhat_q's index and s_q = 1/r_q.  So the curvature is a
function of F and its y-derivatives dF alone (O'Neill's equations: O'Neill,
Michigan Math. J. 13, 1966; Besse, Einstein Manifolds, 1987, ch. 9).  With
M_pq = F^p F^q (matrix product), P_pq = -tr M_pq = <F^p, F^q> and
T = sum_pq tr(M_pq M_pq):

    tau = -1/4 sum_q P_qq,
    Ric = 1/2 sum_q M_qq on the y block, 1/4 P on the that block, and
        Ric(E_alpha, that_q) = 1/2 sum_beta d_beta F^q_beta,alpha
                               + 1/2 s_q F^q_rho_q,alpha + 1/2 sum_p s_p F^q_rho_p,alpha,
    |Riem|^2 = 3/8 (sum_pq P_pq^2 + T) + 4 sum_q |B^q|^2 + 1/2 sum_pq |M_pq|^2
               - 1/4 sum_pq <M_pq, M_qp> + 2 sum_q s_q^2 sum_{p != q} |F^p_rho_q,.|^2,

with B^q_alpha,beta,gamma = Riem(E_alpha, E_beta, E_gamma, that_q) =
1/2 d_gamma F^q_alpha,beta + 1/2 s_q (delta_{gamma rho_q} F^q_alpha,beta
- delta_{alpha rho_q} F^q_beta,gamma + delta_{beta rho_q} F^q_alpha,gamma).
The |Riem|^2 terms are the frame-type blocks yyyy, yyyt (4 copies), yytt (2),
ytyt (4) and yttt (4); blocks with three or four that indices vanish.  The
polar terms cancel, so the zero bracket (F = 0) is exactly flat.

The rank form.  Write y = (x, r), g and H for phi's y-gradient and
y-Hessian (g_e = 2 phi_a y_e and H = 4 phi_ab y y^T + 2 diag(phi_a), with a
the slot, |x|^2 or |r|^2, of y_e), ell_q[i] = <[x, e_i], Z_q> (zero on the r
indices), Lambda_q for the bracket tensor's slice in the x-x block (zero
elsewhere) and u ^ v = u v^T - v u^T.  Then D_q = g ell_q^T + phi Lambda_q and

    F^q = r_q (g ^ ell_q + 2 phi Lambda_q),
    d_c F^q = r_q (H_c ^ ell_q + g ^ lambda_qc + 2 g_c Lambda_q) + delta_{c rho_q} s_q F^q,

with H_c the c-th column of H and lambda_qc the c-th row of Lambda_q: F^q is
rank two plus a constant.  The Ricci divergence is

    sum_b d_b F^q_b,. = r_q (tr H ell_q - H ell_q - 3 Lambda_q g) + s_q F^q_rho_q,. .

With 2 B^q_c = d_c F^q + s_q (delta_{c rho_q} F^q + F^q_.,c ^ e_rho_q) (the
B^q above at fixed gamma = c) and the wedge identities

    |u ^ v|^2 = 2 (|u|^2 |v|^2 - (u.v)^2),
    <u ^ v, w ^ z> = 2 ((u.w)(v.z) - (u.z)(v.w)),
    <u ^ v, A> = 2 u^T A v for skew A,

and tr(H Lambda_q) = 0 (H symmetric, Lambda_q skew), the sum over c is

    4 |B^q|^2 = r_q^2 (2 |H|^2 |ell_q|^2 - 2 |H ell_q|^2 + 6 |g|^2 |Lambda_q|^2
                       + 6 |Lambda_q g|^2 + 12 (H g).(Lambda_q ell_q))
                + 6 s_q^2 (|F^q|^2 + |F^q_rho_q,.|^2)
                + 12 (H_rho_q . F^q ell_q + g_rho_q <Lambda_q, F^q>),

a handful of matrix-vector products per plane: O(k (m+k)^2) work a point
besides the k^2 products M_pq, where dF held k (m+k)^3 entries.

What is materialised on the quadrature path (curvature_scalars, a2_integrand),
per batch of at most _ENGINE_CHUNK points:
  - phi's y-jet: g (N, m+k) and H (N, m+k, m+k);
  - ell_q, H ell_q and Lambda_q g, each (N, k, m+k), and Lambda (k, m+k, m+k);
  - one workspace holding F and its scratch, each (N, k, m+k, m+k), the
    k^2 products M_pq (N, k, k, m+k, m+k) and a contiguous copy of their
    transposes;
  - the Ricci blocks, (N, m+k, m+k) and (N, k, m+k), and per-plane scalars.
No y-Hessian of a, no dF, no Christoffel symbol, no dense structure
constants and no Riem block are built there.

The Koszul path serves frame_bundle only, for inspection, the tests and
`isophasal validate`, where it is the independent reference for the closed
forms: coupling_coeffs builds a with its y-gradient and y-Hessian
(CouplingCoeffs) by the product rule, _field_strengths turns them into F and
dF, structure_constants fills the dense c and its y-derivatives dc (the
polar terms included), christoffels applies the Koszul formula, and curvature
assembles the dense Riem by the standard frame formula.  It shares only
profile.value_and_derivs and the bracket tensor with the engine.  No finite
differences anywhere in this module.  Index layout on that path: 0..m-1 xhat,
m..m+k-1 rhat, m+k..m+2k-1 that.  Tensors are stored as c[n, gamma, alpha,
beta] (gamma-component of [E_alpha, E_beta]), Gamma[n, gamma, alpha, beta]
(gamma-component of the covariant derivative of E_alpha along E_beta), and
Riem[n, alpha, beta, gamma, delta].
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .brackets import Bracket
from .metric import CutoffProfile, _real

__all__ = [
    "R_MIN_FACTOR",
    "DegeneratePointError",
    "CouplingCoeffs",
    "FrameCurvature",
    "coupling_coeffs",
    "structure_constants",
    "christoffels",
    "christoffel_derivs",
    "curvature",
    "curvature_scalars",
    "a2_constant",
    "a2_density",
    "a2_integrand",
    "frame_bundle",
]

R_MIN_FACTOR = 1e-6  # radii below R_MIN_FACTOR * (r-support radius) are degenerate
_ENGINE_CHUNK = 128  # points per batch of curvature_scalars: bounds the engine's working set


class DegeneratePointError(ValueError):
    """A plane radius is too close to zero for the polar frame."""


@dataclasses.dataclass(frozen=True)
class CouplingCoeffs:
    """a_ip and its partials in y = (x, r) at a batch of points.

    Shapes: a (N,m,k); grad (N,m,k,m+k) is da/dy_e; hess (N,m,k,m+k,m+k) is
    d2a/dy_e dy_f, derivative axes last (y_0..y_{m-1} = x, y_m.. = r).
    """

    a: np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def _r_min(profile: CutoffProfile) -> float:
    return R_MIN_FACTOR * profile.u_radius


def _check_radii(profile: CutoffProfile, r: np.ndarray) -> None:
    r_min = _r_min(profile)
    if np.any(r <= r_min):
        bad = float(np.min(r))
        raise DegeneratePointError(
            f"plane radius {bad:g} <= r_min {r_min:g}: polar frame degenerates; "
            "use the coordinate oracle near the axes"
        )


def _usable_nodes(profile: CutoffProfile, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Mask of points inside the cutoff support with every plane radius above the frame's floor."""
    t1 = np.sum(x * x, axis=1)
    t2 = np.sum(r * r, axis=1)
    return profile.inside_support(t1, t2) & np.all(r > _r_min(profile), axis=1)


def coupling_coeffs(bracket: Bracket, profile: CutoffProfile, x: np.ndarray, r: np.ndarray) -> CouplingCoeffs:
    """a_ip(y) = phi_s(|x|^2, |r|^2) <[x, e_i], Z_p> with its gradient and Hessian in y = (x, r).

    The front half of the Koszul reference (frame_bundle); the engine reads
    phi's jet from _jets instead and never builds the Hessian tensor.
    L_ip = <[x, e_i], Z_p> is linear in x and constant in r, so with g and H
    the y-gradient and y-Hessian of phi: grad = g L + phi dL and
    hess = H L + g (x) dL + dL (x) g, where dL vanishes along r.
    """
    x = np.atleast_2d(_real(x))
    r = np.atleast_2d(_real(r))
    m, k = bracket.m, bracket.k
    t1 = np.sum(x * x, axis=1)
    t2 = np.sum(r * r, axis=1)
    pd = profile.value_and_derivs(t1, t2)
    # L[n,i,p] = <[x, e_i], Z_p>; dL[i,p,j] = dL_ip/dx_j = Lambda[p,j,i] is constant
    L = np.einsum("nj,pji->nip", x, bracket.tensor)
    dL = np.einsum("pji->ipj", bracket.tensor)

    # phi's partials by the slot (|x|^2 or |r|^2) of each y_e: g = 2 phi_a y_e,
    # H = 4 phi_ab y_e y_f + 2 phi_a on the diagonal
    slot = np.repeat([0, 1], [m, k])
    y = np.concatenate([x, r], axis=1)
    phi_a = np.stack([pd.d1, pd.d2], axis=1)[:, slot]
    phi_ab = np.stack([pd.d11, pd.d12, pd.d22], axis=1)[:, slot[:, None] + slot]
    g = 2.0 * (phi_a * y)
    hyy = (phi_ab * y[:, :, None]) * y[:, None, :]
    # the r-x block mirrors the x-r block, so hess's mixed blocks are exact transposes where
    # (phi_12 r_q) x_j and (phi_12 x_j) r_q would round apart; the x-x and r-r blocks are not
    # mirrored, and the adds below reach x-x in either order, so there hess is symmetric to an ulp
    hyy[:, m:, :m] = hyy[:, :m, m:].transpose(0, 2, 1)

    Ly = L[..., None]
    grad = g[:, None, None, :] * Ly
    grad[..., :m] += pd.value[:, None, None, None] * dL[None]
    hess = (4.0 * hyy)[:, None, None] * Ly[..., None]
    diag = np.einsum("nipee->nipe", hess)  # a view: H's diagonal term is added on its own
    diag += (2.0 * phi_a)[:, None, None, :] * Ly
    dLg = dL[None, :, :, :, None] * g[:, None, None, None, :]  # its transpose is g (x) dL
    hess[..., :m] += dLg.transpose(0, 1, 2, 4, 3)
    hess[..., :m, :] += dLg
    return CouplingCoeffs(a=pd.value[:, None, None] * L, grad=grad, hess=hess)


def _field_strengths(cc: CouplingCoeffs, r: np.ndarray, F: np.ndarray, dF: np.ndarray) -> None:
    """Write F^q = r_q (D_q - D_q^T) into F and its y-derivatives into dF, over every entry.

    F is (N, k, m+k, m+k) and dF (N, k, m+k, m+k, m+k) with the derivative
    direction y_f last.  With D_q[e, i] = d a_iq / d y_e (zero where i is an
    rhat index), d F^q / d y_f is r_q (dD_q - dD_q^T)[..., f], plus D_q - D_q^T
    when y_f = r_q.
    """
    m = cc.a.shape[1]
    D = cc.grad.transpose(0, 2, 3, 1)  # D[n,q,e,i]
    dD = cc.hess.transpose(0, 2, 3, 1, 4)  # dD[n,q,e,i,f]
    # antisymmetrised in place, then times r_q
    F[..., :m] = D
    F[..., m:] = 0.0
    F[:, :, :m] -= D.transpose(0, 1, 3, 2)
    dF[..., :m, :] = dD
    dF[..., m:, :] = 0.0
    dF[:, :, :m] -= dD.transpose(0, 1, 3, 2, 4)
    dF *= r[:, :, None, None, None]
    for q in range(r.shape[1]):
        dF[:, q, :, :, m + q] += F[:, q]
    F *= r[:, :, None, None]


def structure_constants(cc: CouplingCoeffs, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense structure constants c[n,gamma,alpha,beta] and their y-derivatives, for frame_bundle.

    dc has shape (N, n, n, n, m+k) with the derivative direction y_f last;
    theta-derivatives vanish identically.  c's that_q row over xhat/rhat pairs
    is F^q, and the polar terms [rhat_q, that_q] = -(1/r_q) that_q complete it.
    """
    r = np.atleast_2d(_real(r))
    npts, k = r.shape
    m = cc.a.shape[1]
    n = m + 2 * k
    mk = m + k
    c = np.zeros((npts, n, n, n), dtype=r.dtype)
    dc = np.zeros((npts, n, n, n, mk), dtype=r.dtype)
    _field_strengths(cc, r, c[:, mk:, :mk, :mk], dc[:, mk:, :mk, :mk])
    # flat polar: [rhat_q, that_q] = -(1/r_q) that_q, and its d/dr_q
    inv_r = 1.0 / r
    inv_r2 = inv_r * inv_r
    for q in range(k):
        c[:, mk + q, m + q, mk + q] = -inv_r[:, q]
        c[:, mk + q, mk + q, m + q] = inv_r[:, q]
        dc[:, mk + q, m + q, mk + q, m + q] = inv_r2[:, q]
        dc[:, mk + q, mk + q, m + q, m + q] = -inv_r2[:, q]
    return c, dc


def christoffels(c: np.ndarray) -> np.ndarray:
    """Koszul formula in an orthonormal frame: Gamma[g,a,b] = (c[g,b,a] + c[b,g,a] + c[a,g,b]) / 2.

    Axes after the fourth (dc's derivative axis) are carried along.
    """
    rest = tuple(range(4, c.ndim))
    out = np.ascontiguousarray(c.transpose((0, 1, 3, 2) + rest))  # c[g, b, a]
    out += c.transpose((0, 2, 1, 3) + rest)  # c[b, g, a] read as [g, a, b]
    out += c.transpose((0, 2, 3, 1) + rest)  # c[a, g, b] read as [g, a, b]
    out *= 0.5
    return out


def christoffel_derivs(dc: np.ndarray) -> np.ndarray:
    """Frame derivatives of Gamma: the Koszul shuffle of dc, its derivative axis carried along."""
    return christoffels(dc)


def curvature(Gamma: np.ndarray, dGamma: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense Riem[n,a,b,g,d], Ric and tau from Gamma, its frame derivatives and c.

    Riem[a,b,g,d] = sum_mu (Gamma[a,mu,g] Gamma[mu,b,d] - Gamma[a,mu,d] Gamma[mu,b,g]
                            - c[mu,g,d] Gamma[a,b,mu])
                    + E_g(Gamma[a,b,d]) - E_d(Gamma[a,b,g]),
    assembled over all n^4 entries with no use of its symmetries.
    """
    npts, n = Gamma.shape[0], Gamma.shape[1]
    mk = dGamma.shape[-1]
    # T1[a,c,b,d] = sum_mu Gamma[a,mu,c] Gamma[mu,b,d] as (n^2 x n) @ (n x n^2)
    left = np.ascontiguousarray(Gamma.transpose(0, 1, 3, 2)).reshape(npts, n * n, n)
    right = Gamma.reshape(npts, n, n * n)
    T1 = np.matmul(left, right).reshape(npts, n, n, n, n)  # [a, c, b, d]
    T1 = T1.transpose(0, 1, 3, 2, 4)  # [a, b, c, d] (view)
    Riem = np.ascontiguousarray(T1)
    Riem -= T1.transpose(0, 1, 2, 4, 3)
    # T3[a,b,c,d] = sum_mu Gamma[a,b,mu] c[mu,c,d]
    T3 = np.matmul(Gamma.reshape(npts, n * n, n), c.reshape(npts, n, n * n))
    Riem -= T3.reshape(npts, n, n, n, n)
    # + E_g(Gamma[a,b,d]): nonzero only for g < m+k; - E_d(Gamma[a,b,g]): d < m+k
    Riem[:, :, :, :mk, :] += dGamma.transpose(0, 1, 2, 4, 3)
    Riem[:, :, :, :, :mk] -= dGamma
    Ric = np.einsum("nagbg->nab", Riem)
    tau = np.einsum("ngg->n", Ric)
    return Riem, Ric, tau


@dataclasses.dataclass(frozen=True)
class FrameCurvature:
    """Per-point bundle of frame tensors (batched along the leading axis)."""

    c: np.ndarray
    Gamma: np.ndarray
    dGamma: np.ndarray
    Riem: np.ndarray


def a2_constant(n: int) -> float:
    """(4 pi)^(-n/2) / 360, the prefactor of the quadratic curvature integral."""
    return (4.0 * math.pi) ** (-n / 2.0) / 360.0


def a2_density(n: int, tau: np.ndarray, ric_sq: np.ndarray, riem_sq: np.ndarray) -> np.ndarray:
    """(4 pi)^(-n/2)/360 * (5 tau^2 - 2 |Ric|^2 + 2 |Riem|^2), the a2 integrand in dimension n."""
    return a2_constant(n) * (5.0 * tau * tau - 2.0 * ric_sq + 2.0 * riem_sq)


@dataclasses.dataclass(frozen=True)
class _Jets:
    """What the rank form of F^q reads at one batch (see the module docstring).

    phi (N,); g (N, m+k) and H (N, m+k, m+k) are phi's y-gradient and
    y-Hessian; ell (N, k, m+k) is ell_q[i] = <[x, e_i], Z_q>, zero on the r
    indices; lam (k, m+k, m+k) is Lambda_q in the x-x block; h_ell = H ell_q
    and lam_g = Lambda_q g, both (N, k, m+k).
    """

    phi: np.ndarray
    g: np.ndarray
    H: np.ndarray
    ell: np.ndarray
    lam: np.ndarray
    h_ell: np.ndarray
    lam_g: np.ndarray


def _jets(bracket: Bracket, profile: CutoffProfile, x: np.ndarray, r: np.ndarray) -> _Jets:
    """phi's y-jet and the bracket's linear data at a batch of points."""
    m, k = bracket.m, bracket.k
    mk = m + k
    pd = profile.value_and_derivs(np.sum(x * x, axis=1), np.sum(r * r, axis=1))
    # phi's partials by the slot (|x|^2 or |r|^2) of each y_e: g = 2 phi_a y_e,
    # H = 4 phi_ab y_e y_f + 2 phi_a on the diagonal, exactly symmetric as y y^T is
    slot = np.repeat([0, 1], [m, k])
    y = np.concatenate([x, r], axis=1)
    phi_a = np.stack([pd.d1, pd.d2], axis=1)[:, slot]
    phi_ab = np.stack([pd.d11, pd.d12, pd.d22], axis=1)[:, slot[:, None] + slot]
    g = 2.0 * (phi_a * y)
    H = 4.0 * (phi_ab * (y[:, :, None] * y[:, None, :]))
    diag = np.einsum("nee->ne", H)  # a view
    diag += 2.0 * phi_a
    lam = np.zeros((k, mk, mk))
    lam[:, :m, :m] = bracket.tensor
    ell = np.zeros((x.shape[0], k, mk))
    ell[..., :m] = np.einsum("nj,qji->nqi", x, bracket.tensor)
    return _Jets(phi=pd.value, g=g, H=H, ell=ell, lam=lam,
                 h_ell=np.matmul(ell, H), lam_g=np.einsum("qab,nb->nqa", lam, g))


def _rank_form_fields(jets: _Jets, r: np.ndarray, F: np.ndarray, work: np.ndarray) -> None:
    """Write F^q = r_q (g ^ ell_q + 2 phi Lambda_q) into F; work is scratch of F's shape.

    Built as r_q (D_q - D_q^T) with D_q = g ell_q^T + phi Lambda_q, the
    y-gradient of a_.q, so F rounds as _field_strengths does.
    """
    np.multiply(jets.g[:, None, :, None], jets.ell[:, :, None, :], out=work)
    np.multiply(jets.phi[:, None, None, None], jets.lam, out=F)
    work += F
    np.subtract(work, work.transpose(0, 1, 3, 2), out=F)
    F *= r[:, :, None, None]


def _ricci_divergence(jets: _Jets, F: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_b d_b F^q[b, .] = r_q (tr H ell_q - H ell_q - 3 Lambda_q g) + s_q F^q[rho_q, .], shape (N, k, m+k)."""
    k = r.shape[1]
    m = F.shape[-1] - k
    div = np.einsum("naa->n", jets.H)[:, None, None] * jets.ell
    div -= jets.h_ell
    div -= 3.0 * jets.lam_g
    div *= r[:, :, None]
    div += np.einsum("nqqa->nqa", F[:, :, m:]) / r[:, :, None]
    return div


def _batch_scalars(jets: _Jets, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, |Ric|^2, |Riem|^2) at one batch by the closed forms of the module docstring."""
    npts, k = r.shape
    mk = jets.g.shape[1]
    m = mk - k
    # F, its scratch, the products M and their transposes in one workspace: as separate arrays they
    # fault their pages in afresh on every batch under glibc's dynamic mmap threshold, in the pool's
    # workers and the calling process alike
    size = npts * k * mk * mk
    buf = np.empty(size * (2 + 2 * k))
    F = buf[:size].reshape(npts, k, mk, mk)
    M = buf[2 * size:(2 + k) * size].reshape(npts, k, k, mk, mk)
    M_t = buf[(2 + k) * size:].reshape(npts, k, k, mk, mk)
    _rank_form_fields(jets, r, F, buf[size:2 * size].reshape(npts, k, mk, mk))
    s = 1.0 / r
    np.matmul(F[:, :, None], F[:, None], out=M)  # M[n,p,q] = F^p F^q
    P = -np.einsum("npqaa->npq", M)
    P2 = np.einsum("npq,npq->n", P, P)
    F_sq = np.einsum("nqq->nq", P)  # |F^q|^2
    tau = -0.25 * np.sum(F_sq, axis=1)

    F_rho = F[:, :, m:]  # F_rho[n,q,p,a] = F^q[rho_p, a]
    ric_yy = 0.5 * np.einsum("nqqab->nab", M)
    ric_yt = 0.5 * (_ricci_divergence(jets, F, r) + s[:, :, None] * np.einsum("nqqa->nqa", F_rho)
                    + np.einsum("np,nqpa->nqa", s, F_rho))
    ric2 = np.einsum("nab,nab->n", ric_yy, ric_yy) + 2.0 * np.einsum("nqa,nqa->n", ric_yt, ric_yt) + P2 / 16.0

    rho_sq = np.einsum("npqa,npqa->npq", F_rho, F_rho)  # |F^p[rho_q, .]|^2
    own_rho_sq = np.einsum("nqq->nq", rho_sq).copy()
    rho_sq[:, range(k), range(k)] = 0.0
    # 4 |B^q|^2 = sum_c |2 B^q_c|^2 from the wedge identities (module docstring)
    g, H = jets.g, jets.H
    H_sq = np.einsum("nab,nab->n", H, H)
    g_sq = np.einsum("na,na->n", g, g)
    lam_sq = np.einsum("qab,qab->q", jets.lam, jets.lam)
    # sum_c |H_c ^ ell_q + g ^ lambda_qc + 2 g_c Lambda_q|^2, the part of d_c F^q / r_q free of s_q
    deriv_sq = (2.0 * H_sq[:, None] * np.einsum("nqa,nqa->nq", jets.ell, jets.ell)
                - 2.0 * np.einsum("nqa,nqa->nq", jets.h_ell, jets.h_ell)
                + 6.0 * g_sq[:, None] * lam_sq
                + 6.0 * np.einsum("nqa,nqa->nq", jets.lam_g, jets.lam_g)
                + 12.0 * np.einsum("na,qab,nqb->nq", np.einsum("nab,nb->na", H, g), jets.lam, jets.ell))
    cross = (np.einsum("nqa,nqab,nqb->nq", H[:, m:], F, jets.ell)
             + g[:, m:] * np.einsum("qab,nqab->nq", jets.lam, F))
    two_b_sq = r * r * deriv_sq + 6.0 * (s * s) * (F_sq + own_rho_sq) + 12.0 * cross
    # M_qp = M_pq^T, so sum_pq <M_pq, M_qp> = T and 3/8 T - 1/4 T = T/8.  Read through a transposed
    # view, einsum sums a 1-point batch in another order than a larger one; the contiguous copy keeps
    # each point's sum independent of its batch
    np.copyto(M_t, M.transpose(0, 1, 2, 4, 3))
    T = np.einsum("npqab,npqab->n", M, M_t)
    riem2 = (0.375 * P2 + 0.125 * T + np.sum(two_b_sq, axis=1)
             + 0.5 * np.einsum("npqab,npqab->n", M, M) + 2.0 * np.einsum("nq,npq->n", s * s, rho_sq))
    return tau, ric2, riem2


def curvature_scalars(
    bracket: Bracket,
    profile: CutoffProfile,
    x: np.ndarray,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, |Ric|^2, |Riem|^2) at each point, in batches of _ENGINE_CHUNK points to bound memory."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    _check_radii(profile, r)
    npts = x.shape[0]
    tau = np.empty(npts)
    ric2 = np.empty(npts)
    riem2 = np.empty(npts)
    for lo in range(0, npts, _ENGINE_CHUNK):
        hi = min(lo + _ENGINE_CHUNK, npts)
        jets = _jets(bracket, profile, x[lo:hi], r[lo:hi])
        tau[lo:hi], ric2[lo:hi], riem2[lo:hi] = _batch_scalars(jets, r[lo:hi])
    return tau, ric2, riem2


def _admitted_density(
    bracket: Bracket,
    profile: CutoffProfile,
    x: np.ndarray,
    r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The a2 density at the points _usable_nodes admits, exact zeros elsewhere, and that mask.

    Only admitted points reach the engine, so a point outside the support or
    on an axis never trips the radius guard of curvature_scalars.
    """
    keep = _usable_nodes(profile, x, r)
    out = np.zeros(x.shape[0])
    if np.any(keep):
        tau, ric2, riem2 = curvature_scalars(bracket, profile, x[keep], r[keep])
        out[keep] = a2_density(bracket.m + 2 * bracket.k, tau, ric2, riem2)
    return out, keep


def a2_integrand(
    bracket: Bracket,
    profile: CutoffProfile,
    x: np.ndarray,
    r: np.ndarray,
) -> np.ndarray:
    """The a2 density (see a2_density) pointwise, admitted as the quadrature admits nodes.

    Points outside the cutoff support, where the curvature vanishes, and
    points with a plane radius at or below the frame's floor contribute an
    exact zero and skip the engine entirely.  A negative plane radius is not
    a point of the polar chart and raises ValueError.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if np.any(r < 0):
        raise ValueError(f"plane radius {float(np.min(r)):g} < 0: radii are non-negative")
    return _admitted_density(bracket, profile, x, r)[0]


def frame_bundle(bracket: Bracket, profile: CutoffProfile, x: np.ndarray, r: np.ndarray) -> FrameCurvature:
    """Dense tensor bundle at a (small) batch of points, for inspection and tests.

    The Koszul path: dense c, Gamma and dGamma, and the dense Riem from
    curvature(), independent of the closed forms that curvature_scalars uses.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    _check_radii(profile, r)
    c, dc = structure_constants(coupling_coeffs(bracket, profile, x, r), r)
    Gamma = christoffels(c)
    dGamma = christoffel_derivs(dc)
    Riem, _Ric, _tau = curvature(Gamma, dGamma, c)
    return FrameCurvature(c=c, Gamma=Gamma, dGamma=dGamma, Riem=Riem)
