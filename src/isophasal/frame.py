"""Analytic curvature engine in the adapted orthonormal frame.

On the dense open set where every plane radius r_p is positive, polar
coordinates (x, r, theta) and the orthonormal frame

    xhat_i = e_i + sum_q a_iq(x, r) d/dtheta_q,   rhat_p = d/dr_p,
    that_q = (1/r_q) d/dtheta_q,

with coupling coefficients a_iq = phi_s(|x|^2, |r|^2) <[x, e_i], Z_q>, turn the
metric into constant coefficients; all curvature information sits in the frame
structure constants.  The nonzero brackets are

    [xhat_i, xhat_j] = sum_q (d_i a_jq - d_j a_iq) r_q that_q
    [rhat_p, xhat_i] = sum_q (d_{r_p} a_iq) r_q that_q
    [rhat_q, that_q] = -(1/r_q) that_q,

the last being the flat polar-frame term; it is kept so that the zero-bracket
metric comes out exactly flat.  Christoffel symbols follow from the Koszul
formula, and the curvature tensor from the standard frame formula with the
frame derivatives of Gamma taken from the stored second partials of a (no
finite differences anywhere in this module).  Everything is batched over
points, chunked to bound memory, and sits inside the quadrature inner loop of
the heat invariant pipeline.

What is materialised: c, its derivatives dc (only the that rows are nonzero)
and Gamma, densely; the curvature only in the antisymmetric pair form
R[(a<b), (g<d)] = Riem[a,b,g,d], P x P with P = n (n - 1) / 2, built straight
from c and dc by curvature(); and Ric.  curvature_scalars, a2_integrand and
frame_bundle all run that one contraction.  Only frame_bundle, meant for
inspection and tests, also builds the dense frame derivatives dGamma and
expands R into the dense Riem.

Index layout: 0..m-1 xhat, m..m+k-1 rhat, m+k..m+2k-1 that.  Tensors are
stored as c[n, gamma, alpha, beta] (gamma-component of [E_alpha, E_beta]),
Gamma[n, gamma, alpha, beta] (gamma-component of the covariant derivative of
E_alpha along E_beta), and Riem[n, alpha, beta, gamma, delta].
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .brackets import Bracket
from .metric import CutoffProfile

__all__ = [
    "R_MIN_FACTOR",
    "DegeneratePointError",
    "AllZeroSamplesError",
    "CouplingCoeffs",
    "FrameCurvature",
    "coupling_coeffs",
    "structure_constants",
    "christoffels",
    "christoffel_derivs",
    "CurvatureTables",
    "curvature_tables",
    "curvature",
    "curvature_scalars",
    "a2_constant",
    "a2_density",
    "a2_integrand",
    "frame_bundle",
    "degree_probe",
    "homogeneous_parts",
    "degree_one_reference",
]

R_MIN_FACTOR = 1e-6  # radii below R_MIN_FACTOR * (r-support radius) are degenerate
_ENGINE_CHUNK = 128  # points per batch of curvature_scalars: bounds the engine's working set
_TINY = 1e-300  # degree_probe skips samples below this magnitude as zero
_PART_DEGREES = (-2, -1, 0, 1, 2)  # homogeneous degrees homogeneous_parts solves for


class DegeneratePointError(ValueError):
    """A plane radius is too close to zero for the polar frame."""


class AllZeroSamplesError(ValueError):
    """Degree probe got only (numerically) zero samples."""


@dataclasses.dataclass(frozen=True)
class CouplingCoeffs:
    """a_ip and its partials at a batch of (x, r) points.

    Shapes: a (N,m,k); ax (N,m,k,m) is da/dx_j; ar (N,m,k,k) is da/dr_q;
    axx, axr, arr are the second partials with derivative axes last.
    """

    a: np.ndarray
    ax: np.ndarray
    ar: np.ndarray
    axx: np.ndarray
    axr: np.ndarray
    arr: np.ndarray


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
    """All partials of a_ip(x, r) = phi_s(|x|^2, |r|^2) <[x, e_i], Z_p>, chain rule only."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    m, k = bracket.m, bracket.k
    t1 = np.sum(x * x, axis=1)
    t2 = np.sum(r * r, axis=1)
    pd = profile.value_and_derivs(t1, t2)
    # L[n,i,p] = <[x, e_i], Z_p>; dL[i,p,j] = dL_ip/dx_j = Lambda[p,j,i] is constant
    L = np.einsum("nj,pji->nip", x, bracket.tensor)
    dL = np.einsum("pji->ipj", bracket.tensor)

    v, p1, p2 = pd.value, pd.d1, pd.d2
    p11, p12, p22 = pd.d11, pd.d12, pd.d22

    a = v[:, None, None] * L
    ax = 2.0 * np.einsum("n,nj,nip->nipj", p1, x, L) + v[:, None, None, None] * dL[None]
    ar = 2.0 * np.einsum("n,nq,nip->nipq", p2, r, L)

    eye_m = np.eye(m)
    eye_k = np.eye(k)
    axx = (
        2.0 * np.einsum("n,jl,nip->nipjl", p1, eye_m, L)
        + 4.0 * np.einsum("n,nj,nl,nip->nipjl", p11, x, x, L)
        + 2.0 * np.einsum("n,nj,ipl->nipjl", p1, x, dL)
        + 2.0 * np.einsum("n,nl,ipj->nipjl", p1, x, dL)
    )
    axr = 4.0 * np.einsum("n,nj,nq,nip->nipjq", p12, x, r, L) + 2.0 * np.einsum(
        "n,nq,ipj->nipjq", p2, r, dL
    )
    arr = 2.0 * np.einsum("n,qw,nip->nipqw", p2, eye_k, L) + 4.0 * np.einsum(
        "n,nq,nw,nip->nipqw", p22, r, r, L
    )
    return CouplingCoeffs(a=a, ax=ax, ar=ar, axx=axx, axr=axr, arr=arr)


def structure_constants(cc: CouplingCoeffs, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Structure constants c[n,gamma,alpha,beta] and their (x, r)-derivatives.

    dc has shape (N, n, n, n, m+k) with the derivative direction last
    (0..m-1 -> d/dx, m..m+k-1 -> d/dr); theta-derivatives vanish identically.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    npts, k = r.shape
    m = cc.a.shape[1]
    n = m + 2 * k
    mk = m + k

    c = np.zeros((npts, n, n, n))
    # [xhat_i, xhat_j] -> that_q components
    axT = np.einsum("njqi->nqij", cc.ax)  # axT[n,q,i,j] = d a_jq / d x_i
    bxx = (axT - axT.transpose(0, 1, 3, 2)) * r[:, :, None, None]
    c[:, mk:, :m, :m] = bxx
    # [rhat_p, xhat_i] -> that_q components
    brx = np.einsum("niqp->nqpi", cc.ar) * r[:, :, None, None]
    c[:, mk:, m:mk, :m] = brx
    c[:, mk:, :m, m:mk] = -brx.transpose(0, 1, 3, 2)
    # flat polar: [rhat_q, that_q] = -(1/r_q) that_q
    inv_r = 1.0 / r
    for q in range(k):
        c[:, mk + q, m + q, mk + q] = -inv_r[:, q]
        c[:, mk + q, mk + q, m + q] = inv_r[:, q]

    dc = np.zeros((npts, n, n, n, mk))
    # d/dx_l and d/dr_w of the xhat-xhat block
    axxT = np.einsum("njqil->nqijl", cc.axx)  # d2 a_jq / dx_i dx_l
    dc[:, mk:, :m, :m, :m] = (axxT - axxT.transpose(0, 1, 3, 2, 4)) * r[:, :, None, None, None]
    axrT = np.einsum("njqiw->nqijw", cc.axr)  # d2 a_jq / dx_i dr_w
    dbxx_r = (axrT - axrT.transpose(0, 1, 3, 2, 4)) * r[:, :, None, None, None]
    base = axT - axT.transpose(0, 1, 3, 2)  # (d_i a_jq - d_j a_iq)
    for q in range(k):
        dbxx_r[:, q, :, :, q] += base[:, q]
    dc[:, mk:, :m, :m, m:] = dbxx_r
    # d/dx_l and d/dr_w of the rhat-xhat block
    brx_x = np.einsum("niqlp->nqpil", cc.axr) * r[:, :, None, None, None]
    dc[:, mk:, m:mk, :m, :m] = brx_x
    dc[:, mk:, :m, m:mk, :m] = -brx_x.transpose(0, 1, 3, 2, 4)
    brx_r = np.einsum("niqpw->nqpiw", cc.arr) * r[:, :, None, None, None]
    arT = np.einsum("niqp->nqpi", cc.ar)
    for q in range(k):
        brx_r[:, q, :, :, q] += arT[:, q]
    dc[:, mk:, m:mk, :m, m:] = brx_r
    dc[:, mk:, :m, m:mk, m:] = -brx_r.transpose(0, 1, 3, 2, 4)
    # flat polar derivatives: d/dr_q of -(1/r_q)
    inv_r2 = inv_r * inv_r
    for q in range(k):
        dc[:, mk + q, m + q, mk + q, m + q] = inv_r2[:, q]
        dc[:, mk + q, mk + q, m + q, m + q] = -inv_r2[:, q]
    return c, dc


def christoffels(c: np.ndarray) -> np.ndarray:
    """Koszul formula in an orthonormal frame: Gamma[g,a,b] = (c[g,b,a] + c[b,g,a] + c[a,g,b]) / 2."""
    out = np.ascontiguousarray(c.transpose(0, 1, 3, 2))  # c[g, b, a]
    out += c.transpose(0, 2, 1, 3)  # c[b, g, a] read as [g, a, b]
    out += c.transpose(0, 2, 3, 1)  # c[a, g, b] read as [g, a, b]
    out *= 0.5
    return out


def christoffel_derivs(dc: np.ndarray) -> np.ndarray:
    """Frame derivatives of Gamma, same index shuffle with the derivative axis carried along."""
    out = np.ascontiguousarray(dc.transpose(0, 1, 3, 2, 4))
    out += dc.transpose(0, 2, 1, 3, 4)
    out += dc.transpose(0, 2, 3, 1, 4)
    out *= 0.5
    return out


_PAIR_BLOCK = 8  # points per block of curvature(): keeps the n^4 quadratic product in cache


@dataclasses.dataclass(frozen=True)
class CurvatureTables:
    """Fixed index maps of the pair-form curvature contraction for one (m, k).

    Pairs (a < b) are numbered in row-major order, P = n (n - 1) / 2 of them,
    and R[p, q] is stored flat at p * P + q.
    """

    pairs: np.ndarray       # (P,) flat index a * n + b of each pair
    quad_plus: np.ndarray   # (P, P) flat [a, g, b, d] index into the quadratic product
    quad_minus: np.ndarray  # (P, P) flat [a, d, b, g] index into the quadratic product
    deriv: sparse.csr_array  # (P^2, k n n (m+k)) map from the that rows of dc to the E Gamma terms
    ric_src: np.ndarray     # (n, n, n) flat pair-form index of Riem[a, g, b, g]
    ric_sign: np.ndarray    # (n, n, n) its sign; zero where g = a or g = b
    dense_src: np.ndarray   # (n, n, n, n) flat pair-form index of Riem[a, b, g, d]
    dense_sign: np.ndarray  # (n, n, n, n) its sign; zero where a = b or g = d


@functools.lru_cache(maxsize=None)
def curvature_tables(m: int, k: int) -> CurvatureTables:
    """Index maps of curvature() for frame dimensions (m, k), built once on first use.

    Build them before forking worker processes so that the workers inherit
    them instead of each rebuilding its own.
    """
    n = m + 2 * k
    mk = m + k
    npair = n * (n - 1) // 2
    pa, pb = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[pa, pb] = pair[pb, pa] = np.arange(npair)
    idx = np.arange(n)
    sign = np.sign(idx[None, :] - idx[:, None]).astype(float)  # +1 for a < b, -1 for a > b
    a, b = pa[:, None], pb[:, None]  # row pair
    g, d = pa[None, :], pb[None, :]  # column pair
    # E_g Gamma[a,b,d] - E_d Gamma[a,b,g] with Gamma[a,b,d] = (c[a,d,b] + c[d,a,b] + c[b,a,d]) / 2;
    # dc vanishes outside its that rows (first index >= m+k) and has m+k derivative directions
    out = np.arange(npair * npair).reshape(npair, npair)
    src, coef, dst = [], [], []
    for s, e, (i, j, l) in (
        (0.5, g, (a, d, b)), (0.5, g, (d, a, b)), (0.5, g, (b, a, d)),
        (-0.5, d, (a, g, b)), (-0.5, d, (g, a, b)), (-0.5, d, (b, a, g)),
    ):
        i, j, l, e = np.broadcast_arrays(i, j, l, e)
        live = (i >= mk) & (e < mk)
        src.append((((i[live] - mk) * n + j[live]) * n + l[live]) * mk + e[live])
        coef.append(np.full(src[-1].shape, s))
        dst.append(out[live])
    deriv = sparse.csr_array(
        (np.concatenate(coef), (np.concatenate(dst), np.concatenate(src))),
        shape=(npair * npair, k * n * n * mk),
    )  # duplicate entries are summed on conversion
    deriv.eliminate_zeros()
    A, B, G = np.ix_(idx, idx, idx)
    A4, B4, G4, D4 = np.ix_(idx, idx, idx, idx)
    tables = CurvatureTables(
        pairs=pa * n + pb,
        quad_plus=((a * n + g) * n + b) * n + d,
        quad_minus=((a * n + d) * n + b) * n + g,
        deriv=deriv,
        ric_src=pair[A, G] * npair + pair[B, G],
        ric_sign=sign[A, G] * sign[B, G],
        dense_src=pair[A4, B4] * npair + pair[G4, D4],
        dense_sign=sign[A4, B4] * sign[G4, D4],
    )
    for field in dataclasses.fields(tables):  # every caller shares the cached arrays
        value = getattr(tables, field.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return tables


def curvature(
    Gamma: np.ndarray, c: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair-form Riemann tensor, Ricci and scalar curvature at a batch of points.

    Riem[a,b,g,d] = sum_mu (Gamma[a,mu,g] Gamma[mu,b,d] - Gamma[a,mu,d] Gamma[mu,b,g]
                            - c[mu,g,d] Gamma[a,b,mu])
                    + E_g(Gamma[a,b,d]) - E_d(Gamma[a,b,g])
    with Ric[a,b] = sum_g Riem[a,g,b,g] and tau the trace of Ric.

    Returns R (N, P, P) with R[p, q] = Riem[a,b,g,d] over the pairs
    p = (a < b), q = (g < d), P = n (n - 1) / 2, so that |Riem|^2 = 4 sum R^2;
    Ric (N, n, n); tau (N,).  Built block by block from c and dc: the quadratic
    terms are one batched matmul whose n^4 product (per block, in cache) is
    read by two fixed gathers; the c Gamma term is a rank-k product, since c
    vanishes outside its k that rows; the frame-derivative terms are one fixed
    sparse map from the that rows of dc.  Neither the dense dGamma nor the
    dense n^4 Riem is materialised.
    """
    npts, n = Gamma.shape[0], Gamma.shape[1]
    mk = dc.shape[-1]
    k = n - mk
    t = curvature_tables(mk - k, k)
    npair = t.pairs.size
    # Gamma[a,mu,g] Gamma[mu,b,d] laid out [a,g,b,d]: (n^2 x n) @ (n x n^2)
    left = np.ascontiguousarray(Gamma.transpose(0, 1, 3, 2)).reshape(npts, n * n, n)
    right = Gamma.reshape(npts, n, n * n)
    # Gamma[a,b,mu] and c[mu,g,d] over the pairs and the that rows mu
    gam_ab = Gamma.reshape(npts, n * n, n)[:, t.pairs, mk:]
    c_gd = c.reshape(npts, n, n * n)[:, mk:, t.pairs]
    dc_that = dc[:, mk:].reshape(npts, -1)
    R = np.empty((npts, npair, npair))
    R_flat = R.reshape(npts, -1)
    quad = np.empty((_PAIR_BLOCK, n * n, n * n))
    tmp = np.empty((_PAIR_BLOCK, npair, npair))
    for lo in range(0, npts, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, npts)
        nb = hi - lo
        q = np.matmul(left[lo:hi], right[lo:hi], out=quad[:nb]).reshape(nb, -1)
        Rb = np.take(q, t.quad_plus, axis=1, out=R[lo:hi])
        Rb -= np.take(q, t.quad_minus, axis=1, out=tmp[:nb])
        Rb -= np.matmul(gam_ab[lo:hi], c_gd[lo:hi], out=tmp[:nb])
        R_flat[lo:hi] += (t.deriv @ np.ascontiguousarray(dc_that[lo:hi].T)).T
    Ric = np.einsum("nabg,abg->nab", np.take(R_flat, t.ric_src, axis=1), t.ric_sign)
    tau = np.einsum("naa->n", Ric)
    return R, Ric, tau


@dataclasses.dataclass(frozen=True)
class FrameCurvature:
    """Per-point bundle of frame tensors (batched along the leading axis)."""

    c: np.ndarray
    Gamma: np.ndarray
    dGamma: np.ndarray
    Riem: np.ndarray
    Ric: np.ndarray
    tau: np.ndarray
    ric_sq: np.ndarray
    riem_sq: np.ndarray
    a2_integrand: np.ndarray


def a2_constant(n: int) -> float:
    """(4 pi)^(-n/2) / 360, the prefactor of the quadratic curvature integral."""
    return (4.0 * math.pi) ** (-n / 2.0) / 360.0


def a2_density(n: int, tau: np.ndarray, ric_sq: np.ndarray, riem_sq: np.ndarray) -> np.ndarray:
    """(4 pi)^(-n/2)/360 * (5 tau^2 - 2 |Ric|^2 + 2 |Riem|^2), the a2 integrand in dimension n."""
    return a2_constant(n) * (5.0 * tau * tau - 2.0 * ric_sq + 2.0 * riem_sq)


def _square_norms(R: np.ndarray, Ric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|Ric|^2 and |Riem|^2 = 4 sum R^2 (each pair-form entry stands for four Riem entries)."""
    return np.einsum("nab,nab->n", Ric, Ric), 4.0 * np.einsum("npq,npq->n", R, R)


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
        cc = coupling_coeffs(bracket, profile, x[lo:hi], r[lo:hi])
        c, dc = structure_constants(cc, r[lo:hi])
        R, Ric, tau[lo:hi] = curvature(christoffels(c), c, dc)
        ric2[lo:hi], riem2[lo:hi] = _square_norms(R, Ric)
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
    """Full tensor bundle at a (small) batch of points, for inspection and tests.

    Runs the same contraction as curvature_scalars and expands its pair form
    into the dense Riem; dGamma is computed here only, for inspection.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    _check_radii(profile, r)
    m, k = bracket.m, bracket.k
    n = m + 2 * k
    cc = coupling_coeffs(bracket, profile, x, r)
    c, dc = structure_constants(cc, r)
    Gamma = christoffels(c)
    R, Ric, tau = curvature(Gamma, c, dc)
    ric2, riem2 = _square_norms(R, Ric)
    t = curvature_tables(m, k)
    Riem = np.take(R.reshape(R.shape[0], -1), t.dense_src, axis=1) * t.dense_sign
    return FrameCurvature(
        c=c, Gamma=Gamma, dGamma=christoffel_derivs(dc), Riem=Riem, Ric=Ric,
        tau=tau, ric_sq=ric2, riem_sq=riem2, a2_integrand=a2_density(n, tau, ric2, riem2),
    )


def degree_probe(
    family: Callable[[float, np.ndarray, np.ndarray], float],
    x: np.ndarray,
    r: np.ndarray,
    s_list: Sequence[float],
) -> tuple[float, float]:
    """Estimate d with f^s(x, r) = s^d f^1(x, s r) by a log-log least-squares fit.

    family(s, x, r) evaluates the s-member of the scaling family at the point.
    Returns (slope, fit residual).  Raises AllZeroSamplesError when the
    reference values vanish.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    logs, vals = [], []
    for s in s_list:
        fs = family(float(s), x, r)
        f1 = family(1.0, x, s * r)
        if abs(f1) < _TINY or abs(fs) < _TINY:
            continue
        logs.append(math.log(float(s)))
        vals.append(math.log(abs(fs)) - math.log(abs(f1)))
    if len(vals) < 2:
        raise AllZeroSamplesError("family vanished at the probe point for the sampled scales")
    A = np.column_stack([np.asarray(logs), np.ones(len(logs))])
    coef, res, *_ = np.linalg.lstsq(A, np.asarray(vals), rcond=None)
    resid = float(np.sqrt(res[0])) if res.size else 0.0
    return float(coef[0]), resid


def homogeneous_parts(
    family: Callable[[float, np.ndarray, np.ndarray], float],
    x: np.ndarray,
    r: np.ndarray,
) -> dict[int, float]:
    """Split a finite scaling family into its homogeneous parts of degree -2..2 at (x, r).

    If f^s = sum_d f_d^s with f_d^s(x, r) = s^d f_d^1(x, s r), then
    F(s) := f^s(x, r/s) = sum_d s^d f_d^1(x, r): a polynomial in s whose
    coefficients are exactly the homogeneous parts at scale one.  Solved by
    least squares on a small Vandermonde system over the scales 1, 1.25, 1.5, ...
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    svals = 1.0 + 0.25 * np.arange(2 * len(_PART_DEGREES))
    F = np.array([family(float(s), x, r / s) for s in svals])
    V = np.stack([svals**d for d in _PART_DEGREES], axis=1)
    coef, *_ = np.linalg.lstsq(V, F, rcond=None)
    return {d: float(c) for d, c in zip(_PART_DEGREES, coef)}


def degree_one_reference(
    bracket: Bracket, profile: CutoffProfile, i: int, x: np.ndarray, r: np.ndarray
) -> float:
    """Closed form of the degree-one part of Riem[that_1, rhat_2, xhat_i, rhat_2].

    Equals (1/2) d^2 a_{i1} / dr_2^2 * r_1
         = (phi_2 + 2 r_2^2 phi_22)(|x|^2, |r|^2) <[x, e_i], Z_1> r_1,
    with phi_2, phi_22 the partials of the cutoff in its second slot.  This
    component is a purely degree-one family, nonvanishing because a smooth
    compactly supported cutoff cannot be linear in its second argument.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    pd = profile.value_and_derivs(np.array([x @ x]), np.array([r @ r]))
    L_i1 = float(np.dot(x, bracket.tensor[0, :, i]))
    return float((pd.d2[0] + 2.0 * r[1] ** 2 * pd.d22[0]) * L_i1 * r[0])
