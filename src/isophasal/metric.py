"""Torus-invariant metrics on R^(m+2k) built from a bracket and a radial cutoff.

Points are written (x, u) with x in R^m and u in R^2k.  The standard k-torus
acts on the u factor by independent SO(2) rotations in each coordinate plane.
The metric keeps the planes Euclidean, declares the horizontal lift

    Y  ->  (Y, psi(x,u) * K(x,u) Y)

orthogonal to {0} + R^2k, and makes the lift an isometry from Euclidean R^m.
Here psi(x,u) = phi(|x|^2, |u|^2) for a smooth compactly supported profile phi
and K is the 2k x m coupling matrix assembled from the bracket.  In block form

    G = [[I_m + psi^2 K^T K,  -psi K^T],
         [-psi K,              I_2k   ]],

which has det G = 1 identically, so the Riemannian measure is Lebesgue.
inverse_metric_at gives G^-1 and d_mu G^{mu nu} in closed form, from one pass
over the field.

Everything here is batched: point arguments are arrays of shape (N, m) and
(N, 2k) and metric values come back as (N, n, n) with n = m + 2k.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .brackets import Bracket

__all__ = [
    "CutoffProfile",
    "PsiDerivs",
    "coupling_matrix",
    "metric_at",
    "inverse_metric_at",
    "polar_to_cartesian",
    "plane_rotation",
]

# b becomes an exact float64 zero long before t reaches this threshold
_BUMP_EDGE = 1.0 - 1e-9


def _real(v) -> np.ndarray:
    """v as a float array of at least double precision; long-double input keeps its precision."""
    v = np.asarray(v)
    return v.astype(np.result_type(v, np.float64), copy=False)


def bump_and_derivs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and first two derivatives of b(t) = exp(1 - 1/(1-t)) on t < 1, else 0.

    b(0) = 1 and b vanishes to infinite order at t = 1, so products of bumps
    in rescaled arguments give smooth compactly supported profiles with
    closed-form partials.
    """
    t = _real(t)
    b = np.zeros_like(t)
    bp = np.zeros_like(t)
    bpp = np.zeros_like(t)
    mask = t < _BUMP_EDGE
    if np.any(mask):
        tm = t[mask]
        one_m = 1.0 - tm
        val = np.exp(1.0 - 1.0 / one_m)
        b[mask] = val
        bp[mask] = -val / one_m**2
        bpp[mask] = val * (2.0 * tm - 1.0) / one_m**4
    return b, bp, bpp


class PsiDerivs(NamedTuple):
    """Profile value and partials with respect to the two squared-norm slots."""

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray


@dataclasses.dataclass(frozen=True)
class CutoffProfile:
    """Smooth compactly supported cutoff phi(t1, t2) with closed-form partials.

    The profile is the product of bumps

        phi(t1, t2) = amplitude * b(t1 / r1sq) * b(s^2 t2 / r2sq),

    where the scale parameter s compresses the support in the second slot:
    scaled(s) realizes the one-parameter family phi_s(t1, t2) = phi(t1, s^2 t2).
    The support is the open set {t1 < r1sq, s^2 t2 < r2sq}; value and all
    partials vanish identically outside it.
    """

    r1sq: float
    r2sq: float
    amplitude: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        for name in ("r1sq", "r2sq", "s"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"cutoff parameter {name} must be positive and finite, got {v}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            # amplitude zero = identically vanishing cutoff (flat metric), still compact
            raise ValueError(f"cutoff amplitude must be finite and nonnegative, got {self.amplitude}")

    def scaled(self, s: float) -> "CutoffProfile":
        """Same profile with the second-slot scale set to s."""
        return dataclasses.replace(self, s=float(s))

    @property
    def x_radius(self) -> float:
        return math.sqrt(self.r1sq)

    @property
    def u_radius(self) -> float:
        """Support radius in |u| (shrinks like 1/s)."""
        return math.sqrt(self.r2sq) / self.s

    def inside_support(self, t1, t2) -> np.ndarray:
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        return (t1 < self.r1sq) & (self.s**2 * t2 < self.r2sq)

    def value_and_derivs(self, t1, t2) -> PsiDerivs:
        """phi_s and its partials in (t1, t2), batched over the inputs."""
        t1 = _real(t1)
        t2 = _real(t2)
        s2 = self.s**2
        u1 = t1 / self.r1sq
        u2 = s2 * t2 / self.r2sq
        b1, b1p, b1pp = bump_and_derivs(u1)
        b2, b2p, b2pp = bump_and_derivs(u2)
        amp = self.amplitude
        c1 = 1.0 / self.r1sq
        c2 = s2 / self.r2sq
        return PsiDerivs(
            value=amp * b1 * b2,
            d1=amp * c1 * b1p * b2,
            d2=amp * c2 * b1 * b2p,
            d11=amp * c1 * c1 * b1pp * b2,
            d12=amp * c1 * c2 * b1p * b2p,
            d22=amp * c2 * c2 * b1 * b2pp,
        )


def _psi_and_L(bracket: Bracket, profile: CutoffProfile, x: np.ndarray, u: np.ndarray):
    """(u, psi, L) for a batch of points: psi = phi_s(|x|^2, |u|^2) and L[n, i, p] = <[x, e_i], Z_p>.

    metric_at and inverse_metric_at read the field from here, once per call;
    u comes back as the float array K is built from.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    pv = profile.value_and_derivs(np.sum(x * x, axis=1), np.sum(u * u, axis=1)).value
    # L[n, i, p] = sum_j x_j Lambda[p, j, i]
    return u, pv, np.einsum("nj,pji->nip", x, bracket.tensor)


def _coupling(L: np.ndarray, u: np.ndarray) -> np.ndarray:
    """K of shape (N, 2k, m) from L: the plane-p row pair is (-L_ip u_{2p+1}, L_ip u_{2p})."""
    K = np.zeros((L.shape[0], 2 * L.shape[2], L.shape[1]))
    K[:, 0::2, :] = np.einsum("nip,np->npi", L, -u[:, 1::2])
    K[:, 1::2, :] = np.einsum("nip,np->npi", L, u[:, 0::2])
    return K


def coupling_matrix(bracket: Bracket, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """2k x m matrix K with K Y = [x, Y]*_u, batched to shape (N, 2k, m).

    Column i of the plane-p row pair is <[x, e_i], Z_p> J u_p.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return _coupling(np.einsum("nj,pji->nip", x, bracket.tensor), u)


def metric_at(bracket: Bracket, profile: CutoffProfile, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Metric matrices G(x, u), shape (N, n, n); G = I outside the cutoff support."""
    u, pv, L = _psi_and_L(bracket, profile, x, u)
    m = bracket.m
    n = m + 2 * bracket.k
    K = _coupling(L, u)
    G = np.zeros((u.shape[0], n, n))
    G[:, np.arange(n), np.arange(n)] = 1.0
    KK = np.einsum("n,nci,ncj->nij", pv * pv, K, K)
    G[:, :m, :m] += 0.5 * (KK + KK.transpose(0, 2, 1))  # bit-exact symmetry
    psiK = pv[:, None, None] * K
    G[:, :m, m:] = -psiK.transpose(0, 2, 1)
    G[:, m:, :m] = -psiK
    return G


def inverse_metric_at(
    bracket: Bracket, profile: CutoffProfile, x: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inverse G^-1, shape (N, n, n), and its divergence d_mu G^{mu nu}, shape (N, n).

    G^-1 = [[I, psi K^T], [psi K, I + psi^2 K K^T]].  Plane p of K is the rows
    (-L_ip u_{2p+1}, L_ip u_{2p}).  Lambda is skew, so sum_i x_i L_ip = 0 and
    d_{x_i} L_ip = 0; u^T K = 0; and each row of K depends only on the other
    coordinate of its plane.  Every term of the divergence's x block cancels,
    and on plane p only -psi^2 (sum_i L_ip^2) u_p survives, from the
    u-derivatives of K K^T.
    """
    u, pv, L = _psi_and_L(bracket, profile, x, u)
    m = bracket.m
    n = m + 2 * bracket.k
    K = _coupling(L, u)
    Gi = np.zeros((u.shape[0], n, n))
    Gi[:, np.arange(n), np.arange(n)] = 1.0
    psiK = pv[:, None, None] * K
    Gi[:, :m, m:] = psiK.transpose(0, 2, 1)
    Gi[:, m:, :m] = psiK
    Gi[:, m:, m:] += np.einsum("n,nai,nbi->nab", pv * pv, K, K)
    weight = pv[:, None] ** 2 * np.einsum("nip,nip->np", L, L)  # (N, k)
    div = np.zeros((u.shape[0], n))
    div[:, m:] = -np.repeat(weight, 2, axis=1) * u
    return Gi, div


def polar_to_cartesian(r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Map per-plane polar coordinates (r, theta), shapes (N, k), to u of shape (N, 2k)."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    u = np.empty(r.shape[:-1] + (2 * r.shape[-1],))
    u[..., 0::2] = r * np.cos(theta)
    u[..., 1::2] = r * np.sin(theta)
    return u


def plane_rotation(theta: np.ndarray) -> np.ndarray:
    """Block-diagonal rotation of R^2k acting by angle theta_p in plane p; shape (N, 2k, 2k)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    npts, k = theta.shape
    R = np.zeros((npts, 2 * k, 2 * k))
    c, s = np.cos(theta), np.sin(theta)
    for p in range(k):
        R[:, 2 * p, 2 * p] = c[:, p]
        R[:, 2 * p, 2 * p + 1] = -s[:, p]
        R[:, 2 * p + 1, 2 * p] = s[:, p]
        R[:, 2 * p + 1, 2 * p + 1] = c[:, p]
    return R
