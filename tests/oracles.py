"""Test-only oracles: scaling-degree probes of frame quantities, metric helpers
and the full jets of product test functions.

No program calls these; the frame, metric and intertwine tests and acceptance
criterion 5 do.
"""

import math
from typing import Callable, Sequence

import numpy as np

from isophasal.brackets import Bracket
from isophasal.metric import CutoffProfile, metric_at

_TINY = 1e-300  # degree_probe skips samples below this magnitude as zero
_PART_DEGREES = (-2, -1, 0, 1, 2)  # homogeneous degrees homogeneous_parts solves for


class AllZeroSamplesError(ValueError):
    """Degree probe got only (numerically) zero samples."""


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


def vertical_field(Z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Infinitesimal torus action Z*_u: per plane p, Z_p J u_p with J = [[0,-1],[1,0]]."""
    Z = np.asarray(Z, dtype=float)
    u = np.asarray(u, dtype=float)
    squeeze = u.ndim == 1
    u = np.atleast_2d(u)
    k = Z.shape[-1]
    if u.shape[-1] != 2 * k:
        raise ValueError(f"u has {u.shape[-1]} components, expected {2 * k}")
    out = np.empty_like(u)
    out[:, 0::2] = -Z * u[:, 1::2]
    out[:, 1::2] = Z * u[:, 0::2]
    return out[0] if squeeze else out


def is_euclidean_outside(
    bracket: Bracket,
    profile: CutoffProfile,
    n_samples: int = 200,
    seed: int = 0,
) -> bool:
    """True iff G equals the identity exactly at sampled points outside the support."""
    rng = np.random.default_rng(seed)
    m, k = bracket.m, bracket.k
    n = m + 2 * k
    rx = profile.x_radius
    ru = profile.u_radius
    xs, us = [], []
    for _ in range(n_samples):
        mode = rng.integers(3)
        x = rng.normal(size=m)
        u = rng.normal(size=2 * k)
        if mode == 0:  # |x| beyond support
            x *= rx * rng.uniform(1.0, 3.0) / np.linalg.norm(x)
            u *= ru * rng.uniform(0.0, 2.0) / np.linalg.norm(u)
        elif mode == 1:  # |u| beyond support
            x *= rx * rng.uniform(0.0, 2.0) / np.linalg.norm(x)
            u *= ru * rng.uniform(1.0, 3.0) / np.linalg.norm(u)
        else:
            x *= rx * rng.uniform(1.0, 3.0) / np.linalg.norm(x)
            u *= ru * rng.uniform(1.0, 3.0) / np.linalg.norm(u)
        xs.append(x)
        us.append(u)
    G = metric_at(bracket, profile, np.array(xs), np.array(us))
    return bool(np.max(np.abs(G - np.eye(n))) == 0.0)


def cartesian_to_polar(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of polar_to_cartesian; theta in (-pi, pi], r >= 0."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    a = u[..., 0::2]
    b = u[..., 1::2]
    return np.hypot(a, b), np.arctan2(b, a)


def assembled_jets(fn, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, gradient (N, n) and Hessian (N, n, n) of a product f = f_x(x) f_u(u) over all n coordinates.

    Assembled from fn.factor_jets(pts) by the product rule on the two disjoint
    coordinate blocks: the off-diagonal blocks are g_x (x) g_u and its transpose.
    """
    (xv, xg, xh), (uv, ug, uh) = fn.factor_jets(pts)
    m = xg.shape[1]
    grad = np.concatenate([xg * uv[:, None], xv[:, None] * ug], axis=1)
    hess = np.empty(grad.shape + grad.shape[1:], dtype=grad.dtype)
    hess[:, :m, :m] = xh * uv[:, None, None]
    hess[:, m:, m:] = xv[:, None, None] * uh
    hess[:, :m, m:] = xg[:, :, None] * ug[:, None, :]
    hess[:, m:, :m] = hess[:, :m, m:].transpose(0, 2, 1)
    return xv * uv, grad, hess
