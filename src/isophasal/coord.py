"""Slow, independent curvature oracle in Cartesian coordinates.

Works on any metric supplied as a batched callable pts (N, n) -> G (N, n, n),
takes all derivatives by central finite differences (optionally Richardson
extrapolated), and never shares code with the fast frame engine.  It is the
arbiter of sign conventions: the frame engine has to match it, not the other
way around.  Unlike the frame engine it is happy at points where plane radii
vanish, since it never leaves Cartesian coordinates.

Conventions (matched by validate_known on a 2-d conformal metric):
    R_{rho sigma mu nu} = g(R(d_mu, d_nu) d_sigma, d_rho),
    Ric_{ac} = g^{bd} R_{abcd},   tau = g^{ac} Ric_{ac},
so the round sphere has positive scalar curvature.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .brackets import Bracket
from .metric import CutoffProfile, bump_and_derivs, metric_at

__all__ = [
    "FDScheme",
    "IllConditionedError",
    "ConventionMismatchError",
    "MetricFn",
    "make_metric_fn",
    "first_derivative",
    "christoffel_fd",
    "riemann_fd",
    "ScalarInvariants",
    "scalar_invariants_fd",
    "conformal_metric_fn",
    "ConformalCheckReport",
    "validate_known",
    "default_scheme",
]

MetricFn = Callable[[np.ndarray], np.ndarray]


class IllConditionedError(ValueError):
    """Metric numerically singular at an evaluation point."""


class ConventionMismatchError(AssertionError):
    """Oracle self-test found the opposite curvature sign convention."""


@dataclasses.dataclass(frozen=True)
class FDScheme:
    """Fourth-order central-difference scheme: step h, optional Richardson step-halving."""

    h: float
    richardson: bool = True

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"bad step {self.h}")


def default_scheme(profile: CutoffProfile) -> FDScheme:
    """h = 1e-3 times the larger support radius; the metric varies on that scale."""
    return FDScheme(h=1e-3 * max(profile.x_radius, profile.u_radius))


# (offset in steps, weight) of the fourth-order central first difference
_STENCIL = ((2.0, -1.0 / 12.0), (1.0, 8.0 / 12.0), (-1.0, -8.0 / 12.0), (-2.0, 1.0 / 12.0))


def _first_derivative_fixed_h(fn, pts: np.ndarray, h: float) -> np.ndarray:
    npts, n = pts.shape
    shifted = []
    for d in range(n):
        for c, _w in _STENCIL:
            q = pts.copy()
            q[:, d] += c * h
            shifted.append(q)
    vals = fn(np.concatenate(shifted, axis=0))
    vals = vals.reshape((n, len(_STENCIL), npts) + vals.shape[1:])
    w = np.asarray([w for _c, w in _STENCIL])
    out = np.einsum("s,dsn...->nd...", w, vals) / h
    return out


def first_derivative(fn, pts: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Derivative of a batched array-valued function along every coordinate.

    fn maps (M, n) points to (M, ...) values; the result has shape
    (N, n, ...) with the direction axis second.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d_h = _first_derivative_fixed_h(fn, pts, scheme.h)
    if not scheme.richardson:
        return d_h
    d_h2 = _first_derivative_fixed_h(fn, pts, scheme.h / 2.0)
    f = 2.0**4  # the stencil's order
    return (f * d_h2 - d_h) / (f - 1.0)


def make_metric_fn(bracket: Bracket, profile: CutoffProfile) -> MetricFn:
    """Cartesian metric callable pts (N, m+2k) -> (N, n, n) for the bracket metric family."""
    m = bracket.m

    def fn(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return metric_at(bracket, profile, pts[:, :m], pts[:, m:])

    return fn


def _inverse(G: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(G)
    if np.any(cond > 1e12):
        raise IllConditionedError(f"metric condition number {np.max(cond):g}")
    return np.linalg.inv(G)


def christoffel_fd(metric_fn: MetricFn, pts: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma^l_{mu nu}, shape (N, n, n, n), symmetric in (mu, nu)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    G = metric_fn(pts)
    Gi = _inverse(G)
    dG = first_derivative(metric_fn, pts, scheme)  # (N, d, a, b) = d_d G_ab
    t = np.einsum("nmsv->nsmv", dG) + np.einsum("nvsm->nsmv", dG) - dG
    return 0.5 * np.einsum("nls,nsmv->nlmv", Gi, t)


@dataclasses.dataclass(frozen=True)
class ScalarInvariants:
    tau: np.ndarray
    ric_sq: np.ndarray
    riem_sq: np.ndarray
    a2_integrand: np.ndarray


def riemann_fd(metric_fn: MetricFn, pts: np.ndarray, scheme: FDScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, G^-1, fully lowered Riemann R_{rho sigma mu nu}) by nested finite differences."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    G = metric_fn(pts)
    Gi = _inverse(G)
    Gam = christoffel_fd(metric_fn, pts, scheme)
    dGam = first_derivative(lambda q: christoffel_fd(metric_fn, q, scheme), pts, scheme)
    # R^l_{s mu nu} = d_mu Gamma^l_{s nu} - d_nu Gamma^l_{s mu}
    #                + Gamma^e_{s nu} Gamma^l_{e mu} - Gamma^e_{s mu} Gamma^l_{e nu}
    Rup = (
        np.einsum("nmlsv->nlsmv", dGam)
        - np.einsum("nvlsm->nlsmv", dGam)
        + np.einsum("nesv,nlem->nlsmv", Gam, Gam)
        - np.einsum("nesm,nlev->nlsmv", Gam, Gam)
    )
    Rdn = np.einsum("nrl,nlsmv->nrsmv", G, Rup)
    return G, Gi, Rdn


def scalar_invariants_fd(metric_fn: MetricFn, pts: np.ndarray, scheme: FDScheme) -> ScalarInvariants:
    """Frame-independent curvature scalars by nested finite differences of the metric."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[1]
    G, Gi, Rdn = riemann_fd(metric_fn, pts, scheme)
    Ric = np.einsum("nbd,nabcd->nac", Gi, Rdn)
    tau = np.einsum("nac,nac->n", Gi, Ric)
    ric2 = np.einsum("nab,ncd,nac,nbd->n", Ric, Ric, Gi, Gi)
    riem2 = np.einsum("nabcd,nefgh,nae,nbf,ncg,ndh->n", Rdn, Rdn, Gi, Gi, Gi, Gi, optimize=True)
    const = (4.0 * math.pi) ** (-n / 2.0) / 360.0
    integ = const * (5.0 * tau * tau - 2.0 * ric2 + 2.0 * riem2)
    return ScalarInvariants(tau=tau, ric_sq=ric2, riem_sq=riem2, a2_integrand=integ)


# ---------------------------------------------------------------------------
# known-curvature self test: 2-d conformal metric e^{2f} I with a plateau bump
# ---------------------------------------------------------------------------

def _plateau(t: np.ndarray) -> np.ndarray:
    """C-infinity transition: 1 for t <= 0.25, 0 for t >= 1."""
    y = (1.0 - np.asarray(t, dtype=float)) / 0.75
    y = np.clip(y, 0.0, 1.0)
    def B(z):
        out = np.zeros_like(z)
        pos = z > 1e-12
        out[pos] = np.exp(-1.0 / z[pos])
        return out
    num = B(y)
    return num / (num + B(1.0 - y))


def _conformal_factor(pts: np.ndarray, sign: float = 1.0) -> np.ndarray:
    t = np.sum(pts * pts, axis=1)
    return sign * t * _plateau(t)


def conformal_metric_fn(sign: float = 1.0) -> MetricFn:
    """2-d metric e^{2f} I with f(x) = (x1^2 + x2^2) localized by a plateau bump."""

    def fn(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        f = _conformal_factor(pts, sign)
        G = np.zeros((pts.shape[0], 2, 2))
        G[:, 0, 0] = np.exp(2.0 * f)
        G[:, 1, 1] = np.exp(2.0 * f)
        return G

    return fn


def _euclidean_laplacian(fn_scalar, pts: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Order-4 FD Laplacian of a closed-form scalar, used only to form the expected value."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[1]
    out = np.zeros(pts.shape[0])
    for d in range(n):
        vals = []
        for c in (-2.0, -1.0, 0.0, 1.0, 2.0):
            q = pts.copy()
            q[:, d] += c * h
            vals.append(fn_scalar(q))
        v = np.stack(vals)
        out += (-v[0] + 16.0 * v[1] - 30.0 * v[2] + 16.0 * v[3] - v[4]) / (12.0 * h * h)
    return out


@dataclasses.dataclass(frozen=True)
class ConformalCheckReport:
    max_abs_err: float
    tau_at_origin: float
    flip_linearity_err: float
    ok: bool


def validate_known() -> ConformalCheckReport:
    """Check tau = -2 e^{-2f} (f_11 + f_22) pointwise for the conformal test metric.

    The oracle runs at step 1e-3 with Richardson extrapolation; ok means a
    pointwise error of at most 1e-5 and a sign-flip error below 1e-2.

    Establishes the sign convention end to end: at the origin the plateau is
    identically one, f = |x|^2, and tau = -8.  A sign flip of f flips tau to
    first order where f is small; that linearization is checked as well.
    Raises ConventionMismatchError if the computed sign disagrees.
    """
    scheme = FDScheme(h=1e-3, richardson=True)
    rng = np.random.default_rng(42)
    pts = np.concatenate(
        [
            np.zeros((1, 2)),
            rng.uniform(-0.3, 0.3, size=(6, 2)),   # plateau region (t <= 0.25 mostly)
            rng.uniform(0.55, 0.75, size=(4, 2)),  # transition region
        ]
    )
    inv = scalar_invariants_fd(conformal_metric_fn(1.0), pts, scheme)
    f = _conformal_factor(pts)
    lap_f = _euclidean_laplacian(lambda q: _conformal_factor(q), pts)
    expected = -2.0 * np.exp(-2.0 * f) * lap_f
    err = float(np.max(np.abs(inv.tau - expected)))
    tau0 = float(inv.tau[0])
    if abs(tau0 + 8.0) > abs(tau0 - 8.0):
        raise ConventionMismatchError(
            f"tau at the origin is {tau0:+.3f}; expected -8 under the adopted convention"
        )
    # sign-flip linearization on a small-amplitude version of f
    eps = 1e-3
    small_pts = rng.uniform(-0.3, 0.3, size=(4, 2))

    def small_fn(sign):
        def fn(q):
            q = np.atleast_2d(np.asarray(q, dtype=float))
            fval = eps * _conformal_factor(q, sign)
            G = np.zeros((q.shape[0], 2, 2))
            G[:, 0, 0] = np.exp(2.0 * fval)
            G[:, 1, 1] = np.exp(2.0 * fval)
            return G
        return fn

    tau_plus = scalar_invariants_fd(small_fn(1.0), small_pts, scheme).tau
    tau_minus = scalar_invariants_fd(small_fn(-1.0), small_pts, scheme).tau
    flip_err = float(np.max(np.abs(tau_plus + tau_minus)) / max(np.max(np.abs(tau_plus)), 1e-30))
    ok = err <= 1e-5 and flip_err < 1e-2
    return ConformalCheckReport(max_abs_err=err, tau_at_origin=tau0, flip_linearity_err=flip_err, ok=ok)
