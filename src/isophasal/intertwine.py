"""Mode-wise intertwining of the Laplacians of two isospectral-bracket metrics.

Smooth functions split under the torus action into angular-frequency modes
f = sum_Z f_Z(x, r) e^(i Z.theta), and a T-invariant metric's Laplacian
preserves each mode.  The intertwining operator acts per mode by composing the
coefficient with the orthogonal conjugator of the frequency vector,

    (Q f)_Z(x, r) = f_Z(A_Z x, r),      A_Z^T j_1(Z) A_Z = j_2(Z),

with A_0 the identity (the two torus-quotient metrics are both Euclidean).
The check performed here is Delta_{g1}(Q f) = Q(Delta_{g2} f) pointwise for a
basket of band-limited test functions: Delta_{g2} f is evaluated numerically,
re-decomposed over theta with the same band limit (reporting the truncation
tail, which mode preservation keeps at rounding level), and composed with the
per-mode rotations.  A non-isospectral pair must fail this check loudly;
that negative control is part of the contract.

The Laplacian is exact up to rounding: the family is unimodular, so
Delta f = -d_mu(G^{mu nu} d_nu f), and both the inverse metric and its
divergence d_mu G^{mu nu} have closed forms; no derivative is taken
numerically.  Angular modes come from one np.fft.fftn over the angle axes of
the values on a torus grid, and the transport evaluates every fiber it needs
in a fixed handful of batched Laplacian calls.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .brackets import Bracket, ConjugatorReport, conjugator
from .metric import CutoffProfile, bump_and_derivs, inverse_metric_at, polar_to_cartesian, psi

__all__ = [
    "TestFunction",
    "RotatedFunction",
    "FourierField",
    "fourier_decompose",
    "mode_vectors",
    "build_conjugators",
    "apply_Q",
    "inverse_metric_divergence",
    "laplacian",
    "IntertwineReport",
    "intertwine_residual",
    "default_test_functions",
    "default_points",
]


def _monomial(x: np.ndarray, powers: Sequence[int]):
    """Value, gradient, Hessian of prod_i x_i^e_i, batched over x (N, m)."""
    npts, m = x.shape
    val = np.ones(npts)
    for i, e in enumerate(powers):
        if e:
            val = val * x[:, i] ** e
    grad = np.zeros((npts, m))
    hess = np.zeros((npts, m, m))
    for i, e in enumerate(powers):
        if not e:
            continue
        gi = e * x[:, i] ** (e - 1)
        for j, ej in enumerate(powers):
            if j != i and ej:
                gi = gi * x[:, j] ** ej
        grad[:, i] = gi
        if e >= 2:
            hii = e * (e - 1) * x[:, i] ** (e - 2)
            for j, ej in enumerate(powers):
                if j != i and ej:
                    hii = hii * x[:, j] ** ej
            hess[:, i, i] = hii
        for j in range(i + 1, m):
            ej = powers[j]
            if not ej:
                continue
            hij = e * x[:, i] ** (e - 1) * ej * x[:, j] ** (ej - 1)
            for l, el in enumerate(powers):
                if l not in (i, j) and el:
                    hij = hij * x[:, l] ** el
            hess[:, i, j] = hij
            hess[:, j, i] = hij
    return val, grad, hess


def _windings(u: np.ndarray, freq: Sequence[int]):
    """Value, gradient, Hessian of prod_p (u_{2p} + i sgn(Z_p) u_{2p+1})^{|Z_p|}.

    These are the polynomial realizations of e^(i Z.theta) r^{|Z|}: smooth on
    all of R^2k and carrying exactly the angular frequency Z.
    """
    npts = u.shape[0]
    k = len(freq)
    w = np.empty((npts, k), dtype=complex)
    dw1 = np.empty((npts, k), dtype=complex)   # d/du_{2p}
    dw2 = np.empty((npts, k), dtype=complex)   # d/du_{2p+1}
    d2 = np.empty((npts, k), dtype=complex)    # z-second-derivative factor n(n-1) z^(n-2)
    sgn = np.empty(k)
    for p, zp in enumerate(freq):
        n_p = abs(int(zp))
        s = 1.0 if zp >= 0 else -1.0
        sgn[p] = s
        z = u[:, 2 * p] + 1j * s * u[:, 2 * p + 1]
        w[:, p] = z**n_p if n_p else 1.0
        zm1 = z ** (n_p - 1) if n_p >= 1 else np.zeros(npts, dtype=complex)
        zm2 = z ** (n_p - 2) if n_p >= 2 else np.zeros(npts, dtype=complex)
        dw1[:, p] = n_p * zm1
        dw2[:, p] = 1j * s * n_p * zm1
        d2[:, p] = n_p * (n_p - 1) * zm2
    # leave-one-out and leave-two-out products (k is small)
    val = np.prod(w, axis=1)
    rest = np.empty((npts, k), dtype=complex)
    for p in range(k):
        rp = np.ones(npts, dtype=complex)
        for q in range(k):
            if q != p:
                rp = rp * w[:, q]
        rest[:, p] = rp
    grad = np.zeros((npts, 2 * k), dtype=complex)
    grad[:, 0::2] = dw1 * rest
    grad[:, 1::2] = dw2 * rest
    hess = np.zeros((npts, 2 * k, 2 * k), dtype=complex)
    for p in range(k):
        # same-plane second derivatives: d2 * (1, i s; i s, -1) structure
        hess[:, 2 * p, 2 * p] = d2[:, p] * rest[:, p]
        hess[:, 2 * p, 2 * p + 1] = 1j * sgn[p] * d2[:, p] * rest[:, p]
        hess[:, 2 * p + 1, 2 * p] = hess[:, 2 * p, 2 * p + 1]
        hess[:, 2 * p + 1, 2 * p + 1] = -d2[:, p] * rest[:, p]
        for q in range(p + 1, k):
            rpq = np.ones(npts, dtype=complex)
            for l in range(k):
                if l not in (p, q):
                    rpq = rpq * w[:, l]
            for (a, da) in ((2 * p, dw1[:, p]), (2 * p + 1, dw2[:, p])):
                for (b, db) in ((2 * q, dw1[:, q]), (2 * q + 1, dw2[:, q])):
                    hess[:, a, b] = da * db * rpq
                    hess[:, b, a] = hess[:, a, b]
    return val, grad, hess


@dataclasses.dataclass(frozen=True)
class TestFunction:
    """Band-limited product test function on R^(m+2k).

    f(x, u) = amplitude * b(|x|^2 / x_bump_rsq) * b(|u|^2 / u_bump_rsq)
              * prod_i x_i^powers_i * prod_p (u_{2p} + i sgn(Z_p) u_{2p+1})^{|Z_p|}

    Smooth, compactly supported (when both bump radii are set), with exactly
    one angular frequency Z = freq and closed-form derivatives to second
    order.  Either bump may be disabled (None) for flat-region diagnostics.
    """

    m: int
    freq: tuple[int, ...]
    powers: tuple[int, ...] = ()
    x_bump_rsq: float | None = 1.0
    u_bump_rsq: float | None = 1.0
    amplitude: float = 1.0

    @property
    def k(self) -> int:
        return len(self.freq)

    @property
    def band_limit(self) -> int:
        return max((abs(z) for z in self.freq), default=0)

    def value_grad_hess(self, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        npts = pts.shape[0]
        m, k = self.m, self.k
        x, u = pts[:, :m], pts[:, m:]
        powers = tuple(self.powers) + (0,) * (m - len(self.powers))

        P, Pg, Ph = _monomial(x, powers)
        if self.x_bump_rsq is None:
            B1 = np.ones(npts)
            B1t = np.zeros(npts)
            B1tt = np.zeros(npts)
        else:
            b, bp, bpp = bump_and_derivs(np.sum(x * x, axis=1) / self.x_bump_rsq)
            B1, B1t, B1tt = b, bp / self.x_bump_rsq, bpp / self.x_bump_rsq**2
        F1 = B1 * P
        F1g = 2.0 * B1t[:, None] * x * P[:, None] + B1[:, None] * Pg
        F1h = (
            (2.0 * B1t[:, None, None]) * np.eye(m) * P[:, None, None]
            + 4.0 * B1tt[:, None, None] * x[:, :, None] * x[:, None, :] * P[:, None, None]
            + 2.0 * B1t[:, None, None] * (x[:, :, None] * Pg[:, None, :] + x[:, None, :] * Pg[:, :, None])
            + B1[:, None, None] * Ph
        )

        W, Wg, Wh = _windings(u, self.freq)
        if self.u_bump_rsq is None:
            B2 = np.ones(npts)
            B2t = np.zeros(npts)
            B2tt = np.zeros(npts)
        else:
            b, bp, bpp = bump_and_derivs(np.sum(u * u, axis=1) / self.u_bump_rsq)
            B2, B2t, B2tt = b, bp / self.u_bump_rsq, bpp / self.u_bump_rsq**2
        F2 = B2 * W
        F2g = 2.0 * B2t[:, None] * u * W[:, None] + B2[:, None] * Wg
        F2h = (
            (2.0 * B2t[:, None, None]) * np.eye(2 * k) * W[:, None, None]
            + 4.0 * B2tt[:, None, None] * u[:, :, None] * u[:, None, :] * W[:, None, None]
            + 2.0 * B2t[:, None, None] * (u[:, :, None] * Wg[:, None, :] + u[:, None, :] * Wg[:, :, None])
            + B2[:, None, None] * Wh
        )

        amp = self.amplitude
        val = amp * F1 * F2
        n = m + 2 * k
        grad = np.empty((npts, n), dtype=complex)
        grad[:, :m] = amp * F1g * F2[:, None]
        grad[:, m:] = amp * F1[:, None] * F2g
        hess = np.empty((npts, n, n), dtype=complex)
        hess[:, :m, :m] = amp * F1h * F2[:, None, None]
        hess[:, m:, m:] = amp * F1[:, None, None] * F2h
        cross = amp * F1g[:, :, None] * F2g[:, None, :]
        hess[:, :m, m:] = cross
        hess[:, m:, :m] = cross.transpose(0, 2, 1)
        return val, grad, hess

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.value_grad_hess(pts)[0]


@dataclasses.dataclass(frozen=True)
class RotatedFunction:
    """g(x, u) = f(A x, u) for an orthogonal A acting on the x block only."""

    base: TestFunction
    A: np.ndarray

    @property
    def freq(self) -> tuple[int, ...]:
        return self.base.freq

    def value_grad_hess(self, pts: np.ndarray):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m = self.base.m
        q = pts.copy()
        q[:, :m] = pts[:, :m] @ self.A.T
        val, grad, hess = self.base.value_grad_hess(q)
        grad = grad.copy()
        grad[:, :m] = grad[:, :m] @ self.A
        hess = hess.copy()
        hess[:, :m, :] = np.einsum("ab,nbc->nac", self.A.T, hess[:, :m, :])
        hess[:, :, :m] = np.einsum("nab,bc->nac", hess[:, :, :m], self.A)
        return val, grad, hess

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.value_grad_hess(pts)[0]


def mode_vectors(N: int, k: int) -> list[tuple[int, ...]]:
    """Integer frequency vectors with sup-norm at most N, in deterministic order."""
    return list(itertools.product(range(-N, N + 1), repeat=k))


class FourierField:
    """Angular-mode decomposition of a function given as a Cartesian evaluator.

    Coefficients are trapezoid sums on a uniform torus grid, exact on
    trigonometric polynomials of degree up to (grid_size - 1) / 2 per angle,
    all taken at once by one np.fft.fftn over the angle axes: the coefficient
    of Z is spectrum[Z mod grid_size] / grid_size^k.  Fiber arguments are
    x (m,) and r (k,), or batches x (P, m) and r (P, k) whose fibers are all
    evaluated in one call of f; batched calls return one coefficient per fiber.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], N: int, k: int, grid_size: int | None = None):
        if grid_size is None:
            grid_size = 2 * N + 1
        if grid_size < 2 * N + 1:
            raise ValueError(f"grid_size {grid_size} < 2N+1 = {2 * N + 1}")
        self.f = f
        self.N = N
        self.k = k
        self.grid_size = grid_size
        grid_1d = 2.0 * math.pi * np.arange(grid_size) / grid_size
        mesh = np.meshgrid(*([grid_1d] * k), indexing="ij")
        self.sigma = np.stack([g.ravel() for g in mesh], axis=1)  # (G, k)

    def _values(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """f on the grid of every fiber, shape batch + (grid_size,) * k."""
        x = np.asarray(x, dtype=float)
        r = np.asarray(r, dtype=float)
        xb = x.reshape(-1, x.shape[-1])
        rb = r.reshape(-1, r.shape[-1])
        G = self.sigma.shape[0]
        pts = np.concatenate(
            [
                np.repeat(xb, G, axis=0),
                polar_to_cartesian(np.repeat(rb, G, axis=0), np.tile(self.sigma, (xb.shape[0], 1))),
            ],
            axis=1,
        )
        return np.asarray(self.f(pts)).reshape(x.shape[:-1] + (self.grid_size,) * self.k)

    def _spectrum(self, vals: np.ndarray) -> np.ndarray:
        axes = tuple(range(vals.ndim - self.k, vals.ndim))
        return np.fft.fftn(vals, axes=axes) / self.sigma.shape[0]

    def _index(self, Z) -> tuple:
        """Spectrum index of a frequency Z (k,), or per-axis index arrays for Z (L, k)."""
        wrapped = np.asarray(Z, dtype=int) % self.grid_size
        return tuple(wrapped[..., p] for p in range(self.k))

    def coefficient(self, Z, x: np.ndarray, r: np.ndarray):
        """f_Z on the fiber(s); for batched fibers Z is (k,) or one frequency per fiber (P, k)."""
        spec = self._spectrum(self._values(x, r))
        if spec.ndim == self.k:
            return complex(spec[self._index(Z)])
        return spec[(np.arange(spec.shape[0]),) + self._index(Z)]

    def coefficients_all(self, x: np.ndarray, r: np.ndarray) -> dict[tuple[int, ...], complex | np.ndarray]:
        """Every f_Z with |Z|_inf <= N, in mode_vectors order."""
        return self._modes(self._spectrum(self._values(x, r)))

    def _modes(self, spec: np.ndarray) -> dict:
        modes = mode_vectors(self.N, self.k)
        coefs = spec[(Ellipsis,) + self._index(modes)]  # batch + (len(modes),)
        if spec.ndim == self.k:
            return {Z: complex(c) for Z, c in zip(modes, coefs)}
        return {Z: coefs[:, j] for j, Z in enumerate(modes)}

    def reconstruct(self, x: np.ndarray, r: np.ndarray, theta: np.ndarray) -> complex:
        theta = np.asarray(theta, dtype=float)
        coefs = self.coefficients_all(x, r)
        return complex(sum(c * np.exp(1j * np.dot(Z, theta)) for Z, c in coefs.items()))

    def parseval_gap(self, x: np.ndarray, r: np.ndarray) -> float:
        """|sum |f_Z|^2 - mean |f|^2| on the fiber; zero for band-limited f."""
        vals = self._values(x, r)
        coefs = self._modes(self._spectrum(vals))
        return abs(sum(abs(c) ** 2 for c in coefs.values()) - float(np.mean(np.abs(vals) ** 2)))


def fourier_decompose(
    f: Callable[[np.ndarray], np.ndarray], N: int, k: int, grid_size: int | None = None
) -> FourierField:
    return FourierField(f, N, k, grid_size)


def build_conjugators(
    b1: Bracket, b2: Bracket, N: int, tol: float = 1e-10, strict: bool = True
) -> dict[tuple[int, ...], ConjugatorReport]:
    """Orthogonal A_Z with their residuals for every |Z|_inf <= N; A_0 is the identity.

    Orientation: Q carries functions from the second metric's side to the
    first's, so A_Z must conjugate the second j-map onto the first,
    A_Z^T j_2(Z) A_Z = j_1(Z).  (Composing a mode coefficient with x -> A x
    pulls the metric data through A; checked numerically, the opposite
    orientation only works when A is involutive.)  With strict=False a
    best-effort orthogonal map is built even when the spectra do not match;
    the negative control relies on the intertwining then failing detectably.
    """
    out: dict[tuple[int, ...], ConjugatorReport] = {}
    for Z in mode_vectors(N, b1.k):
        if all(z == 0 for z in Z):
            out[Z] = ConjugatorReport(A=np.eye(b1.m), residual_conj=0.0, residual_orth=0.0)
        else:
            out[Z] = conjugator(b2, b1, np.asarray(Z, dtype=float), tol=tol, require_match=strict)
    return out


def apply_Q(b1: Bracket, b2: Bracket, f: TestFunction, tol: float = 1e-10, strict: bool = True):
    """Q applied to a single-mode test function: composition with A_Z on the x block.

    The result lives on the first metric's side:
    Delta_{g1}(Q f) = Q(Delta_{g2} f).
    """
    Z = f.freq
    if all(z == 0 for z in Z):
        A = np.eye(b1.m)
    else:
        A = conjugator(b2, b1, np.asarray(Z, dtype=float), tol=tol, require_match=strict).A
    return RotatedFunction(base=f, A=A)


def inverse_metric_divergence(
    bracket: Bracket, profile: CutoffProfile, x: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Closed-form d_mu G^{mu nu} of G^-1 = [[I, psi K^T], [psi K, I + psi^2 K K^T]], shape (N, n).

    With L_ip = <[x, e_i], Z_p>, plane p of K is the rows (-L_ip u_{2p+1},
    L_ip u_{2p}).  Lambda is skew, so sum_i x_i L_ip = 0 and d_{x_i} L_ip = 0;
    u^T K = 0; and each row of K depends only on the other coordinate of its
    plane.  Every term of the x block cancels, and on plane p only
    -psi^2 (sum_i L_ip^2) u_p survives, from the u-derivatives of K K^T.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    m = bracket.m
    pv = psi(profile, x, u).value
    L = np.einsum("nj,pji->nip", x, bracket.tensor)
    weight = pv[:, None] ** 2 * np.einsum("nip,nip->np", L, L)  # (N, k)
    div = np.zeros((x.shape[0], m + u.shape[1]))
    div[:, m:] = -np.repeat(weight, 2, axis=1) * u
    return div


def laplacian(
    bracket: Bracket,
    profile: CutoffProfile,
    f,
    pts: np.ndarray,
    point_chunk: int = 512,
) -> np.ndarray:
    """Positive Laplacian -d_mu(G^{mu nu} d_nu f) at Cartesian points.

    The determinant of G is one, so no volume factor appears.  G^{-1} is the
    closed-form block inverse and its divergence the closed form of
    inverse_metric_divergence; the gradient and Hessian of f come from
    f.value_grad_hess.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m = bracket.m
    out = np.empty(pts.shape[0], dtype=complex)
    for lo in range(0, pts.shape[0], point_chunk):
        p = pts[lo : lo + point_chunk]
        x, u = p[:, :m], p[:, m:]
        Gi = inverse_metric_at(bracket, profile, x, u)
        div_Gi = inverse_metric_divergence(bracket, profile, x, u)
        _val, grad, hess = f.value_grad_hess(p)
        out[lo : lo + p.shape[0]] = -(
            np.einsum("nab,nab->n", Gi, hess) + np.einsum("nv,nv->n", div_Gi, grad)
        )
    return out


@dataclasses.dataclass(frozen=True)
class IntertwineReport:
    """Intertwining residuals, plus the worst conjugator residuals over the band.

    residual_conj is max_Z ||A_Z^T j_2(Z) A_Z - j_1(Z)||_F and residual_orth
    max_Z ||A_Z^T A_Z - I||_F (ConjugatorReport's residuals).
    """

    max_residual: float
    truncation_tail: float
    n_points: int
    n_functions: int
    band_limit: int
    per_function: tuple[float, ...]
    residual_conj: float
    residual_orth: float


def _q_transported_laplacian(
    b2: Bracket,
    profile: CutoffProfile,
    f: TestFunction,
    x_pts: np.ndarray,
    r_pts: np.ndarray,
    theta_pts: np.ndarray,
    N: int,
    conjugators: dict[tuple[int, ...], ConjugatorReport],
    coef_rtol: float = 1e-9,
    tail_samples: int = 3,
) -> tuple[np.ndarray, float]:
    """Q(Delta_{g2} f) at polar points, re-decomposing Delta_{g2} f over theta.

    Three batched Laplacian evaluations: every point's fiber, then the rotated
    fiber (A_Z x, r) of every live mode Z (|coefficient| above coef_rtol of
    the point's largest), then a band widened by two on the first
    tail_samples fibers.  Returns the transported values and the relative
    truncation tail, the coefficient mass beyond N on the widened band.
    """
    h_eval = lambda q: laplacian(b2, profile, f, q)
    field = FourierField(h_eval, N, b2.k)
    coefs = field.coefficients_all(x_pts, r_pts)
    modes = list(coefs)
    C = np.abs(np.stack([coefs[Z] for Z in modes], axis=1))  # (P, modes)
    floor = coef_rtol * np.maximum(np.max(C, axis=1), 1e-300)
    live_pt, live_mode = np.nonzero(C > floor[:, None])
    out = np.zeros(x_pts.shape[0], dtype=complex)
    if live_pt.size:
        Zs = np.asarray(modes)[live_mode]  # (L, k)
        A = np.stack([conjugators[modes[j]].A for j in live_mode])
        x_rot = np.einsum("lab,lb->la", A, x_pts[live_pt])
        c_rot = field.coefficient(Zs, x_rot, r_pts[live_pt])
        phase = np.exp(1j * np.einsum("lp,lp->l", Zs, theta_pts[live_pt]))
        np.add.at(out, live_pt, c_rot * phase)
    wide = FourierField(h_eval, N + 2, b2.k)
    n_tail = min(tail_samples, x_pts.shape[0])
    wide_coefs = wide.coefficients_all(x_pts[:n_tail], r_pts[:n_tail])
    total = sum(np.abs(c) for c in wide_coefs.values())
    beyond = sum(np.abs(c) for Z, c in wide_coefs.items() if max(abs(z) for z in Z) > N)
    tail = max((float(b / t) for b, t in zip(beyond, total) if t > 0), default=0.0)
    return out, tail


def intertwine_residual(
    b1: Bracket,
    b2: Bracket,
    profile: CutoffProfile,
    test_functions: Sequence[TestFunction],
    points: tuple[np.ndarray, np.ndarray, np.ndarray],
    N: int | None = None,
    strict: bool = True,
) -> IntertwineReport:
    """max over (f, p) of |Delta_{g1}(Qf)(p) - Q(Delta_{g2}f)(p)| / (1 + |Q(Delta_{g2}f)(p)|).

    points is a polar triple (x (P,m), r (P,k), theta (P,k)).  For isospectral
    pairs the residual sits at rounding level; for inequivalent spectra
    (strict=False) it must be large.
    """
    x_pts, r_pts, theta_pts = (np.atleast_2d(np.asarray(a, dtype=float)) for a in points)
    cart = np.concatenate([x_pts, polar_to_cartesian(r_pts, theta_pts)], axis=1)
    if N is None:
        N = max(f.band_limit for f in test_functions)
    conj = build_conjugators(b1, b2, N, strict=strict)
    worst = 0.0
    tail = 0.0
    per_fn = []
    for f in test_functions:
        if f.band_limit > N:
            # out-of-band mode: the truncated Q maps it to zero (and the
            # undersized theta grid aliases it on the transported side)
            Qf = RotatedFunction(base=dataclasses.replace(f, amplitude=0.0), A=np.eye(b1.m))
        else:
            Qf = RotatedFunction(base=f, A=conj[tuple(f.freq)].A)
        lhs = laplacian(b1, profile, Qf, cart)
        rhs, f_tail = _q_transported_laplacian(b2, profile, f, x_pts, r_pts, theta_pts, N, conj)
        res = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
        per_fn.append(res)
        worst = max(worst, res)
        tail = max(tail, f_tail)
    return IntertwineReport(
        max_residual=worst,
        truncation_tail=tail,
        n_points=x_pts.shape[0],
        n_functions=len(test_functions),
        band_limit=N,
        per_function=tuple(per_fn),
        residual_conj=max(c.residual_conj for c in conj.values()),
        residual_orth=max(c.residual_orth for c in conj.values()),
    )


def default_test_functions(m: int, k: int, profile: CutoffProfile) -> list[TestFunction]:
    """Eight band-limited products with |Z|_inf <= 2 and varied radial envelopes."""
    rx2 = 1.3 * profile.r1sq
    ru2 = 1.3 * (profile.r2sq / profile.s**2)
    freqs_polys = [
        ((0, 0, 0), (1,)),
        ((1, 0, 0), ()),
        ((0, 1, 0), (0, 1)),
        ((0, 0, 1), (1, 1)),
        ((1, -1, 0), ()),
        ((2, 0, 0), (0, 0, 1)),
        ((0, 2, -1), ()),
        ((1, 1, 1), (2,)),
    ]
    out = []
    for j, (freq, powers) in enumerate(freqs_polys):
        freq = freq[:k] if k <= 3 else freq + (0,) * (k - 3)
        out.append(
            TestFunction(
                m=m,
                freq=tuple(freq),
                powers=tuple(powers),
                x_bump_rsq=rx2 * (1.0 + 0.1 * (j % 3)),
                u_bump_rsq=ru2 * (1.0 + 0.07 * (j % 4)),
            )
        )
    return out


def default_points(
    m: int, k: int, profile: CutoffProfile, n_points: int = 40, seed: int = 5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior polar points where the metric perturbation is strong.

    The coupling strength scales like psi(x, u) |x| |u|, which for the bump
    profile peaks near |x|^2 = |u|^2 = 2 - sqrt(3); points are drawn around
    that shell.
    """
    rng = np.random.default_rng(seed)
    rx = profile.x_radius
    ru = profile.u_radius
    t_star = 2.0 - math.sqrt(3.0)
    x = rng.normal(size=(n_points, m))
    x *= (math.sqrt(t_star) * rx * rng.uniform(0.75, 1.25, size=n_points) / np.linalg.norm(x, axis=1))[:, None]
    r_norm = math.sqrt(t_star) * ru * rng.uniform(0.75, 1.15, size=n_points)
    r = rng.uniform(0.5, 1.0, size=(n_points, k))
    r *= (r_norm / np.linalg.norm(r, axis=1))[:, None]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(n_points, k))
    return x, r, theta
