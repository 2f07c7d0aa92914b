"""Mode-wise intertwining of the Laplacians of two isospectral-bracket metrics.

Smooth functions split under the torus action into angular-frequency modes
f = sum_Z f_Z(x, r) e^(i Z.theta), and a T-invariant metric's Laplacian
preserves each mode.  The intertwining operator acts per mode by composing the
coefficient with the orthogonal conjugator of the frequency vector,

    (Q f)_Z(x, r) = f_Z(A_Z x, r),      A_Z^T j_2(Z) A_Z = j_1(Z),

with A_0 the identity (the two torus-quotient metrics are both Euclidean).
build_conjugators computes A_Z for a given list of modes, and apply_Q is the
one map from a single-mode function to its image under Q.  The check
performed here is Delta_{g1}(Q f) = Q(Delta_{g2} f) pointwise for a basket
of band-limited test functions, in two passes per pair: Delta_{g2} f is
evaluated numerically and re-decomposed over theta with the same band limit,
which names the modes Q needs (each in-band f.freq and every live mode);
then the conjugators of exactly those modes are built, once, and the
coefficients are composed with the per-mode rotations.  The truncation tail,
which mode preservation keeps at rounding level, is measured once per pair,
on the widest-band test function.  A non-isospectral pair must fail this
check loudly; that negative control is part of the contract.

Each test function is a product f_x(x) f_u(u) (amplitude, bump and monomial
in x; bump and monomial in the complex plane coordinates of u), and
factor_jets gives each factor's value, gradient and Hessian in closed form.
The Laplacian is exact up to rounding: the family is unimodular, so
Delta f = -d_mu(G^{mu nu} d_nu f), metric supplies the inverse metric and its
divergence d_mu G^{mu nu} in closed form, and laplacian contracts them block
by block against the two factor jets, never forming f's full Hessian; no
derivative is taken numerically.  Angular modes come from one np.fft.fftn
over the angle axes of the values on a torus grid, and the transport
evaluates every fiber it needs in a fixed handful of batched Laplacian calls.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .brackets import Bracket, ConjugatorReport, conjugator
from .metric import CutoffProfile, bump_and_derivs, inverse_metric_at, inverse_metric_divergence, polar_to_cartesian

__all__ = [
    "TestFunction",
    "RotatedFunction",
    "FourierField",
    "mode_vectors",
    "build_conjugators",
    "apply_Q",
    "laplacian",
    "IntertwineReport",
    "intertwine_residual",
    "TEST_BASKET",
    "default_test_functions",
    "default_points",
]

_POINT_CHUNK = 512  # Laplacian points per batch
_LIVE_RTOL = 1e-9  # a mode is live where |coefficient| exceeds this fraction of the point's largest
_TAIL_FIBERS = 3  # fibers on which the truncation tail is measured


def _monomial(z: np.ndarray, powers: Sequence[int]):
    """Value, gradient, Hessian of prod_i z_i^e_i, batched over real or complex z (N, m).

    Only the coordinates with e_i > 0 enter, and every factor is read from
    their table of powers z_i^0 .. z_i^e_max.  A derivative lowers the
    exponents to e - d_a (first) or e - d_a - d_b (second); a negative one
    only comes with a zero coefficient and is clipped to zero.
    """
    npts, m = z.shape
    live = np.flatnonzero(np.asarray(powers) > 0)
    grad = np.zeros((npts, m), dtype=z.dtype)
    hess = np.zeros((npts, m, m), dtype=z.dtype)
    if live.size == 0:
        return np.ones(npts, dtype=z.dtype), grad, hess
    e = np.asarray(powers)[live]
    d = np.eye(live.size, dtype=int)
    j = np.arange(live.size)
    table = z[:, live, None] ** np.arange(e.max() + 1)  # (N, L, e_max + 1)
    grad[:, live] = e * np.prod(table[:, j, e - d], axis=2)
    second = np.prod(table[:, j, np.maximum(e - d[:, None] - d, 0)], axis=3)
    hess[:, live[:, None], live] = e[:, None] * (e - d) * second
    return np.prod(table[:, j, e], axis=1), grad, hess


def _envelope(y: np.ndarray, rsq: float | None):
    """Value, gradient, Hessian of the bump b(|y|^2 / rsq); the constant one when rsq is None."""
    npts, d = y.shape
    if rsq is None:
        return np.ones(npts), np.zeros((npts, d)), np.zeros((npts, d, d))
    b, bp, bpp = bump_and_derivs(np.sum(y * y, axis=1) / rsq)
    grad = (2.0 * bp / rsq)[:, None] * y
    hess = (4.0 * bpp / rsq**2)[:, None, None] * y[:, :, None] * y[:, None, :]
    hess[:, np.arange(d), np.arange(d)] += (2.0 * bp / rsq)[:, None]
    return b, grad, hess


def _product(f, g):
    """Product rule on (value, gradient, Hessian) triples of two functions of the same coordinates."""
    fv, fg, fh = f
    gv, gg, gh = g
    outer = fg[:, :, None] * gg[:, None, :]
    hess = fh * gv[:, None, None] + fv[:, None, None] * gh
    hess += outer
    hess += outer.transpose(0, 2, 1)
    return fv * gv, fg * gv[:, None] + fv[:, None] * gg, hess


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

    def factor_jets(self, pts: np.ndarray):
        """(value, gradient, Hessian) of the x factor (amplitude included) over x and of the u factor over u."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, k = self.m, self.k
        x, u = pts[:, :m], pts[:, m:]
        fx = _product(_envelope(x, self.x_bump_rsq), _monomial(x, self.powers))
        # The winding factor prod_p z_p^{|Z_p|}, z_p = u_{2p} + i sgn(Z_p) u_{2p+1},
        # realizes e^(i Z.theta) r^{|Z|} as a polynomial: smooth on all of R^2k
        # and carrying exactly the frequency Z.  J = dz/du is constant.
        J = np.zeros((k, 2 * k), dtype=complex)
        J[np.arange(k), 2 * np.arange(k)] = 1.0
        J[np.arange(k), 2 * np.arange(k) + 1] = np.where(np.asarray(self.freq) >= 0, 1j, -1j)
        wv, wg, wh = _monomial(u @ J.T, [abs(z) for z in self.freq])
        fu = _product(_envelope(u, self.u_bump_rsq), (wv, wg @ J, J.T @ wh @ J))
        return tuple(self.amplitude * a for a in fx), fu

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        (xv, _, _), (uv, _, _) = self.factor_jets(pts)
        return xv * uv


@dataclasses.dataclass(frozen=True)
class RotatedFunction:
    """g(x, u) = f(A x, u) for an orthogonal A acting on the x block only."""

    base: TestFunction
    A: np.ndarray

    def factor_jets(self, pts: np.ndarray):
        """The base's factor jets at (A x, u), the x factor's pulled back through A."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m = self.base.m
        (v, g, h), fu = self.base.factor_jets(np.concatenate([pts[:, :m] @ self.A.T, pts[:, m:]], axis=1))
        return (v, g @ self.A, self.A.T @ h @ self.A), fu

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        (xv, _, _), (uv, _, _) = self.factor_jets(pts)
        return xv * uv


def mode_vectors(N: int, k: int) -> list[tuple[int, ...]]:
    """Integer frequency vectors with sup-norm at most N, in deterministic order."""
    return list(itertools.product(range(-N, N + 1), repeat=k))


class FourierField:
    """Angular-mode decomposition of a function given as a Cartesian evaluator.

    Coefficients are trapezoid sums on a uniform torus grid of
    grid_size = 2N + 1 points per angle, exact on trigonometric polynomials
    of degree up to N per angle, all taken at once by one np.fft.fftn over
    the angle axes: the coefficient of Z is spectrum[Z mod grid_size] /
    grid_size^k.  Fibers come in batches x (P, m) and r (P, k), all evaluated
    in one call of f, and every method returns one coefficient per fiber.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], N: int, k: int):
        self.f = f
        self.N = N
        self.k = k
        self.grid_size = 2 * N + 1
        grid_1d = 2.0 * math.pi * np.arange(self.grid_size) / self.grid_size
        mesh = np.meshgrid(*([grid_1d] * k), indexing="ij")
        self.sigma = np.stack([g.ravel() for g in mesh], axis=1)  # (G, k)

    def _values(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """f on the grid of every fiber, shape (P,) + (grid_size,) * k."""
        P, G = len(x), self.sigma.shape[0]
        pts = np.concatenate(
            [
                np.repeat(np.asarray(x, dtype=float), G, axis=0),
                polar_to_cartesian(np.repeat(np.asarray(r, dtype=float), G, axis=0), np.tile(self.sigma, (P, 1))),
            ],
            axis=1,
        )
        return np.asarray(self.f(pts)).reshape((P,) + (self.grid_size,) * self.k)

    def _spectrum(self, vals: np.ndarray) -> np.ndarray:
        return np.fft.fftn(vals, axes=tuple(range(1, self.k + 1))) / self.sigma.shape[0]

    def _index(self, Z) -> tuple:
        """Spectrum index of a frequency Z (k,), or per-axis index arrays for Z (L, k)."""
        wrapped = np.asarray(Z, dtype=int) % self.grid_size
        return tuple(wrapped[..., p] for p in range(self.k))

    def coefficient(self, Z, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """f_Z on each fiber, shape (P,); Z is (k,) or one frequency per fiber (P, k)."""
        spec = self._spectrum(self._values(x, r))
        return spec[(np.arange(spec.shape[0]),) + self._index(Z)]

    def coefficients_all(self, x: np.ndarray, r: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
        """Every f_Z with |Z|_inf <= N, in mode_vectors order, each of shape (P,)."""
        spec = self._spectrum(self._values(x, r))
        modes = mode_vectors(self.N, self.k)
        coefs = spec[(slice(None),) + self._index(modes)]  # (P, len(modes))
        return {Z: coefs[:, j] for j, Z in enumerate(modes)}


def build_conjugators(
    b1: Bracket, b2: Bracket, modes: Sequence[tuple[int, ...]], strict: bool = True
) -> dict[tuple[int, ...], ConjugatorReport]:
    """Orthogonal A_Z with their residuals for each Z in modes; A_0 is the identity.

    Each A_Z depends on Z alone, not on which other modes are built; pass
    mode_vectors(N, k) for the whole band.  Orientation: Q carries functions
    from the second metric's side to the first's, so A_Z must conjugate the
    second j-map onto the first, A_Z^T j_2(Z) A_Z = j_1(Z).  (Composing a mode
    coefficient with x -> A x pulls the metric data through A; checked
    numerically, the opposite orientation only works when A is involutive.)
    With strict=False a best-effort orthogonal map is built even when the
    spectra do not match; the negative control relies on the intertwining
    then failing detectably.
    """
    out: dict[tuple[int, ...], ConjugatorReport] = {}
    for Z in map(tuple, modes):
        if all(z == 0 for z in Z):
            out[Z] = ConjugatorReport(A=np.eye(b1.m), residual_conj=0.0, residual_orth=0.0)
        else:
            out[Z] = conjugator(b2, b1, np.asarray(Z, dtype=float), require_match=strict)
    return out


def apply_Q(conjugators: dict[tuple[int, ...], ConjugatorReport], f: TestFunction) -> RotatedFunction:
    """Q applied to a single-mode test function: f composed with A_Z on the x block, Z = f.freq.

    conjugators is build_conjugators(b1, b2, modes) with Z among the modes;
    the result lives on the first metric's side, Delta_{g1}(Q f) = Q(Delta_{g2} f).
    A mode with no built conjugator raises KeyError.  The truncated Q's zero
    beyond the band is intertwine_residual's rule, since only it knows N.
    """
    Z = tuple(f.freq)
    if Z not in conjugators:
        raise KeyError(f"no conjugator built for mode {Z}")
    return RotatedFunction(base=f, A=conjugators[Z].A)


def laplacian(
    bracket: Bracket,
    profile: CutoffProfile,
    f,
    pts: np.ndarray,
) -> np.ndarray:
    """Positive Laplacian -d_mu(G^{mu nu} d_nu f) of a product f = f_x(x) f_u(u) at Cartesian points.

    The determinant of G is one, so no volume factor appears.  G^{-1} and its
    divergence div are metric's closed forms (inverse_metric_at and
    inverse_metric_divergence), contracted block by block against the jets
    (f_., g_., h_.) of f.factor_jets:
    -[f_u (<G^xx, h_x> + div_x.g_x) + 2 g_x^T G^xu g_u + f_x (<G^uu, h_u> + div_u.g_u)].
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m = bracket.m
    out = np.empty(pts.shape[0], dtype=complex)
    for lo in range(0, pts.shape[0], _POINT_CHUNK):
        p = pts[lo : lo + _POINT_CHUNK]
        x, u = p[:, :m], p[:, m:]
        Gi = inverse_metric_at(bracket, profile, x, u)
        div_Gi = inverse_metric_divergence(bracket, profile, x, u)
        (xv, xg, xh), (uv, ug, uh) = f.factor_jets(p)
        out[lo : lo + p.shape[0]] = -(
            uv * (np.einsum("nab,nab->n", Gi[:, :m, :m], xh) + np.einsum("na,na->n", div_Gi[:, :m], xg))
            + 2.0 * np.einsum("na,nab,nb->n", xg, Gi[:, :m, m:], ug)
            + xv * (np.einsum("nab,nab->n", Gi[:, m:, m:], uh) + np.einsum("na,na->n", div_Gi[:, m:], ug))
        )
    return out


@dataclasses.dataclass(frozen=True)
class IntertwineReport:
    """Intertwining residuals, plus the worst residuals of the conjugators built.

    residual_conj is max_Z ||A_Z^T j_2(Z) A_Z - j_1(Z)||_F and residual_orth
    max_Z ||A_Z^T A_Z - I||_F (ConjugatorReport's residuals), over the
    n_conjugators modes Q used (A_0 = I included), not the whole band.
    truncation_tail is measured on one function, the widest-band one.
    """

    max_residual: float
    truncation_tail: float
    n_points: int
    n_functions: int
    band_limit: int
    per_function: tuple[float, ...]
    residual_conj: float
    residual_orth: float
    n_conjugators: int


def _decompose(
    b2: Bracket, profile: CutoffProfile, f: TestFunction, x_pts: np.ndarray, r_pts: np.ndarray, N: int
) -> tuple[FourierField, np.ndarray, list[tuple[int, ...]]]:
    """Delta_{g2} f split over theta on every point's fiber, in one batched Laplacian call.

    Returns the field and its live (point, mode) pairs: a mode is live at a
    point where its |coefficient| exceeds _LIVE_RTOL of the point's largest.
    """
    field = FourierField(lambda q: laplacian(b2, profile, f, q), N, b2.k)
    coefs = field.coefficients_all(x_pts, r_pts)
    modes = list(coefs)
    C = np.abs(np.stack([coefs[Z] for Z in modes], axis=1))  # (P, modes)
    floor = _LIVE_RTOL * np.maximum(np.max(C, axis=1), 1e-300)
    live_pt, live_mode = np.nonzero(C > floor[:, None])
    return field, live_pt, [modes[j] for j in live_mode]


def _transport(
    field: FourierField,
    live_pt: np.ndarray,
    live: list[tuple[int, ...]],
    conjugators: dict[tuple[int, ...], ConjugatorReport],
    x_pts: np.ndarray,
    r_pts: np.ndarray,
    theta_pts: np.ndarray,
) -> np.ndarray:
    """Q(Delta_{g2} f) at polar points: each live mode Z read on its rotated fiber (A_Z x, r).

    All rotated fibers go through one batched Laplacian call.
    """
    out = np.zeros(x_pts.shape[0], dtype=complex)
    if live_pt.size:
        Zs = np.asarray(live)  # (L, k)
        A = np.stack([conjugators[Z].A for Z in live])
        x_rot = np.einsum("lab,lb->la", A, x_pts[live_pt])
        c_rot = field.coefficient(Zs, x_rot, r_pts[live_pt])
        phase = np.exp(1j * np.einsum("lp,lp->l", Zs, theta_pts[live_pt]))
        np.add.at(out, live_pt, c_rot * phase)
    return out


def _truncation_tail(
    b2: Bracket, profile: CutoffProfile, f: TestFunction, x_pts: np.ndarray, r_pts: np.ndarray, N: int
) -> float:
    """Relative coefficient mass of Delta_{g2} f beyond N, on a band widened by two.

    Taken on the first _TAIL_FIBERS fibers, the worst fiber reported.
    """
    wide = FourierField(lambda q: laplacian(b2, profile, f, q), N + 2, b2.k)
    n_tail = min(_TAIL_FIBERS, x_pts.shape[0])
    wide_coefs = wide.coefficients_all(x_pts[:n_tail], r_pts[:n_tail])
    total = sum(np.abs(c) for c in wide_coefs.values())
    beyond = sum(np.abs(c) for Z, c in wide_coefs.items() if max(abs(z) for z in Z) > N)
    return max((float(b / t) for b, t in zip(beyond, total) if t > 0), default=0.0)


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
    (strict=False) it must be large.  Conjugators are built only for the
    modes Q uses: each in-band f.freq and every live mode of a Delta_{g2} f.
    """
    x_pts, r_pts, theta_pts = (np.atleast_2d(np.asarray(a, dtype=float)) for a in points)
    cart = np.concatenate([x_pts, polar_to_cartesian(r_pts, theta_pts)], axis=1)
    if N is None:
        N = max(f.band_limit for f in test_functions)
    decomposed = [_decompose(b2, profile, f, x_pts, r_pts, N) for f in test_functions]
    modes = {tuple(f.freq) for f in test_functions if f.band_limit <= N}
    for _field, _live_pt, live in decomposed:
        modes.update(live)
    conj = build_conjugators(b1, b2, sorted(modes), strict=strict)
    per_fn = []
    for f, (field, live_pt, live) in zip(test_functions, decomposed):
        # the truncated Q maps a mode beyond the band to zero, while the
        # undersized theta grid aliases it on the transported side
        lhs = laplacian(b1, profile, apply_Q(conj, f), cart) if f.band_limit <= N else 0.0
        rhs = _transport(field, live_pt, live, conj, x_pts, r_pts, theta_pts)
        per_fn.append(float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
    # max keeps the first of equally wide functions
    widest = max(test_functions, key=lambda f: f.band_limit, default=None)
    return IntertwineReport(
        max_residual=max(per_fn, default=0.0),
        truncation_tail=0.0 if widest is None else _truncation_tail(b2, profile, widest, x_pts, r_pts, N),
        n_points=x_pts.shape[0],
        n_functions=len(test_functions),
        band_limit=N,
        per_function=tuple(per_fn),
        residual_conj=max((c.residual_conj for c in conj.values()), default=0.0),
        residual_orth=max((c.residual_orth for c in conj.values()), default=0.0),
        n_conjugators=len(conj),
    )


# (frequency, x-monomial powers) of each of default_test_functions' functions
TEST_BASKET = (
    ((0, 0, 0), (1,)),
    ((1, 0, 0), ()),
    ((0, 1, 0), (0, 1)),
    ((0, 0, 1), (1, 1)),
    ((1, -1, 0), ()),
    ((2, 0, 0), (0, 0, 1)),
    ((0, 2, -1), ()),
    ((1, 1, 1), (2,)),
)


def default_test_functions(m: int, k: int, profile: CutoffProfile) -> list[TestFunction]:
    """One band-limited product per TEST_BASKET entry, |Z|_inf <= 2, with varied radial envelopes."""
    rx2 = 1.3 * profile.r1sq
    ru2 = 1.3 * (profile.r2sq / profile.s**2)
    out = []
    for j, (freq, powers) in enumerate(TEST_BASKET):
        freq = freq[:k] if k <= 3 else freq + (0,) * (k - 3)
        out.append(
            TestFunction(
                m=m,
                freq=tuple(freq),
                powers=tuple(powers[:m]),
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
