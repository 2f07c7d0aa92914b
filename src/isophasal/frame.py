"""Analytic curvature engine in the adapted orthonormal frame.

On the dense open set where every plane radius r_p is positive, polar
coordinates (x, r, theta) and the orthonormal frame

    xhat_i = e_i + sum_q a_iq(x, r) d/dtheta_q,   rhat_p = d/dr_p,
    that_q = (1/r_q) d/dtheta_q,

with coupling coefficients a_iq = phi_s(|x|^2, |r|^2) <[x, e_i], Z_q>, turn the
metric into constant coefficients; all curvature information sits in the frame
structure constants.  In the joint coordinate y = (x, r), with E_alpha running
over the xhat and rhat fields and a_alpha,q = 0 for an rhat index, the nonzero
brackets are

    [E_alpha, E_beta] = sum_q r_q (d_alpha a_beta,q - d_beta a_alpha,q) that_q
    [rhat_q, that_q] = -(1/r_q) that_q,

the last being the flat polar-frame term; it is kept so that the zero-bracket
metric comes out exactly flat.  Christoffel symbols follow from the Koszul
formula, and the curvature tensor from the standard frame formula with the
frame derivatives of Gamma taken from the y-Hessian of a (no finite
differences anywhere in this module).  Everything is batched over points,
chunked to bound memory, and sits inside the quadrature inner loop of the
heat invariant pipeline.

What is materialised: a with its y-gradient and y-Hessian; c, its
y-derivatives dc (only the that rows are nonzero) and Gamma, densely; the
curvature only on blocks of Riem by frame type (xhat, rhat, that).  Every
bracket above has only that components, the horizontal/vertical split of a
torus-invariant metric (O'Neill, Michigan Math. J. 13, 1966), so c is nonzero
on 5 of its 27 type blocks and Gamma on 11.  curvature() builds Riem on the 21
canonical type blocks (A <= B, G <= D, (A, B) <= (G, D)) that the pair
symmetries reduce the 81 to, from small products of Gamma blocks and views of
the that rows of dc, and reads Ric off those blocks.  curvature_scalars,
a2_integrand and frame_bundle all run that one contraction.  Only
frame_bundle, meant for inspection and tests, also builds the dense frame
derivatives dGamma and expands the blocks into the dense Riem.

Index layout: 0..m-1 xhat, m..m+k-1 rhat, m+k..m+2k-1 that.  Tensors are
stored as c[n, gamma, alpha, beta] (gamma-component of [E_alpha, E_beta]),
Gamma[n, gamma, alpha, beta] (gamma-component of the covariant derivative of
E_alpha along E_beta), and Riem[n, alpha, beta, gamma, delta].
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .brackets import Bracket
from .metric import CutoffProfile

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

    L_ip = <[x, e_i], Z_p> is linear in x and constant in r, so with g and H
    the y-gradient and y-Hessian of phi: grad = g L + phi dL and
    hess = H L + g (x) dL + dL (x) g, where dL vanishes along r.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
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
    # mirrored, so hess is exactly symmetric: (phi_12 r_q) x_j can round differently from (phi_12 x_j) r_q
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


def structure_constants(cc: CouplingCoeffs, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Structure constants c[n,gamma,alpha,beta] and their y-derivatives.

    dc has shape (N, n, n, n, m+k) with the derivative direction y_f last;
    theta-derivatives vanish identically.  With D_q[e, i] = d a_iq / d y_e
    (zero where i is an rhat index), the xhat/rhat part of c's that_q row is
    r_q (D_q - D_q^T), and its d/dy_f is r_q (dD_q - dD_q^T)[..., f] plus
    D_q - D_q^T when y_f = r_q.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    npts, k = r.shape
    m = cc.a.shape[1]
    n = m + 2 * k
    mk = m + k

    D = cc.grad.transpose(0, 2, 3, 1)  # D[n,q,e,i]
    dD = cc.hess.transpose(0, 2, 3, 1, 4)  # dD[n,q,e,i,f]
    c = np.zeros((npts, n, n, n))
    dc = np.zeros((npts, n, n, n, mk))
    # the that rows over xhat/rhat pairs, antisymmetrised in place, then times r_q
    c_y = c[:, mk:, :mk, :mk]
    c_y[..., :m] = D
    c_y[:, :, :m] -= D.transpose(0, 1, 3, 2)
    dc_y = dc[:, mk:, :mk, :mk]
    dc_y[..., :m, :] = dD
    dc_y[:, :, :m] -= dD.transpose(0, 1, 3, 2, 4)
    dc_y *= r[:, :, None, None, None]
    for q in range(k):
        dc_y[:, q, :, :, m + q] += c_y[:, q]
    c_y *= r[:, :, None, None]
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


# Frame types in index order: xhat (m of them), rhat (k), that (k).
_XHAT, _RHAT, _THAT = 0, 1, 2
# (gamma, alpha, beta) type blocks where c can be nonzero: its that rows only
_C_TYPES = frozenset({
    (_THAT, _XHAT, _XHAT), (_THAT, _RHAT, _XHAT), (_THAT, _XHAT, _RHAT),
    (_THAT, _RHAT, _THAT), (_THAT, _THAT, _RHAT),
})
# ... and where Gamma can be: 11 of 27.  Gamma[g,a,b] = (c[g,b,a] + c[b,g,a] + c[a,g,b]) / 2,
# except Gamma[that, that, rhat], where c[that, rhat, that] + c[that, that, rhat] = 0
_GAMMA_TYPES = frozenset(
    (g, a, b) for g in range(3) for a in range(3) for b in range(3)
    if {(g, b, a), (b, g, a), (a, g, b)} & _C_TYPES
) - {(_THAT, _THAT, _RHAT)}
_PAIR_TYPES = ((_XHAT, _XHAT), (_XHAT, _RHAT), (_XHAT, _THAT), (_RHAT, _RHAT), (_RHAT, _THAT), (_THAT, _THAT))
# the 21 canonical blocks (A <= B, G <= D, (A, B) <= (G, D)); the pair symmetries give the other 60
_RIEM_TYPES = tuple(p + q for i, p in enumerate(_PAIR_TYPES) for q in _PAIR_TYPES[i:])
# E_g Gamma[a,b,d] - E_d Gamma[a,b,g] with E_e Gamma[x,y,z] = (dc[x,z,y,e] + dc[z,x,y,e] + dc[y,x,z,e]) / 2,
# as (sign, indices of dc[., ., ., e])
_DERIV_TERMS = ((1.0, "adbg"), (1.0, "dabg"), (1.0, "badg"), (-1.0, "agbd"), (-1.0, "gabd"), (-1.0, "bagd"))


def _canonical(types: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """(canonical block, axes, sign) with Riem over the type block `types` = sign * block.transpose(axes).

    `axes` lists, per axis of the canonical block, which of a, b, g, d (0..3) it holds.
    """
    a, b, g, d = 0, 1, 2, 3
    sign = 1.0
    if types[a] > types[b]:
        a, b, sign = b, a, -sign
    if types[g] > types[d]:
        g, d, sign = d, g, -sign
    if (types[a], types[b]) > (types[g], types[d]):
        a, b, g, d = g, d, a, b
    axes = (a, b, g, d)
    return tuple(types[i] for i in axes), axes, sign


def _block_einsum(axes: tuple[int, ...], labels: str) -> str:
    """einsum operand subscript of a canonical block whose axes hold Riem's a, b, g, d labelled `labels`."""
    return "n" + "".join(labels[i] for i in axes)


@dataclasses.dataclass(frozen=True)
class _BlockStep:
    """How curvature() fills one canonical block, stored as [n, a, g, b, d]."""

    types: tuple[int, ...]
    shape: tuple[int, ...]   # (|A|, |G|, |B|, |D|)
    quad: tuple | None       # ((A, G), rows, (B, D), rows): sum_mu Gamma[mu,a,g] Gamma[mu,b,d] as [a,g,b,d]
    swap: tuple | None       # ((A, D), rows, (B, G), rows): sum_mu Gamma[mu,a,d] Gamma[mu,b,g] as [a,d,b,g]
    swap_axes: tuple | None  # if A = B or G = D: the axes of quad that give swap as [a,g,b,d], instead of swap
    cgamma: tuple | None     # ((A, B), that rows, (G, D)): Gamma[t,a,b]^T c[t,g,d] laid out [a,b,g,d]
    deriv: tuple             # (sign, index into the that rows of dc, axes to [a, g, b, d]) per dc term
    ricci: tuple             # ((A, C), einsum subscript, sign) per trace sum_e Riem[a,e,c,e] the block holds


@dataclasses.dataclass(frozen=True)
class _BlockPlan:
    rows: dict               # (A, G) -> (lo, hi): the rows mu of Gamma[mu, a, g] that can be nonzero
    c_blocks: tuple          # (G, D) blocks of c's that rows the c Gamma terms read
    steps: tuple             # _BlockStep per canonical block that can be nonzero


@functools.lru_cache(maxsize=None)
def _block_plan(m: int, k: int) -> _BlockPlan:
    """Which products, c Gamma terms and dc views fill each canonical Riem block at frame dimensions (m, k)."""
    n = m + 2 * k
    edge = (0, m, m + k, n)
    span = tuple(slice(edge[t], edge[t + 1]) for t in range(3))
    width = (m, k, k)
    mu_types: dict[tuple[int, int], set[int]] = {}
    for mu, a, g in _GAMMA_TYPES:
        mu_types.setdefault((a, g), set()).add(mu)
    rows = {ag: (edge[min(mus)], edge[max(mus) + 1]) for ag, mus in mu_types.items()}

    def product(ag, bd):
        common = mu_types.get(ag, set()) & mu_types.get(bd, set())
        if not common:
            return None
        lo, hi = edge[min(common)], edge[max(common) + 1]
        return ag, slice(lo - rows[ag][0], hi - rows[ag][0]), bd, slice(lo - rows[bd][0], hi - rows[bd][0])

    # Ric[a,c] = sum_e Riem[a,e,c,e] over the type blocks A <= C, each (A, E, C, E) read off its canonical block
    traces: dict[tuple[int, ...], list] = {}
    for A, C in _PAIR_TYPES:
        for E in range(3):
            block, axes, sign = _canonical((A, E, C, E))
            traces.setdefault(block, []).append(((A, C), _block_einsum(axes, "aece") + "->nac", sign))
    steps = []
    for types in _RIEM_TYPES:
        A, B, G, D = types
        of = dict(zip("abgd", types))
        cgamma = None
        if (A, B, _THAT) in _GAMMA_TYPES and (_THAT, G, D) in _C_TYPES:
            lo = rows[A, B][0]
            cgamma = ((A, B), slice(edge[_THAT] - lo, n - lo), (G, D))
        deriv = []
        for sign, idx in _DERIV_TERMS:
            t = tuple(of[x] for x in idx)
            if t[0] == _THAT and t[3] != _THAT and t[:3] in _C_TYPES:
                index = (slice(None), slice(None)) + tuple(span[x] for x in t[1:])
                deriv.append((sign, index, (0,) + tuple(1 + idx.index(x) for x in "agbd")))
        quad, swap, swap_axes = product((A, G), (B, D)), product((A, D), (B, G)), None
        if quad and (A == B or G == D):
            swap, swap_axes = None, (0, 3, 2, 1, 4) if A == B else (0, 1, 4, 3, 2)
        step = _BlockStep(
            types=types, shape=(width[A], width[G], width[B], width[D]),
            quad=quad, swap=swap, swap_axes=swap_axes, cgamma=cgamma, deriv=tuple(deriv),
            ricci=tuple(traces.get(types, ())),
        )
        if step.quad or step.swap or step.cgamma or step.deriv:
            steps.append(step)
    c_blocks = tuple(sorted({step.cgamma[2] for step in steps if step.cgamma}))
    return _BlockPlan(rows=rows, c_blocks=c_blocks, steps=tuple(steps))


def _gamma_product(gam: dict, spec: tuple, out: np.ndarray) -> np.ndarray:
    """sum_mu Gamma[mu, x, y] Gamma[mu, z, w] as an (N, x y, z w) matrix in `out`, over the rows `spec` names."""
    xy, rows_xy, zw, rows_zw = spec
    left, right = gam[xy][:, rows_xy], gam[zw][:, rows_zw]
    return np.matmul(left.transpose(0, 2, 1), right, out=out.reshape(len(left), left.shape[2], right.shape[2]))


def curvature(
    Gamma: np.ndarray, c: np.ndarray, dc: np.ndarray
) -> tuple[dict[tuple[int, ...], np.ndarray], np.ndarray, np.ndarray]:
    """Riemann tensor on its canonical frame-type blocks, Ricci and scalar curvature at a batch of points.

    Riem[a,b,g,d] = sum_mu (Gamma[a,mu,g] Gamma[mu,b,d] - Gamma[a,mu,d] Gamma[mu,b,g]
                            - c[mu,g,d] Gamma[a,b,mu])
                    + E_g(Gamma[a,b,d]) - E_d(Gamma[a,b,g])
    with Ric[a,b] = sum_g Riem[a,g,b,g] and tau the trace of Ric.

    Returns R, Ric (N, n, n) and tau (N,).  R maps each canonical type block
    (A, B, G, D) over xhat/rhat/that (A <= B, G <= D, (A, B) <= (G, D)) that
    can be nonzero to Riem restricted to it, shape (N, |A|, |B|, |G|, |D|);
    the pair symmetries give the rest (_canonical).  Gamma vanishes outside
    11 of its 27 type blocks and c outside its that rows, so each block is
    built from small products of Gamma blocks: the quadratic terms from the
    rows Gamma[mu, a, g] = -Gamma[a, mu, g], the c Gamma term from
    Gamma[a, b, t] = -Gamma[t, a, b] (c vanishes off its that rows), and the
    frame-derivative terms from views of the that rows of dc.
    """
    npts, n = Gamma.shape[0], Gamma.shape[1]
    mk = dc.shape[-1]
    k = n - mk
    m = mk - k
    span = (slice(0, m), slice(m, mk), slice(mk, n))
    plan = _block_plan(m, k)
    # Gamma[mu, a, g] over the rows mu that can be nonzero, as a (mu, a g) matrix per point
    gam = {
        (A, G): np.ascontiguousarray(Gamma[:, lo:hi, span[A], span[G]]).reshape(npts, hi - lo, -1)
        for (A, G), (lo, hi) in plan.rows.items()
    }
    c_that = {
        (G, D): np.ascontiguousarray(c[:, mk:, span[G], span[D]]).reshape(npts, k, -1) for G, D in plan.c_blocks
    }
    dc_that = dc[:, mk:]
    sizes = [math.prod(step.shape) * npts for step in plan.steps]
    store = np.empty(sum(sizes))
    scratch = np.empty(max(sizes))
    R = {}
    Ric = np.zeros((npts, n, n))
    offset = 0
    for step, size in zip(plan.steps, sizes):
        a, g, b, d = step.shape
        out = store[offset:offset + size].reshape(npts, a, g, b, d)  # Riem[a,b,g,d] at [n, a, g, b, d]
        offset += size
        tmp = scratch[:size]
        # sum_mu Gamma[a,mu,g] Gamma[mu,b,d] - (g <-> d) = swap - quad, as Gamma[a,mu,g] = -Gamma[mu,a,g]
        if step.swap_axes:
            quad = _gamma_product(gam, step.quad, tmp).reshape(npts, a, g, b, d)
            np.subtract(quad.transpose(step.swap_axes), quad, out=out)
        elif step.quad:
            _gamma_product(gam, step.quad, out)
            np.negative(out, out=out)
        elif step.swap:
            swap = _gamma_product(gam, step.swap, tmp).reshape(npts, a, d, b, g)
            np.copyto(out, swap.transpose(0, 1, 4, 3, 2))
        written = bool(step.quad or step.swap)
        # - sum_t c[t,g,d] Gamma[a,b,t] = sum_t Gamma[t,a,b] c[t,g,d], as c vanishes off its that rows
        if step.cgamma:
            ab, rows_t, gd = step.cgamma
            p = np.matmul(gam[ab][:, rows_t].transpose(0, 2, 1), c_that[gd], out=tmp.reshape(npts, a * b, -1))
            p = p.reshape(npts, a, b, g, d).transpose(0, 1, 3, 2, 4)
            if written:
                out += p
            else:
                np.copyto(out, p)
            written = True
        if step.deriv:
            acc = tmp.reshape(npts, a, g, b, d) if written else out
            for i, (sign, index, axes) in enumerate(step.deriv):
                view = dc_that[index].transpose(axes)
                if i == 0:
                    np.multiply(view, sign, out=acc)  # a copy, negated for sign -1
                elif sign > 0:
                    acc += view
                else:
                    acc -= view
            acc *= 0.5
            if written:
                out += acc
        R[step.types] = riem = out.transpose(0, 1, 3, 2, 4)
        for (A, C), subscript, sign in step.ricci:
            if sign > 0:
                Ric[:, span[A], span[C]] += np.einsum(subscript, riem)
            else:
                Ric[:, span[A], span[C]] -= np.einsum(subscript, riem)
    for A, C in _PAIR_TYPES:
        if A != C:
            Ric[:, span[C], span[A]] = Ric[:, span[A], span[C]].transpose(0, 2, 1)
    tau = np.einsum("naa->n", Ric)
    return R, Ric, tau


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


def _square_norms(R: dict, Ric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|Ric|^2 and |Riem|^2, each canonical block of R counted once per type block of Riem it stands for."""
    riem2 = 0.0
    for (A, B, G, D), block in R.items():
        copies = (2.0 if A < B else 1.0) * (2.0 if G < D else 1.0) * (2.0 if (A, B) != (G, D) else 1.0)
        riem2 = riem2 + copies * np.einsum("nabgd,nabgd->n", block, block)
    return np.einsum("nab,nab->n", Ric, Ric), riem2


def _dense_riemann(R: dict, m: int, k: int) -> np.ndarray:
    """The dense Riem[n, a, b, g, d], every type block expanded from its canonical block."""
    n = m + 2 * k
    span = (slice(0, m), slice(m, m + k), slice(m + k, n))
    Riem = np.zeros((next(iter(R.values())).shape[0], n, n, n, n))
    for types in itertools.product(range(3), repeat=4):
        block, axes, sign = _canonical(types)
        if block in R:
            dense = np.einsum(_block_einsum(axes, "abgd") + "->nabgd", R[block])
            Riem[(slice(None),) + tuple(span[t] for t in types)] = sign * dense
    return Riem


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
    """Dense tensor bundle at a (small) batch of points, for inspection and tests.

    Runs the same contraction as curvature_scalars and expands its blocks
    into the dense Riem; dGamma is computed here only, for inspection.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    _check_radii(profile, r)
    c, dc = structure_constants(coupling_coeffs(bracket, profile, x, r), r)
    Gamma = christoffels(c)
    R, _Ric, _tau = curvature(Gamma, c, dc)
    return FrameCurvature(c=c, Gamma=Gamma, dGamma=christoffel_derivs(dc), Riem=_dense_riemann(R, bracket.m, bracket.k))
