"""Quadrature engine for the second heat-trace coefficient and its scale sweep.

The integral computed is

    a2(g) = (4 pi)^(-n/2) / 360 * integral of (5 tau^2 - 2 |Ric|^2 + 2 |Riem|^2)

over R^(m+2k) with Lebesgue measure (the metric family is unimodular, so the
Riemannian volume is Lebesgue).  T-invariance lets the angular coordinates be
integrated out exactly: nodes live in the (x, r) box with weight
(2 pi)^k * prod_p r_p.  Before trusting that reduction, a preflight certifies
that the torus acts by isometries: the metric must satisfy
G(x, R_theta u) = D_theta G(x, u) D_theta^T to rounding, which makes every
curvature scalar theta-invariant.  The nodes are Sobol' points (Joe-Kuo
direction numbers) under linear matrix scrambling plus a random digital shift
(Matousek, J. Complexity 14, 1998), scrambled afresh per replicate, which gives
both fast convergence and an honest replicate-spread error estimate; it is the
only sampler.  The run path draws each replicate's scramble with _scramble and
each slice of its nodes with _fill_nodes, numpy alone; _sample_box is the
whole-replicate form, bit for bit the stream of
scipy.stats.qmc.Sobol(scramble=True), at most 2**30 nodes in at most 32
dimensions.  A node counts only where frame._usable_nodes admits it (inside
the cutoff support, every plane radius above the frame's floor); the others
contribute an exact zero, the same rule as frame.a2_integrand.

One call integrates one bracket over a list of profiles (one for
integrate_a2, one per scale for sweep_s) as a single ordered stream of slice
tasks.  Every preflight runs first.  Each replicate is cut into fixed slices
of _TASK_CHUNK nodes; the calling process draws only each replicate's
scramble (shift and direction columns, shared by all profiles), and the task
draws its own slice of nodes from it, wherever it runs.  The stream runs in
this process when there is one worker or a replicate is a single slice,
else on one fork-context ProcessPoolExecutor whose ordered map returns the
slices in stream order.  The polar weight is applied per node in the task,
each replicate's slices are concatenated, and the reduction is a fixed-order
pairwise sum over node index, so results are bit-identical for any worker
count, which resolve_workers alone decides.  The executor, not
multiprocessing.Pool, feeds the stream: Pool's worker-handler thread counts
the result pipe among the handles it waits on, so it spins while a result
sits unread, which cost about 0.4 s of the calling process's CPU per
benchmark sweep on 2 vCPUs; the executor's manager thread blocks until a
worker answers.

The scale sweep fits a2(g^s) against sum_d c_d s^(d - 2k) over SWEEP_DEGREES,
on finite positive scales (at least five distinct, spanning at least 4x); the
leading coefficient (exponent 2 - 2k) must come out positive for k <= 3.

isophasal_consistency is the one pair test of the isophasal claim: two a2
results agree when their difference is within 3 combined standard errors.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import os
import time
from typing import Sequence

import numpy as np

from .brackets import Bracket
from .metric import CutoffProfile, metric_at, plane_rotation
from . import frame

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "SweepResult",
    "ConsistencyReport",
    "ThetaDependenceError",
    "THETA_EQUIVARIANCE_TOL",
    "DegenerateNodesError",
    "FitIllConditionedError",
    "WorkerCountError",
    "SamplerDimensionError",
    "resolve_workers",
    "preflight_theta_invariance",
    "integrate_a2",
    "sweep_s",
    "sweep_exponents",
    "fit_sweep",
    "isophasal_consistency",
]

SWEEP_DEGREES = (2, 1, 0, -1, -2)

# Worst allowed |G(x, R u) - D G(x, u) D^T| relative to max|G|.  An exact
# torus-invariant metric deviates only by rounding (about 2e-16).
THETA_EQUIVARIANCE_TOL = 1e-12
_PREFLIGHT_POINTS = 256
_PREFLIGHT_SEED = 2024
_TASK_CHUNK = 4096  # nodes in one slice of a replicate (fixed: determinism; a power of two: _fill_nodes)
_STREAM_CHUNKSIZE = 4  # slice tasks per pickled batch on the pool's ordered map
_CONSISTENCY_SIGMAS = 3.0  # isophasal_consistency's bound on |difference| / combined error
_SOBOL_BITS = 30  # bits per Sobol' coordinate; a replicate holds at most 2**30 nodes
# Joe-Kuo direction numbers (Joe & Kuo, SIAM J. Sci. Comput. 30, 2008) for the
# first 32 dimensions: (primitive polynomial, initial direction integers).  The
# first dimension has no recurrence: every one of its direction integers is 1.
_JOE_KUO = (
    (1, ()),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)


class ThetaDependenceError(AssertionError):
    """Preflight found angular dependence; the theta reduction would be invalid."""

    def __init__(self, worst: float, tol: float):
        super().__init__(worst, tol)
        self.worst = worst
        self.tol = tol

    def __str__(self) -> str:
        return (
            f"metric deviates from torus equivariance by {self.worst:g} "
            f"(relative to max|G|), tol {self.tol:g}"
        )


class DegenerateNodesError(ValueError):
    """No usable quadrature nodes (empty support or all nodes degenerate)."""


class FitIllConditionedError(ValueError):
    """The scale-sweep design matrix is numerically rank deficient."""


class WorkerCountError(ValueError):
    """ISOPHASAL_THREADS is set to something other than a positive integer."""


class SamplerDimensionError(ValueError):
    """The bracket's m + k exceeds the dimensions the Sobol' sampler covers."""


@dataclasses.dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: scrambled-Sobol' nodes per replicate, replicates, seed, preflight."""

    n_nodes: int = 100_000
    n_replicates: int = 8
    seed: int = 0
    preflight: bool = True

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if self.n_nodes > 2**_SOBOL_BITS:
            raise ValueError(f"n_nodes must be at most 2**{_SOBOL_BITS}, the Sobol' sampler's limit")
        if self.n_replicates < 2:
            raise ValueError("need n_replicates >= 2 for an error estimate")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclasses.dataclass(frozen=True)
class QuadratureResult:
    value: float
    std_error: float
    n_nodes: int
    n_replicates: int
    seed: int
    inside_fraction: float  # mean of replicate_inside_fractions
    # seconds from the start of the call (preflights included) until this profile's last slice
    # came back; profiles sharing one stream (sweep_s) read cumulative times.  Never in artifacts.
    wall_time: float
    replicate_values: tuple[float, ...]
    replicate_inside_fractions: tuple[float, ...]
    preflight_deviation: float | None  # preflight_theta_invariance's value; None when off


def resolve_workers() -> int:
    """Worker processes: ISOPHASAL_THREADS, else the available cores.

    ISOPHASAL_THREADS must be a positive integer (an empty value counts as
    unset); it is capped at the cores this process may run on.  Results do
    not depend on the count, so the cap changes no output.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    env = os.environ.get("ISOPHASAL_THREADS")
    if not env:
        return cores
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise WorkerCountError(f"ISOPHASAL_THREADS must be a positive integer, got {env!r}")
    return min(n, cores)


@functools.lru_cache(maxsize=None)
def _sobol_directions(dim: int) -> np.ndarray:
    """Unscrambled Sobol' direction integers m_j, (dim, _SOBOL_BITS) uint32, column j shifted left by 29 - j.

    Row d follows the Bratley-Fox recurrence for its primitive polynomial of
    degree s: m_j = m_(j-s) ^ (m_(j-s) << s) ^ XOR over 0 < i < s of
    a_i * (m_(j-i) << i), with a_i the polynomial's bit s - i.  Read-only,
    since the cache hands the same array to every caller.
    """
    bits = _SOBOL_BITS
    v = np.ones((dim, bits), dtype=np.uint32)
    for d in range(1, dim):
        poly, init = _JOE_KUO[d]
        s = len(init)
        row = list(init)
        for j in range(s, bits):
            new = row[j - s] ^ (row[j - s] << s)
            for i in range(1, s):
                if (poly >> (s - i)) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        v[d] = row
    v <<= np.arange(bits - 1, -1, -1, dtype=np.uint32)
    v.setflags(write=False)
    return v


def _scramble(spec: QuadratureSpec, replicate: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One replicate's random digital shift (dim,) and scrambled direction columns (dim, _SOBOL_BITS).

    Seeded by (seed, replicate).  The scramble is a random lower-triangular
    GF(2) matrix per dimension (unit diagonal, bit rows read most significant
    first) applied to the direction integers, plus a random digital shift
    (Matousek 1998): the same child seed sequence scipy.stats' Sobol' spawns
    and the same draws in the same order (shift, then matrices).  dim is at
    most len(_JOE_KUO).
    """
    bits = _SOBOL_BITS
    seq = np.random.SeedSequence([spec.seed, replicate], spawn_key=(0,))
    rng = np.random.Generator(np.random.PCG64(seq))
    powers = np.uint32(1) << np.arange(bits, dtype=np.uint32)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ powers
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    msb_first = np.arange(bits - 1, -1, -1, dtype=np.uint32)[:, None]
    v_bits = (_sobol_directions(dim)[:, None, :] >> msb_first) & 1
    directions = (((ltm @ v_bits) & 1) << msb_first).sum(axis=1, dtype=np.uint32)
    return shift, directions


def _fill_nodes(shift: np.ndarray, directions: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Unit-box nodes lo..hi-1, in Gray-code order, of the replicate that (shift, directions) scramble.

    Point i is shift ^ XOR of directions[:, b] over the set bits b of gray(i).
    gray(f + t) = f | gray(f - 1 - t) for f = 2**j > t, so each block of
    points is the one before it, reversed, XOR the next direction column.
    lo must be 0 or a multiple of a power of two 2**j >= hi - lo: then
    gray(lo + t) = gray(lo) ^ gray(t) for t < 2**j, and the slice is the same
    recurrence started from point lo.
    """
    n = hi - lo
    gray = lo ^ (lo >> 1)
    points = np.empty((n, shift.shape[0]), dtype=np.uint32)
    points[0] = shift
    for b in range(_SOBOL_BITS):
        if (gray >> b) & 1:
            points[0] ^= directions[:, b]
    filled = 1
    for column in directions.T:
        if filled == n:
            break
        size = min(filled, n - filled)
        np.bitwise_xor(points[filled - size : filled][::-1], column, out=points[filled : filled + size])
        filled += size
    return points * 2.0**-_SOBOL_BITS


def _sample_box(spec: QuadratureSpec, replicate: int, dim: int) -> np.ndarray:
    """Unit-box nodes for one whole replicate: scrambled Sobol' points, seeded by (seed, replicate).

    The array equals qmc.Sobol(d=dim, scramble=True,
    seed=np.random.default_rng([seed, replicate])).random(n_nodes) from
    scipy.stats bit for bit: the same scramble (_scramble) and the same
    Gray-code order of points (_fill_nodes from 0).
    """
    return _fill_nodes(*_scramble(spec, replicate, dim), 0, spec.n_nodes)


def _slice_contributions(task) -> tuple[np.ndarray, int]:
    """One slice's weighted a2 density dens * (2 pi)^k * prod_p r_p and its admitted count.

    task is (bracket, profile, shift, directions, lo, hi), one argument so
    that map and the executor's map both call it.  The slice's nodes lo..hi-1
    are drawn here from the replicate's scramble and mapped onto the
    profile's (x, r) box.  Nodes frame._admitted_density does not admit are
    exact zeros, and stay zero under the nonnegative polar weight.
    """
    bracket, profile, shift, directions, lo, hi = task
    box = _fill_nodes(shift, directions, lo, hi)
    m = bracket.m
    x = (2.0 * box[:, :m] - 1.0) * profile.x_radius
    r = box[:, m:] * profile.u_radius
    dens, keep = frame._admitted_density(bracket, profile, x, r)
    return dens * (2.0 * math.pi) ** bracket.k * np.prod(r, axis=1), int(np.count_nonzero(keep))


@contextlib.contextmanager
def _node_pool(n_nodes: int, workers: int):
    """One fork-context process pool for every slice of an integration's stream, or None in process.

    In process when there is one worker or a replicate of n_nodes is a
    single slice.  On leaving, queued tasks are cancelled (there are some
    only after an error) and the workers are joined, so no process outlives
    the call.
    """
    if workers <= 1 or n_nodes <= _TASK_CHUNK:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniformly distributed in the open dim-ball of the given radius."""
    v = rng.normal(size=(n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return radius * rng.uniform(size=(n, 1)) ** (1.0 / dim) * v


def preflight_theta_invariance(bracket: Bracket, profile: CutoffProfile) -> float:
    """Certify that the torus acts by isometries of the metric; return the worst deviation.

    Checks G(x, R_theta u) = D_theta G(x, u) D_theta^T with
    D_theta = diag(I_m, plane_rotation(theta)) on a fixed-seed batch of points
    drawn uniformly from the support {|x| < x_radius, |u| < u_radius}, each
    paired with a random rotation, in one batched call of metric_at on the
    base and rotated points.  Isometric torus action makes every curvature
    scalar theta-invariant, which is what the angular reduction needs; unlike a
    curvature comparison, the check holds to rounding rather than to a
    finite-difference floor.  Returns max|G(R p) - D G(p) D^T| / max|G| and
    raises ThetaDependenceError beyond THETA_EQUIVARIANCE_TOL: the angular
    reduction would then be unsound and the quadrature must not proceed.
    """
    rng = np.random.default_rng(_PREFLIGHT_SEED)
    m, k = bracket.m, bracket.k
    npts = _PREFLIGHT_POINTS
    x = _uniform_ball(rng, npts, m, profile.x_radius)
    u = _uniform_ball(rng, npts, 2 * k, profile.u_radius)
    R = plane_rotation(rng.uniform(0.0, 2.0 * math.pi, size=(npts, k)))
    u_rot = np.einsum("nab,nb->na", R, u)
    G = metric_at(bracket, profile, np.concatenate([x, x]), np.concatenate([u, u_rot]))
    G_base, G_rot = G[:npts], G[npts:]
    D = np.zeros_like(G_base)
    D[:, np.arange(m), np.arange(m)] = 1.0
    D[:, m:, m:] = R
    transported = D @ G_base @ D.transpose(0, 2, 1)
    worst = float(np.max(np.abs(G_rot - transported)) / np.max(np.abs(G)))
    if worst > THETA_EQUIVARIANCE_TOL:
        raise ThetaDependenceError(worst, THETA_EQUIVARIANCE_TOL)
    return worst


def _integrate_profiles(
    bracket: Bracket, profiles: Sequence[CutoffProfile], spec: QuadratureSpec
) -> list[QuadratureResult]:
    """integrate_a2 of one bracket for each profile, under one spec, as one ordered stream of slices.

    Every preflight runs before any slice.  The tasks run profile by
    profile, replicate by replicate, slice by slice, on one pool at most
    (see the module docstring); all profiles share the replicates' nodes in
    the unit box.
    """
    t_start = time.perf_counter()
    m, k = bracket.m, bracket.k
    if m + k > len(_JOE_KUO):
        raise SamplerDimensionError(
            f"the Sobol' sampler covers at most {len(_JOE_KUO)} dimensions, got m + k = {m + k}"
        )
    workers = resolve_workers()
    deviations = [preflight_theta_invariance(bracket, p) if spec.preflight else None for p in profiles]
    scrambles = [_scramble(spec, rep, m + k) for rep in range(spec.n_replicates)]
    bounds = [(lo, min(lo + _TASK_CHUNK, spec.n_nodes)) for lo in range(0, spec.n_nodes, _TASK_CHUNK)]
    tasks = (
        (bracket, profile, shift, directions, lo, hi)
        for profile in profiles
        for shift, directions in scrambles
        for lo, hi in bounds
    )
    results = []
    with _node_pool(spec.n_nodes, workers) as pool:
        if pool is None:
            stream = map(_slice_contributions, tasks)
        else:
            stream = pool.map(_slice_contributions, tasks, chunksize=_STREAM_CHUNKSIZE)
        for profile, deviation in zip(profiles, deviations):
            vol_box = (2.0 * profile.x_radius) ** m * profile.u_radius**k
            rep_values = []
            inside_fracs = []
            for _ in scrambles:
                contrib, usable = zip(*itertools.islice(stream, len(bounds)))
                inside_fracs.append(sum(usable) / spec.n_nodes)
                rep_values.append(vol_box * float(np.sum(np.concatenate(contrib))) / spec.n_nodes)
            if max(inside_fracs) == 0.0:
                raise DegenerateNodesError("no quadrature nodes hit the integrand support")
            rep_values = np.asarray(rep_values)
            results.append(QuadratureResult(
                value=float(np.mean(rep_values)),
                std_error=float(np.std(rep_values, ddof=1) / math.sqrt(spec.n_replicates)),
                n_nodes=spec.n_nodes,
                n_replicates=spec.n_replicates,
                seed=spec.seed,
                inside_fraction=float(np.mean(inside_fracs)),
                wall_time=time.perf_counter() - t_start,
                replicate_values=tuple(float(v) for v in rep_values),
                replicate_inside_fractions=tuple(inside_fracs),
                preflight_deviation=deviation,
            ))
    return results


def integrate_a2(bracket: Bracket, profile: CutoffProfile, spec: QuadratureSpec) -> QuadratureResult:
    """a2(g) over the support box with the angular factor integrated out exactly."""
    (result,) = _integrate_profiles(bracket, [profile], spec)
    return result


def sweep_exponents(k: int) -> tuple[int, ...]:
    """Exponents d - 2k of the scale expansion over SWEEP_DEGREES; the first entry is the leading one."""
    return tuple(d - 2 * k for d in SWEEP_DEGREES)


def _scale_list(s_list: Sequence[float]) -> list[float]:
    """The sweep's scales as floats; ValueError unless they obey the rule in the module docstring."""
    s_arr = [float(s) for s in s_list]
    if not all(math.isfinite(s) and s > 0.0 for s in s_arr):
        raise ValueError(f"scale values must be finite and positive, got {s_arr}")
    if len(set(s_arr)) < len(SWEEP_DEGREES):
        raise ValueError(f"need at least {len(SWEEP_DEGREES)} distinct scale values, got {s_arr}")
    if max(s_arr) / min(s_arr) < 4.0:
        raise ValueError(f"scale values should span at least a factor of 4, got {s_arr}")
    return s_arr


@dataclasses.dataclass(frozen=True)
class SweepResult:
    s_values: tuple[float, ...]
    a2_values: tuple[float, ...]
    std_errors: tuple[float, ...]
    exponents: tuple[int, ...]
    coefficients: tuple[float, ...]
    coeff_sigmas: tuple[float, ...]
    rel_residual: float
    leading_coefficient: float
    leading_sigma: float
    condition: float  # 2-norm condition number of the column-normalized weighted design
    # per scale, from sweep_s: the preflight's measured deviation, None when it is off
    preflight_deviations: tuple[float | None, ...] = ()

    @property
    def leading_positive(self) -> bool:
        return self.leading_coefficient > 0.0


def fit_sweep(
    s_values: Sequence[float],
    a2_values: Sequence[float],
    std_errors: Sequence[float],
    k: int,
) -> SweepResult:
    """Weighted least squares of a2(s) on the exponent ladder s^(d-2k), d in SWEEP_DEGREES.

    Columns are normalized before solving; the coefficient covariance
    (X^T W X)^{-1} supplies the uncertainty of the leading coefficient even
    when the system is exactly determined.  The condition number of the
    normalized weighted design is returned with the fit; above 1e12 the fit
    raises FitIllConditionedError instead.
    """
    s = np.asarray(s_values, dtype=float)
    y = np.asarray(a2_values, dtype=float)
    sig = np.asarray(std_errors, dtype=float)
    if len(s) < len(SWEEP_DEGREES):
        raise ValueError(f"need at least {len(SWEEP_DEGREES)} scale values, got {len(s)}")
    sig = np.where(sig > 0, sig, max(1e-12 * np.max(np.abs(y)), 1e-300))
    expo = sweep_exponents(k)
    X = np.stack([s**e for e in expo], axis=1)
    col_scale = np.linalg.norm(X, axis=0)
    Xs = X / col_scale
    W = 1.0 / sig
    A = Xs * W[:, None]
    bvec = y * W
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise FitIllConditionedError(f"sweep design matrix condition {cond:g}")
    coef_s, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    cov_s = np.linalg.inv(A.T @ A)
    coef = coef_s / col_scale
    sigmas = np.sqrt(np.diag(cov_s)) / col_scale
    resid = y - X @ coef
    rel_residual = float(np.linalg.norm(resid) / max(np.linalg.norm(y), 1e-300))
    return SweepResult(
        s_values=tuple(float(v) for v in s),
        a2_values=tuple(float(v) for v in y),
        std_errors=tuple(float(v) for v in sig),
        exponents=expo,
        coefficients=tuple(float(v) for v in coef),
        coeff_sigmas=tuple(float(v) for v in sigmas),
        rel_residual=rel_residual,
        leading_coefficient=float(coef[0]),
        leading_sigma=float(sigmas[0]),
        condition=float(cond),
    )


def sweep_s(
    bracket: Bracket,
    profile: CutoffProfile,
    s_list: Sequence[float],
    spec: QuadratureSpec,
) -> SweepResult:
    """a2(g^s) over the scale list plus the fitted exponent expansion.

    The r-box tracks the shrinking support (radius sqrt(r2sq)/s), so the
    effective node density in the support is scale independent.  With
    spec.preflight set, every scaled profile is certified before any is
    integrated, since each is a different metric.  All scales share one
    stream of slice tasks and at most one pool.  Bad scales raise ValueError first.
    """
    s_arr = _scale_list(s_list)
    results = _integrate_profiles(bracket, [profile.scaled(s) for s in s_arr], spec)
    fit = fit_sweep(s_arr, [r.value for r in results], [r.std_error for r in results], bracket.k)
    return dataclasses.replace(fit, preflight_deviations=tuple(r.preflight_deviation for r in results))


@dataclasses.dataclass(frozen=True)
class ConsistencyReport:
    difference: float  # first.value - second.value
    combined_error: float  # hypot of the two standard errors
    within: float  # |difference| / combined_error
    consistent: bool  # |difference| <= _CONSISTENCY_SIGMAS * combined_error


def isophasal_consistency(first: QuadratureResult, second: QuadratureResult) -> ConsistencyReport:
    """The pair test of two a2 results: equal within _CONSISTENCY_SIGMAS (3) combined standard errors.

    The standard errors combine in quadrature, as for independent runs.  The
    test compares values only: integrating the brackets, under one spec, and
    deciding their isospectrality are the caller's.
    """
    diff = first.value - second.value
    comb = math.hypot(first.std_error, second.std_error)
    within = abs(diff) / comb if comb > 0 else math.inf if diff else 0.0
    return ConsistencyReport(
        difference=diff, combined_error=comb, within=within,
        consistent=abs(diff) <= _CONSISTENCY_SIGMAS * comb,
    )
