import itertools
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import sympy

from isophasal.brackets import Bracket, builtin_bracket
from isophasal.coord import FDScheme, default_scheme, first_derivative, make_metric_fn, scalar_invariants_fd
from isophasal.metric import CutoffProfile, polar_to_cartesian
from isophasal import frame
from conftest import (
    dense_scalars_reference,
    random_bracket,
    frame_christoffel_oracle,
    frame_riemann_oracle,
    frame_vectors_cartesian,
)
from oracles import AllZeroSamplesError, degree_one_reference, degree_probe, homogeneous_parts

M, K = 6, 3
MK = M + K


def interior_points(rng, n=10, m=M, k=K):
    x = rng.uniform(-0.45, 0.45, size=(n, m))
    r = rng.uniform(0.2, 0.5, size=(n, k))
    return x, r


# --- coupling coefficients ---------------------------------------------------

def test_coupling_zero_x(cross1, reference_profile):
    cc = frame.coupling_coeffs(cross1, reference_profile, np.zeros((1, M)), 0.3 * np.ones((1, K)))
    assert np.max(np.abs(cc.a)) == 0.0          # [0, e_i] = 0
    assert np.max(np.abs(cc.grad[..., :M])) > 0.0  # but the x-gradient survives


def test_coupling_outside_support(cross1, reference_profile):
    x = np.full((1, M), 0.5)  # |x|^2 = 1.5 > 1
    cc = frame.coupling_coeffs(cross1, reference_profile, x, 0.3 * np.ones((1, K)))
    for field in (cc.a, cc.grad, cc.hess):
        np.testing.assert_array_equal(field, 0.0)


def test_coupling_derivatives_match_sympy(cross1, reference_profile):
    # full symbolic oracle for a_{ip} = phi(|x|^2, |r|^2) <[x, e_i], Z_p>
    xs = sympy.symbols("x0:6")
    rs = sympy.symbols("r0:3")
    t1 = sum(v**2 for v in xs)
    t2 = sum(v**2 for v in rs)
    b = lambda t: sympy.exp(1 - 1 / (1 - t))
    phi = b(t1) * b(t2)
    x0 = np.array([0.31, -0.22, 0.17, 0.08, -0.12, 0.27])
    r0 = np.array([0.33, 0.41, 0.24])
    subs = dict(zip(xs, x0)) | dict(zip(rs, r0))
    cc = frame.coupling_coeffs(cross1, reference_profile, x0[None], r0[None])
    for i, p in [(1, 0), (2, 2), (4, 1)]:
        L = sum(x_j * float(cross1.tensor[p, j, i]) for j, x_j in enumerate(xs))
        a_expr = phi * L
        assert float(a_expr.subs(subs)) == pytest.approx(cc.a[0, i, p], rel=1e-12, abs=1e-15)
        for j in (0, 3):
            assert float(sympy.diff(a_expr, xs[j]).subs(subs)) == pytest.approx(
                cc.grad[0, i, p, j], rel=1e-12, abs=1e-15)
        for q in (0, 2):
            assert float(sympy.diff(a_expr, rs[q]).subs(subs)) == pytest.approx(
                cc.grad[0, i, p, M + q], rel=1e-12, abs=1e-15)
        assert float(sympy.diff(a_expr, xs[1], xs[4]).subs(subs)) == pytest.approx(
            cc.hess[0, i, p, 1, 4], rel=1e-12, abs=1e-15)
        d2_xr = float(sympy.diff(a_expr, xs[2], rs[1]).subs(subs))
        assert d2_xr == pytest.approx(cc.hess[0, i, p, 2, M + 1], rel=1e-12, abs=1e-15)
        assert d2_xr == pytest.approx(cc.hess[0, i, p, M + 1, 2], rel=1e-12, abs=1e-15)  # the rhat-xhat block
        assert float(sympy.diff(a_expr, rs[1], rs[2]).subs(subs)) == pytest.approx(
            cc.hess[0, i, p, M + 1, M + 2], rel=1e-12, abs=1e-15)


# --- structure constants ------------------------------------------------------

def test_structure_constants_zero_bracket(zero_bracket, reference_profile, rng):
    x, r = interior_points(rng, 3)
    cc = frame.coupling_coeffs(zero_bracket, reference_profile, x, r)
    c, _dc = frame.structure_constants(cc, r)
    expected = np.zeros_like(c)
    for q in range(K):
        expected[:, MK + q, M + q, MK + q] = -1.0 / r[:, q]
        expected[:, MK + q, MK + q, M + q] = 1.0 / r[:, q]
    np.testing.assert_array_equal(c, expected)


def test_structure_constants_antisymmetry(cross1, reference_profile, rng):
    x, r = interior_points(rng)
    fb = frame.frame_bundle(cross1, reference_profile, x, r)
    assert np.max(np.abs(fb.c + fb.c.transpose(0, 1, 3, 2))) == 0.0


def test_structure_scaling_laws(cross1, reference_profile):
    # exact homogeneity: the xx block scales with degree -1, the rx block with 0
    x0 = np.array([0.31, -0.22, 0.17, 0.08, -0.12, 0.27])
    r0 = np.array([0.17, 0.21, 0.12])
    s = 1.7

    def c_at(scale, r):
        fb = frame.frame_bundle(cross1, reference_profile.scaled(scale), x0[None], r[None])
        return fb.c[0]

    c_s = c_at(s, r0)
    c_1 = c_at(1.0, s * r0)
    xx_lhs = c_s[MK:, :M, :M]
    xx_rhs = c_1[MK:, :M, :M] / s
    np.testing.assert_allclose(xx_lhs, xx_rhs, rtol=1e-10, atol=1e-14)
    rx_lhs = c_s[MK:, M:MK, :M]
    rx_rhs = c_1[MK:, M:MK, :M]
    np.testing.assert_allclose(rx_lhs, rx_rhs, rtol=1e-10, atol=1e-14)


def test_degenerate_point_guard(cross1, reference_profile):
    with pytest.raises(frame.DegeneratePointError):
        frame.frame_bundle(cross1, reference_profile, np.zeros((1, M)), np.array([[0.3, 1e-9, 0.3]]))


# --- Christoffels ---------------------------------------------------------------

def test_christoffels_flat_cartesian():
    c = np.zeros((2, 4, 4, 4))
    np.testing.assert_array_equal(frame.christoffels(c), np.zeros_like(c))


def test_christoffel_identities(cross1, reference_profile, rng):
    x, r = interior_points(rng)
    fb = frame.frame_bundle(cross1, reference_profile, x, r)
    G, c = fb.Gamma, fb.c
    # metric connection in an orthonormal frame: skew in (component, field)
    assert np.max(np.abs(G + G.transpose(0, 2, 1, 3))) == 0.0
    # torsion-free: Gamma[g,a,b] - Gamma[g,b,a] = c[g,b,a]
    tors = G - G.transpose(0, 1, 3, 2) - np.einsum("ngba->ngab", c)
    assert np.max(np.abs(tors)) < 1e-14


def test_christoffels_match_transported_oracle(cross1, reference_profile, rng):
    x = np.array([0.31, -0.22, 0.17, 0.08, -0.12, 0.27])
    r = np.array([0.33, 0.41, 0.24])
    th = np.array([0.4, 1.9, 5.1])
    pt = np.concatenate([x, polar_to_cartesian(r[None], th[None])[0]])
    scheme = default_scheme(reference_profile)
    oracle = frame_christoffel_oracle(cross1, reference_profile, pt, scheme)
    fb = frame.frame_bundle(cross1, reference_profile, x[None], r[None])
    np.testing.assert_allclose(fb.Gamma[0], oracle, atol=1e-5)


# --- frame derivatives of Gamma ---------------------------------------------

def test_frame_derivative_matches_analytic_dgamma(cross1, reference_profile):
    # on theta-independent quantities E_delta is d/dx or d/dr for delta < m + k:
    # compare the analytic dGamma with the coordinate oracle's fourth-order stencil
    x0 = np.array([0.31, -0.22, 0.17, 0.08, -0.12, 0.27])
    r0 = np.array([0.33, 0.41, 0.24])
    fb = frame.frame_bundle(cross1, reference_profile, x0[None], r0[None])
    comp = (MK, M + 1, 1)  # Gamma[that_1, rhat_2, xhat_1]

    def gamma_eval(pts):
        g = frame.frame_bundle(cross1, reference_profile, pts[:, :M], pts[:, M:]).Gamma
        return g[(slice(None), *comp)]

    scheme = FDScheme(h=1e-5, richardson=False)
    fd = first_derivative(gamma_eval, np.concatenate([x0, r0])[None], scheme)[0]
    for delta in (0, 3, M, M + 2):
        analytic = fb.dGamma[0][comp + (delta,)]
        assert fd[delta] == pytest.approx(analytic, rel=1e-6, abs=1e-9)


# --- curvature ------------------------------------------------------------------

def test_zero_bracket_flatness(zero_bracket, reference_profile, rng):
    x = rng.uniform(-0.8, 0.8, size=(100, M))
    r = rng.uniform(0.05, 0.7, size=(100, K))
    fb = frame.frame_bundle(zero_bracket, reference_profile, x, r)
    assert np.max(np.abs(fb.Riem)) <= 1e-10


def test_curvature_symmetries(cross1, reference_profile, rng):
    x, r = interior_points(rng)
    R = frame.frame_bundle(cross1, reference_profile, x, r).Riem
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4))) <= 1e-9 * scale
    assert np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3))) <= 1e-9 * scale
    assert np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2))) <= 1e-9 * scale
    bianchi = R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)
    assert np.max(np.abs(bianchi)) <= 1e-9 * scale


def _negative_control():
    """The spectrally mismatched bracket of acceptance criterion 8: cross2 with Z_1 scaled by 4."""
    lam = builtin_bracket("cross2").tensor.copy()
    lam[0] *= 4.0
    return Bracket(lam)


RANDOM_SHAPES = [(6, 3), (5, 2), (4, 2)]
# (7, 3) has more xhat fields than the builtins; at k = 1 the p != q terms and the yttt block vanish
PAIR_FORM_BRACKETS = {
    "cross1": lambda: builtin_bracket("cross1"),
    "cross2": lambda: builtin_bracket("cross2"),
    "quaternion": lambda: builtin_bracket("quaternion"),
    "control": _negative_control,
} | {
    f"random-{m}-{k}": lambda m=m, k=k: random_bracket(m, k, np.random.default_rng(10 * m + k))
    for m, k in RANDOM_SHAPES + [(7, 3), (2, 1)]
}


@pytest.mark.parametrize("scale", [1.0, 16.0])
@pytest.mark.parametrize("name", list(PAIR_FORM_BRACKETS))
def test_pair_form_scalars_match_dense_reference(name, scale, reference_profile):
    bracket = PAIR_FORM_BRACKETS[name]()
    profile = reference_profile.scaled(scale)
    rng = np.random.default_rng(11)
    x, r = interior_points(rng, 20, bracket.m, bracket.k)
    r = r / scale  # the r-support shrinks with the scale
    ref = dense_scalars_reference(bracket, profile, x, r)
    got = frame.curvature_scalars(bracket, profile, x, r)
    for label, g, want in zip(("tau", "|Ric|^2", "|Riem|^2"), got, ref):
        rel = np.max(np.abs(g - want)) / np.max(np.abs(want))
        assert rel <= 1e-13, (label, rel)


# Frame types in index order: xhat (m of them), rhat (k), that (k).
XHAT, RHAT, THAT = 0, 1, 2
# (gamma, alpha, beta) type blocks where c can be nonzero: its that rows only
C_TYPES = frozenset({
    (THAT, XHAT, XHAT), (THAT, RHAT, XHAT), (THAT, XHAT, RHAT), (THAT, RHAT, THAT), (THAT, THAT, RHAT),
})
# ... and where Gamma can be: 11 of 27.  Gamma[g,a,b] = (c[g,b,a] + c[b,g,a] + c[a,g,b]) / 2,
# except Gamma[that, that, rhat], where c[that, rhat, that] + c[that, that, rhat] = 0
GAMMA_TYPES = frozenset(
    (g, a, b) for g in range(3) for a in range(3) for b in range(3)
    if {(g, b, a), (b, g, a), (a, g, b)} & C_TYPES
) - {(THAT, THAT, RHAT)}


@pytest.mark.parametrize("m,k", RANDOM_SHAPES)
def test_frame_tensors_vanish_off_their_type_blocks(m, k, reference_profile):
    # the closed forms of curvature_scalars rest on c being nonzero only on its that rows:
    # every type block outside these sets must be exactly zero
    rng = np.random.default_rng(7)
    bracket = random_bracket(m, k, rng)
    x, r = interior_points(rng, 20, m, k)
    span = (slice(0, m), slice(m, m + k), slice(m + k, m + 2 * k))
    cc = frame.coupling_coeffs(bracket, reference_profile, x, r)
    c, dc = frame.structure_constants(cc, r)
    Gamma = frame.christoffels(c)
    assert len(GAMMA_TYPES) == 11 and len(C_TYPES) == 5
    for types in itertools.product(range(3), repeat=3):
        block = (slice(None),) + tuple(span[t] for t in types)
        for name, tensor, live in (("Gamma", Gamma, GAMMA_TYPES), ("c", c, C_TYPES), ("dc", dc, C_TYPES)):
            if types in live:
                assert np.any(tensor[block] != 0.0), (name, types)  # the sets are not padded
            else:
                assert np.all(tensor[block] == 0.0), (name, types)


@pytest.mark.parametrize("scale", [1.0, 16.0])
def test_zero_bracket_pair_form_flat(zero_bracket, reference_profile, scale):
    rng = np.random.default_rng(5)
    profile = reference_profile.scaled(scale)
    x = rng.uniform(-0.8, 0.8, size=(50, M))
    r = rng.uniform(0.05, 0.7, size=(50, K)) / scale
    cc = frame.coupling_coeffs(zero_bracket, profile, x, r)
    c, dc = frame.structure_constants(cc, r)
    Riem, Ric, _tau = frame.curvature(frame.christoffels(c), frame.christoffel_derivs(dc), c)
    rounding = 1e-14 * np.max(np.abs(c)) ** 2  # curvature scales like c^2 (polar terms 1/r)
    assert np.max(np.abs(Riem)) <= rounding
    assert np.max(np.abs(Ric)) <= rounding
    # the closed forms hold no polar term: F = 0 gives exact zeros
    for scalar in frame.curvature_scalars(zero_bracket, profile, x, r):
        assert scalar.tolist() == [0.0] * len(x)


def test_quadrature_path_skips_the_koszul_front_half(cross1, reference_profile, monkeypatch, rng):
    # the engine reads F from its rank form: neither the y-Hessian tensor nor the dF buffer is built
    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapped

    for name in ("coupling_coeffs", "_field_strengths"):
        monkeypatch.setattr(frame, name, spy(name, getattr(frame, name)))
    x, r = interior_points(rng)
    frame.curvature_scalars(cross1, reference_profile, x, r)
    assert np.any(frame.a2_integrand(cross1, reference_profile, x, r) != 0.0)
    assert calls == []


@pytest.mark.parametrize("scale", [1.0, 16.0])
@pytest.mark.parametrize("m,k", [(5, 2), (6, 3), (7, 3)])
def test_rank_form_matches_field_strengths(m, k, scale, reference_profile):
    # F and the Ricci divergence term by term against the product-rule build from coupling_coeffs:
    # a sign slip the three scalars could hide shows here
    rng = np.random.default_rng(10 * m + k)
    bracket = random_bracket(m, k, rng)
    profile = reference_profile.scaled(scale)
    x, r = interior_points(rng, 20, m, k)
    r = r / scale
    F_ref = np.empty((20, k, m + k, m + k))
    dF_ref = np.empty((20, k, m + k, m + k, m + k))
    frame._field_strengths(frame.coupling_coeffs(bracket, profile, x, r), r, F_ref, dF_ref)
    jets = frame._jets(bracket, profile, x, r)
    F = np.empty_like(F_ref)
    frame._rank_form_fields(jets, r, F, np.empty_like(F))
    div = frame._ricci_divergence(jets, F, r)
    for got, want in ((F, F_ref), (div, np.einsum("nqbab->nqa", dF_ref))):
        assert np.max(np.abs(want)) > 0.0
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _scalars_in_calls(bracket, profile, x, r, sizes):
    """curvature_scalars over consecutive calls of the given sizes, concatenated: (3, N)."""
    edges = np.cumsum((0,) + tuple(sizes))
    calls = [frame.curvature_scalars(bracket, profile, x[lo:hi], r[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    return np.concatenate([np.stack(c) for c in calls], axis=1)


@pytest.mark.parametrize("scale", [1.0, 16.0])
@pytest.mark.parametrize("name", ["quaternion", "random-5-2", "random-6-3", "random-7-3"])
def test_engine_values_independent_of_batching(name, scale, reference_profile):
    # how points are grouped into engine calls must not move a bit: 1-point
    # calls, uneven splits up to a sweep slice's admitted count (195) and a
    # permuted batch against one call, so any regrouping of the quadrature's
    # work is free
    bracket = PAIR_FORM_BRACKETS[name]()
    profile = reference_profile.scaled(scale)
    splits = (1, 127, 128, 129, 195)
    n = sum(splits)
    rng = np.random.default_rng(3)
    x, r = interior_points(rng, n, bracket.m, bracket.k)
    r = r / scale
    whole = _scalars_in_calls(bracket, profile, x, r, [n])
    assert np.all(np.any(whole != 0.0, axis=1))
    np.testing.assert_array_equal(_scalars_in_calls(bracket, profile, x, r, [1] * n), whole)
    np.testing.assert_array_equal(_scalars_in_calls(bracket, profile, x, r, splits), whole)
    perm = rng.permutation(n)
    np.testing.assert_array_equal(_scalars_in_calls(bracket, profile, x[perm], r[perm], [n]), whole[:, perm])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap and trim thresholds")
def test_curvature_scalars_reuses_its_pages_in_process():
    # under glibc's default thresholds, separate arrays for F, its scratch and M fault their
    # pages in afresh on every call; one workspace per call does not
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from isophasal import frame
        from isophasal.brackets import builtin_bracket
        from isophasal.metric import CutoffProfile
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.4, 0.4, size=(86, 6))  # all inside the support
        r = rng.uniform(0.2, 0.5, size=(86, 3))
        args = (builtin_bracket("quaternion"), CutoffProfile(r1sq=1.0, r2sq=1.0), x, r)
        for _ in range(3):
            frame.curvature_scalars(*args)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            frame.curvature_scalars(*args)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(frame.__file__).resolve().parents[1]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert float(out.stdout) < 100


@pytest.mark.parametrize("name", list(PAIR_FORM_BRACKETS))
def test_riemann_symmetries_at_rounding(name, reference_profile, rng):
    bracket = PAIR_FORM_BRACKETS[name]()
    x, r = interior_points(rng, 10, bracket.m, bracket.k)
    R = frame.frame_bundle(bracket, reference_profile, x, r).Riem
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4))) <= 1e-12 * scale
    assert np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3))) <= 1e-12 * scale
    assert np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2))) <= 1e-12 * scale
    bianchi = R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)
    assert np.max(np.abs(bianchi)) <= 1e-12 * scale


def test_riemann_matches_transported_oracle(cross1, reference_profile):
    x = np.array([0.25, -0.31, 0.12, 0.18, -0.09, 0.21])
    r = np.array([0.29, 0.37, 0.44])
    th = np.array([2.2, 0.7, 4.0])
    pt = np.concatenate([x, polar_to_cartesian(r[None], th[None])[0]])
    scheme = default_scheme(reference_profile)
    R_oracle = frame_riemann_oracle(cross1, reference_profile, pt, scheme)
    R_frame = frame.frame_bundle(cross1, reference_profile, x[None], r[None]).Riem[0]
    np.testing.assert_allclose(R_frame, R_oracle, atol=1e-5)


def test_scalars_match_oracle(cross1, quaternion, reference_profile, rng):
    for b in (cross1, quaternion):
        x, r = interior_points(rng, 5)
        th = rng.uniform(0, 2 * np.pi, size=(5, K))
        tau, ric2, riem2 = frame.curvature_scalars(b, reference_profile, x, r)
        pts = np.concatenate([x, polar_to_cartesian(r, th)], axis=1)
        inv = scalar_invariants_fd(make_metric_fn(b, reference_profile), pts,
                                   default_scheme(reference_profile))
        np.testing.assert_allclose(tau, inv.tau, rtol=1e-4, atol=1e-9)
        np.testing.assert_allclose(ric2, inv.ric_sq, rtol=1e-4, atol=1e-9)
        np.testing.assert_allclose(riem2, inv.riem_sq, rtol=1e-4, atol=1e-9)


def test_frame_orthonormality_against_metric(cross1, reference_profile, rng):
    # the adapted frame really is orthonormal for the assembled Cartesian metric
    from isophasal.metric import metric_at

    x, r = interior_points(rng, 6)
    th = rng.uniform(0, 2 * np.pi, size=(6, K))
    pts = np.concatenate([x, polar_to_cartesian(r, th)], axis=1)
    E = frame_vectors_cartesian(cross1, reference_profile, pts)
    G = metric_at(cross1, reference_profile, x, pts[:, M:])
    gram = np.einsum("nla,nls,nsb->nab", E, G, E)
    assert np.max(np.abs(gram - np.eye(M + 2 * K))) < 1e-12


# --- integrand -----------------------------------------------------------------

def test_a2_integrand_outside_support(cross1, reference_profile):
    x = np.full((1, M), 0.45)  # |x|^2 = 1.215 > 1
    out = frame.a2_integrand(cross1, reference_profile, x, 0.3 * np.ones((1, K)))
    assert out[0] == 0.0


def test_a2_integrand_admits_as_the_quadrature_does(cross1, reference_profile):
    # a zero plane radius outside the support: an exact zero, not a degenerate-point error
    out = frame.a2_integrand(cross1, reference_profile, x=[[5.0] * M], r=[[0.0, 0.3, 0.3]])
    assert out.tolist() == [0.0]
    # inside the support but on an axis (radius at the floor): zero as well
    x = np.full((1, M), 0.1)
    r = np.array([[frame._r_min(reference_profile), 0.3, 0.3]])
    assert reference_profile.inside_support(np.sum(x * x, axis=1), np.sum(r * r, axis=1)).tolist() == [True]
    assert frame.a2_integrand(cross1, reference_profile, x, r).tolist() == [0.0]
    # the engine itself keeps its radius guard
    with pytest.raises(frame.DegeneratePointError):
        frame.curvature_scalars(cross1, reference_profile, x, r)
    # a negative radius is bad input, inside the support or not
    for x_bad in (x, [[5.0] * M]):
        with pytest.raises(ValueError, match="plane radius"):
            frame.a2_integrand(cross1, reference_profile, x_bad, [[-0.3, 0.3, 0.3]])


def test_a2_integrand_zero_bracket(zero_bracket, reference_profile, rng):
    x, r = interior_points(rng, 20)
    out = frame.a2_integrand(zero_bracket, reference_profile, x, r)
    assert np.max(np.abs(out)) < 1e-25


def test_a2_integrand_matches_oracle(cross1, reference_profile, rng):
    x, r = interior_points(rng, 4)
    th = rng.uniform(0, 2 * np.pi, size=(4, K))
    vals = frame.a2_integrand(cross1, reference_profile, x, r)
    pts = np.concatenate([x, polar_to_cartesian(r, th)], axis=1)
    inv = scalar_invariants_fd(make_metric_fn(cross1, reference_profile), pts,
                               default_scheme(reference_profile))
    np.testing.assert_allclose(vals, inv.a2_integrand, rtol=1e-4)


# --- scaling degrees ------------------------------------------------------------

X0 = np.array([0.31, -0.22, 0.17, 0.08, -0.12, 0.27])
R0 = np.array([0.17, 0.21, 0.12])
S_LIST = [1.0, 1.3, 1.7, 2.2, 2.9]


def _bundle_family(bracket, profile, indexer):
    def fam(s, x, r):
        fb = frame.frame_bundle(bracket, profile.scaled(s), x[None], r[None])
        return indexer(fb)
    return fam


def test_degree_probe_lemma_values(cross1, reference_profile):
    cases = [
        (lambda fb: fb.c[0, MK, 1, 2], -1.0),        # I1 x I1 -> I3
        (lambda fb: fb.c[0, MK, M + 1, 1], 0.0),     # I2 x I1 -> I3
        (lambda fb: fb.Gamma[0, MK, M + 1, 1], 0.0),  # one index in each block
        (lambda fb: fb.dGamma[0, MK, M + 1, 1, M + 1], 1.0),  # E_r raises by one
    ]
    for indexer, want in cases:
        fam = _bundle_family(cross1, reference_profile, indexer)
        d, resid = degree_probe(fam, X0, R0, S_LIST)
        assert d == pytest.approx(want, abs=1e-8)
        assert resid <= 1e-8


def test_degree_probe_coupling_degree_zero(cross1, reference_profile):
    def fam(s, x, r):
        cc = frame.coupling_coeffs(cross1, reference_profile.scaled(s), x[None], r[None])
        return cc.a[0, 1, 0]
    d, resid = degree_probe(fam, X0, R0, S_LIST)
    assert d == pytest.approx(0.0, abs=1e-10)
    assert resid <= 1e-10


def test_degree_probe_all_zero(zero_bracket, reference_profile):
    def fam(s, x, r):
        cc = frame.coupling_coeffs(zero_bracket, reference_profile.scaled(s), x[None], r[None])
        return cc.a[0, 1, 0]
    with pytest.raises(AllZeroSamplesError):
        degree_probe(fam, X0, R0, S_LIST)


def test_degree_one_curvature_component(cross1, reference_profile):
    # Riem[that_1, rhat_2, xhat_i, rhat_2] is a pure degree-one family whose
    # value is (1/2) d^2 a_{i1}/dr_2^2 * r_1
    i = 1
    r_pt = np.array([0.33, 0.41, 0.24])
    fam = _bundle_family(cross1, reference_profile,
                         lambda fb: fb.Riem[0, MK, M + 1, i, M + 1])
    parts = homogeneous_parts(fam, X0, r_pt)
    ref = degree_one_reference(cross1, reference_profile, i, X0, r_pt)
    assert parts[1] == pytest.approx(ref, rel=1e-6)
    for d in (-2, -1, 0, 2):
        assert abs(parts[d]) <= 1e-8 * abs(parts[1])
    # and the component itself scales exactly with degree one
    s = 1.35
    lhs = fam(s, X0, r_pt)
    rhs = s * fam(1.0, X0, s * r_pt)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_degree_one_reference_has_phi22_structure(cross1, reference_profile):
    # split the closed form into its phi_2 and phi_22 pieces and reassemble
    i = 1
    r_pt = np.array([0.33, 0.41, 0.24])
    pd = reference_profile.value_and_derivs(np.array([X0 @ X0]), np.array([r_pt @ r_pt]))
    L = float(np.dot(X0, cross1.tensor[0, :, i]))
    phi2_part = float(pd.d2[0]) * L * r_pt[0]
    phi22_part = 2.0 * r_pt[1] ** 2 * float(pd.d22[0]) * L * r_pt[0]
    ref = degree_one_reference(cross1, reference_profile, i, X0, r_pt)
    assert ref == pytest.approx(phi2_part + phi22_part, rel=1e-12)
    assert phi22_part != 0.0  # the cutoff cannot be linear in its second slot
