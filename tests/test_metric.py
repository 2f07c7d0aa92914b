import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from isophasal.brackets import builtin_bracket
from isophasal.metric import (
    CutoffProfile,
    coupling_matrix,
    inverse_metric_at,
    metric_at,
    plane_rotation,
    polar_to_cartesian,
)
from oracles import cartesian_to_polar, is_euclidean_outside, vertical_field


def test_profile_validation():
    with pytest.raises(ValueError):
        CutoffProfile(r1sq=-1.0, r2sq=1.0)
    with pytest.raises(ValueError):
        CutoffProfile(r1sq=math.inf, r2sq=1.0)  # infinite support rejected
    with pytest.raises(ValueError):
        CutoffProfile(r1sq=1.0, r2sq=1.0, amplitude=-0.5)


def test_psi_outside_support(reference_profile, rng):
    x = rng.normal(size=(10, 6))
    x *= (1.7 / np.linalg.norm(x, axis=1))[:, None]  # |x|^2 > r1sq
    u = rng.normal(size=(10, 6)) * 0.2
    pd = reference_profile.value_and_derivs(np.sum(x * x, axis=1), np.sum(u * u, axis=1))
    for field in pd:
        np.testing.assert_array_equal(field, 0.0)


def test_psi_zero_profile(rng):
    prof = CutoffProfile(1.0, 1.0, amplitude=0.0)
    x, u = rng.normal(size=(5, 6)) * 0.2, rng.normal(size=(5, 6)) * 0.2
    pd = prof.value_and_derivs(np.sum(x * x, axis=1), np.sum(u * u, axis=1))
    for field in pd:
        np.testing.assert_array_equal(field, 0.0)


def test_psi_value_at_origin():
    prof = CutoffProfile(2.0, 3.0, amplitude=1.7)
    pd = prof.value_and_derivs(np.zeros(1), np.zeros(1))
    assert pd.value[0] == pytest.approx(1.7)  # b(0) = 1


def test_psi_derivatives_match_sympy():
    # symbolic oracle: differentiate amplitude * b(t1/r1) * b(s^2 t2/r2) exactly
    t1s, t2s = sympy.symbols("t1 t2", nonnegative=True)
    r1, r2, amp, s = 0.9, 1.3, 1.15, 1.4
    b = lambda t: sympy.exp(1 - 1 / (1 - t))
    phi = amp * b(t1s / r1) * b(s**2 * t2s / r2)
    prof = CutoffProfile(r1sq=r1, r2sq=r2, amplitude=amp, s=s)
    pts = [(0.0, 0.0), (0.3, 0.21), (0.55, 0.4), (0.85, 0.05)]
    exprs = {
        "value": phi,
        "d1": sympy.diff(phi, t1s),
        "d2": sympy.diff(phi, t2s),
        "d11": sympy.diff(phi, t1s, 2),
        "d12": sympy.diff(phi, t1s, t2s),
        "d22": sympy.diff(phi, t2s, 2),
    }
    for t1, t2 in pts:
        pd = prof.value_and_derivs(np.array([t1]), np.array([t2]))
        for name, expr in exprs.items():
            want = float(expr.subs({t1s: t1, t2s: t2}))
            got = float(getattr(pd, name)[0])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), name


def test_psi_smooth_across_boundary(reference_profile):
    # value and second partials decay continuously to zero at the support edge
    eps = np.array([1e-2, 1e-3, 1e-4, 0.0])
    t1 = 1.0 - eps
    pd = reference_profile.value_and_derivs(t1, np.full_like(t1, 0.3))
    for field in pd:
        mags = np.abs(field)
        assert mags[-1] == 0.0
        assert np.all(np.diff(mags) <= 0.0)  # shrinking toward the edge


def test_scaled_profile_support():
    prof = CutoffProfile(1.0, 4.0, s=2.0)
    assert prof.u_radius == pytest.approx(1.0)
    assert prof.inside_support(0.5, 0.9)
    assert not prof.inside_support(0.5, 1.1)


# --- vertical field ---------------------------------------------------------

def test_vertical_field_examples():
    u = np.zeros(6)
    u[0] = 1.0
    out = vertical_field(np.array([1.0, 0.0, 0.0]), u)
    np.testing.assert_array_equal(out, [0, 1, 0, 0, 0, 0])
    np.testing.assert_array_equal(vertical_field(np.zeros(3), np.ones(6)), np.zeros(6))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_vertical_field_orthogonal_to_u(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    Z = rng.normal(size=k)
    u = rng.normal(size=2 * k)
    assert abs(np.dot(vertical_field(Z, u), u)) < 1e-12


def test_coupling_matrix_realizes_bracket_action(cross1, rng):
    x = rng.normal(size=(1, 6)) * 0.4
    u = rng.normal(size=(1, 6)) * 0.4
    K = coupling_matrix(cross1, x, u)[0]
    Y = rng.normal(size=6)
    Z = cross1(x[0], Y)
    np.testing.assert_allclose(K @ Y, vertical_field(Z, u[0]), atol=1e-12)


# --- metric -----------------------------------------------------------------

def test_metric_identity_outside_support(cross1, reference_profile, rng):
    x = rng.normal(size=(50, 6))
    x *= (1.4 / np.linalg.norm(x, axis=1))[:, None]
    u = rng.normal(size=(50, 6)) * 0.3
    G = metric_at(cross1, reference_profile, x, u)
    assert np.max(np.abs(G - np.eye(12))) == 0.0


def test_metric_zero_bracket_identity(zero_bracket, reference_profile, rng):
    G = metric_at(zero_bracket, reference_profile,
                  rng.normal(size=(20, 6)) * 0.3, rng.normal(size=(20, 6)) * 0.3)
    assert np.max(np.abs(G - np.eye(12))) == 0.0


def test_metric_unimodular_and_inverse(cross1, quaternion, reference_profile, rng):
    for b in (cross1, quaternion):
        x = rng.uniform(-0.9, 0.9, size=(200, 6))
        u = rng.uniform(-0.5, 0.5, size=(200, 6))
        G = metric_at(b, reference_profile, x, u)
        Gi, _div = inverse_metric_at(b, reference_profile, x, u)
        assert np.max(np.abs(np.linalg.det(G) - 1.0)) < 1e-12
        assert np.max(np.abs(np.einsum("nab,nbc->nac", G, Gi) - np.eye(12))) < 1e-12
        # symmetric positive definite
        assert np.max(np.abs(G - G.transpose(0, 2, 1))) == 0.0
        assert np.min(np.linalg.eigvalsh(G)) > 0.0


def test_metric_torus_invariance(cross1, reference_profile, rng):
    x = rng.uniform(-0.5, 0.5, size=(40, 6))
    u = rng.uniform(-0.5, 0.5, size=(40, 6))
    th = rng.uniform(0, 2 * np.pi, size=(40, 3))
    R = plane_rotation(th)
    big = np.zeros((40, 12, 12))
    big[:, :6, :6] = np.eye(6)
    big[:, 6:, 6:] = R
    G_rot = metric_at(cross1, reference_profile, x, np.einsum("nab,nb->na", R, u))
    G_conj = np.einsum("nab,nbc,ndc->nad", big, metric_at(cross1, reference_profile, x, u), big)
    assert np.max(np.abs(G_rot - G_conj)) < 1e-14


def test_metric_symmetry_under_bracket_preserving_rotation(cross1, reference_profile, rng):
    # the circle generated by [[0, I], [-I, 0]] preserves the first cross bracket
    t = 0.83
    A = np.block([[np.cos(t) * np.eye(3), np.sin(t) * np.eye(3)],
                  [-np.sin(t) * np.eye(3), np.cos(t) * np.eye(3)]])
    assert np.max(np.abs(np.einsum("ai,pab,bj->pij", A, cross1.tensor, A) - cross1.tensor)) < 1e-12
    x = rng.uniform(-0.5, 0.5, size=(20, 6))
    u = rng.uniform(-0.5, 0.5, size=(20, 6))
    big = np.zeros((12, 12))
    big[:6, :6] = A
    big[6:, 6:] = np.eye(6)
    G_moved = metric_at(cross1, reference_profile, x @ A.T, u)
    G_conj = np.einsum("ab,nbc,dc->nad", big, metric_at(cross1, reference_profile, x, u), big)
    assert np.max(np.abs(G_moved - G_conj)) < 1e-13


def test_metric_perturbation_bound(cross1, rng):
    # |G - I|_F <= sqrt(2) psi |K| (1 + psi |K|): linear in the cutoff amplitude
    for amp in (0.1, 0.5, 2.0):
        prof = CutoffProfile(1.0, 1.0, amplitude=amp)
        x = rng.uniform(-0.5, 0.5, size=(30, 6))
        u = rng.uniform(-0.5, 0.5, size=(30, 6))
        G = metric_at(cross1, prof, x, u)
        pv = prof.value_and_derivs(np.sum(x * x, axis=1), np.sum(u * u, axis=1)).value
        K = coupling_matrix(cross1, x, u)
        pk = pv * np.linalg.norm(K, axis=(1, 2))
        bound = math.sqrt(2.0) * pk * (1.0 + pk)
        dev = np.linalg.norm(G - np.eye(12), axis=(1, 2))
        assert np.all(dev <= bound + 1e-12)


def test_is_euclidean_outside(cross1, reference_profile):
    assert is_euclidean_outside(cross1, reference_profile, n_samples=100)


def test_metric_first_derivatives_vanish_on_boundary_shell(cross1, reference_profile, rng):
    # finite-difference probe across the support boundary: G -> I smoothly
    x_dir = rng.normal(size=6)
    x_dir /= np.linalg.norm(x_dir)
    u = rng.normal(size=6) * 0.3
    h = 1e-5
    vals = []
    for eps in (-h, 0.0, h):
        G = metric_at(cross1, reference_profile, (1.0 + eps) * x_dir[None], u[None])[0]
        vals.append(G)
    dG = (vals[2] - vals[0]) / (2 * h)
    assert np.max(np.abs(dG)) < 1e-8
    assert np.max(np.abs(vals[1] - np.eye(12))) < 1e-12


# --- polar helpers -----------------------------------------------------------

def test_polar_round_trip(rng):
    r = rng.uniform(0.1, 2.0, size=(20, 3))
    th = rng.uniform(-np.pi + 0.01, np.pi, size=(20, 3))
    u = polar_to_cartesian(r, th)
    r2, th2 = cartesian_to_polar(u)
    np.testing.assert_allclose(r2, r, atol=1e-12)
    np.testing.assert_allclose(th2, th, atol=1e-12)
