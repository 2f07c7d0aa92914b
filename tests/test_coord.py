import numpy as np
import pytest

from isophasal.coord import (
    ConventionMismatchError,
    FDScheme,
    IllConditionedError,
    christoffel_fd,
    conformal_metric_fn,
    default_scheme,
    first_derivative,
    make_metric_fn,
    riemann_fd,
    scalar_invariants_fd,
    validate_known,
)
from isophasal.metric import CutoffProfile


def test_scheme_validation():
    for h in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            FDScheme(h=h)


def test_first_derivative_polynomial_exact(rng):
    # order-4 differences are exact on cubics up to roundoff
    coef = rng.normal(size=(3, 4))

    def fn(q):
        return np.einsum("cd,nd->nc", coef, q**3) + np.einsum("cd,nd->nc", coef[::-1][:3], q)

    pts = rng.normal(size=(5, 4))
    d = first_derivative(fn, pts, FDScheme(h=1e-2, richardson=False))
    want = np.einsum("cd,nd->ndc", coef, 3 * pts**2) + np.einsum("cd,nd->ndc", coef[::-1][:3], np.ones_like(pts))
    np.testing.assert_allclose(d, want, atol=1e-9)


def test_flat_region_christoffels_vanish(cross1, reference_profile, rng):
    fn = make_metric_fn(cross1, reference_profile)
    pts = rng.normal(size=(5, 12))
    pts[:, :6] *= 2.0 / np.linalg.norm(pts[:, :6], axis=1, keepdims=True)
    Gam = christoffel_fd(fn, pts, default_scheme(reference_profile))
    assert np.max(np.abs(Gam)) < 1e-10


def test_flat_region_scalars_vanish(cross1, reference_profile, rng):
    fn = make_metric_fn(cross1, reference_profile)
    pts = rng.normal(size=(3, 12))
    pts[:, :6] *= 1.8 / np.linalg.norm(pts[:, :6], axis=1, keepdims=True)
    inv = scalar_invariants_fd(fn, pts, default_scheme(reference_profile))
    assert np.max(np.abs(inv.tau)) < 1e-9
    assert np.max(np.abs(inv.a2_integrand)) < 1e-12


def test_christoffel_symmetry(cross1, reference_profile, rng):
    fn = make_metric_fn(cross1, reference_profile)
    pts = np.concatenate([rng.uniform(-0.4, 0.4, size=(4, 6)),
                          rng.uniform(-0.5, 0.5, size=(4, 6))], axis=1)
    Gam = christoffel_fd(fn, pts, default_scheme(reference_profile))
    assert np.max(np.abs(Gam - Gam.transpose(0, 1, 3, 2))) < 1e-9


def test_riemann_fd_symmetries(cross1, reference_profile, rng):
    fn = make_metric_fn(cross1, reference_profile)
    pts = np.concatenate([rng.uniform(-0.4, 0.4, size=(2, 6)),
                          rng.uniform(0.2, 0.5, size=(2, 6))], axis=1)
    _G, _Gi, R = riemann_fd(fn, pts, default_scheme(reference_profile))
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4))) < 1e-5 * scale
    assert np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3))) < 1e-5 * scale
    assert np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2))) < 1e-5 * scale


def test_oracle_continuous_across_polar_axis(cross1, reference_profile):
    # the frame engine refuses r_p = 0; the Cartesian oracle must not care
    fn = make_metric_fn(cross1, reference_profile)
    scheme = default_scheme(reference_profile)
    base = np.array([0.2, -0.1, 0.15, 0.05, -0.2, 0.1, 0.0, 0.0, 0.3, 0.1, 0.2, -0.2])
    on_axis = base.copy()  # first plane radius exactly zero
    near = base.copy()
    near[6] = 1e-4
    inv0 = scalar_invariants_fd(fn, on_axis[None], scheme)
    inv1 = scalar_invariants_fd(fn, near[None], scheme)
    assert np.isfinite(inv0.tau[0])
    assert abs(inv0.tau[0] - inv1.tau[0]) < 1e-3 * max(1.0, abs(inv0.tau[0]))
    assert abs(inv0.riem_sq[0] - inv1.riem_sq[0]) < 1e-3 * max(1.0, abs(inv0.riem_sq[0]))


def test_ill_conditioned_raises():
    def bad(q):
        q = np.atleast_2d(q)
        G = np.zeros((q.shape[0], 2, 2))
        G[:, 0, 0] = 1.0
        G[:, 1, 1] = 1e-15
        return G

    with pytest.raises(IllConditionedError):
        christoffel_fd(bad, np.zeros((1, 2)), FDScheme(h=1e-3))


def test_validate_known_passes():
    rep = validate_known()
    assert rep.ok
    assert rep.max_abs_err <= 1e-5
    assert rep.tau_at_origin == pytest.approx(-8.0, rel=1e-5)


def test_validate_known_flat_input():
    # f identically zero -> flat metric -> tau = 0
    fn = conformal_metric_fn(0.0)
    inv = scalar_invariants_fd(fn, np.zeros((1, 2)), FDScheme(h=1e-3))
    assert abs(inv.tau[0]) < 1e-10


def test_convention_mismatch_detected(monkeypatch):
    # flipping the oracle's lowering convention must trip the self-test
    import isophasal.coord as coord_mod

    orig = coord_mod.scalar_invariants_fd

    def flipped(metric_fn, pts, scheme):
        inv = orig(metric_fn, pts, scheme)
        return coord_mod.ScalarInvariants(
            tau=-inv.tau, ric_sq=inv.ric_sq, riem_sq=inv.riem_sq, a2_integrand=inv.a2_integrand
        )

    monkeypatch.setattr(coord_mod, "scalar_invariants_fd", flipped)
    with pytest.raises(ConventionMismatchError):
        coord_mod.validate_known()
