import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from isophasal.brackets import (
    Bracket,
    SpectraMismatchError,
    bracket_from_text,
    bracket_to_text,
    builtin_bracket,
    canonical_skew_frame,
    centralizer_dim,
    check_isospectral,
    conjugator,
    equivalence_invariants,
    jmap,
    signed_permutations,
    spectrum,
)
from conftest import random_bracket, random_orthogonal
from oracles import isospectral_deviation_loop


# --- j-maps ----------------------------------------------------------------

def test_jmap_cross_generator_rows(cross1):
    J = jmap(cross1, np.array([0.0, 0.0, 1.0]))
    block = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(J[:3, :3], block)
    np.testing.assert_array_equal(J[3:, :3], np.zeros((3, 3)))
    np.testing.assert_array_equal(J[3:, 3:], block)


def test_jmap_zero_bracket(zero_bracket):
    np.testing.assert_array_equal(jmap(zero_bracket, np.array([1.0, -2.0, 3.0])), np.zeros((6, 6)))


def test_jmap_defining_identity(cross1, quaternion, rng):
    for b in (cross1, quaternion, random_bracket(5, 2, rng)):
        for _ in range(10):
            Z = rng.normal(size=b.k)
            x = rng.normal(size=b.m)
            y = rng.normal(size=b.m)
            lhs = np.dot(jmap(b, Z) @ x, y)
            rhs = np.dot(b(x, y), Z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_jmap_skew_and_linear(seed):
    rng = np.random.default_rng(seed)
    b = random_bracket(rng.integers(2, 7), rng.integers(1, 4), rng)
    Z1 = rng.normal(size=b.k)
    Z2 = rng.normal(size=b.k)
    a1, a2 = rng.normal(size=2)
    J = jmap(b, Z1)
    assert np.max(np.abs(J + J.T)) == 0.0
    lin = jmap(b, a1 * Z1 + a2 * Z2) - a1 * jmap(b, Z1) - a2 * jmap(b, Z2)
    assert np.max(np.abs(lin)) < 1e-12


def test_jmap_dimension_mismatch(cross1):
    with pytest.raises(ValueError):
        jmap(cross1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        jmap(cross1, np.array([1.0, np.nan, 0.0]))


# --- spectra ---------------------------------------------------------------

def test_builtin_spectra_unit_sphere(cross1, cross2, quaternion, rng):
    for b in (cross1, cross2, quaternion):
        for _ in range(20):
            Z = rng.normal(size=3)
            Z /= np.linalg.norm(Z)
            np.testing.assert_allclose(spectrum(b, Z), [1, 1, 1, 1, 0, 0], atol=1e-12)


def test_spectrum_zero_and_scaling(zero_bracket, cross1, rng):
    np.testing.assert_array_equal(spectrum(zero_bracket, np.ones(3)), np.zeros(6))
    Z = rng.normal(size=3)
    np.testing.assert_allclose(spectrum(cross1, 2 * Z), 2 * spectrum(cross1, Z), atol=1e-12)


def test_spectrum_orthogonal_invariance(rng):
    b = random_bracket(6, 3, rng)
    A = random_orthogonal(6, rng)
    bc = b.conjugated(A)
    for _ in range(5):
        Z = rng.normal(size=3)
        np.testing.assert_allclose(spectrum(b, Z), spectrum(bc, Z), atol=1e-10)


def test_spectrum_values_pair_up(rng):
    # eigenvalues of a skew matrix are +-i mu: positive singular values pair
    for m, k in ((5, 2), (6, 3), (7, 1)):
        b = random_bracket(m, k, rng)
        sv = spectrum(b, rng.normal(size=k))
        pos = sv[sv > 1e-10 * sv[0]]
        assert len(pos) % 2 == 0
        np.testing.assert_allclose(pos[0::2], pos[1::2], rtol=1e-9)


# --- isospectrality --------------------------------------------------------

def test_triple_isospectral(cross1, cross2, quaternion):
    for b1, b2 in ((cross1, cross2), (cross1, quaternion), (cross2, quaternion)):
        rep = check_isospectral(b1, b2)
        assert rep.isospectral
        # the three axes plus 100 random directions, at the conjugators' spectrum tolerance
        assert (rep.n_samples, rep.tol) == (103, 1e-10)


def test_isospectral_reflexive_and_scaled(cross1):
    assert check_isospectral(cross1, cross1).isospectral
    assert not check_isospectral(cross1, cross1.scaled(2.0)).isospectral


def test_isospectral_symmetric(cross1, quaternion):
    r12 = check_isospectral(cross1, quaternion, seed=7)
    r21 = check_isospectral(quaternion, cross1, seed=7)
    assert r12.isospectral == r21.isospectral
    assert r12.max_deviation == pytest.approx(r21.max_deviation, abs=1e-15)


@pytest.mark.parametrize("m, k", [(5, 2), (6, 3), (7, 4)])
def test_isospectral_batch_matches_per_direction_loop(m, k, rng):
    # the stacked SVD against one spectrum call per direction, bitwise, on an
    # isospectral (conjugated) pair and a non-isospectral (independent) one
    b1 = random_bracket(m, k, rng)
    for b2, isospectral in ((b1.conjugated(random_orthogonal(m, rng)), True), (random_bracket(m, k, rng), False)):
        rep = check_isospectral(b1, b2, seed=3)
        v = np.random.default_rng(3).normal(size=(rep.n_samples - k, k))
        samples = np.concatenate([np.eye(k), v / np.linalg.norm(v, axis=1, keepdims=True)])
        assert rep.max_deviation == isospectral_deviation_loop(b1, b2, samples)
        assert rep.isospectral == isospectral


def test_isospectral_dimension_mismatch(cross1, rng):
    with pytest.raises(ValueError):
        check_isospectral(cross1, random_bracket(5, 3, rng))


# --- canonical form and conjugators ----------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 9))
def test_canonical_skew_frame_reduces(seed, m):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m))
    S = A - A.T
    U, mus = canonical_skew_frame(S)
    assert np.linalg.norm(U.T @ U - np.eye(m)) < 1e-12
    D = np.zeros((m, m))
    for j, mu in enumerate(mus):
        D[2 * j, 2 * j + 1] = -mu
        D[2 * j + 1, 2 * j] = mu
    assert np.linalg.norm(U.T @ S @ U - D) < 1e-10 * max(1.0, np.linalg.norm(S))
    assert np.all(np.diff(mus) <= 1e-9)  # descending


def test_conjugator_identity_pair(cross1, rng):
    Z = rng.normal(size=3)
    rep = conjugator(cross1, cross1, Z)
    assert rep.residual_conj <= 1e-12
    assert rep.residual_orth <= 1e-12


def test_conjugator_triple(cross1, cross2, quaternion, rng):
    pairs = [(cross1, cross2), (cross1, quaternion), (cross2, quaternion)]
    Zs = [np.array([1.0, 0.0, 0.0])] + [rng.normal(size=3) for _ in range(10)]
    for b1, b2 in pairs:
        for Z in Zs:
            rep = conjugator(b1, b2, Z)
            assert rep.residual_conj <= 1e-9
            assert rep.residual_orth <= 1e-12


@pytest.mark.parametrize("split", [0.0, 1e-12, 1e-9, 1e-6])
def test_conjugator_near_degenerate_spectrum(split):
    # continuous families split and merge eigenvalue clusters of j(Z): two mu
    # that differ by `split` must still give an orthogonal conjugator
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    D = np.zeros((6, 6))
    for j, mu in enumerate((1.0, 1.0 + split, 0.5)):
        D[2 * j:2 * j + 2, 2 * j:2 * j + 2] = mu * J
    rng = np.random.default_rng(0)
    for _ in range(20):
        b1, b2 = (Bracket((Q @ D @ Q.T).T[None]) for Q in (random_orthogonal(6, rng), random_orthogonal(6, rng)))
        rep = conjugator(b1, b2, np.array([1.0]))
        assert rep.residual_conj <= 1e-12
        assert rep.residual_orth <= 1e-12


def test_conjugator_spectra_mismatch(cross1, rng):
    with pytest.raises(SpectraMismatchError):
        conjugator(cross1, cross1.scaled(2.0), rng.normal(size=3))
    rep = conjugator(cross1, cross1.scaled(2.0), np.array([1.0, 0, 0]), require_match=False)
    assert rep.residual_orth <= 1e-12
    assert rep.residual_conj > 0.1


# --- centralizers ----------------------------------------------------------

def test_centralizer_dims_triple(cross1, cross2, quaternion):
    assert centralizer_dim(cross1) == 1
    assert centralizer_dim(cross2) == 0
    assert centralizer_dim(quaternion) == 4


def test_centralizer_zero_bracket(zero_bracket):
    assert centralizer_dim(zero_bracket) == 6 * 5 // 2


def test_centralizer_generic_single_j_exact_nullspace(rng):
    # small-m oracle: exact rational nullspace of the commutator system
    m, k = 4, 1
    lam_int = rng.integers(-3, 4, size=(1, m, m))
    lam = (lam_int - lam_int.transpose(0, 2, 1)).astype(float)
    b = Bracket(lam)
    assert np.linalg.matrix_rank(b.jmaps()[0]) == m  # generic: full even rank
    J = sympy.Matrix(b.jmaps()[0].astype(int))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    cols = []
    for i, j in pairs:
        E = sympy.zeros(m, m)
        E[i, j] = 1
        E[j, i] = -1
        cols.append(list(E * J - J * E))
    M = sympy.Matrix(cols).T
    exact_nullity = len(pairs) - M.rank()
    assert centralizer_dim(b) == exact_nullity


def test_centralizer_orthogonal_invariance(cross1, quaternion, rng):
    A = random_orthogonal(6, rng)
    assert centralizer_dim(cross1.conjugated(A)) == 1
    assert centralizer_dim(quaternion.conjugated(A)) == 4


# --- builtins ---------------------------------------------------------------

def test_builtin_bracket_values(cross1, cross2, quaternion):
    e = np.eye(6)
    np.testing.assert_allclose(cross1(e[0], e[1]), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(cross2(e[3], e[4]), [0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(quaternion(e[0], e[1]), [1, 0, 0], atol=1e-15)
    # the R^2 factor of the quaternion bracket is inert
    assert np.max(np.abs(quaternion.tensor[:, 4:, :])) == 0.0


def test_quaternion_jmap_is_left_multiplication(quaternion, rng):
    # j(z) q = z q, so j(z)^2 = -|z|^2 on the H block and 0 on the R^2 block
    z = rng.normal(size=3)
    J = jmap(quaternion, z)
    J2 = J @ J
    np.testing.assert_allclose(J2[:4, :4], -np.dot(z, z) * np.eye(4), atol=1e-12)
    np.testing.assert_allclose(J2[4:, 4:], 0.0, atol=1e-15)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_bracket("heisenberg")


# --- equivalence fingerprints ------------------------------------------------

def test_fingerprint_reflexive(cross1):
    f1 = equivalence_invariants(cross1)
    f2 = equivalence_invariants(cross1)
    np.testing.assert_array_equal(f1, f2)


def test_fingerprint_distinguishes_triple(cross1, cross2, quaternion, zero_bracket):
    f1 = equivalence_invariants(cross1)
    f2 = equivalence_invariants(cross2)
    f3 = equivalence_invariants(quaternion)
    fz = equivalence_invariants(zero_bracket)
    # centralizer component (1 vs 0) certifies cross1 != cross2
    assert f1[0] == 1.0 and f2[0] == 0.0 and f3[0] == 4.0
    assert not np.allclose(f1, f2)
    assert not np.allclose(f1, f3)
    assert not np.allclose(fz, f1)


def test_fingerprint_invariant_under_equivalence(rng):
    # b' defined by j'(Z) = A^T j(C Z) A for orthogonal A and signed permutation C
    b = random_bracket(5, 3, rng)
    A = random_orthogonal(5, rng)
    C = signed_permutations(3)[17]
    js = b.jmaps()
    js_new = np.einsum("wp,wij->pij", C, js)  # j(C Z_p) = sum_w C_wp j(Z_w)
    js_new = np.einsum("ai,pab,bj->pij", A, js_new, A)  # A^T j(C Z_p) A
    lam_new = js_new.transpose(0, 2, 1)
    b_equiv = Bracket(lam_new)
    f = equivalence_invariants(b)
    fe = equivalence_invariants(b_equiv)
    np.testing.assert_allclose(f, fe, atol=1e-8)


# --- serialization ------------------------------------------------------------

def test_text_round_trip(cross1, quaternion, rng):
    for b in (cross1, quaternion, random_bracket(4, 2, rng)):
        text = bracket_to_text(b)
        b2 = bracket_from_text(text)
        assert b2.m == b.m and b2.k == b.k
        np.testing.assert_array_equal(b2.tensor, b.tensor)


def test_text_format_shape(cross1):
    text = bracket_to_text(cross1)
    lines = text.strip().splitlines()
    assert lines[0] == "6 3"
    for ln in lines[1:]:
        p, i, j, _v = ln.split()
        assert int(i) < int(j)  # skew pairs stored once


def test_text_errors():
    with pytest.raises(ValueError):
        bracket_from_text("")
    with pytest.raises(ValueError):
        bracket_from_text("2 1\n1 1 5 3.0\n")
    with pytest.raises(ValueError):
        bracket_from_text("nonsense\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_text_rejects_non_finite(value):
    with pytest.raises(ValueError, match=f"line 3 '1 2 3 {value}'"):
        bracket_from_text(f"3 1\n1 1 2 1.0\n1 2 3 {value}\n")


def test_text_rejects_repeated_entry():
    # the same pair again, in either order, would silently overwrite the first
    for again in ("1 1 2 2.0", "1 2 1 -2.0"):
        with pytest.raises(ValueError, match=f"line 4 '{again}' repeats the entry of line 2"):
            bracket_from_text(f"3 1\n1 1 2 1.0\n1 2 3 1.0\n{again}\n")


def test_text_rejects_diagonal_entry():
    with pytest.raises(ValueError, match="diagonal entry in line 2 '1 2 2 1.0'"):
        bracket_from_text("3 1\n1 2 2 1.0\n")


@pytest.mark.parametrize("header", ["0 3", "3 0", "-1 2"])
def test_text_rejects_empty_dimensions(header):
    with pytest.raises(ValueError, match=f"bad header line 1 '{header}'"):
        bracket_from_text(f"{header}\n")


def test_bracket_rejects_non_finite_and_empty():
    lam = np.zeros((1, 3, 3))
    lam[0, 0, 1], lam[0, 1, 0] = np.nan, np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Bracket(lam)
    with pytest.raises(ValueError, match="k, m >= 1"):
        Bracket(np.zeros((3, 0, 0)))
