"""Skew-symmetric bilinear maps R^m x R^m -> R^k and their j-maps.

A bracket is stored as the tensor Lambda[p, i, j] = <[e_i, e_j], Z_p>, which is
skew in (i, j).  The dual j-map realizes each Z as a skew matrix j(Z) on R^m
through <j(Z) x, y> = <[x, y], Z>.  Two brackets are isospectral when j(Z) and
j'(Z) share spectra for every Z, equivalently when an orthogonal conjugator
A_Z with A_Z^T j(Z) A_Z = j'(Z) exists for every Z.  This module decides that
numerically on sampled Z, constructs the conjugators through a canonical block
reduction of skew matrices, and computes the centralizer dimension of the
j-map image in so(m), a cheap isometry-group invariant that separates
inequivalent brackets.
"""

from __future__ import annotations

import dataclasses
import io
import itertools

import numpy as np

__all__ = [
    "Bracket",
    "SpectraMismatchError",
    "IsospectralReport",
    "ConjugatorReport",
    "jmap",
    "spectrum",
    "check_isospectral",
    "canonical_skew_frame",
    "conjugator",
    "centralizer_dim",
    "builtin_bracket",
    "BUILTIN_BRACKETS",
    "equivalence_invariants",
    "signed_permutations",
    "bracket_to_text",
    "bracket_from_text",
]

_RANK_TOL = 1e-10  # centralizer_dim: singular values below this fraction of the largest are null
_SPECTRUM_TOL = 1e-10  # conjugator, check_isospectral: spectra further apart than this admit no conjugator
_ISOSPECTRAL_SAMPLES = 100  # check_isospectral: random unit directions Z, besides the coordinate axes
_KERNEL_FLOOR = 1e-8  # canonical_skew_frame: eigenvalues of iS at or below this fraction of mu_max are kernel


class SpectraMismatchError(ValueError):
    """No orthogonal conjugator exists: the two j(Z) have different spectra."""


class Bracket:
    """Skew-symmetric bilinear map stored as Lambda[p, i, j] = <[e_i, e_j], Z_p>."""

    def __init__(self, tensor: np.ndarray):
        tensor = np.asarray(tensor, dtype=float)
        if tensor.ndim != 3 or tensor.shape[1] != tensor.shape[2] or tensor.size == 0:
            raise ValueError(f"bracket tensor must have shape (k, m, m) with k, m >= 1, got {tensor.shape}")
        if not np.all(np.isfinite(tensor)):
            raise ValueError("bracket tensor has non-finite entries")
        asym = np.max(np.abs(tensor + tensor.transpose(0, 2, 1)))
        scale = max(1.0, np.max(np.abs(tensor)))
        if asym > 1e-12 * scale:
            raise ValueError(f"bracket tensor is not skew in (i, j): asymmetry {asym:g}")
        # (t - t^T)/2 is exactly skew in floating point
        self.tensor = 0.5 * (tensor - tensor.transpose(0, 2, 1))
        self.tensor.setflags(write=False)

    @property
    def m(self) -> int:
        return self.tensor.shape[1]

    @property
    def k(self) -> int:
        return self.tensor.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate [x, y] in R^k."""
        return np.einsum("pij,i,j->p", self.tensor, np.asarray(x, float), np.asarray(y, float))

    def jmaps(self) -> np.ndarray:
        """Stack of j(Z_p) for the standard basis, shape (k, m, m)."""
        return self.tensor.transpose(0, 2, 1).copy()

    def scaled(self, factor: float) -> "Bracket":
        return Bracket(factor * self.tensor)

    def conjugated(self, A: np.ndarray) -> "Bracket":
        """Bracket (x, y) -> [A x, A y]; spectra and centralizer dimension are preserved."""
        return Bracket(np.einsum("ai,bj,pab->pij", A, A, self.tensor))

    def __eq__(self, other) -> bool:
        return isinstance(other, Bracket) and np.array_equal(self.tensor, other.tensor)

    def __repr__(self) -> str:
        return f"Bracket(m={self.m}, k={self.k}, nnz={np.count_nonzero(self.tensor)})"


def jmap(bracket: Bracket, Z: np.ndarray) -> np.ndarray:
    """Skew matrix of j(Z) with <j(Z) x, y> = <[x, y], Z>.

    Entry (i, j) is sum_p Z_p Lambda[p, j, i]; for the cross-product bracket
    and Z = e_3 this is the usual rotation generator with rows
    (0,-1,0), (1,0,0), (0,0,0) on each 3x3 block.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (bracket.k,):
        raise ValueError(f"Z has shape {Z.shape}, expected ({bracket.k},)")
    if not np.all(np.isfinite(Z)):
        raise ValueError("Z must be finite")
    return np.einsum("p,pji->ij", Z, bracket.tensor)


def spectrum(bracket: Bracket, Z: np.ndarray) -> np.ndarray:
    """Singular values of j(Z), descending: each eigenvalue pair +-i*mu shows up twice."""
    return np.linalg.svd(jmap(bracket, Z), compute_uv=False)


@dataclasses.dataclass(frozen=True)
class IsospectralReport:
    isospectral: bool
    max_deviation: float
    n_samples: int
    tol: float

    def __bool__(self) -> bool:
        return self.isospectral


def check_isospectral(b1: Bracket, b2: Bracket, seed: int = 0) -> IsospectralReport:
    """Compare spectra of j1(Z), j2(Z) over the coordinate axes plus _ISOSPECTRAL_SAMPLES seeded unit vectors.

    The pair is isospectral when no sampled spectra differ by more than
    _SPECTRUM_TOL, the tolerance conjugator uses for the same decision.
    Spectral equality of skew matrices at a given Z is equivalent to the
    existence of an orthogonal conjugator at that Z; by linearity of j in Z
    the unit sphere suffices.
    """
    if (b1.m, b1.k) != (b2.m, b2.k):
        raise ValueError(f"dimension mismatch: ({b1.m},{b1.k}) vs ({b2.m},{b2.k})")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(_ISOSPECTRAL_SAMPLES, b1.k))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    samples = np.concatenate([np.eye(b1.k), v])
    s1, s2 = (np.linalg.svd(np.einsum("sp,pji->sij", samples, b.tensor), compute_uv=False) for b in (b1, b2))
    max_dev = float(np.max(np.abs(s1 - s2)))
    return IsospectralReport(max_dev <= _SPECTRUM_TOL, max_dev, len(samples), _SPECTRUM_TOL)


def canonical_skew_frame(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal U and descending mu >= 0 with U^T S U = blockdiag(mu_j * J, 0), J = [[0,-1],[1,0]].

    Built from one Hermitian eigendecomposition: iS is Hermitian, and an
    eigenvector a + ib of eigenvalue mu > 0 gives S a = mu b and S b = -mu a.
    Its conjugate a - ib belongs to -mu, so orthonormality of the eigenvectors
    makes sqrt(2) a, sqrt(2) b over all positive mu (descending) an
    orthonormal basis of the invariant planes, also inside clusters of equal
    or nearly equal mu, where the orthogonal gauge freedom is eigh's choice.
    Eigenvalues at or below _KERNEL_FLOOR * mu_max are the kernel, which is
    completed to an orthonormal basis.
    """
    S = np.asarray(S, dtype=float)
    m = S.shape[0]
    w, V = np.linalg.eigh(1j * S)  # ascending
    positive = w > _KERNEL_FLOOR * w[-1]
    mus, V = w[positive][::-1], V[:, positive][:, ::-1]
    planes = np.sqrt(2.0) * np.stack([V.real, V.imag], axis=2).reshape(m, -1)  # columns a_1, b_1, a_2, ...
    q, _, _ = np.linalg.svd(np.eye(m) - planes @ planes.T)
    return np.concatenate([planes, q[:, : m - planes.shape[1]]], axis=1), mus


@dataclasses.dataclass(frozen=True)
class ConjugatorReport:
    A: np.ndarray
    residual_conj: float
    residual_orth: float


def conjugator(
    b1: Bracket,
    b2: Bracket,
    Z: np.ndarray,
    require_match: bool = True,
) -> ConjugatorReport:
    """Orthogonal A with A^T j1(Z) A = j2(Z), via the canonical block reductions.

    Raises SpectraMismatchError when the spectra differ beyond _SPECTRUM_TOL (no
    conjugator exists); with require_match=False the best-effort A is
    returned anyway and residual_conj reports the failure.
    """
    S1 = jmap(b1, Z)
    S2 = jmap(b2, Z)
    dev = float(np.max(np.abs(np.linalg.svd(S1, compute_uv=False) - np.linalg.svd(S2, compute_uv=False))))
    if require_match and dev > _SPECTRUM_TOL:
        raise SpectraMismatchError(f"spectra differ by {dev:g} > tol {_SPECTRUM_TOL:g} at Z={np.asarray(Z)}")
    U1, _ = canonical_skew_frame(S1)
    U2, _ = canonical_skew_frame(S2)
    A = U1 @ U2.T
    res_c = float(np.linalg.norm(A.T @ S1 @ A - S2))
    res_o = float(np.linalg.norm(A.T @ A - np.eye(b1.m)))
    return ConjugatorReport(A=A, residual_conj=res_c, residual_orth=res_o)


def centralizer_dim(bracket: Bracket) -> int:
    """dim{B in so(m): B j(Z_p) = j(Z_p) B for all p}, via the nullity of B -> [B, j(Z_p)]_p."""
    m = bracket.m
    js = bracket.jmaps()
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    cols = []
    for a, b in pairs:
        E = np.zeros((m, m))
        E[a, b] = 1.0
        E[b, a] = -1.0
        cols.append((E @ js - js @ E).ravel())
    M = np.column_stack(cols)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return len(pairs)
    return int(np.sum(sv <= _RANK_TOL * sv[0]))


def _cross_block(sign: float) -> np.ndarray:
    """Lambda[p, i, j] = sign * eps_{ijp} on a 3-dim block."""
    lam = np.zeros((3, 3, 3))
    for p, i, j in itertools.permutations(range(3)):
        # epsilon tensor
        eps = ((i - j) * (j - p) * (p - i)) / 2
        lam[p, i, j] = sign * eps
    return lam


def _quaternion_tensor() -> np.ndarray:
    """Quaternionic bracket on H x R^2 whose j-map is left multiplication, j(z) q = z q.

    The skew-symmetric bilinear map realizing that j-map is
    [q, q'] = -Im(q conj(q')), which agrees with Im(q q') whenever one factor
    is real.  The R^2 factor is inert.
    """
    # units[a, b] = quaternion product q_a q_b as a 4-vector in the basis (1, i, j, k)
    units = np.zeros((4, 4, 4))
    units[0] = np.eye(4)
    units[1] = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    units[2] = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
    units[3] = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
    lam = np.zeros((3, 6, 6))
    for i in range(4):
        for j in range(4):
            sj = 1.0 if j == 0 else -1.0  # conj(q_j) = sj * q_j on the unit basis
            lam[:, i, j] = -sj * units[i, j, 1:4]
    return lam


def builtin_bracket(name: str) -> Bracket:
    """Built-in m=6, k=3 brackets: 'cross1', 'cross2', 'quaternion'.

    cross1: [(x,y),(x',y')] = x cross x' + y cross y'
    cross2: [(x,y),(x',y')] = x cross x' - y cross y'
    quaternion: [(q,y),(q',y')] = Im(q q') on H x R^2 (the R^2 factor is inert)
    zero: the zero bracket (flat metric), handy for validation
    """
    key = name.strip().lower()
    lam = np.zeros((3, 6, 6))
    if key == "cross1":
        lam[:, :3, :3] = _cross_block(1.0)
        lam[:, 3:, 3:] = _cross_block(1.0)
    elif key == "cross2":
        lam[:, :3, :3] = _cross_block(1.0)
        lam[:, 3:, 3:] = _cross_block(-1.0)
    elif key == "quaternion":
        lam = _quaternion_tensor()
    elif key == "zero":
        pass
    else:
        raise ValueError(f"unknown builtin bracket {name!r}")
    return Bracket(lam)


BUILTIN_BRACKETS = ("cross1", "cross2", "quaternion")


def signed_permutations(k: int) -> list[np.ndarray]:
    """All orthogonal integer matrices on R^k (the lattice-preserving group)."""
    out = []
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1.0, -1.0), repeat=k):
            C = np.zeros((k, k))
            for a, b in enumerate(perm):
                C[b, a] = signs[a]
            out.append(C)
    return out


def equivalence_invariants(bracket: Bracket) -> np.ndarray:
    """Fingerprint vector invariant under bracket equivalence; equality is necessary, not sufficient.

    Concatenates the centralizer dimension, traces of powers of sum_p j(Z_p)^2,
    and spectra symmetrized over the signed-permutation orbit of Z (the
    lattice-preserving changes of torus coordinates) for each Z of a fixed
    grid: the coordinate axes and four seeded random unit vectors.
    """
    rng = np.random.default_rng(7)
    grid = [np.eye(bracket.k)[p] for p in range(bracket.k)]
    extra = rng.normal(size=(4, bracket.k))
    grid += [v / np.linalg.norm(v) for v in extra]
    parts: list[np.ndarray] = [np.array([float(centralizer_dim(bracket))])]
    js = bracket.jmaps()
    P = np.einsum("pij,pjl->il", js, js)
    Pq = np.eye(bracket.m)
    traces = []
    for _ in range(4):
        Pq = Pq @ P
        traces.append(np.trace(Pq))
    parts.append(np.asarray(traces))
    group = signed_permutations(bracket.k)
    for Z in grid:
        orbit = sorted(
            (tuple(spectrum(bracket, C @ np.asarray(Z, float))) for C in group)
        )
        parts.append(np.asarray(orbit).ravel())
    return np.concatenate(parts)


def bracket_to_text(bracket: Bracket) -> str:
    """Plain-text tensor format: header 'm k', then 'p i j value' (1-based, i<j, nonzero only)."""
    buf = io.StringIO()
    buf.write(f"{bracket.m} {bracket.k}\n")
    for p in range(bracket.k):
        for i in range(bracket.m):
            for j in range(i + 1, bracket.m):
                v = float(bracket.tensor[p, i, j])
                if v != 0.0:
                    buf.write(f"{p + 1} {i + 1} {j + 1} {v!r}\n")
    return buf.getvalue()


def bracket_from_text(text: str) -> Bracket:
    """Parse the bracket_to_text format; every malformed line is rejected by number."""
    lines = [(no, ln.split("#", 1)[0].strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise ValueError("empty bracket file")
    no, header = lines[0]
    try:
        m, k = (int(tok) for tok in header.split())
    except ValueError as exc:
        raise ValueError(f"bad header line {no} {header!r}: expected 'm k'") from exc
    if m < 1 or k < 1:
        raise ValueError(f"bad header line {no} {header!r}: m and k must be positive")
    lam = np.zeros((k, m, m))
    seen: dict[tuple[int, int, int], int] = {}
    for no, ln in lines[1:]:
        try:
            p_, i_, j_, v_ = ln.split()
            p, i, j, v = int(p_) - 1, int(i_) - 1, int(j_) - 1, float(v_)
        except ValueError as exc:
            raise ValueError(f"bad entry line {no} {ln!r}: expected 'p i j value'") from exc
        if not (0 <= p < k and 0 <= i < m and 0 <= j < m):
            raise ValueError(f"index out of range in line {no} {ln!r}")
        if i == j:
            raise ValueError(f"diagonal entry in line {no} {ln!r}: a skew bracket has [e_i, e_i] = 0")
        if not np.isfinite(v):
            raise ValueError(f"non-finite value in line {no} {ln!r}")
        key = (p, min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"line {no} {ln!r} repeats the entry of line {seen[key]}")
        seen[key] = no
        lam[p, i, j] = v
        lam[p, j, i] = -v
    return Bracket(lam)
