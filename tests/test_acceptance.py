"""Acceptance gate: every criterion at its stated tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as they
complete.  The heavy quadrature fixtures are session scoped and shared.
"""

import os
import time

import numpy as np
import pytest

from isophasal.brackets import Bracket, builtin_bracket, centralizer_dim, spectrum
from isophasal.cli import main as cli_main
from isophasal.coord import default_scheme, make_metric_fn, scalar_invariants_fd, validate_known
from isophasal.metric import CutoffProfile, metric_at, polar_to_cartesian
from isophasal import frame, heat, intertwine
from oracles import degree_one_reference, degree_probe, homogeneous_parts

PROFILE = CutoffProfile(r1sq=1.0, r2sq=1.0, amplitude=1.0, s=1.0)
NAMES = ("cross1", "cross2", "quaternion")
BRACKETS = {name: builtin_bracket(name) for name in NAMES}
M, K = 6, 3
MK = M + K

# regression anchor for a2(cross1) with the reference profile, recorded from
# the first full-size run (1e5 QMC nodes x 8 replicates, seed 0)
A2_ANCHOR = 2.20337e-07

FULL_SPEC = heat.QuadratureSpec(n_nodes=100_000, n_replicates=8, seed=0, preflight=True)


def report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def a2_results():
    out = {}
    for name in NAMES:
        out[name] = heat.integrate_a2(BRACKETS[name], PROFILE, FULL_SPEC)
    return out


def test_criterion_1_bracket_spectra():
    t0 = time.time()
    rng = np.random.default_rng(0)
    want = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    worst = 0.0
    for _ in range(100):
        Z = rng.normal(size=3)
        Z /= np.linalg.norm(Z)
        for b in BRACKETS.values():
            worst = max(worst, float(np.max(np.abs(spectrum(b, Z) - want))))
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 1.0,
           f"100 random unit Z, all spectra {{1,1,1,1,0,0}}: max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_centralizer_dims():
    t0 = time.time()
    dims = tuple(centralizer_dim(BRACKETS[name]) for name in NAMES)
    elapsed = time.time() - t0
    report(2, dims == (1, 0, 4) and elapsed < 1.0,
           f"centralizer dims {dims} == (1, 0, 4), {elapsed:.2f}s")


def test_criterion_3_metric_validity():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_det = 0.0
    outside_exact = True
    for b in BRACKETS.values():
        x = rng.uniform(-1.0, 1.0, size=(1000, M))
        u = rng.uniform(-1.0, 1.0, size=(1000, 2 * K))
        G = metric_at(b, PROFILE, x, u)
        worst_det = max(worst_det, float(np.max(np.abs(np.linalg.det(G) - 1.0))))
        xo = rng.normal(size=(1000, M))
        xo *= (rng.uniform(1.01, 3.0, size=1000) / np.linalg.norm(xo, axis=1))[:, None]
        uo = rng.uniform(-1.0, 1.0, size=(1000, 2 * K))
        Go = metric_at(b, PROFILE, xo, uo)
        outside_exact &= bool(np.max(np.abs(Go - np.eye(M + 2 * K))) == 0.0)
    elapsed = time.time() - t0
    report(3, worst_det <= 1e-12 and outside_exact and elapsed < 1.0,
           f"det G dev {worst_det:.2e} <= 1e-12, G == I outside support exactly, {elapsed:.2f}s")


def test_criterion_4_curvature_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2)
    # flatness of the zero-bracket metric, polar-frame terms included
    zb = builtin_bracket("zero")
    x = rng.uniform(-0.8, 0.8, size=(100, M))
    r = rng.uniform(0.05, 0.7, size=(100, K))
    flat = float(np.max(np.abs(frame.frame_bundle(zb, PROFILE, x, r).Riem)))
    # curvature symmetries and first Bianchi, relative
    x = rng.uniform(-0.45, 0.45, size=(20, M))
    r = rng.uniform(0.2, 0.5, size=(20, K))
    R = frame.frame_bundle(BRACKETS["cross1"], PROFILE, x, r).Riem
    scale = float(np.max(np.abs(R)))
    sym = max(
        float(np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4)))),
        float(np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3)))),
        float(np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2)))),
        float(np.max(np.abs(R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)))),
    ) / scale
    # frame vs coordinate oracle on the invariant scalars at 20 points
    tau_f, ric2_f, riem2_f = frame.curvature_scalars(BRACKETS["cross1"], PROFILE, x, r)
    th = rng.uniform(0, 2 * np.pi, size=(20, K))
    pts = np.concatenate([x, polar_to_cartesian(r, th)], axis=1)
    inv = scalar_invariants_fd(make_metric_fn(BRACKETS["cross1"], PROFILE), pts, default_scheme(PROFILE))
    rel = max(
        float(np.max(np.abs(tau_f - inv.tau) / np.abs(inv.tau))),
        float(np.max(np.abs(ric2_f - inv.ric_sq) / np.abs(inv.ric_sq))),
        float(np.max(np.abs(riem2_f - inv.riem_sq) / np.abs(inv.riem_sq))),
    )
    conf = validate_known()
    elapsed = time.time() - t0
    ok = flat <= 1e-9 and sym <= 1e-9 and rel <= 1e-4 and conf.max_abs_err <= 1e-5 and elapsed < 60.0
    report(4, ok,
           f"flatness {flat:.1e} <= 1e-9, symmetries {sym:.1e} <= 1e-9, "
           f"frame-vs-oracle {rel:.1e} <= 1e-4, conformal self-test {conf.max_abs_err:.1e} <= 1e-5, "
           f"{elapsed:.1f}s")


def test_criterion_5_scaling_laws():
    t0 = time.time()
    b = BRACKETS["cross1"]
    rng = np.random.default_rng(3)
    probe_x = np.array([0.31, -0.22, 0.17, 0.08, -0.12, 0.27])
    probe_r = np.array([0.17, 0.21, 0.12])
    s_list = [1.0, 1.3, 1.7, 2.2, 2.9]

    def fam(indexer):
        def f(s, x, r):
            return indexer(frame.frame_bundle(b, PROFILE.scaled(s), x[None], r[None]))
        return f

    d_xx, _ = degree_probe(fam(lambda fb: fb.c[0, MK, 1, 2]), probe_x, probe_r, s_list)
    d_rx, _ = degree_probe(fam(lambda fb: fb.c[0, MK, M + 1, 1]), probe_x, probe_r, s_list)
    d_shift, _ = degree_probe(
        fam(lambda fb: fb.dGamma[0, MK, M + 1, 1, M + 1]), probe_x, probe_r, s_list
    )
    degrees_ok = (
        abs(d_xx + 1.0) <= 1e-6 and abs(d_rx) <= 1e-6 and abs(d_shift - 1.0) <= 1e-6
    )
    # the degree-one part of Riem[that_1, rhat_2, xhat_i, rhat_2] equals the
    # closed second-derivative form (1/2) d^2 a_{i1}/dr_2^2 * r_1
    #   = (phi_2 + 2 r_2^2 phi_22) <[x, e_i], Z_1> r_1
    worst = 0.0
    for _ in range(4):
        xs = rng.uniform(-0.25, 0.25, size=M)
        rs = rng.uniform(0.2, 0.45, size=K)
        for i in (1, 2):
            f_comp = fam(lambda fb, i=i: fb.Riem[0, MK, M + 1, i, M + 1])
            parts = homogeneous_parts(f_comp, xs, rs)
            ref = degree_one_reference(b, PROFILE, i, xs, rs)
            worst = max(worst, abs(parts[1] - ref) / abs(ref))
    elapsed = time.time() - t0
    ok = degrees_ok and worst <= 1e-6 and elapsed < 10.0
    report(5, ok,
           f"degrees ({d_xx:+.2e}+1, {d_rx:+.2e}, {d_shift:+.2e}-1) all <= 1e-6, "
           f"degree-1 curvature formula rel err {worst:.1e} <= 1e-6, {elapsed:.1f}s")


def test_criterion_6_a2_pipeline(a2_results):
    t0 = time.time()
    # nonvanishing at 5 sigma for each of the three isophasal metrics
    ratios = {name: abs(res.value) / res.std_error for name, res in a2_results.items()}
    nonzero_ok = all(ratio > 5.0 for ratio in ratios.values())
    # pairwise equality within 3 combined standard errors: the library's one pair test
    pairs = [heat.isophasal_consistency(a2_results[NAMES[i]], a2_results[NAMES[j]])
             for i in range(3) for j in range(i + 1, 3)]
    pair_ok = all(rep.consistent for rep in pairs)
    pair_sigmas = [rep.within for rep in pairs]
    # regression anchor from the first full-size computation
    res1 = a2_results["cross1"]
    anchor_ok = abs(res1.value - A2_ANCHOR) <= 1e-9 + 3.0 * res1.std_error
    # 50 shared interior nodes: frame integrand vs coordinate oracle
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.4, 0.4, size=(50, M))
    r = rng.uniform(0.2, 0.5, size=(50, K))
    th = rng.uniform(0, 2 * np.pi, size=(50, K))
    vals = frame.a2_integrand(BRACKETS["cross1"], PROFILE, x, r)
    pts = np.concatenate([x, polar_to_cartesian(r, th)], axis=1)
    orc = scalar_invariants_fd(make_metric_fn(BRACKETS["cross1"], PROFILE), pts,
                               default_scheme(PROFILE)).a2_integrand
    node_rel = float(np.max(np.abs(vals - orc) / np.abs(orc)))
    elapsed = sum(res.wall_time for res in a2_results.values()) + (time.time() - t0)
    ok = nonzero_ok and pair_ok and anchor_ok and node_rel <= 1e-4 and elapsed < 600.0
    report(6, ok,
           f"a2 = {res1.value:.5e} +- {res1.std_error:.1e} "
           f"(min |a2|/sigma {min(ratios.values()):.0f} > 5), pairwise within "
           f"{max(pair_sigmas):.2f} sigma <= 3, anchor ok, 50-node oracle check {node_rel:.1e}, "
           f"{elapsed:.0f}s")


def test_criterion_7_s_sweep():
    t0 = time.time()
    res = heat.sweep_s(BRACKETS["cross1"], PROFILE, [1.0, 2.0, 4.0, 8.0, 16.0], FULL_SPEC)
    elapsed = time.time() - t0
    c2, sig = res.leading_coefficient, res.leading_sigma
    ok = (
        res.rel_residual < 0.05
        and c2 > 0.0
        and c2 > 3.0 * sig
        and res.exponents[0] == 2 - 2 * K
        and elapsed < 1800.0
    )
    report(7, ok,
           f"fit residual {res.rel_residual:.1e} < 5%, leading exponent {res.exponents[0]}, "
           f"c2 = {c2:.4e} +- {sig:.1e} ({c2 / sig:.1f} sigma > 3), {elapsed:.0f}s")


def test_criterion_8_intertwining():
    t0 = time.time()
    profile = CutoffProfile(r1sq=1.0, r2sq=1.0, amplitude=2.5)
    fns = intertwine.default_test_functions(M, K, profile)  # 8 functions, |Z|inf <= 2
    pts = intertwine.default_points(M, K, profile, n_points=40, seed=5)
    worst_good = 0.0
    tails = 0.0
    for other in ("cross2", "quaternion"):
        rep = intertwine.intertwine_residual(BRACKETS["cross1"], BRACKETS[other], profile, fns, pts)
        worst_good = max(worst_good, rep.max_residual)
        tails = max(tails, rep.truncation_tail)
    # negative control: spectrally mismatched bracket must fail detectably
    lam = BRACKETS["cross2"].tensor.copy()
    lam[0] *= 4.0
    control = intertwine.intertwine_residual(
        BRACKETS["cross1"], Bracket(lam), profile, fns, pts, strict=False
    )
    elapsed = time.time() - t0
    ok = worst_good <= 1e-4 and control.max_residual > 1e-1 and elapsed < 300.0
    report(8, ok,
           f"isospectral pairs residual {worst_good:.1e} <= 1e-4 (tail {tails:.0e}), "
           f"negative control {control.max_residual:.2e} > 1e-1, {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path, monkeypatch, opened_pools):
    # more nodes than one pool task, on two cores: the two-worker leg really forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "quadrature.nodes = 8192\nquadrature.replicates = 3\n"
        "intertwine.n_points = 4\nintertwine.n_functions = 2\nbracket2.builtin = cross2\n"
    )
    artifacts = ("a2.jsonl", "sweep.jsonl", "sweep.csv", "intertwine.jsonl", "brackets.jsonl")
    for d, threads in (("o1", "1"), ("o2", "2")):
        monkeypatch.setenv("ISOPHASAL_THREADS", threads)
        for cmd in ("brackets", "a2", "sweep", "intertwine"):
            cli_main([cmd, "--config", str(cfg), "--out", str(tmp_path / d)])
        if d == "o1":
            assert opened_pools == []
    assert opened_pools == [2] * 7  # two a2 integrations (bracket, bracket2), five sweep scales
    identical = all(
        (tmp_path / "o1" / art).read_bytes() == (tmp_path / "o2" / art).read_bytes()
        for art in artifacts
    )
    report(9, identical,
           "byte-identical artifacts across repeated runs and worker counts "
           f"({len(artifacts)} files)")
