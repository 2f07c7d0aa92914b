import ctypes
import dataclasses
import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import isophasal
from isophasal.brackets import Bracket, builtin_bracket
from isophasal.metric import CutoffProfile
from isophasal import frame, heat
from isophasal.heat import (
    DegenerateNodesError,
    FitIllConditionedError,
    QuadratureSpec,
    ThetaDependenceError,
    WorkerCountError,
    fit_sweep,
    integrate_a2,
    isophasal_consistency,
    preflight_theta_invariance,
    resolve_workers,
    sweep_exponents,
    sweep_s,
)

SMALL = QuadratureSpec(n_nodes=4096, n_replicates=3, seed=0, preflight=False)


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    """Every integration here runs in process unless a test asks for more workers."""
    monkeypatch.setenv("ISOPHASAL_THREADS", "1")


def _two_core_runs(monkeypatch, bracket, profile, spec):
    """integrate_a2 at ISOPHASAL_THREADS=1, then =2 on two available cores."""
    monkeypatch.setattr(heat.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ISOPHASAL_THREADS", threads)
        results.append(integrate_a2(bracket, profile, spec))
    return results


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_nodes=0)
    with pytest.raises(ValueError):
        QuadratureSpec(n_nodes=10, n_replicates=1)


def test_spec_rejects_negative_seed():
    # refused at construction, before any preflight or sampling could run
    with pytest.raises(ValueError, match="seed"):
        QuadratureSpec(n_nodes=64, n_replicates=2, seed=-1, preflight=False)
    assert QuadratureSpec(n_nodes=64, n_replicates=2, seed=0, preflight=False).seed == 0


def test_spec_rejects_more_nodes_than_sobol_holds():
    # refused at construction; nothing is sampled
    with pytest.raises(ValueError, match=r"2\*\*30"):
        QuadratureSpec(n_nodes=2**30 + 1)
    assert QuadratureSpec(n_nodes=2**30).n_nodes == 2**30


def test_integrate_a2_rejects_too_many_dimensions(monkeypatch):
    def preflight(bracket, profile):
        raise AssertionError("preflight ran before the dimension check")

    monkeypatch.setattr(heat, "preflight_theta_invariance", preflight)
    wide = Bracket(np.zeros((1, 32, 32)))  # m + k = 33
    with pytest.raises(ValueError, match="at most 32 dimensions"):
        integrate_a2(wide, CutoffProfile(1.0, 1.0, 1.0), QuadratureSpec(n_nodes=64, n_replicates=2))


def _scipy_sobol(seed, replicate, dim, n):
    from scipy.stats import qmc

    return qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng([seed, replicate])).random(n)


def _assert_same_stream(seed, replicate, dim, n):
    ours = heat._sample_box(QuadratureSpec(n_nodes=n, seed=seed), replicate, dim)
    theirs = _scipy_sobol(seed, replicate, dim, n)
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert np.array_equal(ours, theirs), (seed, replicate, dim, n)


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol' points")
@pytest.mark.parametrize("dim", range(1, 33))
def test_sample_box_matches_scipy_every_dimension(dim):
    for n in (1, 2, 3, 5, 64, 100):
        _assert_same_stream(7, 11, dim, n)


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol' points")
@pytest.mark.parametrize("dim", [7, 9, 11])
@pytest.mark.parametrize("seed, replicate", [(0, 0), (7, 11), (3, 5)])
def test_sample_box_matches_scipy_large(seed, replicate, dim):
    for n in (1, 2, 3, 2048, 4097, 32768):
        _assert_same_stream(seed, replicate, dim, n)


def test_sample_box_pinned_nodes():
    # holds the stream fixed even if scipy's own Sobol' changes
    expected = [
        ["0x1.4d04bf9p-1", "0x1.d5a9ad7p-1", "0x1.9b783fp-4", "0x1.dd5a85ep-1", "0x1.6c75efbp-1",
         "0x1.a51cbf8p-3", "0x1.a58f0d3p-1", "0x1.891cc1cp-1", "0x1.778690ep-1"],
        ["0x1.b0e9f78p-2", "0x1.69330afp-2", "0x1.06cd7458p-1", "0x1.478ea7cp-3", "0x1.878396p-4",
         "0x1.8d11e37p-1", "0x1.5f70c89p-2", "0x1.8d5b543p-2", "0x1.b9beed2p-2"],
        ["0x1.9cde894p-3", "0x1.510c49fp-1", "0x1.86c9e82p-2", "0x1.6f3d1cep-1", "0x1.631f5b1p-2",
         "0x1.6c56216p-1", "0x1.18a831e8p-1", "0x1.52d1a2p-5", "0x1.3a7e9f8p-4"],
    ]
    nodes = heat._sample_box(QuadratureSpec(n_nodes=3, seed=7), 0, 9)
    assert nodes.tolist() == [[float.fromhex(h) for h in row] for row in expected]


@pytest.mark.parametrize("seed", [0, 7, 3])
def test_slices_match_sample_box(seed):
    # three slices, the last one short: each drawn alone from the replicate's scramble
    spec = QuadratureSpec(n_nodes=2 * heat._TASK_CHUNK + 1808, seed=seed)
    for replicate in (0, 1, 11):
        whole = heat._sample_box(spec, replicate, 9)
        shift, directions = heat._scramble(spec, replicate, 9)
        for lo in range(0, spec.n_nodes, heat._TASK_CHUNK):
            hi = min(lo + heat._TASK_CHUNK, spec.n_nodes)
            assert np.array_equal(heat._fill_nodes(shift, directions, lo, hi), whole[lo:hi]), (replicate, lo)


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(isophasal.__file__).resolve().parents[1])
    code = "import isophasal.cli, sys; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    # no module of the package imports scipy at run time
    src = str(Path(isophasal.__file__).resolve().parents[1])
    code = "import isophasal.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_heat_and_intertwine_import_leaves_coord_unloaded():
    # the finite-difference oracle is for validation; the run paths read the metric from metric
    src = str(Path(isophasal.__file__).resolve().parents[1])
    code = "import isophasal.heat, isophasal.intertwine, sys; print('isophasal.coord' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_zero_bracket_integral(zero_bracket, reference_profile):
    res = integrate_a2(zero_bracket, reference_profile, SMALL)
    assert abs(res.value) < 1e-22
    assert res.std_error < 1e-22


def test_vanishing_cutoff_integral(cross1):
    prof = CutoffProfile(1.0, 1.0, amplitude=0.0)
    res = integrate_a2(cross1, prof, SMALL)
    assert res.value == 0.0


def test_seed_determinism(cross1, reference_profile):
    r1 = integrate_a2(cross1, reference_profile, SMALL)
    r2 = integrate_a2(cross1, reference_profile, SMALL)
    assert r1.value == r2.value
    assert r1.replicate_values == r2.replicate_values
    r3 = integrate_a2(cross1, reference_profile, dataclasses.replace(SMALL, seed=99))
    assert r3.value != r1.value  # different seed shifts the estimate


def _same_result(r1, r2):
    assert r1.value == r2.value
    assert r1.replicate_values == r2.replicate_values
    assert r1.std_error == r2.std_error
    assert r1.inside_fraction == r2.inside_fraction
    assert r1.replicate_inside_fractions == r2.replicate_inside_fractions


def test_worker_count_invariance(cross1, reference_profile, monkeypatch, opened_pools):
    # three slices per replicate, the last one short, in process and on the pool alike
    spec = dataclasses.replace(SMALL, n_nodes=2 * heat._TASK_CHUNK + 1808)
    sizes = []
    admitted_density = frame._admitted_density

    def spy(bracket, profile, x, r):
        sizes.append(x.shape[0])
        return admitted_density(bracket, profile, x, r)

    monkeypatch.setattr(frame, "_admitted_density", spy)
    r1, r2 = _two_core_runs(monkeypatch, cross1, reference_profile, spec)
    assert opened_pools == [2]
    # pool workers append to their own copies, so sizes holds the one-worker leg's calls
    assert sizes == [heat._TASK_CHUNK, heat._TASK_CHUNK, 1808] * spec.n_replicates
    _same_result(r1, r2)


SCALES = [1.0, 2.0, 4.0, 8.0, 16.0]


def test_sweep_runs_one_stream_on_one_pool(cross1, reference_profile, monkeypatch, opened_pools):
    spec = dataclasses.replace(SMALL, n_nodes=2 * heat._TASK_CHUNK + 1808)
    separate = [integrate_a2(cross1, reference_profile.scaled(s), spec) for s in SCALES]
    monkeypatch.setattr(heat.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sweeps = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ISOPHASAL_THREADS", threads)
        sweeps.append(sweep_s(cross1, reference_profile, SCALES, spec))
    assert opened_pools == [2]  # one pool for all five scales
    for res in sweeps:
        assert res.a2_values == tuple(r.value for r in separate)
        assert res.std_errors == tuple(r.std_error for r in separate)
    assert sweeps[0] == sweeps[1]
    assert multiprocessing.active_children() == []


def test_sweep_error_cancels_the_stream(cross1, reference_profile, monkeypatch, opened_pools, tmp_path):
    # 24 slice tasks per scale; the engine fails on every slice of the third scale
    spec = dataclasses.replace(SMALL, n_nodes=2 * heat._TASK_CHUNK + 1808, n_replicates=8)
    log = tmp_path / "calls"
    admitted_density = frame._admitted_density

    def spy(bracket, profile, x, r):
        if profile.s == 4.0:
            raise RuntimeError("engine failed at s = 4")
        with open(log, "a") as fh:  # the workers' calls, one line each
            fh.write(f"{profile.s}\n")
        if profile.s > 4.0:
            time.sleep(0.1)
        return admitted_density(bracket, profile, x, r)

    monkeypatch.setattr(frame, "_admitted_density", spy)
    monkeypatch.setattr(heat.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("ISOPHASAL_THREADS", "2")
    with pytest.raises(RuntimeError, match="s = 4"):
        sweep_s(cross1, reference_profile, SCALES, spec)
    assert opened_pools == [2]
    calls = [float(line) for line in log.read_text().split()]
    assert calls.count(1.0) == calls.count(2.0) == 24
    # the queued tasks of the last two scales (48) were cancelled: only the
    # batches already handed to the workers ran (CPython 3.11: 2 running and
    # 3 queued, 5 * 4 = 20 slices at 0.1 s each)
    assert len(calls) - 48 < 24
    assert multiprocessing.active_children() == []


def _support_points(profile, n, seed=0):
    """n uniform box nodes that integrate_a2 would hand to the engine (inside the support)."""
    rng = np.random.default_rng(seed)
    box = rng.uniform(size=(40 * n, 9))
    x = (2.0 * box[:, :6] - 1.0) * profile.x_radius
    r = box[:, 6:] * profile.u_radius
    keep = frame._usable_nodes(profile, x, r)
    assert np.count_nonzero(keep) >= n
    return x[keep][:n], r[keep][:n]


def _engine_minor_faults(args):
    """Minor page faults of three engine passes over the points after two warm-up passes.

    The pass after the first warm-up still faults in part of the heap (up to
    a few hundred pages, more when the parent's heap was fragmented); after
    the second the heap has settled.
    """
    tensor, profile, x, r = args
    bracket = Bracket(tensor)
    for _ in range(2):
        frame.curvature_scalars(bracket, profile, x, r)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        frame.curvature_scalars(bracket, profile, x, r)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="worker allocator policy is glibc only")
def test_pool_workers_reuse_their_heap(cross1, reference_profile):
    # the worker policy reuses the heap.  When the engine's batch arrays were
    # separate, glibc's default dynamic thresholds handed each batch back to the
    # OS, about 6 faults per point and pass; with one workspace per batch the
    # default stays near 10 faults for these 3 passes too, so this bound no
    # longer tells the policy apart
    x, r = _support_points(reference_profile, 1000)
    with heat._node_pool(10 * heat._TASK_CHUNK, 2) as pool:
        faults = pool.submit(_engine_minor_faults, (cross1.tensor, reference_profile, x, r)).result()
    assert faults < x.shape[0], faults


class _RejectingLibc:
    """Stands in for libc: mallopt rejects every setting."""

    def __init__(self, name):
        self.mallopt = lambda param, value: 0


def _unloadable_libc(name):
    raise OSError(f"cannot load {name}")


@pytest.mark.parametrize("libc", [_unloadable_libc, _RejectingLibc], ids=["no_library", "mallopt_rejects"])
def test_pool_without_allocator_policy(cross1, reference_profile, monkeypatch, opened_pools, libc):
    monkeypatch.setattr(ctypes, "CDLL", libc)  # inherited by the forked workers
    assert heat._worker_malloc_policy() is None  # returns instead of raising
    spec = dataclasses.replace(SMALL, n_nodes=2 * heat._TASK_CHUNK)
    r1, r2 = _two_core_runs(monkeypatch, cross1, reference_profile, spec)
    assert opened_pools == [2]
    _same_result(r1, r2)
    assert multiprocessing.active_children() == []


def test_resolve_workers(monkeypatch):
    # only counts are computed here; no pool is started
    monkeypatch.setattr(heat.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.delenv("ISOPHASAL_THREADS", raising=False)
    assert resolve_workers() == 3
    for env, want in (("", 3), ("1", 1), ("2", 2), (" 3 ", 3), ("4", 3), ("1000000", 3)):
        monkeypatch.setenv("ISOPHASAL_THREADS", env)
        assert resolve_workers() == want


@pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5", "2x"])
def test_resolve_workers_rejects_bad_env(monkeypatch, env):
    monkeypatch.setenv("ISOPHASAL_THREADS", env)
    with pytest.raises(WorkerCountError, match="ISOPHASAL_THREADS"):
        resolve_workers()


def test_inside_fraction_matches_volume(cross1, reference_profile):
    res = integrate_a2(cross1, reference_profile, dataclasses.replace(SMALL, n_nodes=16384))
    m, k = 6, 3
    ball_m = math.pi ** (m / 2) / math.gamma(m / 2 + 1) / 2**m
    ball_k = (math.pi ** (k / 2) / math.gamma(k / 2 + 1)) / 2**k  # positive orthant of the r-ball
    expected = ball_m * ball_k
    assert abs(res.inside_fraction - expected) / expected < 0.05
    assert len(res.replicate_inside_fractions) == SMALL.n_replicates
    assert res.inside_fraction == float(np.mean(res.replicate_inside_fractions))
    assert all(abs(f - expected) / expected < 0.1 for f in res.replicate_inside_fractions)


def test_preflight_deviation_kept(cross1, reference_profile):
    assert integrate_a2(cross1, reference_profile, SMALL).preflight_deviation is None
    res = integrate_a2(cross1, reference_profile, dataclasses.replace(SMALL, preflight=True))
    assert res.preflight_deviation == preflight_theta_invariance(cross1, reference_profile)


def test_stderr_decreases_with_doubling(cross1, reference_profile):
    # replicate-spread estimates need enough replicates to be stable; with 12
    # the decrease is monotone over four doublings
    errs = []
    for nodes in (1024, 2048, 4096, 8192, 16384):
        spec = dataclasses.replace(SMALL, n_nodes=nodes, n_replicates=12)
        errs.append(integrate_a2(cross1, reference_profile, spec).std_error)
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    assert errs[0] / errs[-1] > 3.0  # at least the Monte Carlo rate over 16x nodes


def test_isophasal_consistency_pairs(cross1, cross2, quaternion, reference_profile):
    r1, r2, r3 = (integrate_a2(b, reference_profile, SMALL) for b in (cross1, cross2, quaternion))
    rep = isophasal_consistency(r1, r2)
    assert rep.consistent
    # shared seed, shared nodes: the two cross metrics agree node for node
    # (their integrands coincide pointwise up to rounding)
    assert abs(rep.difference) <= 1e-14 * abs(r1.value)
    rep13 = isophasal_consistency(r1, r3)
    assert rep13.consistent
    assert rep13.difference == r1.value - r3.value
    assert rep13.combined_error == math.hypot(r1.std_error, r3.std_error)
    assert rep13.within == abs(rep13.difference) / rep13.combined_error


def test_isophasal_consistency_three_sigma_bound(cross1, reference_profile):
    base = integrate_a2(cross1, reference_profile, SMALL)

    def shifted(sigmas, std_error=base.std_error):
        comb = math.hypot(base.std_error, std_error)
        return dataclasses.replace(base, value=base.value + sigmas * comb, std_error=std_error)

    assert isophasal_consistency(base, shifted(2.9)).consistent
    assert not isophasal_consistency(base, shifted(3.1)).consistent
    assert isophasal_consistency(shifted(-3.1), base).within == pytest.approx(3.1)
    # no spread in either result: only exact equality is consistent
    exact = dataclasses.replace(base, std_error=0.0)
    assert isophasal_consistency(exact, exact).within == 0.0
    off = isophasal_consistency(exact, dataclasses.replace(exact, value=2.0 * exact.value))
    assert off.within == math.inf and not off.consistent


def test_preflight_passes(cross1, cross2, quaternion, reference_profile):
    assert heat.THETA_EQUIVARIANCE_TOL <= 1e-12
    for bracket in (cross1, cross2, quaternion):
        for s in (1.0, 16.0):
            worst = preflight_theta_invariance(bracket, reference_profile.scaled(s))
            assert worst < heat.THETA_EQUIVARIANCE_TOL


def _break_metric(monkeypatch, defect, when=lambda bracket, profile: True):
    """Patch heat.metric_at so that metrics selected by `when` lose torus invariance."""
    orig = heat.metric_at

    def broken(bracket, profile, x, u):
        G = orig(bracket, profile, x, u)
        if when(bracket, profile):
            defect(G, np.concatenate([x, u], axis=1))
        return G

    monkeypatch.setattr(heat, "metric_at", broken)


def _diagonal_defect(G, pts):
    G[:, 0, 0] += 0.05 * pts[:, 6] ** 2


def _coupling_defect(G, pts):
    # small angle-dependent entry of the (x, u) block, kept symmetric
    G[:, 0, 6] += 1e-6 * pts[:, 7]
    G[:, 6, 0] += 1e-6 * pts[:, 7]


@pytest.mark.parametrize("defect", [_diagonal_defect, _coupling_defect], ids=["diagonal", "coupling"])
def test_preflight_detects_theta_dependence(cross1, reference_profile, monkeypatch, defect):
    _break_metric(monkeypatch, defect)
    with pytest.raises(ThetaDependenceError) as err:
        preflight_theta_invariance(cross1, reference_profile)
    assert err.value.worst > err.value.tol


def test_consistency_certifies_second_bracket(cross2, reference_profile, monkeypatch, tmp_path):
    # the CLI pair certifies each metric it integrates, bracket2's included
    from isophasal.cli import main

    _break_metric(monkeypatch, _coupling_defect, when=lambda bracket, profile: bracket == cross2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bracket2.builtin = cross2\nquadrature.nodes = 2048\nquadrature.replicates = 2\n")
    with pytest.raises(ThetaDependenceError):
        main(["a2", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_sweep_certifies_each_scale(cross1, reference_profile, monkeypatch):
    _break_metric(monkeypatch, _coupling_defect, when=lambda bracket, profile: profile.s == 16.0)
    spec = dataclasses.replace(SMALL, n_nodes=2048, preflight=True)
    with pytest.raises(ThetaDependenceError):
        sweep_s(cross1, reference_profile, [1.0, 2.0, 4.0, 8.0, 16.0], spec)


def test_degenerate_nodes_error(cross1, reference_profile):
    # only ~4% of box nodes land on the support: a tiny node budget misses it
    # entirely (seed frozen) and must fail loudly instead of reporting zero
    spec = QuadratureSpec(n_nodes=4, n_replicates=2, seed=0, preflight=False)
    with pytest.raises(DegenerateNodesError):
        integrate_a2(cross1, reference_profile, spec)


# --- sweep fitting -----------------------------------------------------------

def test_sweep_exponents():
    assert sweep_exponents(3) == (-4, -5, -6, -7, -8)
    assert sweep_exponents(2) == (-2, -3, -4, -5, -6)


def test_fit_sweep_recovers_synthetic():
    k = 3
    s = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    coefs_true = {2: 7.5e-8, 1: 0.0, 0: 6.0e-8, -1: -1.0e-9, -2: 5.5e-8}
    y = sum(c * s ** (d - 2 * k) for d, c in coefs_true.items())
    sig = np.full(5, 1e-13)
    res = fit_sweep(s, y, sig, k)
    assert res.leading_coefficient == pytest.approx(7.5e-8, rel=1e-6)
    assert res.rel_residual < 1e-10
    assert res.leading_positive


def test_fit_sweep_uncertainty_from_noise():
    rng = np.random.default_rng(3)
    k = 3
    s = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 6.0, 12.0])
    y = 5e-8 * s**-4.0 + 2e-8 * s**-6.0
    sig = 0.01 * np.abs(y)
    trials = [
        fit_sweep(s, y + rng.normal(size=8) * sig, sig, k).leading_coefficient
        for _ in range(120)
    ]
    claimed = fit_sweep(s, y, sig, k).leading_sigma
    assert np.std(trials) == pytest.approx(claimed, rel=0.35)


def test_fit_sweep_ill_conditioned():
    s = [1.0, 1.0 + 1e-13, 1.0 + 2e-13, 1.0 + 3e-13, 4.0]
    y = [1.0, 1.0, 1.0, 1.0, 0.1]
    with pytest.raises(FitIllConditionedError):
        fit_sweep(s, y, [1e-3] * 5, 3)


def test_sweep_s_validation(cross1, reference_profile):
    for s_list in (
        [1.0, 2.0, 3.0, 4.0],  # span < 4x and only 4 values
        [1.0, 1.1, 1.2, 1.3, 1.4],  # span < 4x
        [1.0, 2.0, 3.0],
        [1.0, 2.0, math.nan, 8.0, 16.0],
        [0.0, 1.0, 2.0, 4.0, 8.0],  # a zero scale used to divide by zero
        [-1.0, 1.0, 2.0, 4.0, 8.0],
        [1.0, 2.0, 4.0, 8.0, math.inf],
    ):
        with pytest.raises(ValueError, match="scale values"):
            sweep_s(cross1, reference_profile, s_list, SMALL)


def test_sweep_s_small_run(cross1, reference_profile):
    spec = dataclasses.replace(SMALL, n_nodes=2048)
    res = sweep_s(cross1, reference_profile, [1.0, 2.0, 4.0, 8.0, 16.0], spec)
    assert res.exponents[0] == -4
    assert res.leading_positive
    assert res.rel_residual < 1e-8  # exactly determined system
    assert res.preflight_deviations == (None,) * 5
    # scaling sanity: s^4 a2(s) approaches the leading coefficient
    tail = res.a2_values[-1] * res.s_values[-1] ** 4
    assert tail == pytest.approx(res.leading_coefficient, rel=0.05)
