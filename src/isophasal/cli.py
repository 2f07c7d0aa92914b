"""Command-line front end.

    isophasal <command> [--config PATH] [--nodes N] [--replicates R]
              [--seed S] [--s-list 1,2,4,8,16] [--out DIR]

Commands:
    brackets    isospectrality / centralizer / fingerprint report for the
                configured pair, or for the built-in triple when no second
                bracket is configured
    a2          second heat-trace coefficient of the configured metric; with
                bracket2 also of the second metric under the same nodes, plus
                the pair test (isospectral, and a2 equal within 3 sigma)
    sweep       a2 across the scale list plus the exponent-ladder fit (CSV)
    intertwine  Laplacian intertwining residual of bracket against bracket2;
                without bracket2 it exits 2
    validate    oracle self-tests, the engine's closed forms against the
                finite-difference oracle and the dense Koszul path, and the
                torus equivariance of the metric

Artifacts are JSON lines (one record per result, sorted keys, no volatile
fields) plus a CSV for the sweep table, so repeated runs with the same
config and seed are byte-identical.  Every record embeds the config hash and
seed.  Exit status: 0 on success; 1 when an asserted tolerance fails, and
when intertwine finds bracket and bracket2 not isospectral (no artifact); 2 on
configuration errors (a bad scale list among them; every config error names
its key, and its line when it came from the file), on brackets whose m + k
exceeds the 32 dimensions of the Sobol' sampler, and on an a2 or sweep whose
quadrature nodes all miss the support.  Errors print one line to stderr.
ISOPHASAL_THREADS sets the worker count (default: the available cores, which
also cap it); it must be a positive integer, anything else exits with
status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import coord, frame, heat, intertwine
from .brackets import (
    BUILTIN_BRACKETS,
    SpectraMismatchError,
    builtin_bracket,
    centralizer_dim,
    check_isospectral,
    equivalence_invariants,
)
from .config import ConfigError, RunConfig, load_config
from .metric import metric_at

__all__ = ["main"]


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _stamp(cfg: RunConfig, rec: dict) -> dict:
    rec["config_hash"] = cfg.config_hash
    rec["seed"] = cfg.quadrature().seed
    return rec


def _cmd_brackets(cfg: RunConfig) -> int:
    b2 = cfg.second_bracket()
    if b2 is not None:
        named = [("bracket", cfg.bracket()), ("bracket2", b2)]
    else:
        named = [(name, builtin_bracket(name)) for name in BUILTIN_BRACKETS]
    records = []
    ok = True
    for name, b in named:
        dim = centralizer_dim(b)
        records.append(_stamp(cfg, {"kind": "bracket", "name": name, "m": b.m, "k": b.k,
                                    "centralizer_dim": dim}))
        print(f"{name}: m={b.m} k={b.k} centralizer_dim={dim}")
    fps = {name: equivalence_invariants(b) for name, b in named}
    for i in range(len(named)):
        for j in range(i + 1, len(named)):
            n1, b1 = named[i]
            n2, b2_ = named[j]
            rep = check_isospectral(b1, b2_, seed=cfg.quadrature().seed)
            fp_equal = bool(np.allclose(fps[n1], fps[n2], atol=1e-9))
            records.append(_stamp(cfg, {
                "kind": "pair", "pair": [n1, n2],
                "isospectral": rep.isospectral,
                "max_spectral_deviation": rep.max_deviation,
                "fingerprints_equal": fp_equal,
            }))
            verdict = "isospectral" if rep.isospectral else "NOT isospectral"
            distinct = "distinct invariants" if not fp_equal else "invariants agree"
            print(f"{n1} vs {n2}: {verdict} (max dev {rep.max_deviation:.2e}), {distinct}")
            ok = ok and rep.isospectral
    _write_jsonl(cfg.out_dir / "brackets.jsonl", records)
    return 0 if ok else 1


def _a2_record(cfg: RunConfig, res: heat.QuadratureResult) -> dict:
    """The a2.jsonl record of one integration under cfg's cutoff profile."""
    return _stamp(cfg, {
        "s": cfg.cutoff().s, "a2": res.value, "stderr": res.std_error,
        "n_nodes": res.n_nodes,
        "inside_fraction": res.inside_fraction,
        "inside_fractions": list(res.replicate_inside_fractions),
        "preflight_deviation": res.preflight_deviation,
    })


def _cmd_a2(cfg: RunConfig) -> int:
    b1, b2 = cfg.bracket(), cfg.second_bracket()
    named = [("bracket", b1)] if b2 is None else [("bracket", b1), ("bracket2", b2)]
    results, records = [], []
    for name, b in named:
        res = heat.integrate_a2(b, cfg.cutoff(), cfg.quadrature())
        results.append(res)
        records.append(_a2_record(cfg, res) if b2 is None else {**_a2_record(cfg, res), "bracket": name})
        print(f"{name}: a2 = {res.value:.6e} +- {res.std_error:.2e} "
              f"({res.n_nodes} nodes x {res.n_replicates} replicates, {res.wall_time:.1f}s)")
    ok = True
    if b2 is not None:
        rep = heat.isophasal_consistency(*results)
        isospectral = check_isospectral(b1, b2, seed=cfg.quadrature().seed).isospectral
        records.append(_stamp(cfg, {"kind": "pair", "pair": ["bracket", "bracket2"],
                                    "isospectral": isospectral, **dataclasses.asdict(rep)}))
        print(f"bracket vs bracket2: {'isospectral' if isospectral else 'NOT isospectral'}, "
              f"a2 difference {rep.difference:.2e} = {rep.within:.2f} sigma "
              f"({'consistent' if rep.consistent else 'NOT consistent'} at 3 sigma)")
        ok = isospectral and rep.consistent
    _write_jsonl(cfg.out_dir / "a2.jsonl", records)
    return 0 if ok else 1


def _cmd_sweep(cfg: RunConfig) -> int:
    b = cfg.bracket()
    profile = cfg.cutoff()
    spec = cfg.quadrature()
    res = heat.sweep_s(b, profile, cfg.s_list, spec)
    csv_path = cfg.out_dir / "sweep.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w") as fh:
        fh.write("s,a2,stderr\n")
        for s, a2, err in zip(res.s_values, res.a2_values, res.std_errors):
            fh.write(f"{s!r},{a2!r},{err!r}\n")
    rec = _stamp(cfg, {
        "exponents": list(res.exponents),
        "coefficients": list(res.coefficients),
        "coeff_sigmas": list(res.coeff_sigmas),
        "rel_residual": res.rel_residual,
        "leading_coefficient": res.leading_coefficient,
        "leading_sigma": res.leading_sigma,
        "condition": res.condition,
        "preflight_deviations": list(res.preflight_deviations),
    })
    _write_jsonl(cfg.out_dir / "sweep.jsonl", [rec])
    print(f"fit over s^{list(res.exponents)}: leading coefficient "
          f"{res.leading_coefficient:.4e} +- {res.leading_sigma:.1e}, "
          f"rel residual {res.rel_residual:.2e}, design condition {res.condition:.1e}")
    sign_ok = res.leading_positive and res.leading_coefficient > 3.0 * res.leading_sigma
    return 0 if sign_ok else 1


def _cmd_intertwine(cfg: RunConfig) -> int:
    b1 = cfg.bracket()
    b2 = cfg.second_bracket()
    if b2 is None:
        raise ConfigError("intertwine compares bracket with a second bracket: set bracket2.builtin or bracket2.file",
                          field="bracket2")
    profile = cfg.cutoff()
    fns = intertwine.default_test_functions(b1.m, b1.k, profile)[: cfg.n_functions]
    pts = intertwine.default_points(b1.m, b1.k, profile, n_points=cfg.n_points, seed=cfg.quadrature().seed)
    rep = intertwine.intertwine_residual(b1, b2, profile, fns, pts)
    rec = _stamp(cfg, {
        "pair": ["bracket", "bracket2"], "N": rep.band_limit, "n_points": rep.n_points,
        "max_residual": rep.max_residual, "truncation_tail": rep.truncation_tail,
        "residual_conj": rep.residual_conj, "residual_orth": rep.residual_orth,
        "n_conjugators": rep.n_conjugators,
    })
    _write_jsonl(cfg.out_dir / "intertwine.jsonl", [rec])
    print(f"intertwining residual {rep.max_residual:.3e} "
          f"({rep.n_functions} functions, {rep.n_points} points; truncation tail "
          f"{rep.truncation_tail:.1e} on the widest-band function; residuals of the "
          f"{rep.n_conjugators} conjugators Q used {rep.residual_conj:.1e} conj, "
          f"{rep.residual_orth:.1e} orth)")
    return 0 if rep.max_residual <= 1e-4 else 1


def _cmd_validate(cfg: RunConfig) -> int:
    """Oracle self-tests, the engine against the oracle and the Koszul path, and the metric's checks.

    The references are independent of the engine: the closed forms of
    curvature_scalars build F from its rank form, and the Koszul path of
    frame_bundle builds it by the product rule from coupling_coeffs, so the
    two share only the cutoff's value_and_derivs and the bracket tensor.
    The tests check coupling_coeffs against sympy
    (test_coupling_derivatives_match_sympy) and the whole engine against the
    finite-difference oracle.
    """
    profile = cfg.cutoff()
    b = cfg.bracket()
    rng = np.random.default_rng(cfg.quadrature().seed)
    checks: list[dict] = []

    def record(name: str, value: float, tol: float):
        ok = value <= tol
        checks.append(_stamp(cfg, {"check": name, "value": value, "tol": tol, "ok": ok}))
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (tol {tol:.0e})")

    conf = coord.validate_known()
    record("conformal_oracle_tau", conf.max_abs_err, 1e-5)
    record("conformal_sign_flip_linearity", conf.flip_linearity_err, 1e-2)

    # the zero bracket of the configured shape: its metric is flat
    xs = rng.uniform(-0.8, 0.8, size=(100, b.m)) * profile.x_radius
    rs = rng.uniform(0.1, 0.7, size=(100, b.k)) * profile.u_radius
    fb = frame.frame_bundle(b.scaled(0.0), profile, xs, rs)
    record("zero_bracket_flatness", float(np.max(np.abs(fb.Riem))), 1e-9)

    xs = rng.uniform(-1.2, 1.2, size=(1000, b.m)) * profile.x_radius
    us = rng.uniform(-1.2, 1.2, size=(1000, 2 * b.k)) * profile.u_radius
    G = metric_at(b, profile, xs, us)
    record("metric_unimodular", float(np.max(np.abs(np.linalg.det(G) - 1.0))), 1e-12)

    try:
        equivariance = heat.preflight_theta_invariance(b, profile)
    except heat.ThetaDependenceError as exc:
        equivariance = exc.worst
    record("theta_equivariance", equivariance, heat.THETA_EQUIVARIANCE_TOL)

    xs = rng.uniform(-0.45, 0.45, size=(8, b.m)) * profile.x_radius
    rs = rng.uniform(0.25, 0.5, size=(8, b.k)) * profile.u_radius
    th = rng.uniform(0, 2 * np.pi, size=(8, b.k))
    tau_f, ric2_f, riem2_f = frame.curvature_scalars(b, profile, xs, rs)
    from .metric import polar_to_cartesian

    pts = np.concatenate([xs, polar_to_cartesian(rs, th)], axis=1)
    inv = coord.scalar_invariants_fd(coord.make_metric_fn(b, profile), pts, coord.default_scheme(profile))
    rel = max(
        float(np.max(np.abs(tau_f - inv.tau) / np.maximum(np.abs(inv.tau), 1e-9))),
        float(np.max(np.abs(ric2_f - inv.ric_sq) / np.maximum(np.abs(inv.ric_sq), 1e-9))),
        float(np.max(np.abs(riem2_f - inv.riem_sq) / np.maximum(np.abs(inv.riem_sq), 1e-9))),
    )
    record("frame_vs_oracle_scalars", rel, 1e-4)

    fbb = frame.frame_bundle(b, profile, xs, rs)
    R = fbb.Riem
    # the Koszul path is the closed forms' independent reference; its float64 tau loses digits to
    # the cancelling 1/r^2 polar terms (about 1e-11 of max|tau| at s = 16)
    ric = np.einsum("nagbg->nab", R)
    koszul = (np.einsum("naa->n", ric), np.einsum("nab,nab->n", ric, ric), np.einsum("nabgd,nabgd->n", R, R))
    rel = max(float(np.max(np.abs(f - k)) / max(float(np.max(np.abs(k))), 1e-9))
              for f, k in zip((tau_f, ric2_f, riem2_f), koszul))
    record("frame_vs_koszul_scalars", rel, 1e-9)
    scale = float(np.max(np.abs(R)))
    sym = max(
        float(np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4)))),
        float(np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3)))),
        float(np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2)))),
        float(np.max(np.abs(R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)))),
    ) / max(scale, 1e-300)
    record("curvature_symmetries", sym, 1e-9)

    _write_jsonl(cfg.out_dir / "validate.jsonl", checks)
    return 0 if all(c["ok"] for c in checks) else 1


_COMMANDS = {
    "brackets": _cmd_brackets,
    "a2": _cmd_a2,
    "sweep": _cmd_sweep,
    "intertwine": _cmd_intertwine,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="isophasal", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="config file (flat key = value)")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--replicates", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--s-list", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    overrides: dict[str, str] = {}
    if args.nodes is not None:
        overrides["quadrature.nodes"] = str(args.nodes)
    if args.replicates is not None:
        overrides["quadrature.replicates"] = str(args.replicates)
    if args.seed is not None:
        overrides["quadrature.seed"] = str(args.seed)
    if args.s_list is not None:
        overrides["sweep.s_list"] = args.s_list
    if args.out is not None:
        overrides["output.dir"] = args.out

    try:
        cfg = load_config(args.config, overrides=overrides)
        return _COMMANDS[args.command](cfg)
    except SpectraMismatchError as exc:
        print(f"bracket and bracket2 are not isospectral: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, heat.WorkerCountError, heat.SamplerDimensionError, heat.DegenerateNodesError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
