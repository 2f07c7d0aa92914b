"""The three benchmark workloads: sizes, inputs, one operation each, output gates.

a2_triple   heat.integrate_a2 for cross1, cross2, quaternion at s = 1 with one
            seed and one node set; the theta preflight runs on the first call
            only.  The coordinate oracle (preflight) does most of the work and
            the frame engine the rest.  Replicates of 2048 nodes stay below the
            pool's task size, so they are evaluated in the calling process.
sweep       heat.sweep_s for cross1 over s = 1, 2, 4, 8, 16 with the preflight
            on, which ends in heat.fit_sweep.  The frame engine, fed through
            the heat process pool, does most of the work.
intertwine  brackets.check_isospectral and intertwine.intertwine_residual for
            (cross1, cross2), (cross1, quaternion) and the criterion-8 negative
            control (cross2 with its first component scaled by 4, strict=False).
            No frame engine, no coordinate oracle, no pool.

The workload seed is the quadrature seed and the intertwining point seed.
One operation is one integration, one sweep or one pair check; a gate that
fails marks its operations failed.
"""

from __future__ import annotations

import dataclasses
import math

from isophasal import brackets, heat, intertwine
from isophasal.config import load_config

NAMES = ("cross1", "cross2", "quaternion")
S_LIST = (1.0, 2.0, 4.0, 8.0, 16.0)
A2_ANCHOR = 2.20337e-07  # a2(cross1), reference profile, 1e5 QMC nodes x 8 replicates, seed 0

# Preflight sizes are passed only while QuadratureSpec still has these knobs.
FULL = {
    "a2_triple": {"nodes": 2048, "replicates": 32, "preflight_base": 4, "preflight_rotations": 32},
    "sweep": {"nodes": 32768, "replicates": 12, "preflight_base": 2, "preflight_rotations": 16},
    "intertwine": {"n_functions": 6, "n_points": 8},
}
SMOKE = {
    "a2_triple": {"nodes": 512, "replicates": 2, "preflight_base": 1, "preflight_rotations": 2},
    "sweep": {"nodes": 8192, "replicates": 2, "preflight_base": 1, "preflight_rotations": 2},
    "intertwine": {"n_functions": 2, "n_points": 1},
}


def _quadrature(seed: int, sizes: dict):
    """Config and quadrature spec built through the config layer, as the CLI builds them."""
    cfg = load_config(None, overrides={
        "quadrature.nodes": str(sizes["nodes"]),
        "quadrature.replicates": str(sizes["replicates"]),
        "quadrature.seed": str(seed),
    })
    spec = cfg.quadrature()
    fields = {f.name for f in dataclasses.fields(spec)}
    knobs = {k: v for k, v in sizes.items() if k.startswith("preflight_") and k in fields}
    return cfg, dataclasses.replace(spec, **knobs)


class A2Triple:
    operations = len(NAMES)

    def __init__(self, seed: int, sizes: dict):
        cfg, self.spec = _quadrature(seed, sizes)
        self.profile = cfg.cutoff()
        self.brackets = {name: brackets.builtin_bracket(name) for name in NAMES}

    def run(self):
        results = {}
        spec = self.spec
        for name in NAMES:
            results[name] = heat.integrate_a2(self.brackets[name], self.profile, spec)
            spec = dataclasses.replace(spec, preflight=False)
        return results

    @staticmethod
    def numbers(results) -> list:
        return [[r.value, r.std_error, list(r.replicate_values), r.inside_fraction] for r in results.values()]

    @staticmethod
    def gates(results) -> tuple[int, dict]:
        """Criterion 6: |a2|/sigma > 5 each, pairwise 3-sigma equality, cross1 anchor."""
        failed = set()
        ratios = {n: abs(r.value) / r.std_error for n, r in results.items()}
        failed.update(n for n, ratio in ratios.items() if not ratio > 5.0)
        pair_sigma = {}
        for i, a in enumerate(NAMES):
            for b in NAMES[i + 1:]:
                ra, rb = results[a], results[b]
                sig = abs(ra.value - rb.value) / math.hypot(ra.std_error, rb.std_error)
                pair_sigma[f"{a}-{b}"] = sig
                if not sig <= 3.0:
                    failed.update((a, b))
        r1 = results["cross1"]
        anchor_sigma = abs(r1.value - A2_ANCHOR) / r1.std_error
        if not abs(r1.value - A2_ANCHOR) <= 1e-9 + 3.0 * r1.std_error:
            failed.add("cross1")
        detail = {"a2_over_sigma": ratios, "pair_sigma": pair_sigma, "anchor_sigma": anchor_sigma}
        return len(failed), detail

    @staticmethod
    def rel_stderr(results) -> float:
        return max(r.std_error / abs(r.value) for r in results.values())


class Sweep:
    operations = 1

    def __init__(self, seed: int, sizes: dict):
        cfg, self.spec = _quadrature(seed, sizes)
        self.profile = cfg.cutoff()
        self.bracket = cfg.bracket()

    def run(self):
        return heat.sweep_s(self.bracket, self.profile, S_LIST, self.spec)

    @staticmethod
    def numbers(res) -> list:
        return [list(res.a2_values), list(res.std_errors), list(res.coefficients), list(res.coeff_sigmas)]

    def gates(self, res) -> tuple[int, dict]:
        """Criterion 7: leading exponent 2 - 2k and leading coefficient above 3 sigma."""
        k = self.bracket.k
        ok = res.exponents[0] == 2 - 2 * k and res.leading_coefficient > 3.0 * res.leading_sigma
        detail = {
            "leading_exponent": res.exponents[0],
            "leading_over_sigma": res.leading_coefficient / res.leading_sigma,
            "rel_residual": res.rel_residual,
        }
        return (0 if ok else 1), detail

    @staticmethod
    def rel_stderr(res) -> float:
        return res.leading_sigma / res.leading_coefficient


class Intertwine:
    operations = 3

    def __init__(self, seed: int, sizes: dict):
        profile = load_config(None, overrides={"cutoff.amplitude": "2.5"}).cutoff()
        b = {name: brackets.builtin_bracket(name) for name in NAMES}
        lam = b["cross2"].tensor.copy()
        lam[0] *= 4.0
        self.profile = profile
        # (name, first, second, isospectral expected)
        self.pairs = [
            ("cross1-cross2", b["cross1"], b["cross2"], True),
            ("cross1-quaternion", b["cross1"], b["quaternion"], True),
            ("negative-control", b["cross1"], brackets.Bracket(lam), False),
        ]
        m, k = b["cross1"].m, b["cross1"].k
        self.functions = intertwine.default_test_functions(m, k, profile)[: sizes["n_functions"]]
        self.points = intertwine.default_points(m, k, profile, n_points=sizes["n_points"], seed=seed)

    def run(self):
        out = {}
        for name, b1, b2, iso in self.pairs:
            spectral = brackets.check_isospectral(b1, b2)
            rep = intertwine.intertwine_residual(
                b1, b2, self.profile, self.functions, self.points, strict=iso
            )
            out[name] = (spectral, rep)
        return out

    @staticmethod
    def numbers(results) -> list:
        return [[s.max_deviation, r.max_residual, r.truncation_tail, list(r.per_function)]
                for s, r in results.values()]

    def gates(self, results) -> tuple[int, dict]:
        """Criterion 8: isospectral residual <= 1e-4, negative control > 1e-1."""
        failed = 0
        detail = {}
        for name, _b1, _b2, iso in self.pairs:
            spectral, rep = results[name]
            residual_ok = rep.max_residual <= 1e-4 if iso else rep.max_residual > 1e-1
            failed += not (residual_ok and spectral.isospectral == iso)
            detail[name] = {"residual": rep.max_residual, "isospectral": spectral.isospectral}
        return failed, detail

    @staticmethod
    def rel_stderr(results) -> float:
        return 0.0


WORKLOADS = {"a2_triple": A2Triple, "sweep": Sweep, "intertwine": Intertwine}
