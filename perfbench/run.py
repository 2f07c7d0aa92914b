#!/usr/bin/env python3
"""Benchmark of the isophasal library: end-to-end numbers, or per-layer numbers from a traced run.

    python3 perfbench/run.py --workload {a2_triple,sweep,intertwine} --seed N \
        --seconds T --trace {0,1}
    python3 perfbench/run.py --smoke

Run from anywhere; the library is imported from ../src next to this directory.
Each workload is a closed loop with one client: the next operation starts
when the previous one has returned, and no operation starts that would end
after T seconds (at least one runs, two when traced).  Every operation
repeats the same seed-determined inputs, its outputs go through the output
gates, and its numbers must be bit-identical to the first operation's.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: median wall and CPU
seconds per operation, peak RSS, and the median time of five fresh
interpreters that import the library and build the workload's inputs.
--trace 1 alternates untraced and traced operations and prints the per-layer
metrics, measured by timing the calls into each layer's public functions
from outside (see tracer.py), plus the tracing overhead.  --smoke runs every
workload at toy size in both modes and checks that every metric named in
BENCHMARK.json is printed.

The second-to-last line of output is a JSON record of the environment,
sizes, gates and raw timings; the last line is the result.
"""

from __future__ import annotations

import os
import sys

# Pin before numpy loads: pool workers x BLAS threads must not exceed the cores.
NPROC = len(os.sched_getaffinity(0))
WORKERS = min(2, NPROC)
os.environ.update({
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ISOPHASAL_THREADS": str(WORKERS),
})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def load_library():
    """Import the library from this checkout's sources, never from an installed copy."""
    if not (SRC / "isophasal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no isophasal sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import isophasal

    if Path(isophasal.__file__).resolve().parent != SRC / "isophasal":
        sys.exit(f"perfbench: isophasal imported from {isophasal.__file__}, not from {SRC}")


def frame_kernel_counts(m: int, k: int) -> dict:
    """Computed (not measured) per-point sizes of the frame engine's arrays.

    Bytes are the float64 arrays c and Gamma (n^3), dc and dGamma (n^3 (m+k)),
    Riem (n^4) and Ric (n^2).  Flops are those of frame.curvature: two batched
    matmuls of 2 n^5 each, two n^4 updates of Riem, two n^3 (m+k) derivative
    updates, the n^3 Ricci trace and the n scalar trace.
    """
    n, mk = m + 2 * k, m + k
    nbytes = 8 * (2 * n**3 + 2 * n**3 * mk + n**4 + n**2)
    flops = 4 * n**5 + 2 * n**4 + 2 * n**3 * mk + n**3 + n
    return {
        "frame.bytes_per_point": nbytes,
        "frame.curvature.flops_per_point": flops,
        "frame.curvature.ops_per_byte": flops / nbytes,
    }


def traced_functions():
    """(owner, attribute, span name, point counter), patched where the caller looks each up."""
    from isophasal import brackets, coord, frame, heat, intertwine
    from tracer import batch_size

    def attempted_nodes(args, kwargs):
        spec = args[2] if len(args) > 2 else kwargs["spec"]
        return spec.n_nodes * spec.n_replicates

    return [
        (frame, "curvature_scalars", "frame.curvature_scalars", batch_size(2, "x")),
        (frame, "coupling_coeffs", "frame.coupling_coeffs", batch_size(2, "x")),
        (frame, "structure_constants", "frame.structure_constants", batch_size(1, "r")),
        (frame, "christoffels", "frame.christoffels", batch_size(0, "c")),
        (frame, "christoffel_derivs", "frame.christoffel_derivs", batch_size(0, "dc")),
        (frame, "curvature", "frame.curvature", batch_size(0, "Gamma")),
        (coord, "scalar_invariants_fd", "coord.scalar_invariants_fd", batch_size(1, "pts")),
        (coord, "metric_at", "metric.metric_at", batch_size(2, "x")),
        (heat, "integrate_a2", "heat.integrate_a2", attempted_nodes),
        (heat, "preflight_theta_invariance", "heat.preflight_theta_invariance", None),
        (heat, "fit_sweep", "heat.fit_sweep", None),
        (intertwine, "intertwine_residual", "intertwine.intertwine_residual", None),
        (intertwine, "laplacian", "intertwine.laplacian", batch_size(3, "pts")),
        (intertwine, "inverse_metric_at", "metric.inverse_metric_at", batch_size(2, "x")),
        (intertwine.FourierField, "coefficient", "intertwine.fourier", None),
        (intertwine.FourierField, "coefficients_all", "intertwine.fourier", None),
        (intertwine, "build_conjugators", "intertwine.build_conjugators", None),
        (intertwine, "conjugator", "brackets.conjugator", None),
        (brackets, "check_isospectral", "brackets.check_isospectral", None),
    ]


def layer_metrics(spans: list[dict], workers: int) -> dict:
    """Per-layer metrics of one traced operation from its spans (all processes)."""
    from tracer import covered

    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def calls(name):
        return len(by_name[name])

    def points(name):
        return sum(s["n"] for s in by_name[name])

    def seconds(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def per_call(name):
        return seconds(name) / calls(name) if calls(name) else 0.0

    def per_point(name, scale):
        return scale * seconds(name) / points(name) if points(name) else 0.0

    def self_seconds(name):
        return sum(
            (s["end"] - s["start"]) - covered((s["start"], s["end"]), [(c["start"], c["end"]) for c in children[s["id"]]])
            for s in by_name[name]
        )

    out = {"frame.curvature_scalars.points": points("frame.curvature_scalars")}
    for fn in ("curvature_scalars", "coupling_coeffs", "structure_constants", "christoffels",
               "christoffel_derivs", "curvature"):
        out[f"frame.{fn}.us_per_point"] = per_point(f"frame.{fn}", 1e6)
    n_frame = points("frame.curvature_scalars")
    out["frame.norms.us_per_point"] = 1e6 * self_seconds("frame.curvature_scalars") / n_frame if n_frame else 0.0

    out["coord.scalar_invariants_fd.points"] = points("coord.scalar_invariants_fd")
    out["coord.scalar_invariants_fd.ms_per_point"] = per_point("coord.scalar_invariants_fd", 1e3)
    out["heat.preflight_theta_invariance.s"] = per_call("heat.preflight_theta_invariance")

    integrations = by_name["heat.integrate_a2"]
    nodes = points("heat.integrate_a2")
    out["heat.integrate_a2.calls"] = calls("heat.integrate_a2")
    out["heat.integrate_a2.s"] = per_call("heat.integrate_a2")
    out["heat.nodes"] = nodes
    out["heat.nodes_inside"] = n_frame
    out["heat.inside_fraction"] = n_frame / nodes if nodes else 0.0
    out["heat.wait_s"] = self_seconds("heat.integrate_a2")
    preflight_in_a2 = sum(
        c["end"] - c["start"] for s in integrations for c in children[s["id"]]
        if c["name"] == "heat.preflight_theta_invariance"
    )
    engine_time = seconds("heat.integrate_a2") - preflight_in_a2
    out["heat.worker_utilization"] = (
        seconds("frame.curvature_scalars") / (workers * engine_time) if engine_time > 0 else 0.0
    )
    out["heat.fit_sweep.s"] = per_call("heat.fit_sweep")

    for fn in ("metric_at", "inverse_metric_at"):
        out[f"metric.{fn}.calls"] = calls(f"metric.{fn}")
        out[f"metric.{fn}.points"] = points(f"metric.{fn}")
        out[f"metric.{fn}.us_per_point"] = per_point(f"metric.{fn}", 1e6)

    out["intertwine.intertwine_residual.s"] = per_call("intertwine.intertwine_residual")
    out["intertwine.laplacian.calls"] = calls("intertwine.laplacian")
    out["intertwine.laplacian.points"] = points("intertwine.laplacian")
    out["intertwine.laplacian.us_per_point"] = per_point("intertwine.laplacian", 1e6)
    out["intertwine.fourier.calls"] = calls("intertwine.fourier")
    out["intertwine.fourier.self_s"] = self_seconds("intertwine.fourier")
    out["intertwine.build_conjugators.s"] = per_call("intertwine.build_conjugators")

    out["brackets.conjugator.calls"] = calls("brackets.conjugator")
    out["brackets.conjugator.us_per_call"] = 1e6 * per_call("brackets.conjugator")
    out["brackets.check_isospectral.s"] = per_call("brackets.check_isospectral")
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas,
        "isophasal_threads": WORKERS, "blas_threads": 1,
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the library and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)  # no timeout: it would poll every 50 ms
        out.append(time.perf_counter() - t0)
    return out


def cpu_seconds() -> float:
    """User + system CPU of this process and of its children that have been waited for."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def run_operation(wl, tracer, run_id, functions) -> dict:
    absent = []
    if tracer is not None:
        tracer.run = run_id
        absent = [name for owner, attr, name, count in functions if not tracer.install(owner, attr, name, count)]
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        results = wl.run()
    except Exception:  # a raising operation is a failed one; keep measuring
        traceback.print_exc()
        results = None
    finally:
        t1, c1 = time.perf_counter(), cpu_seconds()
        if tracer is not None:
            tracer.uninstall()
    op = {
        "run": run_id, "traced": tracer is not None, "absent": absent, "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
    }
    if results is None:
        op.update(failed=wl.operations, gates={"error": "operation raised"}, numbers=None, rel_stderr=None)
    else:
        failed, detail = wl.gates(results)
        op.update(failed=failed, gates=detail, numbers=wl.numbers(results), rel_stderr=wl.rel_stderr(results))
    return op


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> tuple[dict, dict]:
    from isophasal.brackets import builtin_bracket
    from tracer import Tracer
    from workloads import WORKLOADS

    setup = [] if trace else setup_seconds(workload, seed)
    wl = WORKLOADS[workload](seed, sizes[workload])
    trace_dir = ROOT / ".bench_build" / f"perfbench-trace-{os.getpid()}"
    tracer = Tracer(trace_dir) if trace else None
    functions = traced_functions()
    ops = []
    try:
        start = time.perf_counter()
        while True:
            traced = trace and len(ops) % 2 == 1
            ops.append(run_operation(wl, tracer if traced else None, len(ops), functions))
            elapsed = time.perf_counter() - start
            typical = statistics.median(op["wall_s"] for op in ops)
            if len(ops) >= (2 if trace else 1) and elapsed + typical > seconds:
                break
        spans = tracer.spans() if trace else []
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    reference = next((op["numbers"] for op in ops if op["numbers"] is not None), None)
    mismatched = 0
    for op in ops:
        if op["numbers"] is not None and op["numbers"] != reference:
            op["failed"] = wl.operations
            mismatched += 1
    attempted = wl.operations * len(ops)
    failed = sum(op["failed"] for op in ops)
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    dims = builtin_bracket("cross1")
    kernel_counts = frame_kernel_counts(dims.m, dims.k)
    untraced = [op for op in ops if not op["traced"]]
    if trace:
        traced_ops = [op for op in ops if op["traced"]]
        per_op = [
            layer_metrics([s for s in spans if s["run"] == op["run"]], WORKERS) for op in traced_ops
        ]
        metrics = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
        metrics.update(kernel_counts)
        metrics["heat.rel_stderr"] = next((op["rel_stderr"] for op in ops if op["rel_stderr"] is not None), 0.0)
        metrics["trace.overhead_frac"] = (
            statistics.median(op["wall_s"] for op in traced_ops) / statistics.median(op["wall_s"] for op in untraced) - 1.0
        )
    else:
        metrics = {
            "wall_s": statistics.median(op["wall_s"] for op in untraced),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
            "peak_rss_mb": rss_kb / 1024.0,
        }

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": sizes[workload], "environment": environment(), "operations_run": len(ops),
        "wall_s": [op["wall_s"] for op in ops], "cpu_s": [op["cpu_s"] for op in ops],
        "traced": [op["traced"] for op in ops], "setup_s": setup, "gates": ops[0]["gates"],
        "failed_per_operation": [op["failed"] for op in ops], "mismatched": mismatched,
        "absent": sorted({name for op in ops for name in op["absent"]}),
        "computed_not_measured": kernel_counts,
        "rel_stderr": ops[0]["rel_stderr"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def benchmark_names() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def with_units(metrics: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def smoke() -> int:
    """Toy-size pass over every workload and mode: every declared metric must be printed."""
    from workloads import SMOKE

    names = benchmark_names()
    ok = True
    for workload in names["workloads"]:
        for trace in (0, 1):
            detail, result = measure(workload, 0, 0.0, bool(trace), SMOKE)
            got, want = set(result["metrics"]), set(names[trace])
            ok &= got == want
            print(json.dumps({
                "workload": workload, "trace": trace, "missing": sorted(want - got),
                "undeclared": sorted(got - want), "gates": detail["gates"], "absent": detail["absent"],
            }))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("a2_triple", "sweep", "intertwine"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, all workloads, check metric names")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    load_library()
    if args.smoke:
        return smoke()
    from workloads import FULL, WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, FULL[args.workload])
        return 0
    units = benchmark_names()[args.trace]
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    result["metrics"] = with_units(result["metrics"], units)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
