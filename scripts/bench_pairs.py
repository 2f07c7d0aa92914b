#!/usr/bin/env python3
"""Benchmark two revisions of this repository in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_REV

Unpacks PARENT_REV and HEAD (the change) with `git archive` into a temporary
directory (removed afterwards), then runs

    perfbench/run.py --workload W --seed 7 --seconds 32 --trace 0

from each side's own checkout for the a2_triple, sweep and intertwine
workloads, PAIRS times each.  Each pair runs both sides back to back on one
workload; which side goes first alternates from pair to pair, so a drift in
host speed cannot favour one side.  After the pairs, each side runs
`--trace 1` once per workload, the first side again alternating from workload
to workload.  Both sides are committed revisions: commit the change before
running the script.

Writes BENCH_<sha>.json for each side into the repository root.
Each file holds the environment of perfbench's detail line, with whether
PYTHONDONTWRITEBYTECODE is set (then every run compiles the sources it
imports, a cost that lands in setup_s) and each side's src/isophasal line
count; every run's detail and result lines; and per workload and end-to-end
metric the median, the quartiles and the number of pairs this side won
(strictly better than the other side).  Under `trace` it holds, per
workload, the detail and result lines of the traced run, with the per-layer
metrics.  Those are single runs, not medians: compare them between the two
sides of one file pair only as counts or as rough costs.  A traced `sweep`
holds one traced operation, so its per-layer values are single samples.
`src_tree` is the git tree of the side's `src/`, so a file can be matched to
any commit carrying the same sources.

Last, each side builds perfbench's workloads (`workloads.WORKLOADS`) at
`FULL` sizes, seed 7 and ISOPHASAL_THREADS=2 from its own tree and runs each
once in a fresh interpreter.  The outputs' `numbers` go under `numbers`, and
`numbers_vs_other` holds per workload the number of entries, how many are
bit-identical to the other side's, and the largest relative difference
|a - b| / max(|a|, |b|), so the file shows whether the two sides compute the
same numbers.  perfbench/ is only imported, never changed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("a2_triple", "sweep", "intertwine")
SEED = 7
SECONDS = 32
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (tree / "src" / "isophasal").glob("*.py"))


def run_workload(tree: Path, workload: str, trace: int = 0) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


NUMBERS = """
import json, sys
import workloads
workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), workloads.FULL[sys.argv[1]])
print(json.dumps(workload.numbers(workload.run())))
"""


def run_numbers(tree: Path, workload: str) -> list:
    """The workload's `numbers` at FULL sizes, one operation in a fresh interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree / 'perfbench'}", ISOPHASAL_THREADS="2",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-c", NUMBERS, workload, str(SEED)]
    return json.loads(subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True).stdout)


def flatten(numbers) -> list[float]:
    if isinstance(numbers, list):
        return [v for item in numbers for v in flatten(item)]
    return [float(numbers)]


def compare_numbers(mine: list, theirs: list) -> dict:
    a, b = flatten(mine), flatten(theirs)
    if len(a) != len(b):
        return {"entries": len(a), "other_entries": len(b)}
    rel = [abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y]
    return {"entries": len(a), "bit_identical": len(a) - len(rel), "max_rel_diff": max(rel, default=0.0)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summary(runs: dict, other: dict, metrics: list[dict]) -> dict:
    """Median, quartiles and pair wins of each end-to-end metric, per workload."""
    out = {}
    for workload, mine in runs.items():
        theirs = other[workload]
        out[workload] = {"failed": sum(run["result"]["failed"] for run in mine)}
        for metric in metrics:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a = [run["result"]["metrics"][name]["value"] for run in mine]
            b = [run["result"]["metrics"][name]["value"] for run in theirs]
            q1, med, q3 = quartiles(a)
            out[workload][name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "wins": sum(sign * x < sign * y for x, y in zip(a, b)),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", metavar="PARENT_REV")
    args = parser.parse_args(argv)

    shas = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"), "change": git("rev-parse", "HEAD")}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {side: {w: [] for w in WORKLOADS} for side in shas}
    traces = {side: {} for side in shas}

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: tmp / side for side in shas}
        for side, sha in shas.items():
            unpack(sha, trees[side])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in WORKLOADS:
                for position, side in enumerate(order):
                    detail, result = run_workload(trees[side], workload)
                    runs[side][workload].append(
                        {"pair": pair, "first": position == 0, "detail": detail, "result": result})
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"pair {pair} {workload} {side}: wall_s {wall:.3f}", flush=True)
        for i, workload in enumerate(WORKLOADS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                detail, result = run_workload(trees[side], workload, trace=1)
                traces[side][workload] = {"first": position == 0, "detail": detail, "result": result}
                print(f"trace {workload} {side}: failed {result['failed']}", flush=True)
        numbers = {side: {w: run_numbers(trees[side], w) for w in WORKLOADS} for side in shas}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for side, sha in shas.items():
        other = "change" if side == "parent" else "parent"
        first = runs[side][WORKLOADS[0]][0]["detail"]
        record = {
            "side": side, "rev": sha, "src_tree": git("rev-parse", f"{sha}:src"),
            "against": shas[other], "pairs": PAIRS,
            "command": f"perfbench/run.py --seed {SEED} --seconds {SECONDS} --trace 0 (pairs), --trace 1 (trace)",
            "environment": {**first["environment"], "src_isophasal_lines": lines,
                            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))},
            "summary": summary(runs[side], runs[other], metrics),
            "runs": runs[side],
            "trace": traces[side],
            "numbers": numbers[side],
            "numbers_vs_other": {w: compare_numbers(numbers[side][w], numbers[other][w]) for w in WORKLOADS},
        }
        path = ROOT / f"BENCH_{sha[:7]}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
