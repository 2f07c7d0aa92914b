#!/usr/bin/env python3
"""Run every pipeline end to end and collect the artifacts in one directory.

Produces, under --out (default ./artifacts):
    brackets.jsonl    isospectrality / centralizer / fingerprint report
    validate.jsonl    oracle self-tests and cross-engine checks
    a2.jsonl          heat coefficient for each builtin bracket: the `isophasal a2`
                      record plus the bracket's name
    sweep.jsonl/.csv  scale sweep and exponent-ladder fit
    intertwine.jsonl  Laplacian intertwining residuals for both pairs

Use --fast for a smoke-scale run (minutes -> seconds).  Note the sweep command
asserts 3-sigma significance of its leading coefficient, which needs the full
node budget; at --fast statistics it may legitimately exit nonzero.
"""

import argparse
import sys
import time
from pathlib import Path

from isophasal.brackets import builtin_bracket
from isophasal.cli import _a2_record, _write_jsonl, main as cli_main
from isophasal.config import load_config
from isophasal.heat import integrate_a2


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts")
    parser.add_argument("--fast", action="store_true", help="small node counts for a smoke run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    nodes = 8192 if args.fast else 100_000
    reps = 4 if args.fast else 8
    base = [
        "--out", str(out), "--seed", str(args.seed),
        "--nodes", str(nodes), "--replicates", str(reps),
    ]
    cfg_pair = out / "_pair.cfg"
    cfg_pair.write_text(
        "bracket2.builtin = quaternion\ncutoff.amplitude = 2.5\n"
        + ("intertwine.n_points = 8\nintertwine.n_functions = 4\n" if args.fast else "")
    )

    t0 = time.time()
    rcs = {}
    rcs["brackets"] = cli_main(["brackets", *base])
    rcs["validate"] = cli_main(["validate", *base])

    # a2 for the whole triple, one record per bracket
    cfg = load_config(None, overrides={"quadrature.nodes": str(nodes),
                                       "quadrature.replicates": str(reps),
                                       "quadrature.seed": str(args.seed)})
    records = []
    for name in ("cross1", "cross2", "quaternion"):
        res = integrate_a2(builtin_bracket(name), cfg.cutoff(), cfg.quadrature())
        records.append({**_a2_record(cfg, res), "bracket": name})
        print(f"a2({name}) = {res.value:.6e} +- {res.std_error:.2e}")
    _write_jsonl(out / "a2.jsonl", records)

    rcs["sweep"] = cli_main(["sweep", *base])
    rcs["intertwine"] = cli_main(["intertwine", "--config", str(cfg_pair), *base])

    print(f"\ndone in {time.time() - t0:.0f}s; exit codes: {rcs}")
    return max(rcs.values())


if __name__ == "__main__":
    sys.exit(run())
