#!/usr/bin/env python3
"""Run every pipeline end to end through the CLI and collect the artifacts in one directory.

Produces, under --out (default ./artifacts):
    brackets.jsonl            isospectrality / centralizer / fingerprint report
    validate.jsonl            oracle self-tests and cross-engine checks
    a2_cross2/a2.jsonl        `isophasal a2` of cross1 against cross2, and
    a2_quaternion/a2.jsonl    of cross1 against quaternion: one record per
                              bracket plus the pair verdict (isospectral, a2
                              equal within 3 sigma), under the default cutoff
    sweep.jsonl/.csv          scale sweep and exponent-ladder fit
    intertwine.jsonl          Laplacian intertwining residuals of cross1 against
                              quaternion (cutoff amplitude 2.5)

The config files the runs read are written next to the artifacts as _*.cfg.
Use --fast for a smoke-scale run (minutes -> seconds).  Note the sweep command
asserts 3-sigma significance of its leading coefficient, which needs the full
node budget; at --fast statistics it may legitimately exit nonzero.
"""

import argparse
import sys
import time
from pathlib import Path

from isophasal.cli import main as cli_main


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
    sizes = ["--seed", str(args.seed), "--nodes", str(nodes), "--replicates", str(reps)]

    t0 = time.time()
    rcs = {command: cli_main([command, *sizes, "--out", str(out)]) for command in ("brackets", "validate")}
    for name in ("cross2", "quaternion"):
        cfg = out / f"_a2_{name}.cfg"
        cfg.write_text(f"bracket2.builtin = {name}\n")
        rcs[f"a2_{name}"] = cli_main(["a2", "--config", str(cfg), *sizes, "--out", str(out / f"a2_{name}")])
    rcs["sweep"] = cli_main(["sweep", *sizes, "--out", str(out)])
    cfg = out / "_intertwine.cfg"
    cfg.write_text(
        "bracket2.builtin = quaternion\ncutoff.amplitude = 2.5\n"
        + ("intertwine.n_points = 8\nintertwine.n_functions = 4\n" if args.fast else "")
    )
    rcs["intertwine"] = cli_main(["intertwine", "--config", str(cfg), *sizes, "--out", str(out)])

    print(f"\ndone in {time.time() - t0:.0f}s; exit codes: {rcs}")
    return max(rcs.values())


if __name__ == "__main__":
    sys.exit(run())
