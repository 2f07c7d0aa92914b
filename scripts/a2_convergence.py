#!/usr/bin/env python3
"""Node-count convergence study for the heat-coefficient quadrature.

Doubles the node budget across a range and records value, replicate-spread
error, and wall time of the scrambled-Sobol' quadrature, one row per budget.
Output is a CSV on stdout (redirect to keep it).
"""

import argparse
import sys

from isophasal.brackets import builtin_bracket
from isophasal.heat import QuadratureSpec, integrate_a2
from isophasal.metric import CutoffProfile


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bracket", default="cross1")
    parser.add_argument("--replicates", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-exp", type=int, default=10, help="smallest budget 2^k")
    parser.add_argument("--max-exp", type=int, default=16)
    args = parser.parse_args(argv)

    bracket = builtin_bracket(args.bracket)
    profile = CutoffProfile(1.0, 1.0, 1.0)
    print("n_nodes,a2,stderr,wall_time")
    for k in range(args.min_exp, args.max_exp + 1):
        spec = QuadratureSpec(n_nodes=2**k, n_replicates=args.replicates, seed=args.seed, preflight=False)
        res = integrate_a2(bracket, profile, spec)
        print(f"{res.n_nodes},{res.value!r},{res.std_error!r},{res.wall_time:.2f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(run())
