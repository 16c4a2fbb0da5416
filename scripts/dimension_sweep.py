#!/usr/bin/env python3
"""Sweep random constant-symbol surfaces and tabulate Killing dimensions.

Every dimension must stay at or below 6 (the bound attained by the flat
plane).  With --oracle a sample of the surfaces is re-solved by the
truncated power-series method as an independent cross-check.

    python scripts/dimension_sweep.py --count 200 --seed 1 --oracle 10
"""

import argparse
import collections
import random
import sys
import time
from pathlib import Path

from affkit.killing import killing_jet_space
from affkit.surface import GAMMA_KEYS, type_a



def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spread", type=int, default=2,
                    help="symbols drawn from {-spread, ..., spread}")
    ap.add_argument("--oracle", type=int, default=0,
                    help="cross-check this many surfaces against the series solver")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    histogram = collections.Counter()
    rounds = collections.Counter()
    surfaces = []
    t0 = time.monotonic()
    for _ in range(args.count):
        s = type_a({k: rng.randint(-args.spread, args.spread) for k in GAMMA_KEYS})
        ks = killing_jet_space(s)
        histogram[ks.dim] += 1
        rounds[len(ks.constraint_history)] += 1
        surfaces.append((s, ks.dim))
        assert ks.dim <= 6
    elapsed = time.monotonic() - t0

    print(f"{args.count} surfaces, seed {args.seed}, {elapsed:.2f}s")
    print("dim  count")
    for dim in sorted(histogram):
        print(f"{dim:3d}  {histogram[dim]:5d}")
    print("stabilization rounds:", dict(sorted(rounds.items())))

    if args.oracle:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
        from helpers_oracle import taylor_killing_dim
        mismatches = 0
        for s, dim in surfaces[:args.oracle]:
            oracle = taylor_killing_dim(s, deg=6)
            if oracle != dim:
                mismatches += 1
                print(f"MISMATCH: exact {dim} vs series {oracle}")
        print(f"oracle cross-check: {args.oracle - mismatches}/{args.oracle} agree")
        return 1 if mismatches else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
