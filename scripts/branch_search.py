#!/usr/bin/env python3
"""Search for surfaces whose Killing algebra carries several witnesses.

The abelian-pair and [X,Y]=Y branch structures are not mutually exclusive;
this experiment samples constant-symbol and A/x1 surfaces, classifies each
one, and prints the branch combinations found together with the curvature
status, surfacing concrete dual-branch examples.

    python scripts/branch_search.py --count 60 --seed 3
"""

import argparse
import collections
import random
import sys

from affkit.liealg import ClassificationInconclusive, NotHomogeneousCandidate, classify
from affkit.surface import GAMMA_KEYS, is_flat, surface_to_json, type_a, type_b


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--family", choices=("constant", "radial", "both"),
                    default="both")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    combos = collections.Counter()
    dual_examples = []
    for idx in range(args.count):
        vals = {k: rng.randint(-2, 2) for k in GAMMA_KEYS}
        if args.family == "constant" or (args.family == "both" and idx % 2 == 0):
            s = type_a(vals)
        else:
            s = type_b(vals)
        try:
            kinds = tuple(classify(s).kinds())
        except (NotHomogeneousCandidate, ClassificationInconclusive) as exc:
            kinds = (type(exc).__name__,)
        combos[kinds] += 1
        if {"TypeA", "TypeB"} <= set(kinds) and not is_flat(s):
            dual_examples.append(s)

    print(f"{args.count} surfaces, seed {args.seed}")
    for kinds, count in combos.most_common():
        print(f"{count:5d}  {' + '.join(kinds)}")
    if dual_examples:
        print(f"\n{len(dual_examples)} non-flat dual-branch surfaces, first:")
        print(surface_to_json(dual_examples[0]))
    else:
        print("\nno non-flat dual-branch surface in this sample")
    return 0


if __name__ == "__main__":
    sys.exit(main())
