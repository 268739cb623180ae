#!/usr/bin/env python3
"""Walk out-envelope rays from rational figure-eights and print crossings.

For a rose with petal lengths (p/q, 1-p/q) and direction {x, y}, the ray
crosses rose faces finitely often: each crossing maps the long-petal
fraction a to 2 - 1/a, which reaches 1/2 after finitely many steps for
any rational a, after which the ray escapes into a single theta chart.
The golden ratio would be the fixed point of that map, so irrational
self-similar rays exist but rational ones always terminate.
"""

import argparse
from fractions import Fraction

from cvn.errors import BudgetExceeded, WalkStuck
from cvn.geodesics import ray_dimension_audit
from cvn.graphs import _exact, rose_point
from cvn.words import conj_class


def run(a: Fraction, steps: int) -> None:
    start = rose_point([a, 1 - a])
    direction = [conj_class([1], 2), conj_class([2], 2)]
    try:
        audit = ray_dimension_audit(start, direction, steps)
    except (BudgetExceeded, WalkStuck) as e:
        print(f"a = {_exact(a)}: stuck ({e})")
        return
    print(f"a = {_exact(a)}: {audit.crossings[-1]} crossings")
    for p, c in zip(audit.points, audit.crossings):
        lens = ", ".join(map(_exact, p.lengths))
        print(f"  crossing {c}: {len(p.ttype.edges)} edges  ({lens})")
    dims = sorted(set(audit.dims.values()))
    print(f"  pair envelope dimensions seen: {dims}, stable from index "
          f"{audit.stable_from}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=Fraction, nargs="*",
                        default=[Fraction(5, 8), Fraction(7, 12),
                                 Fraction(13, 21)],
                        help="long petal lengths to start from")
    parser.add_argument("--steps", type=int, default=4)
    args = parser.parse_args()
    for a in args.a:
        if not Fraction(1, 2) < a < 1:
            print(f"a = {_exact(a)}: skipped, need 1/2 < a < 1")
            continue
        run(a, args.steps)


if __name__ == "__main__":
    main()
