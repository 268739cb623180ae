#!/usr/bin/env python3
"""Compute the piecewise-rigid geodesic between two theta points.

Prints each breakpoint with the witness set carried on the incoming
segment, checks multiplicativity of the stretch factors along the path,
and optionally writes an SVG of the envelope with the path overlaid.
"""

import argparse
from fractions import Fraction

from cvn.geodesics import is_rigid, piecewise_rigid_geodesic
from cvn.graphs import _exact, theta_point
from cvn.metric import stretch
from cvn.svg import render_envelope_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=Fraction, nargs=3,
                        default=[Fraction(1, 3)] * 3)
    parser.add_argument("--b", type=Fraction, nargs=3,
                        default=[Fraction(1, 2), Fraction(1, 3),
                                 Fraction(1, 6)])
    parser.add_argument("--svg", help="write envelope + path SVG here")
    args = parser.parse_args()

    a = theta_point(*args.a)
    b = theta_point(*args.b)
    path = piecewise_rigid_geodesic(a, b)

    total = stretch(a, b)
    print(f"stretch(a, b) = {_exact(total)}")
    for k, p in enumerate(path.breakpoints):
        lens = ", ".join(map(_exact, p.lengths))
        line = f"  breakpoint {k}: ({lens})"
        if k > 0:
            ws = sorted(str(w) for w in path.segment_witnesses[k - 1])
            line += f"  witnesses {{{', '.join(ws)}}}"
        print(line)

    prod = Fraction(1)
    for u, v in zip(path.breakpoints, path.breakpoints[1:]):
        prod *= stretch(u, v)
    print(f"product of segment stretches = {_exact(prod)} "
          f"({'ok' if prod == total else 'MISMATCH'})")
    print(f"rigid segments: {path.rigid_segments}  "
          f"fully rigid: {is_rigid(path)}")

    if args.svg:
        with open(args.svg, "w") as f:
            f.write(render_envelope_svg(a, b, path=path.breakpoints))
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
