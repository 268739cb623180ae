"""Slow twin of the walker's step, for tests only.

`cvn.geodesics._advance` tries the current chart first and embeds the
point in its neighbouring charts only when that chart has no clean step.
The step here is the earlier, eager version: it rebuilds the point from
its coordinates, embeds it in every adjacent chart and sorts them before
its first sweep.  It takes the same arguments, so a walk can run with it
in place of `_advance` and be compared step for step.
"""

from __future__ import annotations

from functools import partial

from cvn.envelopes import slice_polytope
from cvn.geodesics import _chart_order, _charts_at, _first_step, _forward_vertex
from cvn.graphs import embed_point, point_from_coords


def eager_advance(base, b, gamma, delta, coords, here=None):
    """One skeleton-edge step forward, with every adjacent chart embedded
    and sorted up front; here is ignored and rebuilt from coords."""
    near = _charts_at(delta, point_from_coords(delta, coords))
    near.sort(key=lambda c: (embed_point(b, c[0]) is None,
                             -len(c[0].edges), _chart_order(c[0])))
    return _first_step(
        [(delta, coords)] + near, partial(slice_polytope, base, b, gamma),
        gamma, (partial(_forward_vertex, require_clean=True),
                _forward_vertex))
