"""Slow, obviously correct twins of the polytope core, for tests only.

`cvn.polytope` computes vertices, feasibility and skeleton edges from the
extreme rays of one integer double-description run.  The routines here get
the same answers independently: a phase-1 simplex method over `Fraction`
with Bland's rule for feasibility, and exhaustive tight-set enumeration for
vertices (every nonsingular choice of d - 1 tight constraints plus sum = 1,
solved exactly over the integers).  Polytope.dim, the integer rank of the
vertex rays, has the affine rank of the vertices over Fraction as its twin,
and Polytope.contains, which reads integer slacks and vertex rays, has
`contains`, which evaluates every constraint as a Fraction at the point
and at every vertex.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from cvn.errors import DimensionMismatch, ParamOutOfRange
from point_readings import coeffs, value


def _phase1_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Whether {v >= 0 : rows . v = rhs} is nonempty; rhs must be >= 0."""
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tab = [list(rows[i]) + [Fraction(int(k == i)) for k in range(m)]
           + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # reduced costs for minimizing the artificial sum
    red = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        red[j] = -sum(tab[i][j] for i in range(m))
    red[n + m] = -sum(rhs)
    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n + m] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[pivot_row]
                ):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            return False  # unbounded phase 1 cannot happen; defensive
        piv = tab[pivot_row][enter]
        tab[pivot_row] = [q / piv if q else q for q in tab[pivot_row]]
        for i in range(m):
            if i != pivot_row and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b if b else a
                          for a, b in zip(tab[i], tab[pivot_row])]
        if red[enter] != 0:
            f = red[enter]
            red = [a - f * b if b else a
                   for a, b in zip(red, tab[pivot_row])]
        basis[pivot_row] = enter
    return red[n + m] == 0


def lp_feasible(halfspaces, d: int) -> bool:
    """Feasibility of {x in simplex : c.x >= 0} as a phase-1 LP with one
    slack per non-degenerate half-space."""
    live = [h for h in halfspaces if not h.degenerate]
    k = len(live)
    rows = [[Fraction(1)] * d + [Fraction(0)] * k]
    rhs = [Fraction(1)]
    for j, h in enumerate(live):
        row = list(coeffs(h)) + [Fraction(0)] * k
        row[d + j] = Fraction(-1)  # slack: c.x - s = 0
        rows.append(row)
        rhs.append(Fraction(0))
    return _phase1_feasible(rows, rhs)


def _solve_square(rows, rhs):
    """Solve a square rational system; None when singular."""
    n = len(rows)
    a = [list(r) + [q] for r, q in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [q / p for q in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(a[i][n] for i in range(n))


def constraint_rows(halfspaces, d: int) -> list[tuple[Fraction, ...]]:
    """Non-degenerate coefficient rows plus the simplex boundary, each once."""
    rows = [coeffs(h) for h in halfspaces if not h.degenerate]
    rows += [tuple(Fraction(int(j == i)) for j in range(d)) for i in range(d)]
    return list(dict.fromkeys(rows))


def _value(row, x) -> Fraction:
    return sum(map(mul, row, x))


def _primitive(v) -> list[int]:
    g = math.gcd(*v)
    return [q // g for q in v] if g > 1 else list(v)


def tight_set_vertices(halfspaces, d: int) -> tuple:
    """Sorted vertices: every feasible solution of d - 1 independent tight
    constraints together with sum x = 1.

    The choices of d - 1 constraints are enumerated depth first in
    constraint order, over integer rows, keeping an integer basis of the
    kernel of the rows chosen so far.  A row that vanishes on that kernel
    depends on the chosen ones, and so does every choice extending it
    with that row, so it is passed over.  With d - 1 rows chosen the
    kernel is a line, spanned by v; it meets sum x = 1 in v / sum(v)
    unless sum(v) == 0, when the system is singular."""
    cons = []
    for row in constraint_rows(halfspaces, d):
        scale = math.lcm(*(q.denominator for q in row))
        cons.append([int(q * scale) for q in row])
    found = set()

    def extend(start, kernel):
        if len(kernel) == 1:
            v = kernel[0]
            if sum(v) < 0:
                v = [-q for q in v]
            s = sum(v)
            if s and min(v) >= 0 and all(_value(c, v) >= 0 for c in cons):
                found.add(tuple(Fraction(q, s) for q in v))
            return
        for i in range(start, len(cons) - len(kernel) + 2):
            vals = [_value(cons[i], k) for k in kernel]
            p = next((j for j, q in enumerate(vals) if q), None)
            if p is None:
                continue
            # combinations of the kernel basis that vanish on row i
            extend(i + 1, [_primitive([vals[p] * a - q * b
                                       for a, b in zip(k, kernel[p])])
                           for j, (k, q) in enumerate(zip(kernel, vals))
                           if j != p])

    extend(0, [[int(i == j) for j in range(d)] for i in range(d)])
    return tuple(sorted(found))


def skeleton_edges(halfspaces, d: int, vertices) -> tuple:
    """Vertex pairs whose smallest common face holds no other vertex."""
    cons = constraint_rows(halfspaces, d)
    tights = [frozenset(k for k, c in enumerate(cons) if _value(c, v) == 0)
              for v in vertices]
    edges = []
    for i, j in itertools.combinations(range(len(vertices)), 2):
        common = tights[i] & tights[j]
        face = [k for k in range(len(vertices)) if common <= tights[k]]
        if face == sorted((i, j)):
            edges.append((i, j))
    return tuple(edges)


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (-1 when empty), by
    Gauss-Jordan elimination over Fraction: the twin of Polytope.dim."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    rows = [[Fraction(q) - b for q, b in zip(p, base)] for p in pts[1:]]
    cols = len(base)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [q / p for q in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def contains(poly, x, mode: str = "closed") -> bool:
    """Membership of x in poly ("closed") or in its relative interior
    ("relative-interior") over Fraction: the twin of Polytope.contains."""
    if mode not in ("closed", "relative-interior"):
        raise ParamOutOfRange(f"unknown mode {mode!r}")
    x = tuple(Fraction(q) for q in x)
    if len(x) != poly.ambient_dim:
        raise DimensionMismatch(f"point in dim {len(x)}")
    if sum(x) != 1:
        return False
    if any(value(h, x) < 0 for h in poly.constraints):
        return False
    if mode == "closed":
        return True
    vs = poly.vertices
    if not vs:
        return False
    for h in poly.constraints:
        if value(h, x) == 0 and any(value(h, v) != 0 for v in vs):
            return False
    return True
