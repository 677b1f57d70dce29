"""Vertex-disjoint rainbow simplices with a common interior point.

Exhaustive desk-scale search: enumerate k-tuples of pairwise
vertex-disjoint rainbow simplices in lexicographic order and return the
first tuple whose open interiors intersect.

In the plane the search clips triangles exactly: the open interiors
meet iff the clipped common region has positive area, and the average
of that region's vertices is then a witness strictly inside every
triangle.  No LP runs.  In dimension d >= 3 feasibility is decided by an
exact rational LP that maximizes the minimum facet margin; a strictly
positive optimum is the certificate and its optimizer the witness point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, InputError
from .geometry import (
    Point,
    general_position_check,
    orientation,
    orientation_form,
    point,
)
from .lp import OPTIMAL, solve_lp_max

MAX_SET_SIZE_EXHAUSTIVE = 12
MAX_TUPLE_ESTIMATE = 10**8


@dataclass(frozen=True)
class TverbergCertificate:
    simplices: tuple[tuple[int, ...], ...]  # index tuples, one index per color
    witness: Point


def _facet_inequalities(vertices: list[Point]):
    """Linear forms L_i with L_i(p) > 0 for all i iff p is strictly
    interior; L_i is the (sign-adjusted) homogeneous determinant with
    vertex i replaced by p."""
    base = orientation(vertices)
    if base == 0:
        raise InputError("degenerate simplex: vertices are affinely dependent")
    forms = []
    for i in range(len(vertices)):
        coeffs, const = orientation_form(vertices[:i] + vertices[i + 1 :], i)
        forms.append(([base * c for c in coeffs], base * const))
    return forms


def common_interior_point(simplices: Sequence[Sequence[Point]]) -> Point | None:
    """Exact rational point strictly inside every simplex, or None.

    Decided by maximizing the minimum facet margin: variables (p, t),
    constraints margin_i(p) >= t plus t <= 1; the open intersection is
    nonempty iff the optimum is strictly positive.  The LP solver starts
    from a feasible origin, so t is shifted: t = t' + sigma, with sigma
    the least right-hand side (the t <= 1 row included).  Every row's
    right-hand side drops by sigma and is then >= 0, (p, t') = 0 is
    feasible, and the optimum t is the optimum t' plus sigma.
    """
    simps = [[point(v) for v in simplex] for simplex in simplices]
    if not simps:
        raise InputError("need at least one simplex")
    d = len(simps[0]) - 1
    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    for simplex in simps:
        if len(simplex) != d + 1 or any(len(v) != d for v in simplex):
            raise InputError("all simplices must have d+1 vertices in dimension d")
        for coeffs, const in _facet_inequalities(simplex):
            # coeffs . p + const >= t   <=>   -coeffs . p + t <= const
            a_ub.append([-c for c in coeffs] + [Fraction(1)])
            b_ub.append(const)
    a_ub.append([Fraction(0)] * d + [Fraction(1)])
    b_ub.append(Fraction(1))
    sigma = min(b_ub)
    objective = [Fraction(0)] * d + [Fraction(1)]
    result = solve_lp_max(objective, a_ub, [v - sigma for v in b_ub])
    if result.status != OPTIMAL:  # cannot happen: always feasible, t <= 1
        raise AssertionError(f"margin LP returned {result.status}")
    if result.value + sigma <= 0:
        return None
    return tuple(result.x[:d])


# --- exact planar clipping ---------------------------------------------------


def _clip_halfplane(poly, a, b, c):
    """Keep the part of a convex polygon with a*x + b*y <= c (exact)."""
    if not poly:
        return []
    out = []
    vals = [a * x + b * y - c for x, y in poly]
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        vi, vj = vals[i], vals[j]
        if vi <= 0:
            out.append(poly[i])
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            xi, yi = poly[i]
            xj, yj = poly[j]
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    return out


def _area2(poly) -> Fraction:
    if len(poly) < 3:
        return Fraction(0)
    total = Fraction(0)
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        total += x1 * y2 - x2 * y1
    return total


def _triangle_ccw(tri):
    if orientation(tri) < 0:
        return [tri[0], tri[2], tri[1]]
    return list(tri)


def _clip_triangle(poly, tri):
    tri = _triangle_ccw(tri)
    out = poly
    for i in range(3):
        (x1, y1), (x2, y2) = tri[i], tri[(i + 1) % 3]
        # left of the directed edge (CCW interior): (y2-y1)x + (x1-x2)y <= c
        a, b = y2 - y1, x1 - x2
        c = a * x1 + b * y1
        out = _clip_halfplane(out, a, b, c)
        if not out:
            return []
    return out


def _open_intersection_nonempty(region, tri):
    clipped = _clip_triangle(region, tri)
    if _area2(clipped) > 0:
        return clipped
    return None


def find_disjoint_rainbow_simplices(
    sets: Sequence[Sequence[Point]], k: int
) -> TverbergCertificate | None:
    """First (lexicographic) k-tuple of vertex-disjoint rainbow simplices
    with a common interior point, with an exact witness, or None.

    Gated: refuses instances whose exhaustive enumeration would blow up
    (in particular |A_i| > 12 for the planar k = 3 search).
    """
    classes = [tuple(point(p) for p in cls) for cls in sets]
    d = len(classes) - 1
    if d < 1:
        raise InputError("need at least two color classes")
    if k < 1:
        raise InputError("k must be >= 1")
    sizes = [len(cls) for cls in classes]
    if min(sizes) < k:
        raise InputError(
            f"every class needs at least k={k} points, got sizes {sizes}"
        )
    union = [p for cls in classes for p in cls]
    if len(set(union)) != len(union):
        raise InputError("color classes must be pairwise disjoint point sets")
    violation = general_position_check(union, d)
    if violation is not None:
        raise InputError(f"input not in general position (indices {violation})")
    if max(sizes) > MAX_SET_SIZE_EXHAUSTIVE:
        raise BudgetExceededError(
            f"exhaustive search gated at class size {MAX_SET_SIZE_EXHAUSTIVE}, "
            f"got {max(sizes)}"
        )

    all_tuples = list(itertools.product(*[range(s) for s in sizes]))

    def vertices_of(idx):
        return [classes[i][idx[i]] for i in range(d + 1)]

    if d == 2:
        return _search_plane(all_tuples, k, vertices_of)
    if len(all_tuples) ** k > MAX_TUPLE_ESTIMATE:
        raise BudgetExceededError(
            f"about {len(all_tuples)}^{k} candidate tuples exceed the "
            f"search gate for dimension {d}"
        )
    return _search_general(all_tuples, k, vertices_of)


def _search_general(all_tuples, k, vertices_of):
    for combo in itertools.combinations(all_tuples, k):
        if any(not _disjoint(s, t) for s, t in itertools.combinations(combo, 2)):
            continue
        witness = common_interior_point([vertices_of(t) for t in combo])
        if witness is not None:
            return TverbergCertificate(tuple(combo), witness)
    return None


def _disjoint(t1, t2) -> bool:
    return all(a != b for a, b in zip(t1, t2))


def _search_plane(all_tuples, k, vertices_of):
    triangles = {t: [(v[0], v[1]) for v in vertices_of(t)] for t in all_tuples}
    bboxes = {}
    for t, tri in triangles.items():
        xs = [v[0] for v in tri]
        ys = [v[1] for v in tri]
        bboxes[t] = (min(xs), min(ys), max(xs), max(ys))

    def bbox_overlap(b1, b2):
        return not (
            b1[2] <= b2[0] or b2[2] <= b1[0] or b1[3] <= b2[1] or b2[3] <= b1[1]
        )

    def extend(chosen, region, region_bbox, start):
        if len(chosen) == k:
            # positive area: every vertex weighs in, so the average is
            # strictly interior to the region and to each triangle
            witness = tuple(sum(c) / len(region) for c in zip(*region))
            return TverbergCertificate(tuple(chosen), witness)
        for idx in range(start, len(all_tuples)):
            t = all_tuples[idx]
            if any(not _disjoint(t, c) for c in chosen):
                continue
            if region_bbox is not None and not bbox_overlap(region_bbox, bboxes[t]):
                continue
            if region is None:
                new_region = _triangle_ccw(triangles[t])
            else:
                new_region = _open_intersection_nonempty(region, triangles[t])
                if new_region is None:
                    continue
            xs = [v[0] for v in new_region]
            ys = [v[1] for v in new_region]
            new_bbox = (min(xs), min(ys), max(xs), max(ys))
            found = extend(chosen + [t], new_region, new_bbox, idx + 1)
            if found is not None:
                return found
        return None

    return extend([], None, None, 0)
