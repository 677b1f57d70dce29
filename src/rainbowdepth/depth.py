"""Rainbow simplicial depth: counting and maximization.

The depth of a point p is the number of rainbow (one vertex per color)
simplices strictly containing p.  It is defined only where that is
unambiguous: p lies on no hyperplane spanned by d points of pairwise
distinct colors (in the plane, on no line through two differently
colored points); same-color collinearity is allowed.

In the plane, depth is the Rousseeuw-Ruts angular count: a rainbow
triangle misses p exactly when one vertex v sees the other two inside
the open half-turn counter-clockwise from v, so
depth = n^3 - sum over v of c_a(v)*c_b(v).  Each term depends only on
the sector of v's fan of 4n directions +-(q - v), q of the other two
colors, that holds p - v; the fans and their per-sector products are
built once per configuration, in O(N * n log n) for N = 3n points: one
sort and one rotating count per vertex (`_fans`).  A candidate costs
one `bisect` per configuration point (`_depth_fan`), stopping as soon
as it cannot reach the best depth so far.  The containing tuples
themselves, needed only at the final point, come from an n^3 scan of
the pair sign table; the pipeline compares the two counts on every
run.  In higher dimension every rainbow simplex is tested directly.

`deepest_point` realizes, by search, the existence of a point
contained in many rainbow simplices; the fractional-Helly machinery
that proves existence in general is not needed at desk scale, where
exhaustive evaluation is exact.  Candidates never leave the
configuration's integer frame: each is (den, num), the point
num/(den*scale), with a fixed den per kind (d+1 for a centroid, 9973
for a random point, one per vertex for a cell point).  Only a candidate
whose depth reaches the best so far becomes a Fraction point, for the
tie-break; d != 2 builds one per candidate for the direct test.

Two strategies:

* exact-arrangement (d = 2 only): depth changes only across rainbow
  triangle edges, so it is constant on the cells of the arrangement of
  lines through differently colored point pairs.  Every positive-depth
  cell lies in a triangle, so it is bounded and has a vertex of the
  arrangement; one interior point in every angular sector around every
  vertex therefore covers the maximum.  The point is a closed-form step
  from the vertex, short enough to cross no line (see `_cell_points`).
* candidate-sampling (any d): best among rainbow-tuple centroids plus
  seeded random rational points; a heuristic with no optimality claim.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .config import ColoredConfiguration, Framed
from .errors import InputError, UnsupportedDimensionError
from .geometry import (
    Point,
    is_unambiguous,
    pair_sign_table,
    point,
    point_in_simplex_interior,
    primitive_direction,
)

DEFAULT_STRATEGY = "candidate-sampling"
STRATEGIES = (DEFAULT_STRATEGY, "exact-arrangement")
DEFAULT_CENTROID_BUDGET = 20000
DEFAULT_RANDOM_BUDGET = 1000


@dataclass(frozen=True)
class ConstantsBundle:
    """The quantitative constants attached to a (d, n) instance.

    alpha is the guaranteed fraction of intersecting (d+1)-tuples of
    rainbow simplices, beta = alpha/(d+1) the resulting depth fraction,
    epsilon the extraction parameter, and n_rainbow = n^(d+1) the number
    of rainbow simplices.  All exact rationals.
    """

    d: int
    alpha: Fraction
    beta: Fraction
    epsilon: Fraction
    n_rainbow: int


def theoretical_constants(d: int, n: int) -> ConstantsBundle:
    if d < 1 or n < 1:
        raise InputError("need d >= 1 and n >= 1")
    alpha = Fraction(1, (5 * d) ** (d * d))
    beta = alpha / (d + 1)
    epsilon = Fraction(1, 2 ** (d * 2**d))
    return ConstantsBundle(d, alpha, beta, epsilon, n ** (d + 1))


def counting_inequality_diagnostic(d: int, n: int) -> dict:
    """The intersecting-tuple counting bound, evaluated exactly.

    lhs = C(n,4d)^(d+1) / C(n-d-1,3d-1)^(d+1), rhs = alpha * C(N, d+1).
    Asymptotic in n: it can fail below an implicit threshold, so this is
    a diagnostic report, never an assertion.
    """
    bundle = theoretical_constants(d, n)
    if n < 4 * d or n - d - 1 < 3 * d - 1:
        return {"d": d, "n": n, "defined": False, "holds": None}
    lhs = Fraction(
        math.comb(n, 4 * d) ** (d + 1), math.comb(n - d - 1, 3 * d - 1) ** (d + 1)
    )
    rhs = bundle.alpha * math.comb(bundle.n_rainbow, d + 1)
    return {
        "d": d,
        "n": n,
        "defined": True,
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs > rhs,
    }


@dataclass(frozen=True)
class RainbowDepth:
    count: int
    tuples: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DepthResult:
    witness: Point
    depth: int
    candidates_examined: int


def _depth_plane(
    cfg: ColoredConfiguration, p: Point
) -> list[tuple[int, int, int]] | None:
    """The rainbow triangles strictly containing p, by an n^3 scan of the
    pair sign table; None when p is ambiguous."""
    den, num = cfg.frame(p)
    table = pair_sign_table(cfg.int_points, cfg.point_colors, den, num)
    if table is None:
        return None
    return list(contained_triangles(table, cfg.n))


def contained_triangles(
    table: list[list[int]], n: int
) -> Iterator[tuple[int, int, int]]:
    """The rainbow triangles (a, b, c) that strictly contain p, from the
    `pair_sign_table` of p against a planar configuration's frame points
    (class i at i*n ... i*n + n - 1), in lexicographic order: with
    vectors taken from p, p is inside abc exactly when cross(a, b),
    cross(b, c) and cross(c, a) have one sign."""
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            gb = n + b
            s1 = row_a[gb]
            row_b = table[gb]
            for c in range(n):
                gc = 2 * n + c
                if s1 == row_b[gc] == table[gc][a]:
                    yield a, b, c


_OTHER_COLORS = ((1, 2), (0, 2), (0, 1))


def _turn_key(x: int, y: int, k: int, h: int) -> int:
    """Exact counter-clockwise sort key of a nonzero integer vector from
    the positive x-axis, on a turn of length [0, 8h): the upper
    half-plane maps into (h, 3h), the lower one into (5h, 7h), and
    within a half the key is the cotangent -x/y floored at resolution
    1/k, clamped to (-h, h).

    Distinct cotangents differ by at least 1/(|y1|*|y2|), so among
    vectors with k >= |y1|*|y2| and |x|*k < h - 1 the keys order
    strictly and equal directions get equal keys.  The key of any other
    vector, clamped or not, may equal one of theirs (a cross product
    then decides) but never lies on the wrong side of one."""
    if not y:
        return 0 if x > 0 else 4 * h
    cot = (-x * k) // y
    if cot <= -h:
        cot = 1 - h
    elif cot >= h:
        cot = h - 1
    return (2 * h if y > 0 else 6 * h) + cot


# Per-vertex fans of one planar configuration: (k, h, vertices) with one
# (vx, vy, keys, dirs, products) per configuration point v.
Fans = tuple[
    int, int, list[tuple[int, int, list[int], list[tuple[int, int]], list[int]]]
]


def _fans(cfg: ColoredConfiguration) -> Fans:
    """The candidate-independent half of the planar depth count.

    A rainbow triangle misses p exactly when one vertex v sees the other
    two inside the open half-turn counter-clockwise from v, as seen from
    p, and then only one vertex does.  So depth = n^3 - sum over v of
    c_a(v)*c_b(v), where c_j(v) counts the points q of each other color
    j with cross(v - p, q - p) = cross(q - v, p - v) > 0.  Around v that
    count changes only where p - v crosses a direction +-(q - v), so the
    4n such directions (pairwise distinct, by general position) cut the
    turn around v into sectors of constant c_a(v)*c_b(v).  Each fan
    holds the directions in counter-clockwise order with their
    `_turn_key`, and `products`, indexed by bisect position: products[i]
    is the product of the sector just before dirs[i], and products[4n],
    the sector after the last direction, is products[0] again (4n + 1
    entries).

    The counts are taken directly once, at the direction dirs[-1] +
    dirs[0] strictly inside the wrap sector, and then rotated: turning
    counter-clockwise past +(q - v) adds q to its color's count, past
    -(q - v) removes it.  So a fan costs O(n log n), not O(n^2).
    """
    pts, n = cfg.int_points, cfg.n
    big = max(
        max(p[j] for p in pts) - min(p[j] for p in pts) for j in range(2)
    )
    k, h = big * big, big**3 + 2
    vertices = []
    for (vx, vy), c in zip(pts, cfg.point_colors):
        # (key, direction, color side, count step) per signed direction
        signed = []
        for side, j in enumerate(_OTHER_COLORS[c]):
            for qx, qy in pts[j * n : (j + 1) * n]:
                x, y = qx - vx, qy - vy
                signed.append((_turn_key(x, y, k, h), (x, y), side, 1))
                signed.append((_turn_key(-x, -y, k, h), (-x, -y), side, -1))
        signed.sort()
        keys = [key for key, _, _, _ in signed]
        dirs = [u for _, u, _, _ in signed]
        sx = dirs[-1][0] + dirs[0][0]
        sy = dirs[-1][1] + dirs[0][1]
        counts = [0, 0]
        for _, (x, y), side, step in signed:
            if step > 0 and x * sy - y * sx > 0:
                counts[side] += 1
        products = [counts[0] * counts[1]]
        for _, _, side, step in signed:
            counts[side] += step
            products.append(counts[0] * counts[1])
        vertices.append((vx, vy, keys, dirs, products))
    return k, h, vertices


def _depth_fan(fans: Fans, n3: int, den: int, num, limit: int) -> int | None:
    """Planar rainbow depth n3 - outside of p = num/den in the integer
    frame (den > 0, not necessarily in lowest terms), where outside sums,
    per configuration point v, the product of the sector of v's fan that
    holds p - v (see `_fans`): one `bisect` per vertex, on the
    `_turn_key` of p - v computed inline, then products[pos] read at the
    bisect position.

    None when p is ambiguous, under the rule of `pair_sign_table`: p is a
    configuration point, or lies on a line through two points of
    different colors, so p - v runs along a fan direction.  None as well,
    possibly before an ambiguity is seen, as soon as outside exceeds
    `limit`: the depth is returned exactly when n3 - depth <= limit.
    """
    k, h, vertices = fans
    h2, h4, h6 = 2 * h, 4 * h, 6 * h
    px, py = num
    outside = 0
    for vx, vy, keys, dirs, products in vertices:
        x = px - den * vx
        y = py - den * vy
        # `_turn_key(x, y, k, h)`, inlined: this loop is the hot path.
        if y:
            cot = (-x * k) // y
            if cot <= -h:
                cot = 1 - h
            elif cot >= h:
                cot = h - 1
            key = (h2 if y > 0 else h6) + cot
        elif x:
            key = 0 if x > 0 else h4
        else:
            return None  # p is a configuration point
        pos = bisect_right(keys, key)
        if pos and keys[pos - 1] == key:
            # Same floor as the fan direction below: the cross decides.
            fx, fy = dirs[pos - 1]
            cross = fx * y - fy * x
            if cross == 0:
                return None  # p - v runs along a bichromatic line
            if cross < 0:
                pos -= 1
        outside += products[pos]
        if outside > limit:
            return None
    return n3 - outside


def _depth_general(
    cfg: ColoredConfiguration, p: Point, collect: bool
) -> tuple[int, list[tuple[int, ...]]] | None:
    if not is_unambiguous(cfg.colors, p):
        return None
    d = cfg.dimension
    count = 0
    tuples = []
    for idx in itertools.product(range(cfg.n), repeat=d + 1):
        verts = [cfg.colors[i][idx[i]] for i in range(d + 1)]
        if point_in_simplex_interior(p, verts):
            count += 1
            if collect:
                tuples.append(idx)
    return count, tuples


def rainbow_depth_at(cfg: ColoredConfiguration, p: Point) -> RainbowDepth:
    """Exact rainbow depth of p, with the containing index tuples.

    Errors if p lies on a hyperplane spanned by d configuration points
    of pairwise distinct colors: those hyperplanes carry rainbow-simplex
    facets, so strict containment would be ambiguous at p.  (Same-color
    collinearities cannot touch a rainbow facet and are allowed; the
    arrangement-based deepest_point returns witnesses off every
    bichromatic line.)
    """
    p = point(p)
    if len(p) != cfg.dimension:
        raise InputError("point dimension does not match configuration")
    if cfg.dimension == 2:
        tuples = _depth_plane(cfg, p)
    else:
        result = _depth_general(cfg, p, collect=True)
        tuples = None if result is None else result[1]
    if tuples is None:
        raise InputError(
            "point lies on a hyperplane spanned by configuration points"
        )
    return RainbowDepth(len(tuples), tuple(tuples))


# --- exact arrangement sweep (d = 2) ---------------------------------------


def _cell_points(cfg: ColoredConfiguration) -> Iterator[Framed]:
    """One interior point of every cell around every vertex of the
    arrangement of lines through differently colored point pairs, as
    (den, num) in the integer frame.

    Each point lies in the open sector between two angularly adjacent
    line directions at a vertex v, at v + t*s with s = u + w their sum
    and t = 1/(2*L*A*(|sx|+|sy|)), in the integer frame: L is the lcm of
    the denominators of v, A the largest |a| or |b| over all lines
    a*x + b*y = c.  A line missing v has a nonzero residual
    c - a*vx - b*vy, a multiple of 1/L, so the ray v + t*s meets it no
    sooner than at twice that t; adjacent directions are less than a
    half-turn apart, so s is nonzero and no line through v separates
    the point from its sector.
    """
    pts, colors = cfg.int_points, cfg.point_colors
    lines = set()
    for i, j in itertools.combinations(range(len(pts)), 2):
        if colors[i] != colors[j]:
            (x1, y1), (x2, y2) = pts[i], pts[j]
            a, b = primitive_direction(y2 - y1, x1 - x2)
            lines.add((a, b, a * x1 + b * y1))
    big = max(max(abs(a), abs(b)) for a, b, _ in lines)
    # Vertices: pairwise line intersections, with the ± directions of
    # the lines through them.
    vertices: dict[tuple[Fraction, Fraction], set[tuple[int, int]]] = {}
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det:
            v = (Fraction(c1 * b2 - c2 * b1, det), Fraction(a1 * c2 - a2 * c1, det))
            vertices.setdefault(v, set()).update(
                ((b1, -a1), (-b1, a1), (b2, -a2), (-b2, a2))
            )
    resolution = (big * big, big**3 + 2)  # (k, h) of `_turn_key`
    for (vx, vy), dirs in vertices.items():
        ordered = sorted(dirs, key=lambda u: _turn_key(*u, *resolution))
        lcm = math.lcm(vx.denominator, vy.denominator)
        lx = vx.numerator * (lcm // vx.denominator)
        ly = vy.numerator * (lcm // vy.denominator)
        for u, w in zip(ordered, ordered[1:] + ordered[:1]):
            sx, sy = u[0] + w[0], u[1] + w[1]
            # v + t*s = (L*v*k + s) / (L*k) with k = 2*A*(|sx|+|sy|)
            k = 2 * big * (abs(sx) + abs(sy))
            yield lcm * k, (lx * k + sx, ly * k + sy)


def _sampling_candidates(
    cfg: ColoredConfiguration,
    seed: int,
    centroid_budget: int,
    random_budget: int,
) -> Iterator[Framed]:
    """Rainbow-tuple centroids (den = d+1 over the sum of the vertices),
    then seeded random points of the bounding box on a 1/9973 grid
    (den = 9973), as (den, num) in the integer frame."""
    d = cfg.dimension
    n = cfg.n
    total = n ** (d + 1)
    rng = random.Random(f"deepest:{seed}")
    pts = cfg.int_points
    classes = [pts[i * n : (i + 1) * n] for i in range(d + 1)]
    if total <= centroid_budget:
        vertex_tuples = itertools.product(*classes)
    else:
        vertex_tuples = (
            tuple(cls[rng.randrange(n)] for cls in classes)
            for _ in range(centroid_budget)
        )
    for verts in vertex_tuples:
        yield d + 1, tuple(map(sum, zip(*verts)))
    lo = [min(p[j] for p in pts) for j in range(d)]
    hi = [max(p[j] for p in pts) for j in range(d)]
    den = 9973
    for _ in range(random_budget):
        yield den, tuple(
            den * lo[j] + (hi[j] - lo[j]) * rng.randrange(den + 1)
            for j in range(d)
        )


def deepest_point(
    cfg: ColoredConfiguration,
    strategy: str = DEFAULT_STRATEGY,
    seed: int = 0,
    centroid_budget: int = DEFAULT_CENTROID_BUDGET,
    random_budget: int = DEFAULT_RANDOM_BUDGET,
) -> DepthResult:
    """Search for a point of maximum rainbow depth.

    exact-arrangement evaluates one point in every cell around every
    vertex of the bichromatic line arrangement and is exact (d = 2
    only); candidate-sampling is a bounded heuristic.  Both generate
    candidates as integer numerators over a fixed denominator in the
    configuration's integer frame and score them there, in the plane
    against fans built once here, with the walk cut short once a
    candidate falls below the best depth; the witness is converted back
    to Fractions only when it ties or beats the best.  Both are
    deterministic; ties break to the lexicographically smallest witness
    point.
    """
    if strategy == "exact-arrangement":
        if cfg.dimension != 2:
            raise UnsupportedDimensionError(
                "exact-arrangement strategy requires dimension 2"
            )
        candidates: Iterator[Framed] = _cell_points(cfg)
    elif strategy == "candidate-sampling":
        candidates = _sampling_candidates(cfg, seed, centroid_budget, random_budget)
    else:
        raise InputError(f"unknown strategy {strategy!r}")

    n_rainbow = cfg.n ** (cfg.dimension + 1)
    fans = _fans(cfg) if cfg.dimension == 2 else None
    best_depth = -1
    best_point: Point | None = None
    examined = 0
    for den, num in candidates:
        examined += 1
        if fans is not None:
            # Stop once the candidate cannot reach the best; a tie is
            # still scored in full.
            depth = _depth_fan(fans, n_rainbow, den, num, n_rainbow - best_depth)
        else:
            result = _depth_general(cfg, cfg.unframe(den, num), collect=False)
            depth = None if result is None else result[0]
        if depth is None or depth < best_depth:
            continue  # None: ambiguous, or below the best
        # Only a candidate that reaches the incumbent becomes a Fraction
        # point, for the lexicographic tie-break.
        cand = cfg.unframe(den, num)
        if depth > best_depth or cand < best_point:
            best_depth = depth
            best_point = cand
    if best_point is None:
        raise InputError(
            "no valid candidate found (every candidate hit a spanned hyperplane)"
        )
    return DepthResult(best_point, best_depth, examined)
