"""Rainbow simplicial depth: counting and maximization.

The depth of a point p is the number of rainbow (one vertex per color)
simplices strictly containing p.  `deepest_point` realizes, by search,
the existence of a point contained in many rainbow simplices; the
fractional-Helly machinery that proves existence in general is not
needed at desk scale, where exhaustive evaluation is exact.

Two strategies:

* exact-arrangement (d = 2 only): the depth function is piecewise
  constant on the arrangement of all lines through configuration point
  pairs.  Every positive-depth cell is bounded, hence touches a vertex
  of the arrangement, so evaluating one interior point in every angular
  sector around every vertex provably covers the maximum.
* candidate-sampling (any d): best among rainbow-tuple centroids plus
  seeded random rational points; a heuristic with no optimality claim.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator, Sequence

from .config import ColoredConfiguration
from .errors import InputError, UnsupportedDimensionError
from .geometry import (
    Point,
    integer_scaled,
    is_unambiguous,
    pair_sign_table,
    point,
    point_in_simplex_interior,
)

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
    cfg: ColoredConfiguration, p: Point, collect: bool
) -> tuple[int, list[tuple[int, int, int]]] | None:
    # p in the configuration's integer frame: p*scale = num/den.
    scaled = [c * cfg.scale for c in p]
    den = math.lcm(*(c.denominator for c in scaled))
    num = [c.numerator * (den // c.denominator) for c in scaled]
    table = pair_sign_table(cfg.int_points, cfg.point_colors, den, num)
    if table is None:
        return None
    n = cfg.n
    count = 0
    tuples: list[tuple[int, int, int]] = []
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            gb = n + b
            s1 = row_a[gb]
            row_b = table[gb]
            for c in range(n):
                gc = 2 * n + c
                if s1 == row_b[gc] == table[gc][a]:
                    count += 1
                    if collect:
                        tuples.append((a, b, c))
    return count, tuples


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
    arrangement-based deepest_point still returns witnesses off every
    spanned hyperplane.)
    """
    p = point(p)
    if len(p) != cfg.dimension:
        raise InputError("point dimension does not match configuration")
    fn = _depth_plane if cfg.dimension == 2 else _depth_general
    result = fn(cfg, p, collect=True)
    if result is None:
        raise InputError(
            "point lies on a hyperplane spanned by configuration points"
        )
    count, tuples = result
    return RainbowDepth(count, tuple(tuples))


def _depth_only(cfg: ColoredConfiguration, p: Point) -> int | None:
    fn = _depth_plane if cfg.dimension == 2 else _depth_general
    result = fn(cfg, p, collect=False)
    return None if result is None else result[0]


# --- exact arrangement sweep (d = 2) ---------------------------------------


def _primitive(a: int, b: int) -> tuple[int, int]:
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


def _lines_through_pairs(ipts: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    lines = set()
    for (x1, y1), (x2, y2) in itertools.combinations(ipts, 2):
        a, b = y2 - y1, x1 - x2
        if a == 0 and b == 0:
            continue  # coincident points are rejected upstream
        g = math.gcd(math.gcd(abs(a), abs(b)), abs(a * x1 + b * y1))
        if g == 0:
            g = 1
        c = (a * x1 + b * y1) // g
        a, b = a // g, b // g
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        lines.add((a, b, c))
    return sorted(lines)


def _angular_cmp(u: tuple[int, int], w: tuple[int, int]) -> int:
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    hu, hw = half(u), half(w)
    if hu != hw:
        return -1 if hu < hw else 1
    cross = u[0] * w[1] - u[1] * w[0]
    return 0 if cross == 0 else (-1 if cross > 0 else 1)


def arrangement_cell_points(
    points: Sequence[Point],
) -> Iterator[tuple[Fraction, Fraction]]:
    """One interior rational point for every cell adjacent to every vertex
    of the arrangement of lines through input point pairs.

    Covers every bounded cell (each has a vertex on its boundary); the
    emitted points avoid all arrangement lines exactly.
    """
    ipts, scale = integer_scaled(points)
    lines = _lines_through_pairs(ipts)
    # Vertices: pairwise line intersections, grouped with incident lines.
    vertices: dict[tuple[Fraction, Fraction], set[int]] = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        a1, b1, c1 = lines[i]
        a2, b2, c2 = lines[j]
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = Fraction(c1 * b2 - c2 * b1, det)
        y = Fraction(a1 * c2 - a2 * c1, det)
        vertices.setdefault((x, y), set()).update((i, j))
    for v in sorted(vertices):
        incident = vertices[v]
        dirs = set()
        for li in incident:
            a, b, _ = lines[li]
            d0 = _primitive(b, -a)
            dirs.add(d0)
            dirs.add((-d0[0], -d0[1]))
        ordered = sorted(dirs, key=cmp_to_key(_angular_cmp))
        vx, vy = v
        for u, w in zip(ordered, ordered[1:] + ordered[:1]):
            sx, sy = u[0] + w[0], u[1] + w[1]
            if sx == 0 and sy == 0:
                continue
            t_min = None
            for li, (a, b, c) in enumerate(lines):
                if li in incident:
                    continue
                denom = a * sx + b * sy
                if denom == 0:
                    continue
                t = Fraction(c - a * vx - b * vy, denom)
                if t > 0 and (t_min is None or t < t_min):
                    t_min = t
            step = Fraction(1) if t_min is None else t_min / 2
            # back to the original frame: the lattice was scaled up by `scale`
            yield ((vx + step * sx) / scale, (vy + step * sy) / scale)


def _sampling_candidates(
    cfg: ColoredConfiguration,
    seed: int,
    centroid_budget: int,
    random_budget: int,
) -> Iterator[Point]:
    d = cfg.dimension
    n = cfg.n
    total = n ** (d + 1)
    rng = random.Random(f"deepest:{seed}")
    if total <= centroid_budget:
        index_tuples = itertools.product(range(n), repeat=d + 1)
    else:
        index_tuples = (
            tuple(rng.randrange(n) for _ in range(d + 1))
            for _ in range(centroid_budget)
        )
    k = Fraction(1, d + 1)
    for idx in index_tuples:
        verts = [cfg.colors[i][idx[i]] for i in range(d + 1)]
        yield tuple(k * sum(v[j] for v in verts) for j in range(d))
    union = cfg.all_points()
    lo = [min(p[j] for p in union) for j in range(d)]
    hi = [max(p[j] for p in union) for j in range(d)]
    den = 9973
    for _ in range(random_budget):
        yield tuple(
            lo[j] + (hi[j] - lo[j]) * Fraction(rng.randrange(den + 1), den)
            for j in range(d)
        )


def deepest_point(
    cfg: ColoredConfiguration,
    strategy: str = "candidate-sampling",
    seed: int = 0,
    centroid_budget: int = DEFAULT_CENTROID_BUDGET,
    random_budget: int = DEFAULT_RANDOM_BUDGET,
) -> DepthResult:
    """Search for a point of maximum rainbow depth.

    exact-arrangement evaluates every cell of the line arrangement and
    is exact (d = 2 only); candidate-sampling is a bounded heuristic.
    Both are deterministic; ties break to the lexicographically smallest
    witness point.
    """
    if strategy == "exact-arrangement":
        if cfg.dimension != 2:
            raise UnsupportedDimensionError(
                "exact-arrangement strategy requires dimension 2"
            )
        candidates: Iterator[Point] = arrangement_cell_points(cfg.all_points())
    elif strategy == "candidate-sampling":
        candidates = _sampling_candidates(cfg, seed, centroid_budget, random_budget)
    else:
        raise InputError(f"unknown strategy {strategy!r}")

    best_depth = -1
    best_point: Point | None = None
    examined = 0
    for cand in candidates:
        examined += 1
        depth = _depth_only(cfg, cand)
        if depth is None:
            continue  # on a spanned hyperplane: ambiguous, skip
        if depth > best_depth or (depth == best_depth and cand < best_point):
            best_depth = depth
            best_point = cand
    if best_point is None:
        raise InputError(
            "no valid candidate found (every candidate hit a spanned hyperplane)"
        )
    return DepthResult(point(best_point), best_depth, examined)
