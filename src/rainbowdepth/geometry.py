"""Exact geometric predicates over rational coordinates.

Every predicate is a sign-of-determinant question computed with
`fractions.Fraction`; there is no floating point and no tolerance anywhere.
All functions are pure and safe to call concurrently.

Points are plain tuples of Fractions.  `point()` coerces ints, strings
("2", "1/3", "0.25") and Fractions into that representation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetExceededError, InputError

Point = tuple[Fraction, ...]
Sign = int  # -1, 0 or +1


# Largest bit length of the numerator or the denominator of a rational
# read from a string; bigger ones raise BudgetExceededError.
MAX_COORDINATE_BITS = 4096

_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def _bounded_rational(text: str) -> Fraction:
    """Fraction(text), refused over MAX_COORDINATE_BITS."""
    match = _EXPONENT.search(text)
    exponent = match.group(1).replace("_", "").lstrip("0") if match else ""
    # A longer string or a larger decimal exponent is refused unread:
    # either would build an integer far over the limit (leading zeros aside).
    too_big = (
        len(text) > MAX_COORDINATE_BITS
        or int(exponent or 0) > MAX_COORDINATE_BITS
    )
    if not too_big:
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {text!r}") from exc
        too_big = max(value.numerator.bit_length(), value.denominator.bit_length()) > (
            MAX_COORDINATE_BITS
        )
    if too_big:
        raise BudgetExceededError(
            f"rational {text[:40]!r} exceeds {MAX_COORDINATE_BITS} bits"
        )
    return value


def rational(value) -> Fraction:
    """Coerce ints, Fractions and strings like "1/3" or "0.25" exactly.

    Strings are bounded by MAX_COORDINATE_BITS; ints and Fractions are
    taken as they are."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _bounded_rational(value)
    if isinstance(value, float):
        raise InputError(
            f"float {value!r} rejected: pass an exact string or Fraction"
        )
    raise InputError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    if not isinstance(value, Fraction):
        value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # over Python's int-to-str digit limit
        raise BudgetExceededError(f"rational too large to print: {exc}") from exc


def point(*coords) -> Point:
    if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
        coords = tuple(coords[0])
    return tuple(rational(c) for c in coords)


def sign(value) -> Sign:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane {x : normal . x = offset}; normal must be nonzero."""

    normal: Point
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise InputError("hyperplane normal must be nonzero")

    def evaluate(self, p: Point) -> Fraction:
        if len(p) != len(self.normal):
            raise InputError(
                f"dimension mismatch: point has {len(p)} coords, "
                f"hyperplane normal has {len(self.normal)}"
            )
        return sum(a * x for a, x in zip(self.normal, p)) - self.offset

    def side(self, p: Point) -> Sign:
        return sign(self.evaluate(p))

    def flipped(self) -> "Hyperplane":
        return Hyperplane(tuple(-a for a in self.normal), -self.offset)


def hyperplane(normal, offset) -> Hyperplane:
    return Hyperplane(point(normal), rational(offset))


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with nonzero pivoting."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def orientation(vertices: Sequence[Point]) -> Sign:
    """Sign of the homogeneous determinant of d+1 points in dimension d.

    0 exactly when the points are affinely dependent.
    """
    verts = [point(v) for v in vertices]
    d = len(verts) - 1
    if d < 1:
        raise InputError("orientation needs at least 2 points")
    for v in verts:
        if len(v) != d:
            raise InputError(
                f"dimension mismatch: {len(verts)} points need dimension {d}, "
                f"got a point of dimension {len(v)}"
            )
    if d == 2:
        (ax, ay), (bx, by), (cx, cy) = verts
        return sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    return sign(orientation_value(verts))


def orientation_value(vertices: Sequence[Point]) -> Fraction:
    """The homogeneous determinant itself (twice the signed simplex volume
    in the plane); linear in each vertex."""
    verts = [point(v) for v in vertices]
    d = len(verts) - 1
    rows = [
        [verts[i][j] - verts[0][j] for j in range(d)] for i in range(1, d + 1)
    ]
    return _det(rows)


def orientation_form(others: Sequence[Point], i: int) -> tuple[list[Fraction], Fraction]:
    """The orientation value of `others` with a point p inserted at
    position i, as the affine form coeffs . p + const.  The determinant
    is affine in each vertex, so the form is read off at the origin and
    at the unit vectors."""
    verts = [point(v) for v in others]
    d = len(verts)

    def at(p):
        return orientation_value(verts[:i] + [p] + verts[i:])

    const = at(tuple(Fraction(0) for _ in range(d)))
    coeffs = [
        at(tuple(Fraction(1 if j == k else 0) for j in range(d))) - const
        for k in range(d)
    ]
    return coeffs, const


def point_in_simplex_interior(p: Point, vertices: Sequence[Point]) -> bool:
    """Strict interior test: boundary points (and vertices) return False.

    True iff replacing any one vertex by p preserves the simplex
    orientation.  Requires a nondegenerate simplex.
    """
    p = point(p)
    verts = [point(v) for v in vertices]
    base = orientation(verts)
    if base == 0:
        raise InputError("degenerate simplex: vertices are affinely dependent")
    for i in range(len(verts)):
        replaced = verts[:i] + [p] + verts[i + 1 :]
        if orientation(replaced) != base:
            return False
    return True


def barycentric_coordinates(p: Point, vertices: Sequence[Point]) -> list[Fraction]:
    """Exact barycentric coordinates of p w.r.t. a nondegenerate simplex.

    Independent containment oracle: p is strictly interior iff every
    coordinate is strictly positive.
    """
    p = point(p)
    verts = [point(v) for v in vertices]
    total = orientation_value(verts)
    if total == 0:
        raise InputError("degenerate simplex: vertices are affinely dependent")
    coords = []
    for i in range(len(verts)):
        replaced = verts[:i] + [p] + verts[i + 1 :]
        coords.append(orientation_value(replaced) / total)
    return coords


def side_of_hyperplane(h: Hyperplane, p: Point) -> Sign:
    return h.side(point(p))


def general_position_check(points: Sequence[Point], d: int):
    """All (d+1)-tuples affinely independent.

    Returns None when fine, else the lexicographically first violating
    index tuple.  Fewer than d+1 points is vacuously fine.  In the plane
    the check hashes integer directions, O(N^2) expected; otherwise it
    tests every (d+1)-tuple.
    """
    pts = [point(p) for p in points]
    for p in pts:
        if len(p) != d:
            raise InputError(
                f"point of dimension {len(p)} in a dimension-{d} check"
            )
    if d == 2:
        return first_collinear_triple(integer_scaled(pts)[0])
    for combo in itertools.combinations(range(len(pts)), d + 1):
        if orientation([pts[i] for i in combo]) == 0:
            return combo
    return None


def primitive_direction(dx: int, dy: int) -> tuple[int, int]:
    """(dx, dy) divided by its gcd, with the sign fixed so that a vector
    and its negation map to the same direction; (0, 0) stays (0, 0)."""
    g = math.gcd(dx, dy)
    if g:
        dx, dy = dx // g, dy // g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy


def first_collinear_triple(ipts: Sequence[tuple[int, int]]):
    """Lexicographically first collinear (i, j, k), i < j < k, of planar
    integer points, or None; O(N^2) expected time.

    For each i, j and k are collinear with i exactly when the directions
    from i to them agree up to sign, or when either coincides with i.
    """
    gcd = math.gcd
    m = len(ipts)
    for i in range(m - 2):
        xi, yi = ipts[i]
        first: dict[tuple[int, int], int] = {}
        best = None
        for j in range(i + 1, m):
            x, y = ipts[j]
            dx, dy = x - xi, y - yi
            g = gcd(dx, dy)
            if not g:
                # q_j = q_i: every pair containing j is collinear with i.
                pair = (i + 1, i + 2) if j == i + 1 else (i + 1, j)
                return (i,) + min(pair, best or pair)
            if dx < 0 or (not dx and dy < 0):
                g = -g
            # the primitive direction, up to sign (`primitive_direction`)
            earlier = first.setdefault((dx // g, dy // g), j)
            if earlier != j and (best is None or (earlier, j) < best):
                best = (earlier, j)
        if best is not None:
            return (i,) + best
    return None


def integer_scaled(points: Iterable[Point]) -> tuple[list[tuple[int, ...]], int]:
    """Scale rational points by the lcm of all denominators: each
    coordinate c maps to the integer c.numerator * (scale // c.denominator),
    with no Fraction arithmetic.

    Sign predicates are invariant under the uniform positive scaling, and
    pure-integer cross products are much faster in hot loops.
    """
    pts = [point(p) for p in points]
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    return [
        tuple(c.numerator * (scale // c.denominator) for c in p) for p in pts
    ], scale


def pair_sign_table(
    ipts: Sequence[tuple[int, ...]],
    colors: Sequence[int],
    den: int,
    num: Sequence[int],
) -> list[list[Sign]] | None:
    """Signs of orient(p, q_i, q_j) for all pairs of planar integer points.

    p is num/den in the frame of `ipts` (den > 0), so each q - p is
    compared as den*q - num, a positive multiple of it.  None when p lies
    on a line through two points of different colors: those lines carry
    rainbow-triangle edges, so strict containment would be ambiguous
    there.  Same-color collinearities are harmless (no rainbow simplex
    has a same-color edge) and are recorded as 0.
    """
    m = len(ipts)
    px, py = num
    dx = [den * q[0] - px for q in ipts]
    dy = [den * q[1] - py for q in ipts]
    table = [[0] * m for _ in range(m)]
    for i in range(m):
        dxi, dyi = dx[i], dy[i]
        ti = table[i]
        for j in range(i + 1, m):
            v = dxi * dy[j] - dyi * dx[j]
            if v == 0:
                if colors[i] != colors[j]:
                    return None
                continue
            s = 1 if v > 0 else -1
            ti[j] = s
            table[j][i] = -s
    return table


def is_unambiguous(classes: Sequence[Sequence[Point]], p: Point) -> bool:
    """p lies on no hyperplane spanned by d points of pairwise distinct
    classes.

    Those hyperplanes carry the facets of the rainbow simplices (one
    vertex per class), so exactly then does every rainbow simplex
    contain p strictly or miss it, never touch it.  Hyperplanes through
    two points of one class carry no rainbow facet and are allowed.  In
    the plane this is `pair_sign_table` on integers.
    """
    p = point(p)
    d = len(p)
    union = [point(q) for cls in classes for q in cls]
    colors = [ci for ci, cls in enumerate(classes) for _ in cls]
    if any(len(q) != d for q in union):
        raise InputError(f"point dimension does not match dimension {d}")
    if d == 2:
        scaled, _ = integer_scaled(union + [p])
        return pair_sign_table(scaled[:-1], colors, 1, scaled[-1]) is not None
    for combo in itertools.combinations(range(len(union)), d):
        if len({colors[i] for i in combo}) < d:
            continue  # includes a same-class pair: never a rainbow facet
        if orientation([union[i] for i in combo] + [p]) == 0:
            return False
    return True


def convex_hull_2d(points: Sequence[Point]) -> list[Point]:
    """Exact planar convex hull (Andrew's monotone chain), CCW order.

    Collinear boundary points are dropped; degenerate inputs return the
    distinct extreme points (2 for a segment, 1 for a single point).
    """
    pts = sorted(set(point(p) for p in points))
    if len(pts) <= 2:
        return pts
    def build(seq):
        chain: list[Point] = []
        for p in seq:
            while len(chain) >= 2 and orientation([chain[-2], chain[-1], p]) <= 0:
                chain.pop()
            chain.append(p)
        return chain
    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points equal after dedupe (cannot happen here)
        return pts[:1]
    return hull


def affine_image(p: Point, matrix: Sequence[Sequence], shift: Sequence) -> Point:
    """Apply x -> M x + t with exact rational entries."""
    p = point(p)
    mat = [[rational(e) for e in row] for row in matrix]
    t = point(shift)
    if len(mat) != len(p) or any(len(row) != len(p) for row in mat):
        raise InputError("affine map shape does not match point dimension")
    return tuple(
        sum(mat[i][j] * p[j] for j in range(len(p))) + t[i]
        for i in range(len(p))
    )
