"""Separated families, hyperplane transversals, ham-sandwich cuts,
and the trimming loop that makes {O} and the convex hulls of the color
subsets a separated family.

A family of convex sets is separated when, within every (d+1)-tuple,
each group of j <= d members can be strictly separated from the rest by
a hyperplane.  Strict separability is decided by an exact rational LP
with one row per point (in the plane, per hull vertex: the hull
reduction changes no answer); equivalently -- and this is the
cross-validation used in the tests -- a (d+1)-tuple is separated exactly
when no hyperplane meets all d+1 closed hulls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InputError,
    TrimExhaustedError,
    UnsupportedDimensionError,
    ValidationError,
)
from .geometry import (
    Hyperplane,
    Point,
    Sign,
    convex_hull_2d,
    format_rational,
    is_unambiguous,
    orientation,
    point,
    primitive_direction,
)
from .lp import OPTIMAL, solve_lp_max

DEFAULT_MAX_STEPS = 64


@dataclass(frozen=True)
class SeparationWitness:
    """A failing (tuple, split) pair: no hyperplane strictly separates
    the split group from the rest of the tuple."""

    tuple_indices: tuple[int, ...]
    split: tuple[int, ...]


def strictly_separating_hyperplane(
    a_pts: Sequence[Point], b_pts: Sequence[Point]
) -> Hyperplane | None:
    """Hyperplane with normal.a < offset < normal.b for all a, b.

    None exactly when the convex hulls intersect or touch.  Decided by
    maximizing a margin delta <= 1 subject to w.a - c + delta <= 0 and
    c - w.b + delta <= 0; delta > 0 iff strict separation exists.  Strict
    separation is unchanged by scaling (w, c), so a separable pair scales
    its separator up to delta = 1 and any other pair stays at delta = 0:
    delta <= 1 alone bounds the LP, and the origin is feasible.
    """
    a_pts = [point(p) for p in a_pts]
    b_pts = [point(p) for p in b_pts]
    if not a_pts or not b_pts:
        raise InputError("both point sets must be nonempty")
    d = len(a_pts[0])
    if any(len(p) != d for p in a_pts + b_pts):
        raise InputError("mixed dimensions in separation input")
    if d == 2:
        a_pts = convex_hull_2d(a_pts)
        b_pts = convex_hull_2d(b_pts)
    # Variables (w_1..w_d, c, delta); maximize delta.
    a_ub = [list(p) + [-1, 1] for p in a_pts]  # w.a - c + delta <= 0
    a_ub += [[-x for x in p] + [1, 1] for p in b_pts]  # c - w.b + delta <= 0
    a_ub.append([0] * (d + 1) + [1])  # delta <= 1
    b_ub = [0] * (len(a_ub) - 1) + [1]
    result = solve_lp_max([0] * (d + 1) + [1], a_ub, b_ub)
    if result.status != OPTIMAL:
        raise AssertionError(f"separation LP returned {result.status}")
    if result.value <= 0:
        return None
    return Hyperplane(tuple(result.x[:d]), result.x[d])


def _canonical_splits(tuple_indices: tuple[int, ...], d: int):
    """Unordered proper splits of a (d+1)-tuple: the group containing the
    first body, of size 1..d, in (size, lex) order."""
    first, rest = tuple_indices[0], tuple_indices[1:]
    for size in range(1, d + 1):
        for extra in itertools.combinations(rest, size - 1):
            yield (first,) + extra


def _split_fails(
    pts: list[list[Point]], combo: tuple[int, ...], group: tuple[int, ...]
) -> bool:
    """No hyperplane strictly separates the bodies of `group` from the
    rest of the tuple `combo`."""
    g_pts = [p for i in group for p in pts[i]]
    h_pts = [p for i in combo if i not in group for p in pts[i]]
    return strictly_separating_hyperplane(g_pts, h_pts) is None


def _failing_splits(pts: list[list[Point]], d: int):
    """Every (tuple, split) of the bodies `pts` whose split group cannot
    be strictly separated from the rest of its (d+1)-tuple: tuples in
    lexicographic order, splits in `_canonical_splits` order."""
    for combo in itertools.combinations(range(len(pts)), d + 1):
        for group in _canonical_splits(combo, d):
            if _split_fails(pts, combo, group):
                yield combo, group


def is_separated_family(
    bodies: Sequence[Sequence[Point]],
) -> SeparationWitness | None:
    """None when every (d+1)-tuple is separated along every split;
    otherwise the first failing (tuple, split) in enumeration order."""
    pts = [[point(p) for p in body] for body in bodies]
    if not pts or any(not body for body in pts):
        raise InputError("bodies must be nonempty point sets")
    d = len(pts[0][0])
    if len(pts) < d + 1:
        raise InputError(f"need at least d+1 = {d + 1} bodies, got {len(pts)}")
    failing = next(_failing_splits(pts, d), None)
    return None if failing is None else SeparationWitness(*failing)


def _line_meets_hull(h: Hyperplane, body: Sequence[Point]) -> bool:
    signs = {h.side(p) for p in body}
    return not (signs == {1} or signs == {-1})


def _line_through(p: Point, q: Point) -> Hyperplane:
    a, b = q[1] - p[1], p[0] - q[0]
    den = math.lcm(a.denominator, b.denominator)
    normal = tuple(map(Fraction, primitive_direction(int(a * den), int(b * den))))
    return Hyperplane(normal, normal[0] * p[0] + normal[1] * p[1])


def _line_sort_key(h: Hyperplane):
    a, b = h.normal
    if a > 0:
        return (0, Fraction(b, a), h.offset)
    return (1, Fraction(0), h.offset)


def hyperplane_transversal_exists(
    bodies: Sequence[Sequence[Point]],
) -> tuple[bool, Hyperplane | None]:
    """Does one line meet every closed convex hull?  Planar only.

    If a transversal exists, one exists through two points of the union
    (translate a transversal until it supports a hull at a vertex, then
    rotate about that vertex to a second contact), so sweeping all
    point-pair lines decides.
    """
    pts = [[point(p) for p in body] for body in bodies]
    if not pts or any(not body for body in pts):
        raise InputError("bodies must be nonempty point sets")
    if len(pts[0][0]) != 2:
        raise UnsupportedDimensionError(
            "transversal decision requires dimension 2"
        )
    union = list(dict.fromkeys(p for body in pts for p in body))
    if len(union) == 1:
        p = union[0]
        return True, Hyperplane((Fraction(0), Fraction(1)), p[1])
    candidates = {}
    for p, q in itertools.combinations(union, 2):
        h = _line_through(p, q)
        candidates[(h.normal, h.offset)] = h
    for h in sorted(candidates.values(), key=_line_sort_key):
        if all(_line_meets_hull(h, body) for body in pts):
            return True, h
    return False, None


def satisfies_bisection_contract(
    h: Hyperplane, point_sets: Sequence[Sequence[Point]]
) -> bool:
    """Each open side contains at most floor(|S|/2) points of each set."""
    for pts in point_sets:
        above = sum(1 for p in pts if h.side(point(p)) > 0)
        below = sum(1 for p in pts if h.side(point(p)) < 0)
        if above > len(pts) // 2 or below > len(pts) // 2:
            return False
    return True


def ham_sandwich_cut(
    point_sets: Sequence[Sequence[Point]], anchor: Point | None = None
) -> Hyperplane:
    """A line bisecting the given planar sets as equally as possible.

    Contract: each open halfplane holds at most floor(|S_i|/2) points of
    each set (points on the line count for neither side).  Without an
    anchor up to two sets are bisected; with an anchor the line passes
    exactly through the anchor and bisects the single set.  The returned
    line is the first contract-satisfying candidate under a fixed
    angular ordering of the candidate lines, hence deterministic.
    """
    sets = [[point(p) for p in pts] for pts in point_sets]
    if not sets:
        raise InputError("need at least one point set")
    dims = {len(p) for pts in sets for p in pts}
    if dims and dims != {2}:
        raise UnsupportedDimensionError("ham-sandwich cut implemented for dimension 2")
    candidates: dict[tuple, Hyperplane] = {}

    def add(h: Hyperplane):
        candidates[(h.normal, h.offset)] = h

    if anchor is not None:
        anchor = point(anchor)
        if len(sets) > 1:
            raise InputError("anchored cut bisects at most one set")
        for p in dict.fromkeys(p for pts in sets for p in pts):
            if p != anchor:
                add(_line_through(anchor, p))
        add(Hyperplane((Fraction(0), Fraction(1)), anchor[1]))
        add(Hyperplane((Fraction(1), Fraction(0)), anchor[0]))
    else:
        if len(sets) > 2:
            raise InputError("unanchored cut bisects at most two sets")
        union = list(dict.fromkeys(p for pts in sets for p in pts))
        for p, q in itertools.combinations(union, 2):
            add(_line_through(p, q))
        for p in union:
            add(Hyperplane((Fraction(0), Fraction(1)), p[1]))
            add(Hyperplane((Fraction(1), Fraction(0)), p[0]))
        if not union:
            add(Hyperplane((Fraction(0), Fraction(1)), Fraction(0)))
    for h in sorted(candidates.values(), key=_line_sort_key):
        if anchor is not None and h.side(anchor) != 0:
            continue
        if satisfies_bisection_contract(h, sets):
            return h
    raise AssertionError("no valid ham-sandwich candidate: contract violated")


def order_type(points: Sequence[Point]) -> tuple[Sign, ...]:
    """Orientations of all (d+1)-subsequences, in lexicographic index
    order; errors on any degenerate tuple."""
    pts = [point(p) for p in points]
    if not pts:
        raise InputError("order type of an empty sequence")
    d = len(pts[0])
    if len(pts) < d + 1:
        raise InputError(f"need at least {d + 1} points in dimension {d}")
    signs = []
    for combo in itertools.combinations(range(len(pts)), d + 1):
        s = orientation([pts[i] for i in combo])
        if s == 0:
            raise ValidationError(
                "degenerate tuple violates general position",
                witness={"indices": list(combo)},
            )
        signs.append(s)
    return tuple(signs)


# --- trimming loop -----------------------------------------------------------


@dataclass(frozen=True)
class TrimStep:
    tuple_indices: tuple[int, ...]  # body indices; body 0 is {O}
    split: tuple[int, ...]
    hyperplane: Hyperplane
    discarded: tuple[tuple[int, ...], ...]  # original indices, per set
    sizes_after: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "tuple": list(self.tuple_indices),
            "split": list(self.split),
            "hyperplane": {
                "normal": [format_rational(v) for v in self.hyperplane.normal],
                "offset": format_rational(self.hyperplane.offset),
            },
            "discarded": [list(idx) for idx in self.discarded],
            "sizes_after": list(self.sizes_after),
        }


@dataclass(frozen=True)
class TrimTrace:
    steps: tuple[TrimStep, ...]
    final_sizes: tuple[int, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def to_json_dict(self) -> dict:
        return {
            "steps": [s.to_json_dict() for s in self.steps],
            "final_sizes": list(self.final_sizes),
            "step_count": self.step_count,
        }


def _oriented_for_designated(h: Hyperplane, d_points: list[Point]) -> Hyperplane:
    """Flip the normal so at least half of the designated set's points lie
    strictly above (the designated set's group keeps the above side);
    ties keep the canonical orientation."""
    above = sum(1 for p in d_points if h.side(p) > 0)
    below = sum(1 for p in d_points if h.side(p) < 0)
    return h if above >= below else h.flipped()


def trim_to_separated(
    point_sets: Sequence[Sequence[Point]],
    o_point: Point,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> tuple[list[tuple[Point, ...]], TrimTrace]:
    """Discard points until {O} and the hulls of the sets are separated.

    Each step takes the first failing (tuple, split) of the d+2 bodies,
    cuts with a ham-sandwich line -- anchored at O when the tuple
    involves {O}, else bisecting the two non-designated sets -- orients
    the cut so the designated set keeps at least half of its points, and
    discards the split group's points above the line and the rest's
    points below.  O is on the anchored lines and is never discarded.
    O must be unambiguous (`is_unambiguous`, the sets as classes): it
    may be collinear with two points of one set, not of two sets.

    The failing splits are found once, for the input.  A cut only
    removes points, so hulls shrink and a separated split stays
    separated: each step re-tests only the splits that failed before it,
    and those still failing, in their order, are the cut family's.
    Between two admissible cuts the one leaving fewer wins.

    Errors (with the partial trace attached) when a set would empty,
    when a step makes no progress, or when max_steps cuts leave the
    family unseparated; max_steps < 0 is an input error.
    """
    if max_steps < 0:
        raise InputError(f"max_steps must be >= 0, got {max_steps}")
    o_point = point(o_point)
    if len(o_point) != 2:
        raise UnsupportedDimensionError("trimming implemented for dimension 2")
    sets = [tuple(point(p) for p in pts) for pts in point_sets]
    if any(not pts for pts in sets):
        raise InputError("input sets must be nonempty")
    if not is_unambiguous(sets, o_point):
        raise InputError(
            "O is collinear with two points of different input sets"
        )
    if len(sets) < 2:
        raise InputError(f"need at least d+1 = 3 bodies, got {len(sets) + 1}")
    current = [list(range(len(pts))) for pts in sets]
    steps: list[TrimStep] = []

    def bodies(kept: list[list[int]]) -> list[list[Point]]:
        """{O}, then the kept points of each set (body i is set i - 1)."""
        return [[o_point]] + [
            [sets[i][j] for j in idx] for i, idx in enumerate(kept)
        ]

    def cut(h: Hyperplane, grp: tuple[int, ...], combo: tuple[int, ...]):
        """Per set, the kept and the discarded original indices: a body
        of the tuple drops its points strictly above h when in `grp`,
        else those strictly below."""
        kept, discarded = [], []
        for body, idx in enumerate(current, 1):
            drop = []
            if body in combo:
                sign = 1 if body in grp else -1
                drop = [j for j in idx if h.side(sets[body - 1][j]) == sign]
            kept.append([j for j in idx if j not in drop])
            discarded.append(drop)
        return kept, discarded

    failing = list(_failing_splits(bodies(current), 2))
    for step in range(max_steps + 1):
        pts = bodies(current)
        if not failing:
            trace = TrimTrace(tuple(steps), tuple(map(len, current)))
            return [tuple(body) for body in pts[1:]], trace
        if step == max_steps:
            break
        combo, group = failing[0]
        rest = tuple(i for i in combo if i not in group)
        # (bisected body, designated body, cut).  With {O} in the tuple
        # the line through O bisects either real body and the other is
        # designated; else the first two are bisected, the last designated.
        if combo[0] == 0:
            a, b = combo[1:]
            cuts = [
                (c, e, ham_sandwich_cut([pts[c]], anchor=o_point))
                for c, e in ((a, b), (b, a))
            ]
        else:
            a, b, e = combo
            cuts = [(a, e, ham_sandwich_cut([pts[a], pts[b]]))]
        best = None
        any_progress = False
        for c_body, d_body, h in cuts:
            # The designated set's group keeps the "above" side; the
            # other group of the split discards its points above the cut.
            h = _oriented_for_designated(h, pts[d_body])
            grp = group if d_body in rest else rest
            kept, discarded = cut(h, grp, combo)
            if not any(discarded):
                continue
            any_progress = True
            if not all(kept):
                continue
            kept_pts = bodies(kept)
            still = [f for f in failing if _split_fails(kept_pts, *f)]
            if best is None or (len(still), c_body) < best[0]:
                best = ((len(still), c_body), h, kept, discarded, still)
        if best is None:
            trace = TrimTrace(tuple(steps), tuple(map(len, current)))
            if any_progress:
                raise TrimExhaustedError(
                    "trim exhausted: every admissible cut empties a set",
                    trace=trace,
                )
            raise TrimExhaustedError(
                "trim stalled: no cut discards anything for the failing split",
                trace=trace,
            )
        _, h, current, discarded, failing = best
        steps.append(
            TrimStep(
                tuple_indices=combo,
                split=group,
                hyperplane=h,
                discarded=tuple(map(tuple, discarded)),
                sizes_after=tuple(map(len, current)),
            )
        )
    trace = TrimTrace(tuple(steps), tuple(map(len, current)))
    raise TrimExhaustedError(
        f"trim did not reach a separated family within {max_steps} steps",
        trace=trace,
    )
