import collections
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from rainbowdepth import (
    GeneratorSpec,
    InputError,
    TrimExhaustedError,
    UnsupportedDimensionError,
    ValidationError,
    deepest_point,
    generate,
    ham_sandwich_cut,
    hyperplane_transversal_exists,
    is_separated_family,
    order_type,
    point,
    satisfies_bisection_contract,
    strictly_separating_hyperplane,
    trim_to_separated,
)
from rainbowdepth.geometry import (
    Hyperplane,
    affine_image,
    convex_hull_2d,
    is_unambiguous,
    point_in_simplex_interior,
)
from rainbowdepth.lp import OPTIMAL, solve_lp_max
from rainbowdepth.separation import (
    DEFAULT_MAX_STEPS,
    TrimStep,
    TrimTrace,
    _canonical_splits,
    _failing_splits,
    _line_meets_hull,
    _line_sort_key,
    _oriented_for_designated,
)
from tests.conftest import random_rational_point


def assert_strictly_separates(h, a_pts, b_pts):
    assert all(h.side(p) < 0 for p in a_pts)
    assert all(h.side(p) > 0 for p in b_pts)


def test_separator_two_points():
    a, b = [point(0, 0)], [point(1, 0)]
    h = strictly_separating_hyperplane(a, b)
    assert h is not None
    assert_strictly_separates(h, a, b)


def test_separator_segment_vs_point_above():
    a = [point(0, 0), point(2, 0)]
    b = [point(1, "1/2")]
    h = strictly_separating_hyperplane(a, b)
    assert h is not None
    assert_strictly_separates(h, a, b)


def test_separator_touching_hulls_none():
    a = [point(0, 0), point(2, 0)]
    b = [point(1, 0)]  # on the segment
    assert strictly_separating_hyperplane(a, b) is None


def test_separator_crossing_hulls_none():
    a = [point(0, 0), point(2, 2)]
    b = [point(0, 2), point(2, 0)]
    assert strictly_separating_hyperplane(a, b) is None


def test_separator_brute_force_cross_validation(rng):
    # none <=> the convex hulls intersect or touch, checked by an
    # independent hull-overlap oracle on small instances
    from rainbowdepth.tverberg import _clip_halfplane

    def hulls_touch_or_cross(a_pts, b_pts):
        ha, hb = convex_hull_2d(a_pts), convex_hull_2d(b_pts)
        if len(ha) >= 3 and len(hb) >= 3:
            region = list(ha)
            for i in range(len(hb)):
                (x1, y1), (x2, y2) = hb[i], hb[(i + 1) % len(hb)]
                aa, bb = y2 - y1, x1 - x2
                region = _clip_halfplane(region, aa, bb, aa * x1 + bb * y1)
                if not region:
                    return False
            return True
        # degenerate hulls: test point/segment membership via separator
        # from the exact LP run on the raw sets, but decide geometrically:
        # fall back to brute point checks on segments
        return None

    for _ in range(40):
        a_pts = [random_rational_point(rng) for _ in range(rng.randint(1, 8))]
        b_pts = [random_rational_point(rng) for _ in range(rng.randint(1, 8))]
        h = strictly_separating_hyperplane(a_pts, b_pts)
        oracle = hulls_touch_or_cross(a_pts, b_pts)
        if oracle is None:
            continue
        assert (h is None) == oracle
        if h is not None:
            assert_strictly_separates(h, a_pts, b_pts)


def test_separated_family_examples():
    assert is_separated_family([[point(0, 0)], [point(1, 0)], [point(0, 1)]]) is None
    witness = is_separated_family([[point(0, 0)], [point(1, 0)], [point(2, 0)]])
    assert witness is not None
    assert witness.tuple_indices == (0, 1, 2)
    # outer pair cannot be separated from the middle point
    assert witness.split == (0, 2)


def test_separated_family_interleaved_segments():
    seg1 = [point(0, 0), point(4, 0)]
    seg2 = [point(2, -1), point(2, 1)]  # crosses seg1
    far = [point(10, 10)]
    witness = is_separated_family([seg1, seg2, far])
    assert witness is not None
    assert set(witness.tuple_indices) == {0, 1, 2}


def test_separated_family_needs_enough_bodies():
    with pytest.raises(InputError):
        is_separated_family([[point(0, 0)], [point(1, 0)]])


def test_trim_needs_enough_bodies():
    """{O} and one set are two bodies, fewer than d + 1 = 3."""
    with pytest.raises(InputError, match="need at least d\\+1 = 3 bodies, got 2"):
        trim_to_separated([[point(0, 0), point(1, 0)]], point(3, 3))


def test_transversal_examples():
    exists, h = hyperplane_transversal_exists(
        [[point(0, 0)], [point(1, 0)], [point(2, 0)]]
    )
    assert exists and h is not None
    assert all(h.side(point(x, 0)) == 0 for x in (0, 1, 2))
    exists, h = hyperplane_transversal_exists(
        [[point(0, 0)], [point(10, 0)], [point(5, 10)]]
    )
    assert not exists and h is None
    # three segments crossing the x-axis
    segs = [
        [point(0, -1), point(0, 1)],
        [point(3, -2), point(3, 1)],
        [point(7, -1), point(7, 3)],
    ]
    exists, h = hyperplane_transversal_exists(segs)
    assert exists
    for seg in segs:
        signs = {h.side(p) for p in seg}
        assert signs != {1} and signs != {-1}


def test_transversal_dimension_gate():
    singleton3 = [[point(0, 0, 0)], [point(1, 0, 0)], [point(2, 0, 0)], [point(0, 1, 2)]]
    with pytest.raises(UnsupportedDimensionError):
        hyperplane_transversal_exists(singleton3)


def test_goodman_pollack_equivalence(rng):
    # separated <=> no transversal, on random triples of small sets
    agree = 0
    for _ in range(30):
        bodies = [
            [random_rational_point(rng, den=13) for _ in range(rng.randint(1, 6))]
            for _ in range(3)
        ]
        separated = is_separated_family(bodies) is None
        transversal, _ = hyperplane_transversal_exists(bodies)
        assert separated == (not transversal)
        agree += 1
    assert agree == 30


def test_ham_sandwich_examples():
    s1 = [point(0, 0), point(0, 2)]
    s2 = [point(1, 0), point(1, 2)]
    h = ham_sandwich_cut([s1, s2])
    assert satisfies_bisection_contract(h, [s1, s2])

    anchored_set = [point(0, 0), point(1, 0), point(2, 0), point(3, 0)]
    anchor = point("3/2", 5)
    h = ham_sandwich_cut([anchored_set], anchor=anchor)
    assert h.side(anchor) == 0
    assert satisfies_bisection_contract(h, [anchored_set])

    odd = [point(0, 0), point(1, 0), point(2, 1)]
    h = ham_sandwich_cut([odd])
    assert satisfies_bisection_contract(h, [odd])


def test_ham_sandwich_contract_fuzz(rng):
    for _ in range(60):
        sets = [
            [random_rational_point(rng, den=7) for _ in range(rng.randint(1, 15))]
            for _ in range(rng.randint(1, 2))
        ]
        h = ham_sandwich_cut(sets)
        assert satisfies_bisection_contract(h, sets)
    for _ in range(40):
        pts = [random_rational_point(rng, den=7) for _ in range(rng.randint(1, 15))]
        anchor = random_rational_point(rng, den=11)
        h = ham_sandwich_cut([pts], anchor=anchor)
        assert h.side(anchor) == 0
        assert satisfies_bisection_contract(h, [pts])


def test_ham_sandwich_determinism():
    s1 = [point(0, 0), point(3, 1), point(1, 4)]
    s2 = [point(2, 2), point(5, 5)]
    assert ham_sandwich_cut([s1, s2]) == ham_sandwich_cut([s1, s2])


def test_ham_sandwich_input_errors():
    with pytest.raises(InputError):
        ham_sandwich_cut([[point(0, 0)], [point(1, 0)], [point(2, 2)]])
    with pytest.raises(InputError):
        ham_sandwich_cut([[point(0, 0)], [point(1, 1)]], anchor=point(2, 2))
    with pytest.raises(UnsupportedDimensionError):
        ham_sandwich_cut([[point(0, 0, 0)]])
    with pytest.raises(InputError):
        ham_sandwich_cut([])


def test_order_type_examples():
    assert order_type([point(0, 0), point(1, 0), point(0, 1)]) == (1,)
    square = [point(0, 0), point(1, 0), point(0, 1), point(1, 1)]
    assert order_type(square) == (1, 1, -1, -1)
    mat = [[5, 2], [2, 1]]  # determinant 1
    mapped = [affine_image(p, mat, (9, -3)) for p in square]
    assert order_type(mapped) == order_type(square)


def test_order_type_degenerate():
    with pytest.raises(ValidationError):
        order_type([point(0, 0), point(1, 0), point(2, 0)])


def test_order_type_constancy_for_separated_families(rng):
    # representatives of a separated family all realize the same order type
    for trial in range(5):
        centers = [point(0, 0), point(100, 0), point(0, 100), point(90, 90)]
        bodies = []
        for c in centers:
            bodies.append(
                [
                    (c[0] + Fraction(rng.randrange(-40, 40), 7),
                     c[1] + Fraction(rng.randrange(-40, 40), 7))
                    for _ in range(4)
                ]
            )
        if is_separated_family(bodies) is not None:
            continue
        baseline = None
        for _ in range(10):
            reps = [body[rng.randrange(len(body))] for body in bodies]
            vec = order_type(reps)
            if baseline is None:
                baseline = vec
            assert vec == baseline


def test_trim_already_separated():
    sets = [[point(0, 0)], [point(10, 0)], [point(0, 10)]]
    o_point = point(3, 3)
    q, trace = trim_to_separated(sets, o_point)
    assert trace.step_count == 0
    assert [list(s) for s in q] == sets


def test_trim_zero_steps_on_separated_family():
    sets = [[point(0, 0)], [point(10, 0)], [point(0, 10)]]
    q, trace = trim_to_separated(sets, point(3, 3), max_steps=0)
    assert trace == TrimTrace((), (1, 1, 1))
    assert [list(s) for s in q] == sets


def test_trim_succeeds_in_exactly_max_steps():
    """max_steps = k allows k cuts and checks the family the last one
    leaves; k - 1 stops short with the first k - 1 steps."""
    cfg = generate(GeneratorSpec(seed=0, n=4, d=2))
    o_point = deepest_point(cfg, seed=0).witness
    sets = [list(c) for c in cfg.colors]
    q, trace = trim_to_separated(sets, o_point)
    k = trace.step_count
    assert k == 3
    assert trim_to_separated(sets, o_point, max_steps=k) == (q, trace)
    with pytest.raises(TrimExhaustedError, match=f"within {k - 1} steps") as info:
        trim_to_separated(sets, o_point, max_steps=k - 1)
    assert info.value.trace.steps == trace.steps[: k - 1]


def test_trim_rejects_negative_max_steps():
    sets = [[point(0, 0)], [point(10, 0)], [point(0, 10)]]
    with pytest.raises(InputError, match="max_steps"):
        trim_to_separated(sets, point(3, 3), max_steps=-1)


def test_trim_random_instances():
    """The 30 `gen` seeds at n = 6 around the deepest point: the trim
    matches the reference, and what it returns is sound."""
    max_steps_seen = 0
    for seed in range(30):
        cfg = generate(GeneratorSpec(seed=seed, n=6, d=2))
        o_point = deepest_point(cfg, seed=seed).witness
        kind, q, trace = assert_trims_agree([list(c) for c in cfg.colors], o_point)
        if kind is TrimExhaustedError:
            continue  # a failure is an allowed outcome; soundness is what matters
        assert kind == "ok"
        max_steps_seen = max(max_steps_seen, trace["step_count"])
        # final family separated, every set retains at least one point
        assert all(len(s) >= 1 for s in q)
        assert is_separated_family([[o_point]] + [list(s) for s in q]) is None
        # per-step accounting: half-loss bound, O never among discards
        sizes = [cfg.n] * 3
        for step in trace["steps"]:
            for i, dropped in enumerate(step["discarded"]):
                assert len(dropped) <= sizes[i] - (sizes[i] // 2)  # ceil bound
                sizes[i] -= len(dropped)
                for j in dropped:
                    assert cfg.colors[i][j] != o_point
            assert sizes == step["sizes_after"]
            assert sum(len(d) for d in step["discarded"]) >= 1
        assert sizes == trace["final_sizes"]
    # the paper-derived ceiling (d+2)*2^d = 16 is reported, not asserted
    print(f"\nmax trim steps over random instances: {max_steps_seen} (ceiling 16)")


def test_trim_discards_only_strict_sides():
    cfg = generate(GeneratorSpec(seed=0, n=6, d=2))
    o_point = deepest_point(cfg, seed=0).witness
    q, trace = trim_to_separated([list(c) for c in cfg.colors], o_point)
    for step in trace.steps:
        h = step.hyperplane
        for i, dropped in enumerate(step.discarded):
            for j in dropped:
                assert h.side(cfg.colors[i][j]) != 0


def test_trim_rejects_collinear_o():
    sets = [[point(0, 0)], [point(2, 0)], [point(0, 2)]]
    with pytest.raises(InputError):
        trim_to_separated(sets, point(1, 0))  # collinear with two inputs


def test_trim_accepts_o_collinear_with_one_set():
    # O on the line through two points of one set, and on no line through
    # points of two different sets: no rainbow triangle edge passes
    # through O, so O is unambiguous and trimming proceeds.
    cases = [
        (
            [[point(0, 0), point(-2, -2)], [point(10, 0)], [point(0, 10)]],
            point(1, 1),
        )
    ]
    for seed in range(3):
        cfg = generate(GeneratorSpec(seed=seed, n=4, d=2))
        o_point = deepest_point(cfg, seed=seed).witness
        u = cfg.colors[0][0]
        beyond = tuple(o + (o - c) / 3 for o, c in zip(o_point, u))
        sets = [list(c) for c in cfg.colors]
        sets[0].append(beyond)
        cases.append((sets, o_point))
    steps = 0
    for sets, o_point in cases:
        q, trace = trim_to_separated(sets, o_point)
        assert is_separated_family([[o_point]] + [list(s) for s in q]) is None
        assert all(set(qi) <= set(si) for qi, si in zip(q, sets))
        steps += trace.step_count
    assert steps > 0  # the generated cases exercise the cutting loop


def complete_boxes(cfg, o_point):
    """Every box S_1 x S_2 x S_3 of equal-size index sets, s = n down
    to 1, whose rainbow triangles all strictly contain O, by brute force."""
    n = cfg.n
    inside = {
        idx
        for idx in itertools.product(range(n), repeat=3)
        if point_in_simplex_interior(
            o_point, [cfg.colors[i][idx[i]] for i in range(3)]
        )
    }
    for s in range(n, 0, -1):
        for box in itertools.product(itertools.combinations(range(n), s), repeat=3):
            if all(idx in inside for idx in itertools.product(*box)):
                yield box


@settings(max_examples=25, deadline=None)
@example(
    seed=0, n=5, distribution="uniform-box", deepest=True, weights=(0, 0)
)
@given(
    seed=st.integers(0, 2**32),
    n=st.sampled_from(range(1, 6)),
    distribution=st.sampled_from(
        ["uniform-box", "gaussian", "moment-curve-perturbed"]
    ),
    deepest=st.booleans(),
    weights=st.tuples(
        st.fractions(0, 1, max_denominator=10**12),
        st.fractions(0, 1, max_denominator=10**12),
    ),
)
def test_complete_box_is_separated(seed, n, distribution, deepest, weights):
    """The lemma that lets the pipeline skip the trim: if every rainbow
    triangle on S strictly contains O, then {O} and the hulls of S are a
    separated family."""
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    if deepest:
        o_point = deepest_point(cfg, seed=seed).witness
    else:
        # a random affine combination of the first point of each class
        t, r = weights
        u, v, w = (cls[0] for cls in cfg.colors)
        o_point = tuple(a + t * (b - a) + r * (c - a) for a, b, c in zip(u, v, w))
        assume(is_unambiguous(cfg.colors, o_point))
    # A box inside a separated box is separated (its hulls shrink), so
    # only a box in no box checked before needs the LP check.
    separated = []
    for box in complete_boxes(cfg, o_point):
        if any(all(set(a) <= set(b) for a, b in zip(box, big)) for big in separated):
            continue
        sets = [[cfg.colors[i][j] for j in box[i]] for i in range(3)]
        assert is_separated_family([[o_point]] + sets) is None, box
        if not separated:
            # the largest: the trim keeps it whole, as `run_pipeline` does
            q, trace = trim_to_separated(sets, o_point)
            assert [list(qi) for qi in q] == sets
            assert trace == TrimTrace((), tuple(len(si) for si in sets))
        separated.append(box)


# --- reference implementations ---------------------------------------------
#
# The module as it was before the family check and the trim's look-ahead
# shared one failing-split walk: the trim below is the former one
# verbatim, with a second copy of the walk in `violation_count` and its
# own normalisation of lines.  Only the calls between the copies are
# renamed, and the witness is a plain tuple.  Every split is decided by
# the former separator: an axis-aligned shortcut, then the planar hull
# reduction, then an LP whose normal and offset sit in a box.


def _reference_axis_separator(a_pts, b_pts):
    d = len(a_pts[0])
    for axis in range(d):
        a_lo = min(p[axis] for p in a_pts)
        a_hi = max(p[axis] for p in a_pts)
        b_lo = min(p[axis] for p in b_pts)
        b_hi = max(p[axis] for p in b_pts)
        normal = tuple(
            Fraction(1 if j == axis else 0) for j in range(d)
        )
        if a_hi < b_lo:
            return Hyperplane(normal, (a_hi + b_lo) / 2)
        if b_hi < a_lo:
            return Hyperplane(tuple(-v for v in normal), -(b_hi + a_lo) / 2)
    return None


def reference_strictly_separating_hyperplane(a_pts, b_pts):
    a_pts = [point(p) for p in a_pts]
    b_pts = [point(p) for p in b_pts]
    if not a_pts or not b_pts:
        raise InputError("both point sets must be nonempty")
    d = len(a_pts[0])
    if any(len(p) != d for p in a_pts + b_pts):
        raise InputError("mixed dimensions in separation input")
    quick = _reference_axis_separator(a_pts, b_pts)
    if quick is not None:
        return quick
    if d == 2:
        a_pts = convex_hull_2d(a_pts)
        b_pts = convex_hull_2d(b_pts)
    # Variables (w_1..w_d, c, delta); maximize delta.
    n_vars = d + 2
    a_ub = []
    b_ub = []
    for p in a_pts:  # w.p - c + delta <= 0
        a_ub.append(list(p) + [Fraction(-1), Fraction(1)])
        b_ub.append(Fraction(0))
    for p in b_pts:  # -w.p + c + delta <= 0
        a_ub.append([-x for x in p] + [Fraction(1), Fraction(1)])
        b_ub.append(Fraction(0))
    max_abs = max(
        (abs(x) for p in a_pts + b_pts for x in p), default=Fraction(0)
    )
    bound_c = 1 + d * max_abs
    for j in range(d):  # |w_j| <= 1
        row = [Fraction(0)] * n_vars
        row[j] = Fraction(1)
        a_ub.append(row[:])
        b_ub.append(Fraction(1))
        row[j] = Fraction(-1)
        a_ub.append(row)
        b_ub.append(Fraction(1))
    row = [Fraction(0)] * n_vars
    row[d] = Fraction(1)
    a_ub.append(row[:])
    b_ub.append(bound_c)
    row[d] = Fraction(-1)
    a_ub.append(row)
    b_ub.append(bound_c)
    row = [Fraction(0)] * n_vars
    row[d + 1] = Fraction(1)
    a_ub.append(row)
    b_ub.append(Fraction(1))
    objective = [Fraction(0)] * (d + 1) + [Fraction(1)]
    result = solve_lp_max(objective, a_ub, b_ub)
    if result.status != OPTIMAL:
        raise AssertionError(f"separation LP returned {result.status}")
    if result.value <= 0:
        return None
    w = tuple(result.x[:d])
    c = result.x[d]
    return Hyperplane(w, c)


RefWitness = collections.namedtuple("RefWitness", "tuple_indices split hyperplane")


def reference_is_separated_family(bodies):
    pts = [[point(p) for p in body] for body in bodies]
    if not pts or any(not body for body in pts):
        raise InputError("bodies must be nonempty point sets")
    d = len(pts[0][0])
    if len(pts) < d + 1:
        raise InputError(f"need at least d+1 = {d + 1} bodies, got {len(pts)}")
    for combo in itertools.combinations(range(len(pts)), d + 1):
        for group in _canonical_splits(combo, d):
            rest = tuple(i for i in combo if i not in group)
            g_pts = [p for i in group for p in pts[i]]
            h_pts = [p for i in rest for p in pts[i]]
            if reference_strictly_separating_hyperplane(g_pts, h_pts) is None:
                return RefWitness(combo, group, None)
    return None


def _reference_distinct(points):
    seen = []
    out = []
    for p in points:
        if p not in seen:
            seen.append(p)
            out.append(p)
    return out


def _reference_primitive_fracs(a, b):
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    ia, ib = int(a * den), int(b * den)
    g = math.gcd(abs(ia), abs(ib))
    if g:
        ia, ib = ia // g, ib // g
    if ia < 0 or (ia == 0 and ib < 0):
        ia, ib = -ia, -ib
    return ia, ib


def _reference_line_through(p, q):
    a = q[1] - p[1]
    b = p[0] - q[0]
    ia, ib = _reference_primitive_fracs(a, b)
    normal = (Fraction(ia), Fraction(ib))
    return Hyperplane(normal, normal[0] * p[0] + normal[1] * p[1])


def reference_transversal_exists(bodies):
    """The former exact (planar) path of `hyperplane_transversal_exists`."""
    pts = [[point(p) for p in body] for body in bodies]
    union = _reference_distinct([p for body in pts for p in body])
    if len(union) == 1:
        p = union[0]
        return True, Hyperplane((Fraction(0), Fraction(1)), p[1])
    candidates = {}
    for p, q in itertools.combinations(union, 2):
        h = _reference_line_through(p, q)
        candidates[(h.normal, h.offset)] = h
    for h in sorted(candidates.values(), key=_line_sort_key):
        if all(_line_meets_hull(h, body) for body in pts):
            return True, h
    return False, None


def reference_ham_sandwich_cut(point_sets, anchor=None):
    sets = [[point(p) for p in pts] for pts in point_sets]
    candidates = {}

    def add(h):
        candidates[(h.normal, h.offset)] = h

    if anchor is not None:
        anchor = point(anchor)
        for p in _reference_distinct([p for pts in sets for p in pts]):
            if p != anchor:
                add(_reference_line_through(anchor, p))
        add(Hyperplane((Fraction(0), Fraction(1)), anchor[1]))
        add(Hyperplane((Fraction(1), Fraction(0)), anchor[0]))
    else:
        union = _reference_distinct([p for pts in sets for p in pts])
        for p, q in itertools.combinations(union, 2):
            add(_reference_line_through(p, q))
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


def reference_trim_to_separated(point_sets, o_point, max_steps=DEFAULT_MAX_STEPS):
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
    current: list[list[int]] = [list(range(len(pts))) for pts in sets]
    steps: list[TrimStep] = []

    def body_points(i: int):
        if i == 0:
            return [o_point]
        return [sets[i - 1][j] for j in current[i - 1]]

    def bodies():
        return [body_points(i) for i in range(len(sets) + 1)]

    def violation_count() -> int:
        count = 0
        pts = bodies()
        for combo in itertools.combinations(range(len(pts)), 3):
            for group in _canonical_splits(combo, 2):
                rest = tuple(i for i in combo if i not in group)
                g_pts = [p for i in group for p in pts[i]]
                h_pts = [p for i in rest for p in pts[i]]
                if reference_strictly_separating_hyperplane(g_pts, h_pts) is None:
                    count += 1
        return count

    def simulate(h, group, combo):
        """Per-set kept/discarded original indices under the cut."""
        kept, discarded = [], []
        for si in range(len(sets)):
            body = si + 1
            keep, drop = list(current[si]), []
            if body in combo:
                drop_sign = 1 if body in group else -1
                keep, drop = [], []
                for j in current[si]:
                    if h.side(sets[si][j]) == drop_sign:
                        drop.append(j)
                    else:
                        keep.append(j)
            kept.append(keep)
            discarded.append(drop)
        return kept, discarded

    # One separation check per step, and one after the last allowed cut.
    for step in range(max_steps + 1):
        witness = reference_is_separated_family(bodies())
        if witness is None:
            final_sizes = tuple(len(c) for c in current)
            trace = TrimTrace(tuple(steps), final_sizes)
            q_sets = [
                tuple(sets[i][j] for j in current[i]) for i in range(len(sets))
            ]
            return q_sets, trace
        if step == max_steps:
            break
        combo, group = witness.tuple_indices, witness.split
        rest = tuple(i for i in combo if i not in group)
        # The designated set's group keeps the "above" side; the other
        # group of the split discards its points above the cut.
        if 0 in combo:
            real = [b for b in combo if b != 0]
            options = []
            for c_body in real:
                d_body = next(b for b in real if b != c_body)
                h = reference_ham_sandwich_cut([body_points(c_body)], anchor=o_point)
                h = _oriented_for_designated(h, body_points(d_body))
                grp = group if d_body in rest else rest
                options.append((c_body, h, grp))
        else:
            d_body = max(combo)
            bis = [b for b in combo if b != d_body]
            h = reference_ham_sandwich_cut([body_points(bis[0]), body_points(bis[1])])
            h = _oriented_for_designated(h, body_points(d_body))
            grp = group if d_body in rest else rest
            options = [(None, h, grp)]

        best = None
        any_progress = False
        for c_body, h, grp in options:
            kept, discarded = simulate(h, grp, combo)
            n_discarded = sum(len(dr) for dr in discarded)
            if n_discarded == 0:
                continue
            any_progress = True
            if any(not k for k in kept):
                continue
            if len(options) > 1:
                saved = [list(c) for c in current]
                for si in range(len(sets)):
                    current[si] = kept[si]
                viol = violation_count()
                for si in range(len(sets)):
                    current[si] = saved[si]
            else:
                viol = 0
            key = (viol, c_body if c_body is not None else 0)
            if best is None or key < best[0]:
                best = (key, h, grp, kept, discarded)
        if best is None:
            trace = TrimTrace(tuple(steps), tuple(len(c) for c in current))
            if any_progress:
                raise TrimExhaustedError(
                    "trim exhausted: every admissible cut empties a set",
                    trace=trace,
                )
            raise TrimExhaustedError(
                "trim stalled: no cut discards anything for the failing split",
                trace=trace,
            )
        _, h, grp, kept, discarded = best
        for si in range(len(sets)):
            current[si] = kept[si]
        steps.append(
            TrimStep(
                tuple_indices=combo,
                split=group,
                hyperplane=h,
                discarded=tuple(tuple(dr) for dr in discarded),
                sizes_after=tuple(len(c) for c in current),
            )
        )
    trace = TrimTrace(tuple(steps), tuple(len(c) for c in current))
    raise TrimExhaustedError(
        f"trim did not reach a separated family within {max_steps} steps",
        trace=trace,
    )


def trim_outcome(trim, sets, o_point, max_steps=DEFAULT_MAX_STEPS):
    """What a trim returns, or the class, message and partial trace of
    what it raises, in a form two implementations can be compared on."""
    try:
        q, trace = trim(sets, o_point, max_steps)
    except (InputError, TrimExhaustedError) as exc:
        trace = getattr(exc, "trace", None)
        return type(exc), str(exc), trace and trace.to_json_dict()
    return "ok", q, trace.to_json_dict()


def assert_trims_agree(sets, o_point, max_steps=DEFAULT_MAX_STEPS):
    outcome = trim_outcome(trim_to_separated, sets, o_point, max_steps)
    reference = trim_outcome(reference_trim_to_separated, sets, o_point, max_steps)
    assert outcome == reference
    return outcome


def test_trim_stalled_branch_matches_reference():
    """No cut of the failing split discards anything: both trims stop
    after the same two steps with the same message."""
    sets = [
        [point(3, -1), point(1, -8)],
        [point(-1, 9), point(2, -5), point(7, 7), point(-3, -7)],
        [point(-2, 3), point(3, 5), point(4, 0)],
    ]
    kind, message, trace = assert_trims_agree(sets, point("-17/2", -5))
    assert kind is TrimExhaustedError
    assert message == "trim stalled: no cut discards anything for the failing split"
    assert [step["sizes_after"] for step in trace["steps"]] == [[1, 2, 3], [1, 1, 3]]
    assert trace["final_sizes"] == [1, 1, 3]


_coordinate = st.one_of(
    st.integers(-5, 5).map(Fraction), st.fractions(-5, 5, max_denominator=3)
)
_point = st.tuples(_coordinate, _coordinate)


@st.composite
def trim_inputs(draw):
    """2-5 sets of 1-5 points on small grids, repeats and collinear
    points allowed, and O either a grid point or on a line through two
    points of one set (a finer grid, so that O is mostly unambiguous)."""
    points = st.lists(_point, min_size=1, max_size=5)
    sets = draw(st.lists(points, min_size=2, max_size=5))
    lined = [pts for pts in sets if len(set(pts)) > 1]
    if lined and draw(st.booleans()):
        p, q = list(dict.fromkeys(draw(st.sampled_from(lined))))[:2]
        t = draw(st.sampled_from([Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2)]))
        o_point = tuple(a + t * (b - a) for a, b in zip(p, q))
    else:
        coordinate = st.fractions(-5, 5, max_denominator=7)
        o_point = draw(st.tuples(coordinate, coordinate))
    return sets, o_point, draw(st.sampled_from([0, 1, 2, 64, 64, 64]))


@settings(max_examples=200, deadline=None)
@given(trim_inputs())
def test_separation_matches_reference(case):
    """The trim, the family check, the transversal decision and both
    ham-sandwich cuts give what the reference implementations give."""
    sets, o_point, max_steps = case
    kind, _, trace = assert_trims_agree(sets, o_point, max_steps)
    steps = trace and trace["step_count"]
    event(f"trim: {getattr(kind, '__name__', kind)}, steps {steps}")
    bodies = [[o_point]] + sets
    witness = is_separated_family(bodies)
    reference = reference_is_separated_family(bodies)
    assert (witness is None) == (reference is None)
    if witness is not None:
        assert (witness.tuple_indices, witness.split) == reference[:2]
    assert hyperplane_transversal_exists(sets) == reference_transversal_exists(sets)
    assert ham_sandwich_cut(sets[:2]) == reference_ham_sandwich_cut(sets[:2])
    assert ham_sandwich_cut(sets[:1], anchor=o_point) == reference_ham_sandwich_cut(
        sets[:1], anchor=o_point
    )


def _grid_points(d, max_size):
    coordinate = st.one_of(
        st.integers(-3, 3).map(Fraction), st.fractions(-3, 3, max_denominator=2)
    )
    return st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=max_size)


@st.composite
def separation_pairs(draw):
    """Two planar or 3-D sets of 1-8 points on a coarse grid, so that
    single points, segments, repeats and touching hulls are common;
    sometimes a point of the first set is put into the second, or every
    point is moved onto one line."""
    d = draw(st.sampled_from([2, 3]))
    a, b = draw(_grid_points(d, 8)), draw(_grid_points(d, 8))
    shape = draw(st.sampled_from(["grid", "shared", "collinear"]))
    if shape == "shared":
        b[draw(st.integers(0, len(b) - 1))] = draw(st.sampled_from(a))
    elif shape == "collinear":
        base = draw(st.tuples(*[st.integers(-2, 2)] * d))
        step = draw(st.tuples(*[st.integers(-2, 2)] * d))
        a, b = (
            [tuple(o + p[0] * v for o, v in zip(base, step)) for p in pts]
            for pts in (a, b)
        )
    event(f"d={d}, {shape}")
    return a, b


@settings(max_examples=300, deadline=None)
@given(separation_pairs())
@example(([(0, 0), (2, 0), (0, 2)], [(1, 1), (3, 1), (1, 3)]))  # touching
@example(([(0, 0), (2, 2)], [(2, 0), (4, 2)]))  # parallel segments
@example(([(0, 0), (2, 2)], [(0, 2), (2, 0)]))  # crossing segments
@example(([(0, 0), (2, 0)], [(1, 0)]))  # a point on a segment
@example(([(0, 0), (1, 0)], [(2, 0), (3, 0)]))  # collinear, disjoint
@example(([(0, 0), (1, 0)], [(1, 0), (3, 0)]))  # collinear, one shared end
@example(([(0, 0), (1, 1)], [(1, 1), (2, 0)]))  # a shared point
@example(([(1, 2)], [(1, 2)]))  # one point twice
@example(([(0, 0)], [(1, 2)]))  # two points
@example(([(0, 0, 0), (2, 0, 0), (0, 2, 0)], [(1, 1, 0), (1, 1, 1)]))
@example(([(0, 0, 0), (2, 1, 0)], [(1, 0, 1), (1, 1, -1), (3, 3, 3)]))
def test_separator_matches_reference(pair):
    """The point-row LP decides strict separation as the former
    separator (axis shortcut, hull reduction, box-normalized LP) does,
    and every hyperplane it returns strictly separates."""
    a_pts, b_pts = ([point(p) for p in pts] for pts in pair)
    h = strictly_separating_hyperplane(a_pts, b_pts)
    reference = reference_strictly_separating_hyperplane(a_pts, b_pts)
    assert (h is None) == (reference is None)
    event("separable" if h is not None else "not separable")
    if h is not None:
        assert_strictly_separates(h, a_pts, b_pts)


@st.composite
def families_and_subfamilies(draw):
    """A planar family of a single point and three sets of 1-5 grid
    points, and a nonempty sub-body of each of its four bodies."""
    sets = st.lists(_point, min_size=1, max_size=5)
    full = [[draw(_point)]] + [draw(sets) for _ in range(3)]
    sub = []
    for body in full:
        idx = draw(st.sets(st.integers(0, len(body) - 1), min_size=1))
        sub.append([body[j] for j in sorted(idx)])
    return full, sub


@settings(max_examples=100, deadline=None)
@given(families_and_subfamilies())
def test_failing_splits_of_a_subfamily_are_a_subsequence(case):
    """Removing points only shrinks hulls, so a separated split stays
    separated: the failing splits of the sub-bodies are among the full
    family's, in the same order.  The trim re-tests only those."""
    full, sub = case
    full_failing = iter(list(_failing_splits(full, 2)))
    sub_failing = list(_failing_splits(sub, 2))
    event(f"{len(sub_failing)} failing after the cut")
    assert all(f in full_failing for f in sub_failing)
