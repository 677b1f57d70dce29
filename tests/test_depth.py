import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbowdepth import (
    GeneratorSpec,
    InputError,
    UnsupportedDimensionError,
    configuration,
    deepest_point,
    generate,
    orientation,
    point,
    point_in_simplex_interior,
    rainbow_depth_at,
    theoretical_constants,
)
from rainbowdepth.depth import (
    _OTHER_COLORS,
    _cell_points,
    _depth_fan,
    _fans,
    _turn_key,
    counting_inequality_diagnostic,
)
from rainbowdepth.geometry import affine_image, integer_scaled, primitive_direction


def hexagon_config():
    """Affine image of the regular hexagon (rational coordinates), with
    opposite vertices sharing a color."""
    v = [
        point(1, 0),
        point("1/2", 1),
        point("-1/2", 1),
        point(-1, 0),
        point("-1/2", -1),
        point("1/2", -1),
    ]
    return configuration(2, [[v[0], v[3]], [v[1], v[4]], [v[2], v[5]]])


def test_constants_d2():
    c = theoretical_constants(2, 10)
    assert c.alpha == Fraction(1, 10000)
    assert c.beta == Fraction(1, 30000)
    assert c.epsilon == Fraction(1, 256)
    assert c.n_rainbow == 1000


def test_constants_d1():
    c = theoretical_constants(1, 5)
    assert c.alpha == Fraction(1, 5)
    assert c.beta == Fraction(1, 10)
    assert c.epsilon == Fraction(1, 4)
    assert c.n_rainbow == 25


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_epsilon_below_half(d):
    assert theoretical_constants(d, 2).epsilon < Fraction(1, 2)


def test_counting_diagnostic_reports_not_asserts():
    small = counting_inequality_diagnostic(2, 8)
    assert small["defined"] is True
    assert isinstance(small["lhs"], Fraction)
    assert small["holds"] in (True, False)
    assert counting_inequality_diagnostic(2, 5)["defined"] is False


def test_depth_triangle():
    cfg = configuration(2, [[point(0, 0)], [point(4, 0)], [point(0, 4)]])
    inside = rainbow_depth_at(cfg, point(1, 1))
    assert inside.count == 1
    assert inside.tuples == ((0, 0, 0),)
    assert rainbow_depth_at(cfg, point(50, 50)).count == 0


def test_depth_hexagon_center():
    cfg = hexagon_config()
    info = rainbow_depth_at(cfg, point(0, 0))
    assert info.count == 2
    # exactly the two alternating triangles contain the center
    assert set(info.tuples) == {(0, 1, 0), (1, 0, 1)}


def test_depth_rejects_ambiguous_point():
    cfg = configuration(2, [[point(0, 0)], [point(4, 0)], [point(0, 4)]])
    # midpoint of the red-green edge lies on a two-colored spanned line
    with pytest.raises(InputError, match="spanned"):
        rainbow_depth_at(cfg, point(2, 0))


def test_depth_dimension_mismatch():
    cfg = configuration(2, [[point(0, 0)], [point(4, 0)], [point(0, 4)]])
    with pytest.raises(InputError):
        rainbow_depth_at(cfg, point(1, 1, 1))


def test_deepest_point_triangle():
    cfg = configuration(2, [[point(0, 0)], [point(4, 0)], [point(0, 4)]])
    res = deepest_point(cfg, "exact-arrangement")
    assert res.depth == 1
    assert rainbow_depth_at(cfg, res.witness).count == 1


def test_deepest_point_hexagon_arrangement():
    cfg = hexagon_config()
    res = deepest_point(cfg, "exact-arrangement")
    assert res.depth == 2  # exhaustive sweep agrees with the center oracle
    assert rainbow_depth_at(cfg, res.witness).count == 2
    assert res.candidates_examined > 0


def test_deepest_point_self_consistency_and_determinism():
    cfg = generate(GeneratorSpec(seed=5, n=4, d=2))
    a = deepest_point(cfg, "candidate-sampling", seed=5)
    b = deepest_point(cfg, "candidate-sampling", seed=5)
    assert a == b
    assert rainbow_depth_at(cfg, a.witness).count == a.depth


def test_exact_dominates_sampling():
    for seed in range(4):
        cfg = generate(GeneratorSpec(seed=seed, n=3, d=2))
        exact = deepest_point(cfg, "exact-arrangement")
        sampled = deepest_point(cfg, "candidate-sampling", seed=seed)
        assert exact.depth >= sampled.depth
        assert rainbow_depth_at(cfg, exact.witness).count == exact.depth


def test_depth_floor_from_disjoint_simplices():
    # with 8 points per color, three disjoint rainbow triangles share a
    # point, so the best depth is at least 3
    for seed in range(20):
        cfg = generate(GeneratorSpec(seed=seed, n=8, d=2))
        res = deepest_point(cfg, "candidate-sampling", seed=seed)
        assert res.depth >= 3, f"seed {seed} found only depth {res.depth}"


def test_depth_affine_invariance():
    cfg = generate(GeneratorSpec(seed=2, n=3, d=2))
    res = deepest_point(cfg, "candidate-sampling", seed=2)
    mat = [[3, 1], [2, 1]]  # determinant 1
    shift = ("5/7", -2)
    mapped = configuration(
        2,
        [[affine_image(p, mat, shift) for p in cls] for cls in cfg.colors],
    )
    mapped_o = affine_image(res.witness, mat, shift)
    assert rainbow_depth_at(mapped, mapped_o).count == res.depth


def test_arrangement_needs_dimension_2():
    cfg = generate(GeneratorSpec(seed=1, n=2, d=3))
    with pytest.raises(UnsupportedDimensionError):
        deepest_point(cfg, "exact-arrangement")


def test_unknown_strategy():
    cfg = generate(GeneratorSpec(seed=1, n=2, d=2))
    with pytest.raises(InputError):
        deepest_point(cfg, "magic")


def test_depth_general_dimension():
    cfg = generate(GeneratorSpec(seed=4, n=2, d=3))
    res = deepest_point(cfg, "candidate-sampling", seed=4, random_budget=50)
    assert res.depth >= 1
    assert rainbow_depth_at(cfg, res.witness).count == res.depth


def brute_force_depth(cfg, p):
    """Oracle: None when p is collinear with two differently colored
    points, else the containing rainbow tuples, by exact orientations."""
    union = [(ci, q) for ci, cls in enumerate(cfg.colors) for q in cls]
    for (cu, u), (cv, v) in itertools.combinations(union, 2):
        if cu != cv and orientation([u, v, p]) == 0:
            return None
    return tuple(
        idx
        for idx in itertools.product(range(cfg.n), repeat=3)
        if point_in_simplex_interior(
            p, [cfg.colors[i][idx[i]] for i in range(3)]
        )
    )


# --- angular sweep oracle ----------------------------------------------------
# The former per-candidate planar depth counter: one exact angular sort of
# all N points around p and a sliding half-turn window, O(N log N).


def _angular_cmp(u, w):
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    hu, hw = half(u), half(w)
    if hu != hw:
        return -1 if hu < hw else 1
    cross = u[0] * w[1] - u[1] * w[0]
    return 0 if cross == 0 else (-1 if cross > 0 else 1)


def depth_sweep(cfg, den, num):
    """Planar rainbow depth of p = num/den in the integer frame, None
    where p is ambiguous.  A rainbow triangle misses p exactly when one
    vertex v sees the other two inside the open half-turn
    counter-clockwise from v, and then only one vertex does, so
    depth = n^3 - sum over v of c_j(v)*c_k(v)."""
    px, py = num
    vecs = [(den * x - px, den * y - py) for x, y in cfg.int_points]
    if (0, 0) in vecs:
        return None  # p is a configuration point
    items = sorted(
        zip(vecs, cfg.point_colors),
        key=cmp_to_key(lambda a, b: _angular_cmp(a[0], b[0]) or a[1] - b[1]),
    )
    # One group per direction; a direction shared across colors means two
    # differently colored points on one ray from p.
    gv, gc, gn = [], [], []
    for v, c in items:
        if gv and _angular_cmp(gv[-1], v) == 0:
            if c != gc[-1]:
                return None
            gn[-1] += 1
            continue
        gv.append(v)
        gc.append(c)
        gn.append(1)
    m = len(gv)
    # Sliding window: groups t+1 .. e-1 (cyclic) lie strictly inside the
    # open half-turn counter-clockwise from group t; cnt counts them by color.
    cnt = [0, 0, 0]
    outside = 0
    e = 1
    for t in range(m):
        (vx, vy), c = gv[t], gc[t]
        e = max(e, t + 1)
        while e < t + m:
            w = e % m
            cross = vx * gv[w][1] - vy * gv[w][0]
            if cross <= 0:
                if cross == 0 and gc[w] != c:
                    return None  # opposite rays of two different colors
                break
            cnt[gc[w]] += gn[w]
            e += 1
        a, b = _OTHER_COLORS[c]
        outside += gn[t] * cnt[a] * cnt[b]
        if e > t + 1:
            w = (t + 1) % m
            cnt[gc[w]] -= gn[w]
    return cfg.n**3 - outside


def assert_depth_matches_oracle(cfg, p, fans=None):
    """Both counters, the fan bisection that `deepest_point` scores
    candidates with and the table scan of `rainbow_depth_at`, agree with
    the angular sweep and the brute-force oracle, ambiguity included.
    `fans`, when given, is `_fans(cfg)`, built once per configuration."""
    expected = brute_force_depth(cfg, p)
    count = None if expected is None else len(expected)
    assert depth_sweep(cfg, *cfg.frame(p)) == count
    n3 = cfg.n**3  # a limit above n^3: no early exit
    assert _depth_fan(fans or _fans(cfg), n3, *cfg.frame(p), n3 + 1) == count
    if expected is None:
        with pytest.raises(InputError, match="spanned"):
            rainbow_depth_at(cfg, p)
    else:
        got = rainbow_depth_at(cfg, p)
        assert got.tuples == expected
        assert got.count == len(expected)
    return expected


# Affine weights with large denominators: candidates land in and around
# the configuration, with denominators far beyond its own.
weight = st.fractions(-2, 3, max_denominator=10**36)
unit_weight = st.fractions(0, 1, max_denominator=10**36)
distributions = st.sampled_from(["uniform-box", "gaussian", "moment-curve-perturbed"])


def draw_candidate(cfg, kind, data):
    """A point free inside the configuration's hull, on the line through
    two points of one color or of two, or a configuration point."""
    n = cfg.n
    index = st.integers(0, n - 1)
    if kind == "free":
        u, v, w = (cfg.colors[c][data.draw(index)] for c in range(3))
        t, r = data.draw(unit_weight), data.draw(unit_weight)
        return tuple(a + t * (b - a) + r * (c - a) for a, b, c in zip(u, v, w))
    c1 = data.draw(st.integers(0, 2))
    if kind == "point":
        return cfg.colors[c1][data.draw(index)]
    c2 = c1 if kind == "same-color" else (c1 + data.draw(st.integers(1, 2))) % 3
    i, j = data.draw(st.lists(index, min_size=2, max_size=2, unique=True))
    u, v = cfg.colors[c1][i], cfg.colors[c2][j]
    t = data.draw(weight)
    return tuple(a + t * (b - a) for a, b in zip(u, v))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(2, 7),
    distribution=distributions,
    kind=st.sampled_from(["free", "same-color", "cross-color"]),
    data=st.data(),
)
def test_planar_depth_matches_brute_force(seed, n, distribution, kind, data):
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    p = draw_candidate(cfg, kind, data)
    if kind == "same-color":
        # p may also sit on a two-colored line
        assume(brute_force_depth(cfg, p) is not None)
    expected = assert_depth_matches_oracle(cfg, p)
    if kind == "cross-color":
        assert expected is None


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 6),
    distribution=distributions,
    kinds=st.lists(
        st.sampled_from(["free", "same-color", "cross-color", "point"]),
        min_size=1,
        max_size=4,
    ),
    data=st.data(),
)
def test_depth_fan_matches_sweep_and_brute_force(seed, n, distribution, kinds, data):
    """The fan bisection against the sweep and brute force on several
    candidates of one configuration, sharing its fans; with a random
    limit it returns the depth exactly when n^3 - depth <= limit."""
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    fans = _fans(cfg)
    n3 = n**3
    for kind in kinds:
        if n == 1 and kind in ("same-color", "cross-color"):
            kind = "point"  # no two points of one color
        p = draw_candidate(cfg, kind, data)
        expected = assert_depth_matches_oracle(cfg, p, fans)
        if kind in ("cross-color", "point"):
            assert expected is None
        limit = data.draw(st.integers(-1, n3 + 1))
        got = _depth_fan(fans, n3, *cfg.frame(p), limit)
        if expected is not None and n3 - len(expected) <= limit:
            assert got == len(expected)
        else:
            assert got is None


@settings(max_examples=200, deadline=None)
@given(
    vectors=st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any),
        min_size=2,
        max_size=8,
    ),
    stretch=st.integers(1, 10**40),
)
def test_turn_key_orders_like_angles(vectors, stretch):
    """Keys of vectors within the resolution order strictly by angle
    and agree on equal directions; a long vector beside one of them,
    clamped or not, compares with every one as its direction does."""
    k, h = 50 * 50, 50**3 + 2
    keys = [_turn_key(x, y, k, h) for x, y in vectors]
    assert all(0 <= key < 8 * h for key in keys)
    for (u, ku), (w, kw) in itertools.product(zip(vectors, keys), repeat=2):
        assert (ku > kw) - (ku < kw) == _angular_cmp(u, w)
    for (x, y), (dx, dy) in itertools.product(
        vectors, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    ):
        long = (x * stretch + dx, y * stretch + dy)
        if long == (0, 0):
            continue  # a unit vector nudged back to the origin has no direction
        long_key = _turn_key(*long, k, h)
        assert 0 <= long_key < 8 * h
        for w, kw in zip(vectors, keys):
            order = _angular_cmp(long, w)
            assert long_key == kw if order == 0 else (long_key - kw) * order >= 0


def test_fan_keys_separate_near_parallel_directions():
    """Consecutive Fibonacci vectors have determinant +-1, so from the
    origin their directions differ by about 1/F^2 in cotangent: the fan
    keys must still increase strictly, and a point in the thin wedge
    between them must count."""
    a, b = 1, 1
    for _ in range(25):
        a, b = b, a + b
    q1, q2 = (a, b - a), (b, a)  # det(q1, q2) = a*a - b*(b - a) = +-1
    cfg = configuration(2, [[point(0, 0)], [point(*q1)], [point(*q2)]])
    for _, _, keys, _, _ in _fans(cfg)[2]:
        assert all(u < w for u, w in zip(keys, keys[1:]))
    centroid = tuple(Fraction(s, 3) for s in map(sum, zip(q1, q2)))
    assert len(assert_depth_matches_oracle(cfg, centroid)) == 1


def test_planar_depth_fixed_cases():
    # hexagon center: each color sits on two opposite rays from p
    assert len(assert_depth_matches_oracle(hexagon_config(), point(0, 0))) == 2
    # a configuration point is a zero vector from itself: always ambiguous
    cfg = generate(GeneratorSpec(seed=3, n=4, d=2))
    fans = _fans(cfg)
    for q in cfg.all_points():
        assert assert_depth_matches_oracle(cfg, q, fans) is None


# --- ray-shot arrangement oracle --------------------------------------------
# The former exact-arrangement candidate generator, kept as a reference:
# lines through all point pairs, and per cell a ray shot against every
# line to find a step that stays inside the cell.


def _lines_through_pairs(ipts):
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


def arrangement_cell_points(points):
    """One interior point of every cell around every vertex of the
    arrangement of lines through all point pairs, by ray shooting."""
    ipts, scale = integer_scaled(points)
    lines = _lines_through_pairs(ipts)
    vertices = {}
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
            d0 = primitive_direction(b, -a)
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
            yield ((vx + step * sx) / scale, (vy + step * sy) / scale)


def assert_exact_arrangement_matches_oracle(cfg):
    """Same maximum depth as the ray-shot oracle; every candidate of the
    closed-form step is unambiguous; the witness recounts to its depth."""
    fans, n3 = _fans(cfg), cfg.n**3
    depths = [_depth_fan(fans, n3, den, num, n3 + 1) for den, num in _cell_points(cfg)]
    assert None not in depths
    oracle = max(
        d
        for d in (
            depth_sweep(cfg, *cfg.frame(p))
            for p in arrangement_cell_points(cfg.all_points())
        )
        if d is not None
    )
    res = deepest_point(cfg, "exact-arrangement")
    assert res.depth == max(depths) == oracle
    assert res.candidates_examined == len(depths)
    assert rainbow_depth_at(cfg, res.witness).count == res.depth


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 3),
    distribution=st.sampled_from(
        ["uniform-box", "gaussian", "moment-curve-perturbed"]
    ),
)
def test_exact_arrangement_matches_ray_shot_oracle(seed, n, distribution):
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    assert_exact_arrangement_matches_oracle(cfg)


def test_exact_arrangement_hexagon_matches_oracle():
    assert_exact_arrangement_matches_oracle(hexagon_config())


# --- Fraction candidate-sampling oracle --------------------------------------
# The former candidate generator and scoring loop, on Fraction points:
# centroids k * (sum of the vertices), then random points lo + (hi - lo) * r
# on a 1/9973 grid, each scored by `rainbow_depth_at`.


def fraction_sampling_candidates(cfg, seed, centroid_budget, random_budget):
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


def fraction_deepest_point(cfg, seed, centroid_budget, random_budget):
    """(witness, depth, candidates examined); None when no candidate is
    unambiguous."""
    best_depth, best_point, examined = -1, None, 0
    for cand in fraction_sampling_candidates(
        cfg, seed, centroid_budget, random_budget
    ):
        examined += 1
        try:
            depth = rainbow_depth_at(cfg, cand).count
        except InputError:
            continue  # on a spanned hyperplane
        if depth > best_depth or (depth == best_depth and cand < best_point):
            best_depth, best_point = depth, cand
    return None if best_point is None else (best_point, best_depth, examined)


def assert_sampling_matches_oracle(cfg, seed, centroid_budget, random_budget):
    expected = fraction_deepest_point(cfg, seed, centroid_budget, random_budget)
    if expected is None:
        with pytest.raises(InputError, match="no valid candidate"):
            deepest_point(cfg, "candidate-sampling", seed, centroid_budget, random_budget)
        return
    res = deepest_point(cfg, "candidate-sampling", seed, centroid_budget, random_budget)
    assert (res.witness, res.depth, res.candidates_examined) == expected


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.sampled_from(range(1, 8)),
    distribution=st.sampled_from(
        ["uniform-box", "gaussian", "moment-curve-perturbed"]
    ),
    sampled=st.booleans(),
    random_budget=st.sampled_from([0, 1, 50]),
    data=st.data(),
)
def test_candidate_sampling_matches_fraction_oracle(
    seed, n, distribution, sampled, random_budget, data
):
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    # below n^3 the centroids are drawn at random, else all are scored
    centroid_budget = data.draw(st.integers(0, n**3 - 1)) if sampled else n**3
    assert_sampling_matches_oracle(cfg, seed, centroid_budget, random_budget)


def test_candidate_sampling_matches_fraction_oracle_d3():
    cfg = generate(GeneratorSpec(seed=4, n=2, d=3))
    assert_sampling_matches_oracle(cfg, 4, 20000, 50)
    assert_sampling_matches_oracle(cfg, 4, 7, 1)
