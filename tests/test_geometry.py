import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowdepth import (
    InputError,
    barycentric_coordinates,
    general_position_check,
    hyperplane,
    orientation,
    point,
    point_in_simplex_interior,
    rational,
    side_of_hyperplane,
)
from rainbowdepth.errors import BudgetExceededError
from rainbowdepth.geometry import (
    MAX_COORDINATE_BITS,
    affine_image,
    convex_hull_2d,
    first_collinear_triple,
    format_rational,
    integer_scaled,
    orientation_form,
    orientation_value,
    primitive_direction,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=1, max_value=60),
)
points2 = st.tuples(rationals, rationals)


def test_orientation_examples():
    assert orientation([(0, 0), (1, 0), (0, 1)]) == 1
    assert orientation([(0, 0), (0, 1), (1, 0)]) == -1
    assert orientation([(0, 0), (1, 1), (2, 2)]) == 0


def test_orientation_dimension_mismatch():
    with pytest.raises(InputError):
        orientation([(0, 0, 0), (1, 0), (0, 1)])
    with pytest.raises(InputError):
        orientation([(0, 0)])


def test_orientation_3d():
    assert orientation([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert orientation([(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)]) == -1
    assert orientation([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1)]) == 0


def test_interior_examples():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert point_in_simplex_interior(("1/3", "1/3"), tri) is True
    assert point_in_simplex_interior((0, 0), tri) is False
    assert point_in_simplex_interior((1, 1), tri) is False
    # boundary (edge midpoint) is not interior
    assert point_in_simplex_interior(("1/2", 0), tri) is False


def test_interior_degenerate_simplex():
    with pytest.raises(InputError):
        point_in_simplex_interior((0, 0), [(0, 0), (1, 1), (2, 2)])


def test_side_of_hyperplane_examples():
    h = hyperplane((0, 1), 1)  # the line y = 1
    assert side_of_hyperplane(h, point(0, 2)) == 1
    assert side_of_hyperplane(h, point(5, 1)) == 0
    assert side_of_hyperplane(h, point(0, 0)) == -1


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(InputError):
        hyperplane((0, 0), 1)


def test_general_position_examples():
    assert general_position_check(
        [point(0, 0), point(1, 0), point(2, 0)], 2
    ) == (0, 1, 2)
    assert (
        general_position_check(
            [point(0, 0), point(1, 0), point(0, 1), point(1, 1)], 2
        )
        is None
    )
    assert general_position_check([point(0, 0), point(1, 0)], 2) is None


def test_general_position_first_witness_is_lexicographic():
    pts = [point(0, 0), point(1, 0), point(5, 7), point(2, 0), point(3, 0)]
    assert general_position_check(pts, 2) == (0, 1, 3)


# Small grids with half-integer coordinates: collinear triples (and
# repeated points) are common, so the first witness is tested often.
grid_coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(grid_coord, grid_coord), max_size=10))
def test_planar_general_position_matches_orientation_oracle(pts):
    expected = next(
        (
            combo
            for combo in itertools.combinations(range(len(pts)), 3)
            if orientation([pts[i] for i in combo]) == 0
        ),
        None,
    )
    assert general_position_check(pts, 2) == expected


def first_collinear_triple_oracle(ipts):
    """`first_collinear_triple` as it was written on `primitive_direction`,
    one call per pair, kept as its oracle."""
    m = len(ipts)
    for i in range(m - 2):
        xi, yi = ipts[i]
        first = {}
        best = None
        for j in range(i + 1, m):
            direction = primitive_direction(ipts[j][0] - xi, ipts[j][1] - yi)
            if direction == (0, 0):
                pair = (i + 1, i + 2) if j == i + 1 else (i + 1, j)
                return (i,) + min(pair, best or pair)
            earlier = first.setdefault(direction, j)
            if earlier != j and (best is None or (earlier, j) < best):
                best = (earlier, j)
        if best is not None:
            return (i,) + best
    return None


# A 5 x 5 grid: collinear triples and coincident points are common.
grid_int = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=500, deadline=None)
@given(st.lists(grid_int, max_size=14))
def test_first_collinear_triple_matches_primitive_direction_oracle(ipts):
    assert first_collinear_triple(ipts) == first_collinear_triple_oracle(ipts)


def test_rational_parsing():
    assert rational("0.25") == Fraction(1, 4)
    assert rational("1/3") == Fraction(1, 3)
    assert rational("-7") == Fraction(-7)
    assert rational("2e2") == Fraction(200)
    with pytest.raises(InputError):
        rational(0.25)
    with pytest.raises(InputError):
        rational("abc")


def test_rational_string_bit_bound():
    limit = MAX_COORDINATE_BITS
    assert rational(str(2**limit - 1)).numerator.bit_length() == limit
    assert rational(f"1/{2**limit - 1}").denominator.bit_length() == limit
    assert rational("1" + "0" * 500 + "e-500") == 1  # reduced before the check
    for text in (
        str(2**limit),  # value over the limit
        f"1/{2**limit}",
        "1e1234",  # short string, value over the limit
        f"1e{limit + 1}",  # exponent over the limit: refused unread
        "1e1000000000",
        "1E-" + "9" * 4000,  # a long exponent within a short-enough string
        "0" * (limit + 1),  # string longer than the limit
    ):
        with pytest.raises(BudgetExceededError):
            rational(text)
    # ints and Fractions are not bounded
    assert rational(2**limit) == 2**limit
    # printing stops at Python's int-to-str digit limit
    with pytest.raises(BudgetExceededError):
        format_rational(Fraction(1, 10**5000))


@settings(max_examples=100, deadline=None)
@given(st.lists(points2, min_size=2, max_size=2), points2, st.integers(0, 2))
def test_orientation_form_is_orientation_value(others, p, i):
    coeffs, const = orientation_form(others, i)
    expected = orientation_value(others[:i] + [p] + others[i:])
    assert sum(c * x for c, x in zip(coeffs, p)) + const == expected


@settings(max_examples=200, deadline=None)
@given(points2, points2, points2)
def test_orientation_antisymmetry(a, b, c):
    s = orientation([a, b, c])
    assert orientation([b, a, c]) == -s
    assert orientation([a, c, b]) == -s


@settings(max_examples=200, deadline=None)
@given(
    points2,
    points2,
    points2,
    st.builds(
        Fraction,
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=50),
    ),
)
def test_orientation_scaling_invariance(a, b, c, scale):
    scaled = [tuple(scale * x for x in p) for p in (a, b, c)]
    assert orientation(scaled) == orientation([a, b, c])


@settings(max_examples=100, deadline=None)
@given(points2, points2, points2, points2)
def test_barycentric_oracle_agreement(a, b, c, p):
    if orientation([a, b, c]) == 0:
        return
    inside = point_in_simplex_interior(p, [a, b, c])
    bary = barycentric_coordinates(p, [a, b, c])
    assert sum(bary) == 1
    assert inside == all(coord > 0 for coord in bary)


def test_affine_invariance():
    rng = random.Random(7)
    for _ in range(50):
        pts = [
            tuple(Fraction(rng.randrange(-100, 100), 7) for _ in range(2))
            for _ in range(3)
        ]
        mat = [[2, 1], [1, 1]]  # determinant 1 > 0
        image = [affine_image(p, mat, (3, -4)) for p in pts]
        assert orientation(image) == orientation(pts)
        flip = [[0, 1], [1, 0]]  # determinant -1
        image = [affine_image(p, flip, (0, 0)) for p in pts]
        assert orientation(image) == -orientation(pts)


def test_integer_scaled_preserves_signs():
    pts = [point("1/3", "1/2"), point("2/3", "5"), point("-1/6", "0.2")]
    scaled, scale = integer_scaled(pts)
    assert scale > 0
    assert all(isinstance(c, int) for p in scaled for c in p)
    assert orientation([tuple(map(Fraction, p)) for p in scaled]) == orientation(pts)


@settings(max_examples=200, deadline=None)
@given(st.lists(points2, max_size=8))
def test_integer_scaled_matches_fraction_products(pts):
    # The oracle: the lcm folded by gcd, and int(c * scale) per coordinate.
    scale = 1
    for p in pts:
        for c in p:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    expected = [tuple(int(c * scale) for c in p) for p in pts]
    assert integer_scaled(pts) == (expected, scale)


def test_convex_hull_2d():
    pts = [point(0, 0), point(2, 0), point(1, 1), point(1, "1/2"), point(0, 2)]
    hull = convex_hull_2d(pts)
    assert hull == [point(0, 0), point(2, 0), point(0, 2)]
    assert convex_hull_2d([point(1, 1)]) == [point(1, 1)]
    assert convex_hull_2d([point(0, 0), point(1, 1), point(2, 2)]) == [
        point(0, 0),
        point(2, 2),
    ]
