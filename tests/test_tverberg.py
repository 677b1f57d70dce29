from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowdepth import (
    BudgetExceededError,
    GeneratorSpec,
    InputError,
    common_interior_point,
    find_disjoint_rainbow_simplices,
    generate,
    point,
    point_in_simplex_interior,
    tverberg,
)
from rainbowdepth.geometry import orientation
from rainbowdepth.lp import OPTIMAL
from rainbowdepth.tverberg import _clip_triangle, _facet_inequalities, _triangle_ccw
from test_lp import two_phase_solve_lp_max


def test_single_triangle_gives_centroid():
    cert = find_disjoint_rainbow_simplices(
        [[point(0, 0)], [point(1, 0)], [point(0, 1)]], 1
    )
    assert cert is not None
    assert cert.simplices == ((0, 0, 0),)
    # the vertex average of a single triangle is its centroid
    assert cert.witness == (Fraction(1, 3), Fraction(1, 3))


def test_common_interior_nested():
    outer = [point(0, 0), point(2, 0), point(0, 2)]
    inner = [point("1/4", "1/4"), point("1/2", "1/4"), point("1/4", "1/2")]
    w = common_interior_point([outer, inner])
    assert w is not None
    assert point_in_simplex_interior(w, outer)
    assert point_in_simplex_interior(w, inner)


def test_common_interior_disjoint():
    a = [point(0, 0), point(1, 0), point(0, 1)]
    b = [point(5, 5), point(6, 5), point(5, 6)]
    assert common_interior_point([a, b]) is None


def test_common_interior_touching_is_empty():
    # triangles sharing exactly the boundary point (1, 1)
    a = [point(0, 0), point(2, 0), point(0, 2)]
    b = [point(1, 1), point(3, 1), point(1, 3)]
    assert common_interior_point([a, b]) is None


def test_common_interior_degenerate_simplex():
    with pytest.raises(InputError):
        common_interior_point([[point(0, 0), point(1, 1), point(2, 2)]])


def test_precondition_sizes():
    with pytest.raises(InputError):
        find_disjoint_rainbow_simplices(
            [[point(0, 0), point(1, 5)], [point(1, 0), point(2, 7)],
             [point(0, 1), point(3, 11)]],
            3,
        )


def test_exhaustive_gate():
    cfg = generate(GeneratorSpec(seed=0, n=13, d=2))
    with pytest.raises(BudgetExceededError):
        find_disjoint_rainbow_simplices(cfg.colors, 3)


def test_disjoint_sets_required():
    shared = point(1, 1)
    with pytest.raises(InputError):
        find_disjoint_rainbow_simplices(
            [[shared], [shared], [point(0, 1)]], 1
        )


def test_certificate_reverifies_with_core_predicates():
    for seed in (0, 1):
        cfg = generate(GeneratorSpec(seed=seed, n=8, d=2))
        cert = find_disjoint_rainbow_simplices(cfg.colors, 3)
        assert cert is not None
        assert len(cert.simplices) == 3
        # rainbow structure and pairwise vertex-disjointness
        for pos in range(3):
            indices = [t[pos] for t in cert.simplices]
            assert len(set(indices)) == 3
        # strict containment of the witness in all three simplices
        for t in cert.simplices:
            verts = [cfg.colors[i][t[i]] for i in range(3)]
            assert point_in_simplex_interior(cert.witness, verts)


def test_determinism():
    cfg = generate(GeneratorSpec(seed=4, n=8, d=2))
    c1 = find_disjoint_rainbow_simplices(cfg.colors, 3)
    c2 = find_disjoint_rainbow_simplices(cfg.colors, 3)
    assert c1 == c2


def test_k2_on_small_instance():
    cfg = generate(GeneratorSpec(seed=9, n=4, d=2))
    cert = find_disjoint_rainbow_simplices(cfg.colors, 2)
    assert cert is not None
    for t in cert.simplices:
        verts = [cfg.colors[i][t[i]] for i in range(3)]
        assert point_in_simplex_interior(cert.witness, verts)


def test_k1_always_certifies():
    # the k=1 completeness check is vacuous: any rainbow simplex in
    # general position has nonempty interior, so a certificate always
    # exists and "none" can never need the depth-zero cross-check
    for seed in range(5):
        cfg = generate(GeneratorSpec(seed=seed, n=3, d=2))
        cert = find_disjoint_rainbow_simplices(cfg.colors, 1)
        assert cert is not None
        verts = [cfg.colors[i][cert.simplices[0][i]] for i in range(3)]
        assert point_in_simplex_interior(cert.witness, verts)


def test_lexicographically_first_tuple():
    # the first simplex of the returned tuple must be the lexicographic
    # minimum among all simplices extendable to a certificate; for random
    # configurations (0,0,0) almost always extends, so pin a couple
    for seed in (0, 1, 5):
        cfg = generate(GeneratorSpec(seed=seed, n=8, d=2))
        cert = find_disjoint_rainbow_simplices(cfg.colors, 3)
        assert list(cert.simplices) == sorted(cert.simplices)


def two_phase_capped_margin(simplices) -> Fraction:
    """max over p of min(1, every facet margin at p): the margin LP as it
    was built before the shift, solved by the two-phase reference."""
    d = len(simplices[0]) - 1
    a_ub, b_ub = [], []
    for simplex in simplices:
        for coeffs, const in _facet_inequalities(simplex):
            a_ub.append([-c for c in coeffs] + [1])
            b_ub.append(const)
    a_ub.append([0] * d + [1])
    b_ub.append(1)
    result = two_phase_solve_lp_max([0] * d + [1], a_ub, b_ub)
    assert result.status == OPTIMAL
    return result.value


def capped_margin_at(p, simplices) -> Fraction:
    return min(
        [Fraction(1)]
        + [
            sum(c * x for c, x in zip(coeffs, p)) + const
            for simplex in simplices
            for coeffs, const in _facet_inequalities(simplex)
        ]
    )


@st.composite
def simplex_tuples(draw):
    """1-3 nondegenerate simplices in dimension 2 or 3, small integer
    vertices, so that they often overlap, touch or nest."""
    d = draw(st.integers(2, 3))
    vertex = st.tuples(*[st.integers(-3, 3)] * d).map(point)
    simplex = st.lists(vertex, min_size=d + 1, max_size=d + 1).filter(
        lambda s: orientation(s) != 0
    )
    return draw(st.lists(simplex, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(simplex_tuples())
def test_common_interior_matches_two_phase_margin(simplices):
    """The shifted LP finds a witness exactly when the unshifted one has a
    positive optimum, and the witness attains that optimum."""
    optimum = two_phase_capped_margin(simplices)
    w = common_interior_point(simplices)
    assert (w is not None) == (optimum > 0)
    if w is not None:
        assert capped_margin_at(w, simplices) == optimum
        assert all(point_in_simplex_interior(w, s) for s in simplices)


def test_planar_witness_is_clipped_region_vertex_average(monkeypatch):
    calls = []
    solve = tverberg.solve_lp_max

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(tverberg, "solve_lp_max", counting)
    for seed in (0, 1, 2):
        cfg = generate(GeneratorSpec(seed=seed, n=6, d=2))
        cert = find_disjoint_rainbow_simplices(cfg.colors, 3)
        triangles = [[cfg.colors[i][t[i]] for i in range(3)] for t in cert.simplices]
        region = _triangle_ccw(triangles[0])
        for tri in triangles[1:]:
            region = _clip_triangle(region, tri)
        average = tuple(sum(c) / len(region) for c in zip(*region))
        assert cert.witness == average
        assert all(point_in_simplex_interior(cert.witness, t) for t in triangles)
    assert calls == []  # the planar search never runs the LP
    cfg = generate(GeneratorSpec(seed=0, n=2, d=3))
    assert find_disjoint_rainbow_simplices(cfg.colors, 2) is not None
    assert calls  # while the d = 3 search does, through the same name
