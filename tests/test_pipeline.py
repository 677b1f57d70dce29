import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowdepth import (
    GeneratorSpec,
    InputError,
    PipelineParams,
    PipelineStageError,
    all_or_none_check,
    configuration,
    generate,
    point,
    report_bytes,
    run_pipeline,
    trim_to_separated,
    verify_certificate,
)
from rainbowdepth.depth import contained_triangles, deepest_point, rainbow_depth_at
from rainbowdepth.geometry import (
    is_unambiguous,
    pair_sign_table,
    point_in_simplex_interior,
)
from rainbowdepth.pipeline import check_report_numbers, load_report, report_o_and_q

DATA = Path(__file__).parent / "data"


def triangle_config():
    return configuration(2, [[point(0, 0)], [point(4, 0)], [point(0, 4)]])


def hexagon_config():
    v = [
        point(1, 0),
        point("1/2", 1),
        point("-1/2", 1),
        point(-1, 0),
        point("-1/2", -1),
        point("1/2", -1),
    ]
    return configuration(2, [[v[0], v[3]], [v[1], v[4]], [v[2], v[5]]])


def test_triangle_pipeline_trivial():
    cfg = triangle_config()
    bundle = run_pipeline(cfg, PipelineParams())
    assert bundle.verified
    assert bundle.depth_at_o == 1
    assert bundle.q_sets == cfg.colors  # the singletons survive untouched
    assert bundle.ratios == (Fraction(1), Fraction(1), Fraction(1))
    assert verify_certificate(cfg, bundle.o_point, bundle.q_sets) is None


def test_hexagon_pipeline_regression_fixture():
    cfg = hexagon_config()
    bundle = run_pipeline(
        cfg, PipelineParams(depth_strategy="exact-arrangement")
    )
    assert bundle.verified
    assert bundle.depth_at_o == 2
    assert all(len(q) >= 1 for q in bundle.q_sets)
    expected = (DATA / "hexagon_report.json").read_bytes()
    assert report_bytes(bundle) == expected


def test_pipeline_determinism():
    cfg = generate(GeneratorSpec(seed=3, n=6, d=2))
    params = PipelineParams(seed=3)
    b1 = run_pipeline(cfg, params)
    b2 = run_pipeline(cfg, params)
    assert report_bytes(b1) == report_bytes(b2)


def test_pipeline_stage_consistency():
    cfg = generate(GeneratorSpec(seed=12, n=6, d=2))
    bundle = run_pipeline(cfg, PipelineParams(seed=12))
    stats = bundle.stats
    assert stats["edges_stage2"] == bundle.depth_at_o
    assert stats["edges_stage3"] <= stats["edges_stage2"]
    assert stats["edges_stage4"] <= stats["edges_stage3"]
    assert all(0 < r <= 1 for r in bundle.ratios)


def test_pipeline_paper_epsilon():
    cfg = hexagon_config()
    bundle = run_pipeline(cfg, PipelineParams(epsilon="paper"))
    assert bundle.verified
    data = json.loads(report_bytes(bundle))
    assert data["params"]["epsilon"] == "1/256"
    assert data["params"]["epsilon_requested"] == "paper"


def test_report_params_schema():
    data = json.loads(report_bytes(run_pipeline(hexagon_config(), PipelineParams())))
    assert set(data["params"]) == {
        "epsilon",
        "epsilon_requested",
        "depth_strategy",
        "seed",
        "exact_gate",
        "centroid_budget",
        "random_budget",
        "trim_max_steps",
    }


def test_pipeline_epsilon_validation():
    cfg = triangle_config()
    with pytest.raises(InputError):
        run_pipeline(cfg, PipelineParams(epsilon=Fraction(3, 4)))


def test_verify_certificate_examples():
    cfg = triangle_config()
    o_in = point(1, 1)
    assert verify_certificate(cfg, o_in, cfg.colors) is None
    counter = verify_certificate(cfg, point(-17, "-5/3"), cfg.colors)
    assert counter is not None
    assert counter.index_tuple == (0, 0, 0)


def test_verify_certificate_validations():
    cfg = triangle_config()
    with pytest.raises(InputError):
        verify_certificate(cfg, point(1, 1), [[point(9, 9)], [point(4, 0)], [point(0, 4)]])
    with pytest.raises(InputError):
        verify_certificate(cfg, point(1, 1), [[], [point(4, 0)], [point(0, 4)]])
    with pytest.raises(InputError):  # O on a spanned two-color line
        verify_certificate(cfg, point(2, 0), cfg.colors)
    with pytest.raises(InputError):  # O of the wrong dimension
        verify_certificate(cfg, point(1, 1, 1), cfg.colors)
    with pytest.raises(InputError, match="repeats"):  # Q_0 = {q, q}
        verify_certificate(cfg, point(1, 1), [[point(0, 0)] * 2, [point(4, 0)], [point(0, 4)]])


def test_verify_certificate_membership_by_class():
    # a point of the configuration in the wrong Q_i is outside that class;
    # a repeat is reported before membership
    cfg = hexagon_config()
    other = cfg.colors[1][0]
    with pytest.raises(InputError, match="Q_0 contains a point outside color class 0"):
        verify_certificate(cfg, point(0, 0), [[other], cfg.colors[1], cfg.colors[2]])
    with pytest.raises(InputError, match="Q_2 contains a point outside color class 2"):
        verify_certificate(cfg, point(0, 0), [cfg.colors[0], cfg.colors[1], [other]])
    with pytest.raises(InputError, match="Q_0 repeats a point"):
        verify_certificate(
            cfg, point(0, 0), [[other, other], cfg.colors[1], cfg.colors[2]]
        )
    # the same points written as strings and integers are members
    written = [[tuple(str(c) for c in p) for p in q] for q in cfg.colors]
    assert (
        verify_certificate(cfg, point(0, 0), written)
        == verify_certificate(cfg, point(0, 0), cfg.colors)
    )


def test_verified_bundles_pass_independent_oracle():
    for seed in (1, 2):
        cfg = generate(GeneratorSpec(seed=seed, n=6, d=2))
        bundle = run_pipeline(cfg, PipelineParams(seed=seed))
        assert bundle.verified
        assert verify_certificate(cfg, bundle.o_point, bundle.q_sets) is None


def first_missing_tuple(o_point, q_sets):
    """Oracle: the first index tuple, in product order, whose rainbow
    simplex does not strictly contain O, by `point_in_simplex_interior`."""
    for choice in itertools.product(*[range(len(q)) for q in q_sets]):
        verts = [q_sets[i][choice[i]] for i in range(len(q_sets))]
        if not point_in_simplex_interior(o_point, verts):
            return choice
    return None


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.sampled_from(range(1, 8)),
    distribution=st.sampled_from(
        ["uniform-box", "gaussian", "moment-curve-perturbed"]
    ),
    kind=st.sampled_from(["deep", "random", "outside", "bichromatic"]),
    data=st.data(),
)
def test_verify_matches_simplex_oracle(seed, n, distribution, kind, data):
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    pools = cfg.colors
    if kind == "deep":
        bundle = run_pipeline(cfg, PipelineParams(seed=seed))
        o_point = bundle.o_point
        if data.draw(st.booleans()):
            pools = bundle.q_sets  # subsets of a certified Q verify
    elif kind == "random":
        # an affine combination with large denominators
        weight = st.fractions(-1, 2, max_denominator=10**30)
        t, r = data.draw(weight), data.draw(weight)
        u, v, w = (cls[0] for cls in cfg.colors)
        o_point = tuple(a + t * (b - a) + r * (c - a) for a, b, c in zip(u, v, w))
    elif kind == "outside":
        # right of every point, so no rainbow triangle contains it
        right = max(p[0] for p in cfg.all_points())
        dx = data.draw(st.fractions(0, 10, max_denominator=97).filter(bool))
        y = data.draw(st.fractions(-(10**4), 10**4, max_denominator=97))
        o_point = (right + dx, y)
    else:
        # on the line through u and a point of another color, or at u,
        # with u left out of Q when its class has another point
        i, j = data.draw(st.permutations(range(3)))[:2]
        u = data.draw(st.sampled_from(cfg.colors[i]))
        v = data.draw(st.sampled_from(cfg.colors[j]))
        t = data.draw(st.just(0) | st.fractions(-2, 2, max_denominator=10**6))
        o_point = tuple(a + t * (b - a) for a, b in zip(u, v))
        if n > 1:
            pools = [tuple(p for p in pool if p != u) for pool in pools]
    q_sets = []
    for pool in pools:
        order = data.draw(st.permutations(pool))
        q_sets.append(tuple(order[: data.draw(st.integers(1, len(pool)))]))
    if not is_unambiguous(cfg.colors, o_point):
        with pytest.raises(InputError, match="O lies on a hyperplane"):
            verify_certificate(cfg, o_point, q_sets)
        return
    assert kind != "bichromatic"
    counter = verify_certificate(cfg, o_point, q_sets)
    expected = first_missing_tuple(o_point, q_sets)
    if expected is None:
        assert counter is None
    else:
        assert counter.index_tuple == expected
        assert counter.vertices == tuple(q[j] for q, j in zip(q_sets, expected))
    if kind == "outside":
        assert expected == (0, 0, 0)


DISTRIBUTIONS = ["uniform-box", "gaussian", "moment-curve-perturbed"]


def sign_table(cfg, o_point):
    return pair_sign_table(cfg.int_points, cfg.point_colors, *cfg.frame(o_point))


def assert_recount_is(cfg, o_point, table, expected):
    """check_report_numbers accepts exactly `expected` as O's depth."""
    check_report_numbers(cfg, {"depth": expected}, o_point, cfg.colors, table)
    with pytest.raises(InputError, match=f"expected {expected}$"):
        check_report_numbers(cfg, {"depth": expected + 1}, o_point, cfg.colors, table)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 8),
    distribution=st.sampled_from(DISTRIBUTIONS),
    kind=st.sampled_from(["deep", "random", "same-color-line"]),
    data=st.data(),
)
def test_depth_recount_matches_contained_triangles(seed, n, distribution, kind, data):
    # The oracle is the n^3 scan the recount read before the row counts.
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    weight = st.fractions(-1, 2, max_denominator=10**6)
    if kind == "deep":
        o_point = deepest_point(cfg, seed=seed).witness
    elif kind == "same-color-line" and n > 1:
        # on the line through two points of one color: a 0 in the table
        u, v = data.draw(st.permutations(data.draw(st.sampled_from(cfg.colors))))[:2]
        t = data.draw(weight)
        o_point = tuple(a + t * (b - a) for a, b in zip(u, v))
    else:
        t, r = data.draw(weight), data.draw(weight)
        u, v, w = (cls[0] for cls in cfg.colors)
        o_point = tuple(a + t * (b - a) + r * (c - a) for a, b, c in zip(u, v, w))
    table = sign_table(cfg, o_point)
    if table is None:
        return  # O is ambiguous: no depth to recount
    expected = sum(1 for _ in contained_triangles(table, n))
    assert rainbow_depth_at(cfg, o_point).count == expected
    assert_recount_is(cfg, o_point, table, expected)


def test_depth_recount_at_the_hexagon_center():
    # Each class is an opposite pair through the center: every row has a
    # 0 in its own class.
    cfg = hexagon_config()
    o_point = point(0, 0)
    table = sign_table(cfg, o_point)
    assert [table[c * 2][c * 2 + 1] for c in range(3)] == [0, 0, 0]
    expected = sum(1 for _ in contained_triangles(table, cfg.n))
    assert expected == 2
    assert_recount_is(cfg, o_point, table, expected)


def product_first_miss(table, indices):
    """The planar containment loop as it was written: one test per tuple
    of `itertools.product`, kept as the oracle of `verify_certificate`."""
    for choice in itertools.product(*[range(len(idx)) for idx in indices]):
        a, b, c = (idx[j] for idx, j in zip(indices, choice))
        if not table[a][b] == table[b][c] == table[c][a]:
            return choice
    return None


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 7),
    distribution=st.sampled_from(DISTRIBUTIONS),
    kind=st.sampled_from(["subsets", "full-class", "swapped"]),
    data=st.data(),
)
def test_verify_loop_matches_product_oracle(seed, n, distribution, kind, data):
    cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
    bundle = run_pipeline(cfg, PipelineParams(seed=seed))
    o_point, q_sets = bundle.o_point, [list(q) for q in bundle.q_sets]
    i = data.draw(st.integers(0, 2))
    if kind == "subsets":
        # random nonempty subsets of the classes, in random order
        q_sets = [
            data.draw(st.permutations(cls))[: data.draw(st.integers(1, n))]
            for cls in cfg.colors
        ]
    elif kind == "full-class":
        q_sets[i] = data.draw(st.permutations(cfg.colors[i]))
    else:
        outside = [p for p in cfg.colors[i] if p not in q_sets[i]]
        if outside:
            j = data.draw(st.integers(0, len(q_sets[i]) - 1))
            q_sets[i][j] = data.draw(st.sampled_from(outside))
    table = sign_table(cfg, o_point)
    indices = [
        [c * n + cfg.colors[c].index(p) for p in q] for c, q in enumerate(q_sets)
    ]
    expected = product_first_miss(table, indices)
    counter = verify_certificate(cfg, o_point, q_sets)
    if expected is None:
        assert counter is None
    else:
        assert counter.index_tuple == expected
        assert counter.vertices == tuple(q[j] for q, j in zip(q_sets, expected))


FAR_DIRECTIONS = [
    (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1),
    (2, 1), (-2, 1), (2, -1), (-2, -1), (1, 2), (-1, 2), (1, -2), (-1, -2),
]


def far_translates(o_point, radius=10**7):
    x, y = o_point
    for dx, dy in FAR_DIRECTIONS:
        yield (x + dx * radius, y + dy * radius)


def test_all_or_none_from_bundle():
    cfg = generate(GeneratorSpec(seed=6, n=6, d=2))
    bundle = run_pipeline(cfg, PipelineParams(seed=6))
    assert all_or_none_check(bundle.q_sets, bundle.o_point) == "all"
    # a far translate of O in some direction keeps the family separated
    # and contains no simplex at all
    outcomes = []
    for far in far_translates(bundle.o_point):
        try:
            outcomes.append(all_or_none_check(bundle.q_sets, far))
        except InputError:
            continue  # this direction broke a pair split; try another
    assert outcomes and set(outcomes) == {"none"}


def test_all_or_none_requires_separated():
    # O inside the hull of a fat set, so the {O} split fails
    q_sets = [
        [point(0, 0), point(4, 0), point(2, 5)],
        [point(100, 0)],
        [point(0, 100)],
    ]
    with pytest.raises(InputError):
        all_or_none_check(q_sets, point(2, 1))


def test_report_roundtrip_and_tamper_detection():
    cfg = triangle_config()
    bundle = run_pipeline(cfg, PipelineParams())
    data = load_report(report_bytes(bundle))
    o_point, q_sets = report_o_and_q(data)
    assert verify_certificate(cfg, o_point, q_sets) is None
    # tamper: swap a Q point for another configuration point of that color
    tampered = json.loads(report_bytes(bundle))
    tampered["Q"][0] = [["0", "0"]]
    tampered["O"] = ["-31", "-57/2"]
    o2, q2 = report_o_and_q(tampered)
    counter = verify_certificate(cfg, o2, q2)
    assert counter is not None


def test_load_report_rejects_bad_schema():
    with pytest.raises(InputError):
        load_report(b'{"schema_version": 99}')
    # equal to 1 in Python, but not the JSON integer 1
    for version in (b"true", b"1.0"):
        with pytest.raises(InputError, match="unsupported report schema_version"):
            load_report(b'{"schema_version": ' + version + b"}")
    assert load_report(b'{"schema_version": 1}') == {"schema_version": 1}
    with pytest.raises(InputError):
        load_report(b"not json")
    with pytest.raises(InputError):
        load_report(b"[1]")
    with pytest.raises(InputError):
        load_report(b'{"schema_version": 1, "O": ["\xff"]}')


def test_trim_runs_only_for_incomplete_s(monkeypatch):
    """A complete S is kept whole without calling the trim; an
    incomplete one (here S = P, from a stubbed extraction) is trimmed
    once, and its failure ends the run after the one attempt."""
    import rainbowdepth.pipeline as pipeline

    calls = []

    def spy(sets, o_point, max_steps):
        calls.append(sets)
        return trim_to_separated(sets, o_point, max_steps=max_steps)

    monkeypatch.setattr(pipeline, "trim_to_separated", spy)
    cfg = generate(GeneratorSpec(seed=1, n=6, d=2))
    bundle = run_pipeline(cfg, PipelineParams(seed=1))
    attempt = bundle.stats["attempts"][-1]
    assert attempt["edges_in_s"] == attempt["s"] ** 3 and calls == []
    assert bundle.trace.step_count == 0 and bundle.sizes == (attempt["s"],) * 3

    extractions = []

    def whole(h, epsilon):
        extractions.append(h)
        return (tuple(range(cfg.n)),) * 3

    monkeypatch.setattr(pipeline, "extract_dense_exact", whole)
    assert bundle.depth_at_o < cfg.n**3
    with pytest.raises(PipelineStageError) as info:
        run_pipeline(cfg, PipelineParams(seed=1))
    assert len(extractions) == 1
    assert len(calls) == 1 and calls == [list(cfg.colors)]
    # here the trimmed Q does not verify, so the one attempt ends there
    assert info.value.details["stage"] == "verify"
    assert len(info.value.details["attempts"]) == 1
