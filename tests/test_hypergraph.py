import decimal
import itertools
import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowdepth import (
    BudgetExceededError,
    DensityValue,
    InputError,
    averaging_identity_check,
    density_value,
    edge_count,
    extract_dense_exact,
    extract_dense_local,
    hypergraph_from_json,
    hypergraph_to_json,
    partite_hypergraph,
    verify_property_ii,
)
from rainbowdepth.config import DISTRIBUTIONS, GeneratorSpec, generate
from rainbowdepth.depth import theoretical_constants
from rainbowdepth.hypergraph import (
    _least_entering_count,
    _log2_bounds,
    _mask_of,
    _require_equal_parts,
    density_exponent,
    exact_tuple_count,
)
from rainbowdepth.pipeline import PipelineParams, run_pipeline
from test_acceptance import random_dense_hypergraph


def complete_222():
    return partite_hypergraph([2, 2, 2], itertools.product(range(2), repeat=3))


def random_hypergraph(rng, sizes, density):
    edges = [
        e
        for e in itertools.product(*[range(s) for s in sizes])
        if rng.random() < density
    ]
    return partite_hypergraph(sizes, edges)


def test_edge_count_examples():
    h = complete_222()
    assert edge_count(h, [(0, 1), (0, 1), (0, 1)]) == 8
    assert edge_count(h, [(0,), (0,), (0,)]) == 1
    empty = partite_hypergraph([2, 2, 2], [])
    assert edge_count(empty, [(0, 1), (0, 1), (0, 1)]) == 0


def test_edge_validation():
    with pytest.raises(InputError):
        partite_hypergraph([2, 2], [(0, 0, 0)])
    with pytest.raises(InputError):
        partite_hypergraph([2, 2, 2], [(0, 0, 5)])
    with pytest.raises(InputError):
        edge_count(complete_222(), [(0,), (0,)])


def test_averaging_trivial_cases():
    h = complete_222()
    full = h.full_subsets()
    assert averaging_identity_check(h, full, [2, 2, 2]) is True  # single term
    assert averaging_identity_check(h, full, [1, 1, 1]) is True  # density form


def test_averaging_random_instances():
    rng = random.Random(31)
    for _ in range(5):
        h = random_hypergraph(rng, [4, 4, 4], 0.5)
        assert averaging_identity_check(h, h.full_subsets(), [2, 2, 2]) is True


def test_averaging_all_t_small():
    rng = random.Random(8)
    h = random_hypergraph(rng, [3, 4, 3], 0.6)
    full = h.full_subsets()
    for t in itertools.product(range(1, 4), range(1, 5), range(1, 4)):
        assert averaging_identity_check(h, full, t) is True


def test_averaging_gate():
    # 1000^3 singleton tuples: past the gate before any is enumerated
    h = partite_hypergraph([1000] * 3, [])
    with pytest.raises(BudgetExceededError):
        averaging_identity_check(h, h.full_subsets(), [1, 1, 1])


def test_averaging_infeasible_t():
    h = complete_222()
    with pytest.raises(InputError):
        averaging_identity_check(h, h.full_subsets(), [3, 1, 1])


def test_density_cross_power_example():
    # exponent 3 - (1/4)^4 = 767/256; compare 8/2^c with 1/1^c by
    # cross-powering: 8^256 = 2^768 > 2^767
    exponent = density_exponent(2, Fraction(1, 4))
    assert exponent == Fraction(767, 256)
    assert DensityValue(8, 2, exponent) > DensityValue(1, 1, exponent)
    assert DensityValue(1, 1, exponent) < DensityValue(8, 2, exponent)


def test_density_zero_and_equal():
    exponent = density_exponent(2, Fraction(1, 4))
    zero = DensityValue(0, 3, exponent)
    one = DensityValue(1, 1, exponent)
    assert zero < one
    assert not DensityValue(5, 2, exponent) < DensityValue(5, 2, exponent)
    assert DensityValue(5, 2, exponent) >= DensityValue(5, 2, exponent)


def test_density_mixed_exponents_rejected():
    a = DensityValue(1, 1, density_exponent(2, Fraction(1, 4)))
    b = DensityValue(1, 1, density_exponent(2, Fraction(1, 3)))
    with pytest.raises(InputError):
        a < b  # noqa: B015


def test_density_paper_epsilon_bounds_path():
    # paper epsilon for d=2 gives exponent denominator 2^32: the sizes
    # cannot tie, so bounds on the logarithms decide, not literal powers
    exponent = density_exponent(2, Fraction(1, 256))
    assert exponent.denominator == 2**32
    assert DensityValue(10, 3, exponent) > DensityValue(11, 4, exponent)
    assert DensityValue(11, 4, exponent) < DensityValue(10, 3, exponent)
    # equal main terms: the size-delta term breaks the tie upward
    assert DensityValue(64, 4, exponent) > DensityValue(27, 3, exponent)
    assert DensityValue(8, 2, exponent) > DensityValue(1, 1, exponent)


def literal_sign(e1, s1, e2, s2, exponent):
    """Sign of e1/s1^x - e2/s2^x, x = p/q, by cross-powering literally:
    e1^q * s2^p against e2^q * s1^p."""
    p, q = exponent.numerator, exponent.denominator
    left, right = e1**q * s2**p, e2**q * s1**p
    return (left > right) - (left < right)


@st.composite
def density_pairs(draw):
    """Two values e/s^x of sizes up to 40, x in (d, d+1) with d = 1..3
    and denominator up to a few thousand; the second is often within
    one edge of a tie with the first."""
    d = draw(st.integers(1, 3))
    q = draw(st.one_of(st.integers(2, 6), st.integers(2, 4000)))
    exponent = Fraction(draw(st.integers(d * q + 1, (d + 1) * q - 1)), q)
    s1, s2 = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    e1 = draw(st.integers(0, s1 ** (d + 1)))
    if draw(st.booleans()):
        # float only picks the test data; the oracle is exact
        near = round(e1 * (s2 / s1) ** float(exponent))
        e2 = max(0, near + draw(st.integers(-1, 1)))
    else:
        e2 = draw(st.integers(0, s2 ** (d + 1)))
    return (e1, s1), (e2, s2), exponent


@settings(max_examples=2000, deadline=None)
@given(pair=density_pairs())
# a tie across sizes, 8/4^(3/2) = 1/1^(3/2), and two zero counts
@example(pair=((8, 4), (1, 1), Fraction(3, 2)))
@example(pair=((0, 3), (0, 5), Fraction(767, 256)))
def test_density_compare_matches_literal_oracle(pair):
    (e1, s1), (e2, s2), exponent = pair
    a, b = DensityValue(e1, s1, exponent), DensityValue(e2, s2, exponent)
    assert a._compare(b) == literal_sign(e1, s1, e2, s2, exponent)
    assert b._compare(a) == -a._compare(b)


def test_density_compare_ties_across_sizes():
    # d = 1, eps = 1/3: exponent 17/9, and 512 = 2^9 is a 9th power
    exponent = density_exponent(1, Fraction(1, 3))
    assert exponent == Fraction(17, 9)
    one = DensityValue(1, 1, exponent)
    assert one._compare(DensityValue(131072, 512, exponent)) == 0  # 2^17 / 2^17
    assert one._compare(DensityValue(131073, 512, exponent)) == -1
    assert DensityValue(131073, 512, exponent)._compare(one) == 1


def _decimal_log_density(e, s, exponent):
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        x = decimal.Decimal(exponent.numerator) / decimal.Decimal(exponent.denominator)
        return decimal.Decimal(e).ln() - x * decimal.Decimal(s).ln()


@pytest.mark.parametrize(
    "a, b, sign",
    [
        ((21421, 30), (180080, 61), 1),
        ((114799, 60), (895623, 119), 1),
        ((504041, 100), (3972145, 199), -1),
    ],
)
def test_density_compare_decides_near_main_term_ties(a, b, sign):
    # At paper epsilon (d = 2) the main terms e/s^3 of these pairs lie
    # too close for an interval bracket on s^(eps^4) to decide.
    exponent = density_exponent(2, theoretical_constants(2, 1).epsilon)
    x, y = DensityValue(*a, exponent), DensityValue(*b, exponent)
    assert x._compare(y) == sign
    assert y._compare(x) == -sign
    gap = _decimal_log_density(*a, exponent) - _decimal_log_density(*b, exponent)
    assert (gap > 0) - (gap < 0) == sign


@pytest.mark.parametrize("d", [2, 3])
def test_density_order_at_paper_epsilon(d):
    # Near ties at paper epsilon: main terms e/s^(d+1) equal or one edge
    # apart, where only the factor s^(eps^(2d)) separates the values.
    exponent = density_exponent(d, theoretical_constants(d, 1).epsilon)
    values = sorted({
        DensityValue(c * s ** (d + 1) + delta, s, exponent)
        for s in range(1, 9)
        for c in (1, 2)
        for delta in (-1, 0, 1)
        if c * s ** (d + 1) + delta > 0
    }, key=lambda v: (v.size, v.edge_count))
    sign = {(a, b): a._compare(b) for a in values for b in values}
    for a in values:
        for b in values:
            assert sign[a, b] == -sign[b, a]
            for c in values:
                if sign[a, b] <= 0 and sign[b, c] <= 0:
                    assert sign[a, c] <= 0
    ranked = sorted(values, key=cmp_to_key(DensityValue._compare))
    assert ranked == sorted(
        values, key=lambda v: _decimal_log_density(v.edge_count, v.size, exponent)
    )


@pytest.mark.parametrize("k", range(9))
def test_log2_bounds_bracket_the_power(k):
    # b^(2^k) * 2^lo <= a^(2^k) <= b^(2^k) * 2^hi, in integers
    pairs = [(a, b) for a in range(1, 13) for b in range(1, 13)]
    pairs += [(10**6 + 1, 3), (3, 10**6 + 1), (2**40, 2**40 - 1), (7**9, 7**9)]
    # a/b just below and just above 2^(j/2^k): where a step rounded the
    # wrong way would move a bound past the logarithm
    den = 10**6
    for j in (1, 3, 2**k + 1):
        root = den**(2**k) << j
        for _ in range(k):
            root = math.isqrt(root)  # floor of the 2^k-th root, nested
        pairs += [(root, den), (root + 1, den), (den, root), (den, root + 1)]
    for a, b in pairs:
        lo, hi = _log2_bounds(a, b, k)
        A, B = a ** (2**k), b ** (2**k)
        assert B << max(lo, 0) <= A << max(-lo, 0)
        assert A << max(-hi, 0) <= B << max(hi, 0)
        assert hi - lo <= 2


def test_density_value_from_hypergraph():
    h = complete_222()
    v = density_value(h, h.full_subsets(), Fraction(1, 4))
    assert (v.edge_count, v.size) == (8, 2)
    with pytest.raises(InputError):
        density_value(h, [(0, 1), (0,), (0, 1)], Fraction(1, 4))
    with pytest.raises(InputError):
        density_value(h, h.full_subsets(), Fraction(3, 4))


def test_extract_exact_complete():
    h = complete_222()
    assert extract_dense_exact(h, Fraction(1, 4)) == ((0, 1), (0, 1), (0, 1))


def test_extract_exact_single_edge_unequal_parts():
    h = partite_hypergraph([2, 1, 1], [(0, 0, 0)])
    assert extract_dense_exact(h, Fraction(1, 4)) == ((0,), (0,), (0,))


def test_extract_exact_zero_edges_lex_tiebreak():
    h = partite_hypergraph([2, 2, 2], [])
    assert extract_dense_exact(h, Fraction(1, 4)) == ((0,), (0,), (0,))


def test_extract_exact_gate():
    with pytest.raises(BudgetExceededError):
        extract_dense_exact(partite_hypergraph([10**5] * 3, []), Fraction(1, 4))


def test_extract_exact_guarantees():
    # property (i) restated exactly: e(S)/s^(d+1) >= e(full)/n^(d+1),
    # plus the size bound s^(eps^{2d}) >= beta * n^(eps^{2d})
    rng = random.Random(77)
    eps = Fraction(1, 3)
    q = (eps ** 4).denominator  # 81
    for _ in range(8):
        h = random_hypergraph(rng, [4, 4, 4], rng.uniform(0.3, 0.8))
        n = 4
        total = edge_count(h, h.full_subsets())
        if total == 0:
            continue
        subsets = extract_dense_exact(h, eps)
        s = len(subsets[0])
        e = edge_count(h, subsets)
        assert Fraction(e, s**3) >= Fraction(total, n**3)
        beta = Fraction(total, n**3)
        # s^(eps^4) >= beta * n^(eps^4), raised to the 81st power:
        # s >= beta^81 * n, compared in integers
        assert s * beta.denominator**q >= beta.numerator**q * n


def test_extract_monotone_in_edges():
    rng = random.Random(123)
    eps = Fraction(1, 3)
    h = random_hypergraph(rng, [3, 3, 3], 0.4)
    missing = [
        e
        for e in itertools.product(range(3), repeat=3)
        if e not in h.edges
    ]
    if not missing:
        return
    bigger = partite_hypergraph([3, 3, 3], list(h.edges) + [missing[0]])
    v1 = density_value(h, extract_dense_exact(h, eps), eps)
    v2 = density_value(bigger, extract_dense_exact(bigger, eps), eps)
    assert v2 >= v1


def enumerating_extract_dense_exact(h, epsilon):
    """Reference for extract_dense_exact: the full enumeration it
    replaced.  Every tuple of s-subsets is scored on its own, e(S)
    counted by definition (the rainbow tuples of S that are edges), and
    the best is taken under (value descending, tuple ascending) with a
    comparator of its own, not the module's incumbent."""
    exponent = density_exponent(h.d, Fraction(epsilon))
    scored = []
    for s in range(1, min(h.part_sizes) + 1):
        per_part = [itertools.combinations(range(n_i), s) for n_i in h.part_sizes]
        for tup in itertools.product(*per_part):
            e = sum(edge in h.edges for edge in itertools.product(*tup))
            scored.append((DensityValue(e, s, exponent), tup))

    def order(a, b):
        return b[0]._compare(a[0]) or (a[1] > b[1]) - (a[1] < b[1])

    return min(scored, key=cmp_to_key(order))[1]


def assert_matches_enumeration(h, epsilon):
    assert extract_dense_exact(h, epsilon) == enumerating_extract_dense_exact(h, epsilon)


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    density=st.integers(0, 100),
    edge_seed=st.integers(0, 2**32),
    epsilon=st.sampled_from(
        [Fraction(1, 4), Fraction(1, 3), Fraction(1, 10), Fraction(1, 256)]
    ),
)
# No edges: every tuple ties at zero, and the lexicographically least
# tuple, of size 1, wins.
@example(sizes=[2, 2, 2], density=0, edge_seed=0, epsilon=Fraction(1, 4))
def test_extract_exact_matches_enumeration(sizes, density, edge_seed, epsilon):
    rng = random.Random(edge_seed)
    edges = [
        e
        for e in itertools.product(*[range(n_i) for n_i in sizes])
        if rng.randrange(100) < density
    ]
    assert_matches_enumeration(partite_hypergraph(sizes, edges), epsilon)


def test_extract_exact_matches_enumeration_on_criterion_4_cases():
    # the 30 hypergraphs of acceptance criterion 4, in the same order
    rng = random.Random("criterion-4")
    for _ in range(30):
        h = random_dense_hypergraph(rng)
        assert_matches_enumeration(h, Fraction(1, 3))


def unbounded_extract_dense_exact(h, epsilon):
    """Reference for extract_dense_exact: the per-prefix fold without its
    bounds.  Every prefix of every size is folded, and only a prefix
    whose s largest counts sum below `need`, or an S_d that sums below
    it, is skipped; no size ends early and edgeless input is scored."""
    exponent = density_exponent(h.d, Fraction(epsilon))
    *prefix_sizes, last_size = h.part_sizes
    width = math.prod(prefix_sizes).bit_length()
    field = (1 << width) - 1
    buckets = {}
    for e in h.edges:
        buckets[e[:-1]] = buckets.get(e[:-1], 0) + (1 << (width * e[-1]))

    def prefix_counts(s):
        def fold(level, table, chosen):
            if level == len(prefix_sizes):
                yield chosen, table.get((), 0)
                return
            for sub in itertools.combinations(range(prefix_sizes[level]), s):
                folded = {}
                for key, packed in table.items():
                    if key[0] in sub:
                        folded[key[1:]] = folded.get(key[1:], 0) + packed
                yield from fold(level + 1, folded, chosen + (sub,))

        yield from fold(0, buckets, ())

    best = None
    for s in range(1, min(h.part_sizes) + 1):
        last_subsets = list(itertools.combinations(range(last_size), s))
        need = 0 if best is None else _least_entering_count(
            s, exponent, best[0], cap=s**h.num_parts
        )
        for prefix, packed in prefix_counts(s):
            cnt = [(packed >> (width * c)) & field for c in range(last_size)]
            if sum(sorted(cnt, reverse=True)[:s]) < need:
                continue
            for sub in last_subsets:
                e = sum(cnt[c] for c in sub)
                if e < need:
                    continue
                value, tup = DensityValue(e, s, exponent), prefix + (sub,)
                if best is not None:
                    cmp = value._compare(best[0])
                    if cmp < 0 or (cmp == 0 and tup > best[1]):
                        continue
                best = value, tup
                need = e + 1
    return best[1]


def logged_outcome(extract, h, epsilon):
    """The result of `extract(h, epsilon)`, and every
    DensityValue comparison it made, operands in order."""
    log = []
    compare = DensityValue._compare

    def logged(self, other):
        log.append((self, other))
        return compare(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DensityValue, "_compare", logged)
        outcome = extract(h, epsilon)
    return outcome, log


def assert_same_comparisons_as_unbounded(h, epsilon):
    assert logged_outcome(extract_dense_exact, h, epsilon) == logged_outcome(
        unbounded_extract_dense_exact, h, epsilon
    )


BOUND_EPSILONS = [
    Fraction(1, 4), Fraction(1, 3), Fraction(49, 100), Fraction(1, 7), Fraction(1, 256)
]


@st.composite
def hypergraphs_with_edges(draw):
    sizes = draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
    density = draw(st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.8, 0.95, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    rainbow = list(itertools.product(*[range(n_i) for n_i in sizes]))
    edges = [e for e in rainbow if rng.random() < density]
    return partite_hypergraph(sizes, edges or [rng.choice(rainbow)])


@settings(max_examples=200, deadline=None)
@given(h=hypergraphs_with_edges(), epsilon=st.sampled_from(BOUND_EPSILONS))
# One complete box among sparse edges: need passes s^(d+1) mid-size.
@example(
    h=partite_hypergraph(
        [5] * 3,
        list(itertools.product(range(1, 4), repeat=3)) + [(0, 4, 0), (4, 0, 4)],
    ),
    epsilon=Fraction(1, 4),
)
# A single edge in four parts of 7: nearly every subtree is bounded away.
@example(h=partite_hypergraph([7] * 4, [(6, 5, 4, 3)]), epsilon=Fraction(1, 3))
def test_extract_exact_compares_as_unbounded(h, epsilon):
    assert_same_comparisons_as_unbounded(h, epsilon)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_extract_exact_compares_as_unbounded_on_pipeline_hypergraphs(
    distribution, seed
):
    for n in range(2, 9):
        cfg = generate(GeneratorSpec(seed=seed, n=n, d=2, distribution=distribution))
        h = run_pipeline(cfg, PipelineParams()).hypergraph
        for epsilon in BOUND_EPSILONS:
            assert_same_comparisons_as_unbounded(h, epsilon)


def test_exact_tuple_count():
    assert exact_tuple_count([2, 2, 2]) == 2**3 + 1
    assert exact_tuple_count([3, 1, 2]) == 3 * 1 * 2
    assert exact_tuple_count([7, 7, 7]) == 104_959


def test_exact_tuple_count_stops_past_the_cap():
    # Within the cap the count is exact; past it, only some count above
    # it, which is all a gate needs (part sizes 10^5 return at once).
    assert exact_tuple_count([7, 7, 7], 104_959) == 104_959
    assert exact_tuple_count([7, 7, 7], 10**7) == 104_959
    assert exact_tuple_count([7, 7, 7], 104_958) > 104_958
    assert exact_tuple_count([7, 7, 7], 100) == 7**3
    assert exact_tuple_count([10**5] * 3, 10**7) == 10**15


def test_extract_local_complete_and_bound():
    h = complete_222()
    assert extract_dense_local(h, Fraction(1, 4)) == ((0, 1), (0, 1), (0, 1))
    rng = random.Random(5)
    eps = Fraction(1, 3)
    for _ in range(6):
        g = random_hypergraph(rng, [5, 5, 5], 0.5)
        local = extract_dense_local(g, eps, seed=3)
        assert density_value(g, local, eps) >= density_value(
            g, g.full_subsets(), eps
        )
        assert extract_dense_local(g, eps, seed=3) == local  # deterministic


def test_extract_local_requires_equal_parts():
    h = partite_hypergraph([2, 1, 1], [(0, 0, 0)])
    with pytest.raises(InputError):
        extract_dense_local(h, Fraction(1, 4))


def test_hexagon_hypergraph_cross_check():
    # the hypergraph the pipeline builds on the hexagon configuration:
    # two alternating rainbow triangles containing the center
    h = partite_hypergraph([2, 2, 2], [(0, 1, 0), (1, 0, 1)])
    eps = Fraction(1, 3)
    exact = extract_dense_exact(h, eps)
    local = extract_dense_local(h, eps, seed=0)
    assert verify_property_ii(h, exact, eps).status == "ok"
    assert verify_property_ii(h, local, eps).status == "ok"
    assert density_value(h, local, eps) >= density_value(h, exact, eps) or (
        density_value(h, exact, eps) >= density_value(h, local, eps)
    )
    assert exact == ((0,), (1,), (0,))  # lexicographically first maximizer


def _count_in_masks(edges: list[tuple[int, ...]], masks: list[int]) -> int:
    count = 0
    for e in edges:
        for i, v in enumerate(e):
            if not (masks[i] >> v) & 1:
                break
        else:
            count += 1
    return count


def recounting_extract_dense_local(h, epsilon, seed: int = 0):
    """Oracle for `extract_dense_local`: the same walk, scoring every
    candidate box by recounting every edge."""
    n = _require_equal_parts(h)
    exponent = density_exponent(h.d, Fraction(epsilon))
    edges = sorted(h.edges)
    rng = random.Random(f"densify:{seed}")
    current = [list(range(n)) for _ in range(h.num_parts)]

    def value_of(subs: list[list[int]]) -> DensityValue:
        e = _count_in_masks(edges, [_mask_of(tuple(s)) for s in subs])
        return DensityValue(e, len(subs[0]), exponent)

    current_value = value_of(current)
    while True:
        improved = False
        # Simultaneous min-degree removal, only meaningful above size 1.
        if len(current[0]) > 1:
            masks = [_mask_of(tuple(s)) for s in current]
            tied: list[list[int]] = []
            for i, sub in enumerate(current):
                degrees = {v: 0 for v in sub}
                for e in edges:
                    if all((masks[k] >> e[k]) & 1 for k in range(h.num_parts)):
                        degrees[e[i]] += 1
                low = min(degrees.values())
                tied.append([v for v in sub if degrees[v] == low])
            n_combos = math.prod(len(tv) for tv in tied)
            if n_combos > 64:
                tied = [tv[:1] for tv in tied]
            best_candidate = None
            best_value = None
            for drops in itertools.product(*tied):
                candidate = [
                    [v for v in sub if v != drops[i]]
                    for i, sub in enumerate(current)
                ]
                cand_value = value_of(candidate)
                if best_value is None or cand_value > best_value:
                    best_candidate, best_value = candidate, cand_value
            if best_value is not None and best_value > current_value:
                current, current_value = best_candidate, best_value
                continue
        # Single-vertex swaps, explored in a seeded order.
        swaps = [
            (i, u, w)
            for i in range(h.num_parts)
            for u in current[i]
            for w in range(n)
            if w not in current[i]
        ]
        rng.shuffle(swaps)
        for i, u, w in swaps:
            candidate = [list(s) for s in current]
            candidate[i] = sorted(v for v in candidate[i] if v != u) + [w]
            candidate[i].sort()
            cand_value = value_of(candidate)
            if cand_value > current_value:
                current, current_value = candidate, cand_value
                improved = True
                break
        if not improved:
            break
    return tuple(tuple(sorted(s)) for s in current)


def _complete(parts, n):
    return partite_hypergraph([n] * parts, itertools.product(range(n), repeat=parts))


@st.composite
def local_search_hypergraphs(draw):
    parts = draw(st.integers(2, 4))
    n = draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.2, 0.5, 0.9, 0.97, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    return partite_hypergraph([n] * parts, [
        e for e in itertools.product(range(n), repeat=parts)
        if rng.random() < density
    ])


@settings(max_examples=200, deadline=None)
@given(
    h=local_search_hypergraphs(),
    seed=st.integers(0, 5),
    epsilon=st.sampled_from([Fraction(1, 4), Fraction(1, 3), "paper"]),
)
# More than 64 tied drop combinations (the cap): complete and empty
# boxes, where no drop helps; a diagonal, where dropping does; and a
# shifted diagonal, where the capped choice (0, 0, 0) is not the best.
@example(h=_complete(3, 5), seed=0, epsilon=Fraction(1, 4))
@example(h=_complete(3, 7), seed=1, epsilon="paper")
@example(h=partite_hypergraph([6] * 3, []), seed=2, epsilon=Fraction(1, 3))
@example(
    h=partite_hypergraph([5] * 3, [(v, v, v) for v in range(5)]),
    seed=0,
    epsilon=Fraction(1, 4),
)
@example(
    h=partite_hypergraph([7] * 3, [(v, v, v) for v in range(7)]),
    seed=3,
    epsilon=Fraction(1, 3),
)
@example(
    h=partite_hypergraph([5] * 3, [(v, (v + 1) % 5, (v + 2) % 5) for v in range(5)]),
    seed=0,
    epsilon=Fraction(1, 4),
)
# Sparse boxes on which a swap is accepted (rare on random input).
@example(h=random_hypergraph(random.Random(3), [6] * 3, 0.1), seed=0, epsilon=Fraction(1, 4))
@example(h=random_hypergraph(random.Random(27), [7] * 3, 0.1), seed=0, epsilon=Fraction(1, 4))
@example(h=random_hypergraph(random.Random(16), [4] * 4, 0.1), seed=0, epsilon=Fraction(1, 4))
@example(h=random_hypergraph(random.Random(3), [5] * 4, 0.2), seed=0, epsilon=Fraction(1, 4))
def test_local_search_matches_recounting_oracle(h, seed, epsilon):
    if epsilon == "paper":
        epsilon = theoretical_constants(h.d, 1).epsilon
    assert extract_dense_local(h, epsilon, seed) == recounting_extract_dense_local(
        h, epsilon, seed
    )


def test_property_ii_examples():
    h = complete_222()
    assert verify_property_ii(h, h.full_subsets(), Fraction(1, 3)).status == "ok"
    empty = partite_hypergraph([2, 2, 2], [])
    report = verify_property_ii(empty, empty.full_subsets(), Fraction(1, 3))
    assert report.status == "counterexample"
    assert report.counterexample is not None


def test_property_ii_of_exact_extraction():
    rng = random.Random(99)
    eps = Fraction(1, 3)
    for _ in range(6):
        h = random_hypergraph(rng, [5, 5, 5], rng.uniform(0.35, 0.7))
        if not h.edges:
            continue
        subsets = extract_dense_exact(h, eps)
        assert verify_property_ii(h, subsets, eps).status == "ok"


def test_property_ii_refuses_beyond_gate():
    # C(30, 10)^3 tuples of 10-subsets: past the gate before any is checked
    h = partite_hypergraph([30] * 3, [])
    with pytest.raises(BudgetExceededError):
        verify_property_ii(h, h.full_subsets(), Fraction(1, 3))


def test_hypergraph_json_roundtrip():
    rng = random.Random(1)
    h = random_hypergraph(rng, [3, 4, 2], 0.5)
    blob = hypergraph_to_json(h)
    assert hypergraph_from_json(blob) == h
