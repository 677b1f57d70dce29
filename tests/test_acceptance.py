"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  All checks are exact (zero tolerance); the
runtime ceilings are part of the criteria and asserted.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import itertools
import json
import random
import statistics
import time
from fractions import Fraction


from rainbowdepth import (
    GeneratorSpec,
    InputError,
    PipelineParams,
    all_or_none_check,
    averaging_identity_check,
    barycentric_coordinates,
    edge_count,
    extract_dense_exact,
    find_disjoint_rainbow_simplices,
    generate,
    ham_sandwich_cut,
    hyperplane_transversal_exists,
    is_separated_family,
    orientation,
    order_type,
    partite_hypergraph,
    point_in_simplex_interior,
    report_bytes,
    run_pipeline,
    satisfies_bisection_contract,
    verify_certificate,
    verify_property_ii,
)
from rainbowdepth.geometry import format_rational

PIPELINE_SEEDS = range(30)
TVERBERG_SEEDS = range(50)


def report(n, summary, elapsed, limit):
    line = f"PASS criterion {n}: {summary} ({elapsed:.1f}s, limit {limit:.0f}s)"
    print("\n" + line)
    assert elapsed < limit, f"FAIL criterion {n}: runtime {elapsed:.1f}s over {limit}s"


def rand_point(rng, den=23, span=500):
    return (
        Fraction(rng.randrange(-span * den, span * den), den),
        Fraction(rng.randrange(-span * den, span * den), den),
    )


def random_dense_hypergraph(rng, n=6, min_density=Fraction(1, 3)):
    while True:
        edges = [
            e
            for e in itertools.product(range(n), repeat=3)
            if rng.random() < 0.5
        ]
        if Fraction(len(edges), n**3) >= min_density:
            return partite_hypergraph([n, n, n], edges)


_CACHE = {}


def tverberg_certificates():
    results = []
    for seed in TVERBERG_SEEDS:
        cfg = generate(GeneratorSpec(seed=seed, n=8, d=2))
        cert = find_disjoint_rainbow_simplices(cfg.colors, 3)
        results.append((seed, cfg, cert))
    return results


def certificate_blob(results):
    payload = [
        {
            "seed": seed,
            "simplices": [list(t) for t in cert.simplices],
            "witness": [format_rational(c) for c in cert.witness],
        }
        for seed, _, cert in results
        if cert is not None
    ]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def pipeline_results():
    results = []
    for seed in PIPELINE_SEEDS:
        cfg = generate(GeneratorSpec(seed=seed, n=10, d=2))
        try:
            bundle = run_pipeline(cfg, PipelineParams(seed=seed))
            results.append((seed, cfg, bundle, report_bytes(bundle)))
        except Exception as exc:  # explicit stage failures are allowed outcomes
            results.append((seed, cfg, None, repr(exc).encode()))
    return results


def get_tverberg_suite():
    # computed inside the first criterion that needs it, so its runtime
    # is charged to that criterion; later criteria reuse the cache
    if "tverberg" not in _CACHE:
        _CACHE["tverberg"] = tverberg_certificates()
    return _CACHE["tverberg"]


def get_pipeline_suite():
    if "pipeline" not in _CACHE:
        _CACHE["pipeline"] = pipeline_results()
    return _CACHE["pipeline"]


def test_criterion_1_predicate_exactness():
    t0 = time.time()
    rng = random.Random("criterion-1")
    for _ in range(1000):
        a, b, c = (rand_point(rng) for _ in range(3))
        s = orientation([a, b, c])
        assert orientation([b, a, c]) == -s
        assert orientation([a, c, b]) == -s
    for _ in range(1000):
        a, b, c = (rand_point(rng) for _ in range(3))
        scale = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**3))
        scaled = [tuple(scale * x for x in p) for p in (a, b, c)]
        assert orientation(scaled) == orientation([a, b, c])
    checked = 0
    while checked < 1000:
        a, b, c, p = (rand_point(rng) for _ in range(4))
        if orientation([a, b, c]) == 0:
            continue
        inside = point_in_simplex_interior(p, [a, b, c])
        bary = barycentric_coordinates(p, [a, b, c])
        assert sum(bary) == 1
        assert inside == all(x > 0 for x in bary)
        checked += 1
    report(1, "antisymmetry, scaling, barycentric oracle on 1000 instances each", time.time() - t0, 10)


def test_criterion_2_averaging_identity():
    t0 = time.time()
    rng = random.Random("criterion-2")
    hypergraphs = 0
    identities = 0
    while hypergraphs < 50:
        sizes = [rng.randint(2, 6) for _ in range(3)]
        edges = [
            e
            for e in itertools.product(*[range(s) for s in sizes])
            if rng.random() < rng.uniform(0.2, 0.8)
        ]
        h = partite_hypergraph(sizes, edges)
        full = h.full_subsets()
        for t in itertools.product(*[range(1, s + 1) for s in sizes]):
            assert averaging_identity_check(h, full, t) is True
            identities += 1
        hypergraphs += 1
    report(2, f"identity exact on 50 hypergraphs, {identities} feasible t vectors", time.time() - t0, 60)


def test_criterion_3_disjoint_simplices():
    t0 = time.time()
    tverberg_suite = get_tverberg_suite()
    successes = 0
    for seed, cfg, cert in tverberg_suite:
        assert cert is not None, f"FAIL criterion 3: no certificate for seed {seed}"
        assert len(cert.simplices) == 3
        for pos in range(3):
            column = [t[pos] for t in cert.simplices]
            assert len(set(column)) == 3, "vertex-disjointness violated"
        for t in cert.simplices:
            verts = [cfg.colors[i][t[i]] for i in range(3)]
            assert point_in_simplex_interior(cert.witness, verts)
        successes += 1
    report(3, f"{successes}/50 seeds produced re-verified certificates", time.time() - t0, 300)


def test_criterion_4_dense_extraction():
    t0 = time.time()
    rng = random.Random("criterion-4")
    eps = Fraction(1, 3)
    q = (eps ** 4).denominator  # 81
    for _ in range(30):
        h = random_dense_hypergraph(rng)
        n = 6
        total = len(h.edges)
        subsets = extract_dense_exact(h, eps)
        s = len(subsets[0])
        e = edge_count(h, subsets)
        beta = Fraction(total, n**3)
        assert Fraction(e, s**3) >= beta, "density guarantee (i) violated"
        assert s * beta.denominator**q >= beta.numerator**q * n, "size bound violated"
        assert verify_property_ii(h, subsets, eps).status == "ok", "(ii) violated"
    report(4, "30/30 extractions satisfy (i), the size bound, and (ii) at eps=1/3", time.time() - t0, 300)


def test_criterion_5_separated_iff_no_transversal():
    t0 = time.time()
    rng = random.Random("criterion-5")
    agreements = 0
    for _ in range(100):
        bodies = [
            [rand_point(rng, den=11, span=60) for _ in range(rng.randint(1, 6))]
            for _ in range(3)
        ]
        separated = is_separated_family(bodies) is None
        transversal, witness = hyperplane_transversal_exists(bodies)
        assert separated == (not transversal), f"disagreement on {bodies}"
        if transversal:
            for body in bodies:
                signs = {witness.side(p) for p in body}
                assert signs != {1} and signs != {-1}
        agreements += 1
    report(5, f"separated <=> no transversal on {agreements}/100 triples", time.time() - t0, 120)


def test_criterion_6_order_type_constancy():
    t0 = time.time()
    rng = random.Random("criterion-6")
    families = 0
    while families < 20:
        spread = rng.randint(200, 400)
        centers = [
            (Fraction(0), Fraction(0)),
            (Fraction(spread), Fraction(0)),
            (Fraction(0), Fraction(spread)),
            (Fraction(spread), Fraction(spread)),
        ]
        bodies = [
            [
                (cx + Fraction(rng.randrange(-40, 40), 7),
                 cy + Fraction(rng.randrange(-40, 40), 7))
                for _ in range(rng.randint(2, 5))
            ]
            for cx, cy in centers
        ]
        if is_separated_family(bodies) is not None:
            continue
        vectors = set()
        for _ in range(10):
            reps = [body[rng.randrange(len(body))] for body in bodies]
            vectors.add(order_type(reps))
        assert len(vectors) == 1, "order type varied within a separated family"
        families += 1
    report(6, "20/20 separated families have constant order type over 10 draws", time.time() - t0, 60)


def test_criterion_7_ham_sandwich_contract():
    t0 = time.time()
    rng = random.Random("criterion-7")
    for _ in range(140):
        sets = [
            [rand_point(rng, den=7, span=200) for _ in range(rng.randint(1, 15))]
            for _ in range(rng.randint(1, 2))
        ]
        h = ham_sandwich_cut(sets)
        assert satisfies_bisection_contract(h, sets), "contract violated"
    for _ in range(60):
        pts = [rand_point(rng, den=7, span=200) for _ in range(rng.randint(1, 15))]
        anchor = rand_point(rng, den=13, span=200)
        h = ham_sandwich_cut([pts], anchor=anchor)
        assert h.side(anchor) == 0, "anchored cut missed the anchor"
        assert satisfies_bisection_contract(h, [pts]), "contract violated"
    report(7, "200/200 cuts satisfy the open-side floor(n/2) contract", time.time() - t0, 60)


def test_criterion_8_end_to_end():
    t0 = time.time()
    pipeline_suite = get_pipeline_suite()
    verified = []
    for seed, cfg, bundle, _ in pipeline_suite:
        if bundle is None:
            continue
        assert bundle.verified
        assert verify_certificate(cfg, bundle.o_point, bundle.q_sets) is None, (
            f"independent oracle rejected seed {seed}"
        )
        assert bundle.min_ratio() > 0
        verified.append(bundle)
    assert len(verified) >= 27, (
        f"FAIL criterion 8: only {len(verified)}/30 verified"
    )
    ratios = sorted(float(b.min_ratio()) for b in verified)
    summary = (
        f"{len(verified)}/30 verified; min |Q_i|/n: min={ratios[0]:.2f}, "
        f"median={statistics.median(ratios):.2f}"
    )
    report(8, summary, time.time() - t0, 900)


def test_criterion_9_dichotomy():
    t0 = time.time()
    pipeline_suite = get_pipeline_suite()
    translated = 0
    checked = 0
    for seed, cfg, bundle, _ in pipeline_suite:
        if bundle is None:
            continue
        assert all_or_none_check(bundle.q_sets, bundle.o_point) == "all"
        checked += 1
        if translated < 20:
            x, y = bundle.o_point
            for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1), (2, 1), (-2, 1),
                           (1, 2), (-1, -2), (2, -1), (-1, 2)]:
                far = (x + dx * 10**7, y + dy * 10**7)
                try:
                    outcome = all_or_none_check(bundle.q_sets, far)
                except InputError:
                    continue  # translate broke separation: not a valid instance
                assert outcome == "none", f"far O got {outcome}"
                translated += 1
    assert translated >= 20, f"only {translated} separated translated variants"
    report(
        9,
        f"never 'mixed': {checked} bundle instances all-'all', "
        f"{translated} far translates all-'none'",
        time.time() - t0,
        120,
    )


def test_criterion_10_determinism():
    t0 = time.time()
    tverberg_suite = get_tverberg_suite()
    pipeline_suite = get_pipeline_suite()
    blob_again = certificate_blob(tverberg_certificates())
    assert blob_again == certificate_blob(tverberg_suite), (
        "criterion 3 outputs changed between runs"
    )
    second = pipeline_results()
    for (seed, _, _, blob1), (_, _, _, blob2) in zip(pipeline_suite, second):
        assert blob1 == blob2, f"criterion 8 report differs on seed {seed}"
    report(10, "criteria 3 and 8 reproduce byte-identical reports", time.time() - t0, 900)


# sha256 of the report blob of every acceptance seed (n=10, default
# params).  A change that alters any report byte must say so and update
# this table.
PINNED_REPORT_SHA256 = {
    0: "265a0a37916701ae9a64a3c3f4e0b3df56bd9f6b4675a80e7eeca50446346526",
    1: "e0c5d9ad8dc92bb5f0e3941d7cab294bd126eaa231dcee7e231b873cee088995",
    2: "7e4812eaf4cb26d989b6854348c5b3192da5bcb6f72b48af6ae085b0bf5f039b",
    3: "cd492c447b79f6b57b47cd89728aed97d4a9cb3ccbc1059d24b16b5c285b8841",
    4: "15c9ae2d7706fd070f6f2439155bd8a823654ed2c30cc7cb6526eca3999b0edd",
    5: "19058906c547bf10f10fde05ae807f9ac72379259441f379bd275d8f6cf021fc",
    6: "8548896157d82a9f2f7b65bf5d5460e886105eed8d8e0a2ae3990b195e6162c5",
    7: "7784bde4818be573224ae01bafa8cc338d0aea33abef6b4766f2bc9467a47df3",
    8: "d9f4e4e39660189a325115143431b6117d45fb35cdb9df90640fe2da1c1aa3c7",
    9: "cc3a812010a528ceb237c99ff2521453957f24955b8df9494398822fb5e5a60d",
    10: "fb688140c59018fff1a29868e885cfe964339c3ac18c7fda04023b0e6b05a73f",
    11: "ed81ffc90cbf544585adcdf2d030ac69f8bb287c218a6d5575e1979652d8511c",
    12: "84148ca54ae6f3232eeb6c768dbdeb4c11df0755d83e4a749ba71643c472c6f2",
    13: "c861af6671641fe246c6608fae67e5ed7c4abee5ff7d393401247cd8db73a2ea",
    14: "56bcdfdc4e131fe6525b1ae01402cbf5a00ce8c34b290b5445ef8dea59cda706",
    15: "9ae753048bbec25d3cc8648f88f94a07a7b710c8088142b823a37cff5af40093",
    16: "008103327bb189722115c204fe3ae565c786faf021588a94c7d8012809912653",
    17: "9e7a33ab537e9d8a4a2c0e77001a14d1557135e20422a333cf199510a4b38b57",
    18: "0b54ca93cbf430ecafc15f97d20ee027599d88bda6d23f77dc6918533402b272",
    19: "86efd336095474c07467e5f7b9862f0697fa4ab51810d776f25985cb7c7e9f3e",
    20: "5b365fb4f9ae50ef1ed35f48ef679b5fe635ee8f104196ea5e2d3cd84bb628a2",
    21: "a5467950c0dde51f2787012f8a3cff6c14e0744e3eec9033f97a02c4d74b18e6",
    22: "d19f929f993fe49ced85ad2cbe5cbbbd8084277ae2dfb2fff6a2af1ed3d5e5a9",
    23: "ab8a34ddf8b69275a400ed3160e65458294025cf521db78964f3c093576ef646",
    24: "b6ab86a9f6208bf52ca6838b65a7c7418130dcc87eaf40e7048a37564cedfa0b",
    25: "364d38eda733f7ba397fa11df8e189f696ccf12cb2dc3400f35279e28655c021",
    26: "b561ccb15236c2fa4060003ce11c4e1b7a871a8ee0a13886c5cc499fa3ca21b8",
    27: "c50c8940c45550d1fc26b32c66dabbb3ec3b4301ceae413b44280b16301e61ef",
    28: "91dbb7707d36c1bfc270d628b6dd1d90ab49b1cb6988672a5e8fd645492361d4",
    29: "8d3e67d95a0fb8edaa91d0b69f8a2e2d90bdaaa3205533951776c420212bb845",
}


def test_pinned_report_digests():
    pipeline_suite = get_pipeline_suite()
    digests = {
        seed: hashlib.sha256(blob).hexdigest()
        for seed, _, _, blob in pipeline_suite
    }
    assert digests == PINNED_REPORT_SHA256


# sha256 of the `run` report of `gen --seed 0` (default params) at sizes
# where `run` extracts exactly; the table above (n=10) only
# covers local search.
PINNED_EXACT_MODE_SHA256 = {
    (7, "uniform-box"): "f776ab8fd518c208e7579c9e2718dae3a0de7f46e43868a9d813ec4de8d677d7",
    (7, "gaussian"): "438f79674d55d003b8b3134aee43d6f5a3a157c941e707c6f5d4a38493e43c29",
    (7, "moment-curve-perturbed"): "5e75577cc9c9f5a5ac76a857357f502d2efd5d630019b6b1cb7dfa6b84434b9a",
    (8, "uniform-box"): "51d8aea287c19c7dc9ee3227fb2562fe99e64afdff309bab0c199a34def5a04f",
}


def test_pinned_exact_mode_report_digests():
    digests = {}
    for n, distribution in PINNED_EXACT_MODE_SHA256:
        cfg = generate(GeneratorSpec(seed=0, n=n, d=2, distribution=distribution))
        bundle = run_pipeline(cfg, PipelineParams())
        assert bundle.stats["attempts"][0]["extraction_mode"] == "exact"
        digests[n, distribution] = hashlib.sha256(report_bytes(bundle)).hexdigest()
    assert digests == PINNED_EXACT_MODE_SHA256


# sha256 of the `run` report of `gen --seed 0` (default params) at n=16,
# where `run` takes local search: the route the tables above leave out.
PINNED_N16_SHA256 = {
    "uniform-box": "86afa84462259001a8860e7ca7f1f709d9f29ce459984bc5216911ad0ca257c7",
    "gaussian": "cdbf461c4e56ead77961db5ec64b5aadaeb3457252e239fa91879a69b208ca9a",
    "moment-curve-perturbed": "b27a34bc78767d3ad799a0a31922d3a161a834d234895e89bfb8caed144c574b",
}


def test_pinned_n16_report_digests():
    digests = {}
    for distribution in PINNED_N16_SHA256:
        cfg = generate(GeneratorSpec(seed=0, n=16, d=2, distribution=distribution))
        bundle = run_pipeline(cfg, PipelineParams())
        assert bundle.stats["attempts"][0]["extraction_mode"] == "local"
        digests[distribution] = hashlib.sha256(report_bytes(bundle)).hexdigest()
    assert digests == PINNED_N16_SHA256
