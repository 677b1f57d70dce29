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
        subsets = extract_dense_exact(h, eps)[0]
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
    0: "f43215718031fbb0a7d322b83e529a7d159e365c15723a5adc37353d33115b1f",
    1: "0307a5bc2ad28a7c95711ff00d562489b7c3830d035646dc00bb0f7d4bc04c44",
    2: "c5c206dd9a8226eec536735bb5bb285be93791bf92c8024863600eac41577ad7",
    3: "87ed3c8b5d8721901f0993b0ee43faa6676f2927baf7f3b7a3b0c068b41e75ec",
    4: "41598250632f5dd3a5034f764b67c22d88fcf2cd6bab41c04bd8e0be0dfd0d90",
    5: "002fa2259dbf9c81b94dbfd497331da2c43de5bf38977a6b12e30fc7c18530e6",
    6: "6ead1db9b02bc3f978e139bd188089eb8527b302d933c7c15899b22c80708f5f",
    7: "e8d62be9f6426eaa5662644b72ef0231fb9a0f4f73a76268ca643aec4663ea25",
    8: "73025437aebfa9b3cb7a6cecb25c9392e8607a65b8d5ab34c8a53ec55a77baf4",
    9: "1e27a1c0fbc6913e237c9a45f2e09fa75830c6248aff03e5a57a54f9827b57b2",
    10: "2aa1df64628145103db57f7f3ad3cdc40b7644cdd44e3d606df6cda34d4c001b",
    11: "2fbafae40a368fbd95b1067f74d39b98eb8f58d1a69549786be90a2e427f435a",
    12: "496e9d7076de7cc2b8409938ca8f9de34bb40a7707305c7e1b96e7e934066570",
    13: "27563cb2b58b8123f6d3646d3b9501838dca7869d88ada858ac60eb4ed3193eb",
    14: "1fd73df3d60214b43db0bf36e994c13fbdbc291fb00da0e8ade2c6b52442989b",
    15: "c43f101a5fa597cc64a236436fc713efa9e15d5db2e2cf579d0fe08ecefc719e",
    16: "1977d37ffa66976c37fd53c475a2fa8735c373541ec6b63f98ba269a478e7c4c",
    17: "bd40b4eed53b94f96e9b558074c0ab3be717f917e1fdcbf9b60832edad2f1602",
    18: "051adb185cc58f1c7dcd4c982e027c73ffe958d626dbdbfd8b3ee29fc0c7f556",
    19: "5aefd0c57b153952668d245d965e48c4503e296c6525c27239627a1fda7c3df2",
    20: "477f8935a3a650643c32f9c31639a36bb18d6ea33f972e7d83b3b258badfaae9",
    21: "05d85dc811394b52f8e0f8e120ca79959b0eb3bb28a85de0e4b08a6c26e3b3b2",
    22: "ba9817ffb03af4c674faf66a8995740deeff964d113a1a1c6f7fdf73c9b3fd39",
    23: "6c03edd45a8039326ca23786385f022a5ad82aaf94d4e294273def9fb2d2b968",
    24: "11a186e177b4ef802f42de2f2035a02a36d446bc6a8059af04b364b2ac6af008",
    25: "86a7153c10321b0be44a94320d2f9b7647e36507557009a904f65c3bb446b026",
    26: "9b5038fbfdf9f73f0ac663ebf8d2397e24cc4201224c6a56ad4e5d887c15cf63",
    27: "d7f288819fc2f0d7873eb257b45b50029682ea7b6f2876987fb60526ab74b6bb",
    28: "c7ccddcc69a572871fbc1dd761c0e22adacbb1e82f9b0207c2b2ce5049f7e8d4",
    29: "ec7832cd81b7b6cbdf1406e5f411a420745820bc142a292671aa8cd55d1c8127",
}


def test_pinned_report_digests():
    pipeline_suite = get_pipeline_suite()
    digests = {
        seed: hashlib.sha256(blob).hexdigest()
        for seed, _, _, blob in pipeline_suite
    }
    assert digests == PINNED_REPORT_SHA256


# sha256 of the `run` report of `gen --seed 0` (default params) at sizes
# where `auto` picks exact extraction; the table above (n=10) only
# covers local search.
PINNED_EXACT_MODE_SHA256 = {
    (7, "uniform-box"): "b7c31e6cc6c76b3b67634404e6f03a8c320f7e4e3b48ec0805efbc4e8db81c66",
    (7, "gaussian"): "bbcc745de19a3ec7b027cbcb56333edb00eea853a8cf362a5bf1a6b49f4018e9",
    (7, "moment-curve-perturbed"): "ac2b2d9b81bd8a702e217b60206b64fb4f885dd199a6453f440469c6037d9f3f",
    (8, "uniform-box"): "dfe0d0314c7576e6bc796685d490a7c3f72ad8f824cbe2ae19279f73912b503c",
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
# where `auto` picks local search: the route the tables above leave out.
PINNED_N16_SHA256 = {
    "uniform-box": "05e4f1504ee91670fe3fcdc8975dd83415507ad1cf106e087da92af3b701a1a1",
    "gaussian": "06971c41ebebe1d236360d27f3ffe433ad1e25f419c38a29d61e2c90e14a37f5",
    "moment-curve-perturbed": "116b252a0cd6fc1118bdf7c638bb25eaf21654ba7b2ef7ff8c257e9977162b93",
}


def test_pinned_n16_report_digests():
    digests = {}
    for distribution in PINNED_N16_SHA256:
        cfg = generate(GeneratorSpec(seed=0, n=16, d=2, distribution=distribution))
        bundle = run_pipeline(cfg, PipelineParams())
        assert bundle.stats["attempts"][0]["extraction_mode"] == "local"
        digests[distribution] = hashlib.sha256(report_bytes(bundle)).hexdigest()
    assert digests == PINNED_N16_SHA256
