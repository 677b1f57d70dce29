"""End-to-end pipeline: from a colored configuration to a certified
point O and subsets Q_i such that every rainbow simplex on the Q_i
strictly contains O.

Stages: (1) depth search for O; (2) the partite hypergraph of rainbow
tuples containing O; (3) dense equal-size extraction; (4) trimming to a
separated family {O}, hull(Q_1), ..., hull(Q_{d+1}), skipped when the
extracted S is complete (every rainbow triangle on S contains O), which
makes the family separated already (see `run_pipeline`); (5) independent
brute-force verification, in the plane in the configuration's integer
frame.  Stage 3 is exact when its tuple count is within the gate
(`DEFAULT_GATE`), else a seeded local search.  Each stage runs once:
a failed trim or verification ends the run with PipelineStageError.

The verifier is deliberately independent of the pipeline internals: it
re-tests containment tuple by tuple with the core predicates and never
reuses the stage-2 hypergraph.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .config import (
    ColoredConfiguration,
    json_point,
    parse_json,
    save_configuration,
)
from .depth import (
    DEFAULT_CENTROID_BUDGET,
    DEFAULT_RANDOM_BUDGET,
    DEFAULT_STRATEGY,
    deepest_point,
    rainbow_depth_at,
    theoretical_constants,
)
from .errors import (
    InputError,
    PipelineStageError,
    TrimExhaustedError,
    UnsupportedDimensionError,
)
from .geometry import (
    Point,
    format_rational,
    is_unambiguous,
    orientation,  # noqa: F401  perfbench/test_perfbench.py reads pipeline.orientation
    pair_sign_table,
    point,
    point_in_simplex_interior,
    rational,
)
from .hypergraph import (
    DEFAULT_GATE,
    PartiteHypergraph,
    checked_epsilon,
    edge_count,
    exact_tuple_count,
    extract_dense_exact,
    extract_dense_local,
    partite_hypergraph,
)
from .separation import (
    DEFAULT_MAX_STEPS,
    TrimTrace,
    is_separated_family,
    trim_to_separated,
)

SCHEMA_VERSION = 1


def resolve_epsilon(epsilon: Fraction | str, d: int) -> Fraction:
    """The extraction's epsilon in (0, 1/2): a rational, or "paper" for
    1/2^(d*2^d)."""
    if epsilon == "paper":
        return theoretical_constants(d, 1).epsilon
    return checked_epsilon(rational(epsilon))


@dataclass(frozen=True)
class PipelineParams:
    epsilon: Fraction | str = Fraction(1, 4)  # see `resolve_epsilon`
    depth_strategy: str = DEFAULT_STRATEGY
    seed: int = 0

    def to_json_dict(self, d: int) -> dict:
        return {
            "epsilon": format_rational(resolve_epsilon(self.epsilon, d)),
            "epsilon_requested": (
                "paper" if self.epsilon == "paper" else format_rational(rational(self.epsilon))
            ),
            "depth_strategy": self.depth_strategy,
            "seed": self.seed,
            "exact_gate": DEFAULT_GATE,
            "centroid_budget": DEFAULT_CENTROID_BUDGET,
            "random_budget": DEFAULT_RANDOM_BUDGET,
            "trim_max_steps": DEFAULT_MAX_STEPS,
        }


@dataclass(frozen=True)
class ResultBundle:
    o_point: Point
    q_sets: tuple[tuple[Point, ...], ...]
    depth_at_o: int
    sizes: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    trace: TrimTrace
    stats: dict
    verified: bool
    params: PipelineParams
    input_hash: str
    hypergraph: PartiteHypergraph  # stage 2, not part of the report

    def min_ratio(self) -> Fraction:
        return min(self.ratios)

    def to_json_dict(self) -> dict:
        d = len(self.o_point)
        return {
            "schema_version": SCHEMA_VERSION,
            "input_hash": self.input_hash,
            "params": self.params.to_json_dict(d),
            "O": [format_rational(c) for c in self.o_point],
            "depth": self.depth_at_o,
            "Q": [
                [[format_rational(c) for c in p] for p in q]
                for q in self.q_sets
            ],
            "sizes": list(self.sizes),
            "ratios": [format_rational(r) for r in self.ratios],
            "trace": self.trace.to_json_dict(),
            "stats": self.stats,
            "verified": self.verified,
        }


def report_bytes(bundle: ResultBundle) -> bytes:
    text = json.dumps(bundle.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode()


def configuration_hash(cfg: ColoredConfiguration) -> str:
    return hashlib.sha256(save_configuration(cfg, "json")).hexdigest()


@dataclass(frozen=True)
class Counterexample:
    index_tuple: tuple[int, ...] | None
    vertices: tuple[Point, ...]
    reason: str


def verify_certificate(
    cfg: ColoredConfiguration, o_point: Point, q_sets, report: dict | None = None
) -> Counterexample | None:
    """Independent oracle: every rainbow simplex on the Q_i must contain
    O strictly.  None means verified; otherwise the first violating
    tuple, in product order.  Each Q_i must be a nonempty subset of
    color class i, with no point repeated.  In the plane the test runs
    in the configuration's integer frame, on one `pair_sign_table` of O
    against every configuration point, which also decides whether O is
    ambiguous, and still tuple by tuple: three nested loops over the
    Q_i in product order (`_first_miss_plane`).  Else by
    `is_unambiguous` and `point_in_simplex_interior` on each tuple of
    `itertools.product`.

    `report`, the loaded report these O and Q come from, is checked
    too once they verify (`check_report_numbers`); in the plane its
    depth is read off the row counts of the same sign table.
    """
    o_point = point(o_point)
    q_sets = [tuple(point(p) for p in q) for q in q_sets]
    if len(q_sets) != cfg.num_colors:
        raise InputError(
            f"expected {cfg.num_colors} subsets, got {len(q_sets)}"
        )
    # Points are keyed on their coordinates' (numerator, denominator)
    # pairs, which hash as plain ints; the frame index of class i, point j
    # is i * n + j, so index // n is the point's class.
    index = {_point_key(p): k for k, p in enumerate(cfg.all_points())}
    indices = []  # per Q_i, the frame index of each of its points
    for i, q in enumerate(q_sets):
        if not q:
            raise InputError(f"Q_{i} is empty")
        keys = [_point_key(p) for p in q]
        if len(set(keys)) != len(keys):
            raise InputError(f"Q_{i} repeats a point")
        found = [index.get(key, -1) for key in keys]
        if any(k // cfg.n != i for k in found):
            raise InputError(f"Q_{i} contains a point outside color class {i}")
        indices.append(found)
    if len(o_point) != cfg.dimension:
        raise InputError(
            f"O has dimension {len(o_point)}, the configuration {cfg.dimension}"
        )
    table = None
    if cfg.dimension == 2:
        table = pair_sign_table(
            cfg.int_points, cfg.point_colors, *cfg.frame(o_point)
        )
        unambiguous = table is not None
    else:
        unambiguous = is_unambiguous(cfg.colors, o_point)
    if not unambiguous:
        raise InputError(
            "O lies on a hyperplane spanned by differently colored "
            "configuration points"
        )
    if cfg.dimension == 2:
        choice = _first_miss_plane(table, indices)
    else:
        choice = next(
            (
                choice
                for choice in itertools.product(*[range(len(q)) for q in q_sets])
                if not point_in_simplex_interior(
                    o_point, [q[j] for q, j in zip(q_sets, choice)]
                )
            ),
            None,
        )
    if choice is not None:
        return Counterexample(
            choice,
            tuple(q[j] for q, j in zip(q_sets, choice)),
            "simplex does not contain O strictly",
        )
    if report is not None:
        check_report_numbers(cfg, report, o_point, q_sets, table)
    return None


def _point_key(p: Point) -> tuple[tuple[int, int], ...]:
    return tuple((c.numerator, c.denominator) for c in p)


def _first_miss_plane(
    table: list[list[int]], indices
) -> tuple[int, int, int] | None:
    """The first (i, j, k) in product order whose triangle on the frame
    points indices[0][i], indices[1][j], indices[2][k] does not contain
    O strictly, by `table`, the `pair_sign_table` of O; None if every
    one does.

    With vectors taken from O, O lies strictly inside abc exactly when
    cross(a, b), cross(b, c) and cross(c, a) have one sign: they are the
    orientations of (O, b, c), (a, O, c) and (a, b, O), which sum to that
    of (a, b, c).  None is 0, as O is on no line through two differently
    colored points.
    """
    a_of, b_of, c_of = indices
    for i, a in enumerate(a_of):
        row_a = table[a]
        for j, b in enumerate(b_of):
            s, row_b = row_a[b], table[b]
            for k, c in enumerate(c_of):
                if not s == row_b[c] == table[c][a]:
                    return i, j, k
    return None


def all_or_none_check(q_sets, o_point: Point) -> str:
    """Classify containment of O over all rainbow tuples: "all", "none",
    or "mixed".  Requires {O} and the hulls of the Q_i to form a
    separated family, under which the answer is provably never "mixed";
    the classification is still computed honestly so tests can assert
    the dichotomy rather than assume it.
    """
    o_point = point(o_point)
    q_sets = [tuple(point(p) for p in q) for q in q_sets]
    if any(not q for q in q_sets):
        raise InputError("all subsets must be nonempty")
    witness = is_separated_family([[o_point]] + [list(q) for q in q_sets])
    if witness is not None:
        raise InputError(
            "family {O} + hulls not separated: tuple "
            f"{witness.tuple_indices}, split {witness.split}"
        )
    saw_inside = saw_outside = False
    for choice in itertools.product(*[range(len(q)) for q in q_sets]):
        verts = [q_sets[i][choice[i]] for i in range(len(q_sets))]
        if point_in_simplex_interior(o_point, verts):
            saw_inside = True
        else:
            saw_outside = True
        if saw_inside and saw_outside:
            return "mixed"
    return "all" if saw_inside else "none"


def run_pipeline(cfg: ColoredConfiguration, params: PipelineParams) -> ResultBundle:
    """Stages (1)-(5) of the module docstring, each run once.

    A complete S (every rainbow triangle on it contains O) skips the
    trim and keeps S whole, with the trace of a 0-step trim, by this

    Lemma (d = 2).  If every rainbow triangle abc, a in Q_1, b in Q_2,
    c in Q_3, strictly contains O, then {O}, hull(Q_1), hull(Q_2),
    hull(Q_3) is a separated family.

    Proof.  Put O at the origin.  For a, b, c in general position, O is
    strictly inside abc exactly when -c = x*a + y*b with x, y > 0, and
    likewise for -a and -b.
    (i) Fix c in Q_3.  Each a in Q_1 and b in Q_2 lie strictly on
    opposite sides of the line Rc, and their angles from -c sum to less
    than pi.  So all of Q_1 is on one side, all of Q_2 on the other, and
    with the largest angle on each side, Q_1 u Q_2 lies in an open
    half-plane g > 0 bounded by a line through O.  Then g = t for a
    small t > 0 separates {O} from hull(Q_1 u Q_2), and the line Rc
    shifted slightly toward Q_1 (or Q_2) separates hull(Q_1) from
    {O} u hull(Q_2) (or hull(Q_2) from {O} u hull(Q_1)).
    (ii) Fix a in Q_1 and take g > 0 on Q_2 u Q_3 from (i).  Every a'
    in Q_1 has -a' = x*b + y*c with x, y > 0, so g(a') < 0, and g = 0
    separates hull(Q_1) from hull(Q_2 u Q_3).
    The hypothesis is symmetric in the three sets, so (i) and (ii) with
    every choice of pivot set cover every split of every triple.  QED

    The independent verification still runs on the kept S.
    """
    d = cfg.dimension
    if d != 2:
        raise UnsupportedDimensionError(
            f"full pipeline requires dimension 2, got {d}"
        )
    epsilon = resolve_epsilon(params.epsilon, d)
    input_hash = configuration_hash(cfg)

    deep = deepest_point(cfg, strategy=params.depth_strategy, seed=params.seed)
    o_point = deep.witness

    depth_info = rainbow_depth_at(cfg, o_point)
    if depth_info.count == 0:
        raise PipelineStageError(
            "hypergraph", "no rainbow simplex contains O: empty hypergraph"
        )
    if depth_info.count != deep.depth:
        raise PipelineStageError(
            "hypergraph",
            f"stage inconsistency: depth {deep.depth} != recount {depth_info.count}",
        )
    h = partite_hypergraph((cfg.n,) * cfg.num_colors, depth_info.tuples)

    if exact_tuple_count(h.part_sizes, DEFAULT_GATE) <= DEFAULT_GATE:
        mode, subsets = "exact", extract_dense_exact(h, epsilon)
    else:
        mode, subsets = "local", extract_dense_local(h, epsilon, seed=params.seed)
    s_sets = [
        tuple(cfg.colors[i][j] for j in subsets[i])
        for i in range(cfg.num_colors)
    ]
    edges_in_s = edge_count(h, subsets)
    attempt = {
        "retry": 0,
        "extraction_mode": mode,
        "s": len(subsets[0]),
        "edges_in_s": edges_in_s,
    }
    complete = edges_in_s == math.prod(len(part) for part in subsets)
    if complete:
        # Complete, so separated already (the lemma above).
        q_sets, trace = s_sets, TrimTrace((), tuple(map(len, s_sets)))
    else:
        try:
            q_sets, trace = trim_to_separated(
                s_sets, o_point, max_steps=DEFAULT_MAX_STEPS
            )
        except TrimExhaustedError as exc:
            attempt["outcome"] = f"trim failed: {exc}"
            raise _stage_failure(attempt, "trim", str(exc)) from exc
    counter = verify_certificate(cfg, o_point, q_sets)
    if counter is not None:
        attempt["outcome"] = f"verification failed at tuple {counter.index_tuple}"
        raise _stage_failure(
            attempt, "verify", counter.reason, tuple=counter.index_tuple
        )
    attempt["outcome"] = "verified"
    if complete:
        edges_in_q = edges_in_s
    else:
        kept = [set(q) for q in q_sets]
        edges_in_q = edge_count(h, [
            tuple(j for j in sub if cfg.colors[i][j] in kept[i])
            for i, sub in enumerate(subsets)
        ])
    stats = {
        "depth_candidates_examined": deep.candidates_examined,
        "edges_stage2": depth_info.count,
        "edges_stage3": edges_in_s,
        "edges_stage4": edges_in_q,
        "trim_steps": trace.step_count,
        "attempts": [attempt],
    }
    return ResultBundle(
        o_point=o_point,
        q_sets=tuple(q_sets),
        depth_at_o=depth_info.count,
        sizes=tuple(len(q) for q in q_sets),
        ratios=tuple(Fraction(len(q), cfg.n) for q in q_sets),
        trace=trace,
        stats=stats,
        verified=True,
        params=params,
        input_hash=input_hash,
        hypergraph=h,
    )


def _stage_failure(
    attempt: dict, stage: str, message: str, **extra
) -> PipelineStageError:
    """The error of a run whose one attempt failed at `stage`."""
    return PipelineStageError(
        stage,
        message,
        details={"attempts": [attempt], "stage": stage, "message": message, **extra},
    )


def load_report(source) -> dict:
    data = parse_json(source, "report JSON")
    if not isinstance(data, dict):
        raise InputError("report JSON must be an object")
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InputError(f"unsupported report schema_version {version!r}")
    return data


def report_o_and_q(data: dict) -> tuple[Point, list[tuple[Point, ...]]]:
    try:
        o_point = json_point(data["O"])
        q_sets = [tuple(json_point(p) for p in q) for q in data["Q"]]
    except KeyError as exc:
        raise InputError(f"report missing O/Q fields: {exc}") from exc
    except TypeError as exc:
        raise InputError(f"report has malformed O/Q fields: {exc}") from exc
    return o_point, q_sets


def check_report_numbers(
    cfg: ColoredConfiguration,
    data: dict,
    o_point: Point,
    q_sets,
    table: list[list[int]] | None,
) -> None:
    """The report's own `sizes`, `ratios` and `depth`, where present,
    must match its Q and O: len(Q_i), len(Q_i)/n and the rainbow depth
    of O.  Raises InputError on the first mismatch.

    With `table`, the planar `pair_sign_table` of O, the depth is read
    off its row counts in O(N*n): for frame point v let c_j(v) be the
    number of +1 entries of table[v] over class j, for the two classes j
    other than v's; then

        depth = n^3 - sum_v c_j(v) * c_k(v).

    Proof: table[v][q] is the sign of cross(v - O, q - O), never 0
    between two colors.  A rainbow triangle misses O exactly when its
    three directions from O lie in an open half-plane, and then only the
    most clockwise of its vertices has both others at +1; a triangle
    containing O gives every vertex one +1 and one -1.  So the sum
    counts each missing triangle once.  Without a table,
    `rainbow_depth_at` counts.
    """
    sizes = [len(q) for q in q_sets]
    if "sizes" in data and not (
        isinstance(data["sizes"], list)
        and all(type(v) is int for v in data["sizes"])
        and data["sizes"] == sizes
    ):
        raise InputError(f"report sizes do not match Q, expected {sizes}")
    ratios = [Fraction(size, cfg.n) for size in sizes]
    if "ratios" in data and not (
        isinstance(data["ratios"], list)
        and all(isinstance(r, str) for r in data["ratios"])
        and [rational(r) for r in data["ratios"]] == ratios
    ):
        raise InputError(
            "report ratios do not match Q, expected "
            f"{[format_rational(r) for r in ratios]}"
        )
    if "depth" in data:
        if table is None:
            depth = rainbow_depth_at(cfg, o_point).count
        else:
            n = cfg.n
            depth = n**3
            for v, row in enumerate(table):
                j, k = [c * n for c in range(3) if c != v // n]
                depth -= row[j : j + n].count(1) * row[k : k + n].count(1)
        if type(data["depth"]) is not int or data["depth"] != depth:
            raise InputError(f"report depth does not match O, expected {depth}")
