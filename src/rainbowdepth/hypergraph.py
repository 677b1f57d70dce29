"""(d+1)-partite hypergraph machinery.

Edges take exactly one vertex per part.  This module provides exact edge
counting, the averaging identity over all equal-size sub-tuples, and the
dense-subtuple extraction whose output is guaranteed to keep at least one
edge inside every pair of large enough subsets (the "no empty corner"
property, verified here by brute force).

The exact extraction is a branch and bound over tuples of s-subsets,
chosen part by part: a subtree whose largest possible edge count cannot
reach the least count that could beat the best tuple so far is skipped,
and a size ends once that count exceeds s^(d+1).  Only tuples below the
count are skipped, so the comparisons made, and their order, are those
of the plain enumeration that skips just the tuples below it.

Density functionals e / s^(d+1-eps^(2d)) are never evaluated in floating
point.  Two of them compare by the exact sign of a difference of
logarithms: cross-powered to integers when the powers are small enough
to tie, else bounded in integers until the bounds separate.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .config import parse_json
from .errors import BudgetExceededError, InputError, ParseError

Subsets = tuple[tuple[int, ...], ...]

DEFAULT_GATE = 10**7


@dataclass(frozen=True)
class PartiteHypergraph:
    part_sizes: tuple[int, ...]
    edges: frozenset[tuple[int, ...]]

    @property
    def num_parts(self) -> int:
        return len(self.part_sizes)

    @property
    def d(self) -> int:
        return len(self.part_sizes) - 1

    def full_subsets(self) -> Subsets:
        return tuple(tuple(range(s)) for s in self.part_sizes)


def partite_hypergraph(part_sizes: Sequence[int], edges: Iterable[Sequence[int]]) -> PartiteHypergraph:
    sizes = tuple(int(s) for s in part_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise InputError("need at least two parts, each nonempty")
    edge_set = set()
    for e in edges:
        e = tuple(int(i) for i in e)
        if len(e) != len(sizes):
            raise InputError(f"edge {e} has arity {len(e)}, expected {len(sizes)}")
        if any(not 0 <= e[i] < sizes[i] for i in range(len(sizes))):
            raise InputError(f"edge {e} out of range for part sizes {sizes}")
        edge_set.add(e)
    return PartiteHypergraph(sizes, frozenset(edge_set))


def _normalize_subsets(h: PartiteHypergraph, subsets) -> Subsets:
    if len(subsets) != h.num_parts:
        raise InputError(
            f"expected {h.num_parts} subsets, got {len(subsets)}"
        )
    out = []
    for i, sub in enumerate(subsets):
        idx = tuple(sorted(set(int(v) for v in sub)))
        if any(not 0 <= v < h.part_sizes[i] for v in idx):
            raise InputError(f"subset {i} out of range: {idx}")
        out.append(idx)
    return tuple(out)


def edge_count(h: PartiteHypergraph, subsets) -> int:
    subsets = _normalize_subsets(h, subsets)
    masks = [frozenset(s) for s in subsets]
    return sum(
        1
        for e in h.edges
        if all(e[i] in masks[i] for i in range(h.num_parts))
    )


def averaging_identity_check(h: PartiteHypergraph, subsets, t: Sequence[int]) -> bool:
    """Both sides of the subset-averaging identity, by full enumeration.

    e(S)/prod|S_i|  ==  [sum over all t_i-subsets T_i of e(T)/prod t_i]
                        / prod C(|S_i|, t_i)

    Exact rational equality; always true, exposed as a test oracle.
    """
    subsets = _normalize_subsets(h, subsets)
    t = [int(v) for v in t]
    if len(t) != h.num_parts:
        raise InputError("one t_i per part required")
    for ti, si in zip(t, subsets):
        if not 1 <= ti <= len(si):
            raise InputError(f"t={t} infeasible for subset sizes {[len(s) for s in subsets]}")
    n_terms = math.prod(math.comb(len(s), ti) for s, ti in zip(subsets, t))
    if n_terms > DEFAULT_GATE:
        raise BudgetExceededError(
            f"{n_terms} subset combinations exceed the gate {DEFAULT_GATE}"
        )
    lhs = Fraction(edge_count(h, subsets), math.prod(len(s) for s in subsets))
    # Full enumeration of all T combinations, organized part by part so
    # each level filters the surviving edge list once per subset.
    base_edges = [e for e in sorted(h.edges) if all(
        e[i] in set(subsets[i]) for i in range(h.num_parts)
    )]

    def accumulate(level: int, edges: list[tuple[int, ...]]) -> int:
        if level == h.num_parts:
            return len(edges)
        total = 0
        for combo in itertools.combinations(subsets[level], t[level]):
            chosen = set(combo)
            total += accumulate(
                level + 1, [e for e in edges if e[level] in chosen]
            )
        return total

    numerator = accumulate(0, base_edges)
    rhs = Fraction(numerator, math.prod(t)) / n_terms
    return lhs == rhs


@dataclass(frozen=True)
class DensityValue:
    """e / s^exponent packaged for exact comparison.

    The exponent is d+1 - eps^(2d) for eps in (0, 1/2), so it lies
    strictly between d and d+1.  Every comparison is exact and decides:
    values of equal size compare by edge count, and values of different
    sizes by the sign of q*log2(e1/e2) - p*log2(s1/s2), with p/q the
    exponent in lowest terms.
    """

    edge_count: int
    size: int
    exponent: Fraction

    def __post_init__(self):
        if self.edge_count < 0 or self.size < 1:
            raise InputError("need edge_count >= 0 and size >= 1")
        if self.exponent <= 0:
            raise InputError("exponent must be positive")

    def _compare(self, other: "DensityValue") -> int:
        if not isinstance(other, DensityValue):
            raise TypeError("can only compare DensityValue with DensityValue")
        if self.exponent != other.exponent:
            raise InputError("cannot compare densities with different exponents")
        e1, s1 = self.edge_count, self.size
        e2, s2 = other.edge_count, other.size
        if e1 == 0 or e2 == 0:
            return (e1 > 0) - (e2 > 0)
        if s1 == s2:
            return (e1 > e2) - (e1 < e2)
        # e1/s1^(p/q) > e2/s2^(p/q) exactly when q*log2(e1/e2) > p*log2(s1/s2).
        # A tie needs s1/s2 in lowest terms to be a q-th power, so
        # max(s1, s2) >= 2^q: only then can the sides tie, and q is small.
        p, q = self.exponent.numerator, self.exponent.denominator
        if q < max(s1, s2).bit_length():
            left, right = e1**q * s2**p, e2**q * s1**p
            return (left > right) - (left < right)
        # Else the sides differ, and narrow enough log bounds separate them.
        k = 8
        while True:
            e_lo, e_hi = _log2_bounds(e1, e2, k)
            s_lo, s_hi = _log2_bounds(s1, s2, k)
            if q * e_lo > p * s_hi:
                return 1
            if q * e_hi < p * s_lo:
                return -1
            k *= 2

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0


def _log2_bounds(a: int, b: int, k: int) -> tuple[int, int]:
    """Integers lo <= 2^k * log2(a/b) <= hi, for positive a and b.

    The bit-by-bit logarithm: scale a/b by 2^-n into [1, 2), then square
    k times, halving the square whenever it reaches 2.  The integer part
    of 2^k * log2(a/b) is n * 2^k plus the halvings, read as bits.  The
    mantissa is a fixed-point integer with k + 8 fractional bits, rounded
    down at every step along one chain and up along the other: the first
    chain's count bounds the logarithm from below, the second's plus one
    from above.  Their rounding drifts by well under a unit, so
    hi - lo <= 2 for every k.
    """
    n = a.bit_length() - b.bit_length()
    if a << max(-n, 0) < b << max(n, 0):
        n -= 1
    f = k + 8
    num, den = a << max(f - n, 0), b << max(n - f, 0)
    lo_m, hi_m = num // den, -(-num // den)
    lo = hi = n
    two = 2 << f
    for _ in range(k):
        lo_m, hi_m = lo_m * lo_m >> f, -(-hi_m * hi_m >> f)
        lo, hi = 2 * lo, 2 * hi
        if lo_m >= two:
            lo_m, lo = lo_m >> 1, lo + 1
        if hi_m >= two:
            hi_m, hi = (hi_m + 1) >> 1, hi + 1
    return lo, hi + 1


def checked_epsilon(epsilon: Fraction) -> Fraction:
    """epsilon itself, after checking that it lies in (0, 1/2)."""
    if not 0 < epsilon < Fraction(1, 2):
        raise InputError("epsilon must lie in (0, 1/2)")
    return epsilon


def density_exponent(d: int, epsilon: Fraction) -> Fraction:
    epsilon = checked_epsilon(Fraction(epsilon))
    return Fraction(d + 1) - epsilon ** (2 * d)


def density_value(h: PartiteHypergraph, subsets, epsilon) -> DensityValue:
    subsets = _normalize_subsets(h, subsets)
    sizes = {len(s) for s in subsets}
    if len(sizes) != 1:
        raise InputError(f"subsets must have equal size, got {[len(s) for s in subsets]}")
    s = sizes.pop()
    if s == 0:
        raise InputError("subsets must be nonempty")
    return DensityValue(
        edge_count(h, subsets), s, density_exponent(h.d, Fraction(epsilon))
    )


def _require_equal_parts(h: PartiteHypergraph) -> int:
    if len(set(h.part_sizes)) != 1:
        raise InputError(
            f"extraction requires equal part sizes, got {h.part_sizes}"
        )
    return h.part_sizes[0]


def _mask_of(sub: tuple[int, ...]) -> int:
    m = 0
    for v in sub:
        m |= 1 << v
    return m


def exact_tuple_count(part_sizes: Sequence[int], cap: int | None = None) -> int:
    """Number of equal-size subset tuples the exact extraction scores:
    the sum over s = 1..min(part_sizes) of prod_i C(n_i, s).  The sum
    only grows, so it stops once it passes `cap`: beyond the cap the
    result is only some count above it."""
    total = 0
    for s in range(1, min(part_sizes) + 1):
        total += math.prod(math.comb(n_i, s) for n_i in part_sizes)
        if cap is not None and total > cap:
            break
    return total


def extract_dense_exact(h: PartiteHypergraph, epsilon) -> Subsets:
    """The maximizer of e / s^(d+1-eps^(2d)) over every size s (up to
    the smallest part) and every tuple of s-subsets.

    Ties break to the lexicographically smallest tuple.  `DEFAULT_GATE`
    bounds the number of tuples the enumeration could score, its worst
    case; the bounds below skip most of them.  With no edges every tuple
    ties at zero, and the least tuple of size 1 is returned at once.

    The edge list is never scanned per tuple.  Fix s and a prefix
    S_0, ..., S_{d-1}, and let cnt[c] count the edges inside the prefix
    whose last vertex is c; then e(S) = sum of cnt[c] over c in S_d.
    The edges are bucketed once by their prefix, and cnt is folded part
    by part from those buckets (`_prefix_counts`).  One incumbent is
    kept, and `need` is the least edge count a tuple of size s needs to
    replace it.  At each new s, `need` is the least count whose value is
    not strictly below the incumbent.  When a tuple of size s becomes the
    incumbent with e edges, `need` is e + 1: tuples come in lexicographic
    order within a size, so a later one with e edges ties and loses the
    tie.

    Branch and bound on `need`, which only grows within a size: the fold
    skips every prefix subtree whose bound on e(S) over all its
    completions is below `need` (see `_prefix_counts`), every S_d that
    sums below it is skipped, and a size ends once `need` exceeds
    s^(d+1), the most edges s-subsets can hold.  Every other tuple
    replaces the incumbent when it is greater under (value descending,
    tuple ascending).  That maximum is one fixed tuple whatever the
    order of comparison.  A skipped tuple has e < `need` and could not
    replace the incumbent, so the result is that maximum, and the
    comparisons made, in their order, are those of the plain enumeration
    that skips just the tuples below `need`.
    """
    if exact_tuple_count(h.part_sizes, DEFAULT_GATE) > DEFAULT_GATE:
        raise BudgetExceededError(
            f"more than {DEFAULT_GATE} candidate tuples, the gate; "
            "densify cannot extract exactly from parts this large"
        )
    exponent = density_exponent(h.d, Fraction(epsilon))
    if not h.edges:
        return ((0,),) * h.num_parts
    *prefix_sizes, last_size = h.part_sizes
    # cnt travels packed in one int, `width` bits per last vertex; no
    # count exceeds prod(prefix_sizes), so fields never carry over.
    width = math.prod(prefix_sizes).bit_length()
    buckets: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        buckets[e[:-1]] = buckets.get(e[:-1], 0) + (1 << (width * e[-1]))
    best: tuple[DensityValue, Subsets] | None = None
    for s in range(1, min(h.part_sizes) + 1):
        cap = s**h.num_parts
        need = 0 if best is None else _least_entering_count(
            s, exponent, best[0], cap=cap
        )
        if need > cap:
            continue
        last_subsets = list(itertools.combinations(range(last_size), s))
        # The fold reads `need` live: it rises within the size.
        for prefix, cnt in _prefix_counts(
            buckets, prefix_sizes, last_size, width, s, lambda: need
        ):
            for sub in last_subsets:
                e = sum([cnt[c] for c in sub])
                if e < need:
                    continue
                value, tup = DensityValue(e, s, exponent), prefix + (sub,)
                if best is not None:
                    cmp = value._compare(best[0])
                    if cmp < 0 or (cmp == 0 and tup > best[1]):
                        continue
                best = value, tup
                need = e + 1
            if need > cap:
                break
    return best[1]


def _prefix_counts(
    buckets: dict, sizes: Sequence[int], last_size: int, width: int, s: int, need
):
    """(S_0, ..., S_{d-1}) and its cnt list, in lexicographic order,
    for every tuple of s-subsets of the parts in `sizes` whose subtree
    can still hold a tuple with `need()` edges; `need` is read live.

    Each level keeps a table from the rest of an edge's prefix to the
    packed counts, per last vertex, of the edges inside the subsets
    chosen so far; choosing S_k keeps the keys led by a vertex of S_k.
    A completion takes at most the s largest counts of each key; sum
    them per leading vertex v into U(v).  Every completion of S_k then
    has at most the sum of U(v) over S_k edges, and every completion of
    the level at most the sum of the s largest U(v).  A level whose
    bound is below `need()` enumerates nothing, and a subset whose sum
    is below it is skipped with its subtree.  At the last level the
    bound is the sum of the prefix's s largest counts.
    """
    field = (1 << width) - 1

    def unpack(packed: int) -> list[int]:
        return [(packed >> (width * c)) & field for c in range(last_size)]

    def top(counts: list[int]) -> int:
        return sum(sorted(counts, reverse=True)[:s])

    def fold(level: int, table: dict, chosen: Subsets):
        if level == len(sizes):
            cnt = unpack(table.get((), 0))
            if top(cnt) >= need():
                yield chosen, cnt
            return
        upper = [0] * sizes[level]
        for key, packed in table.items():
            upper[key[0]] += top(unpack(packed))
        if top(upper) < need():
            return
        for sub in itertools.combinations(range(sizes[level]), s):
            if sum([upper[v] for v in sub]) < need():
                continue
            members = set(sub)
            folded: dict[tuple[int, ...], int] = {}
            for key, packed in table.items():
                if key[0] in members:
                    folded[key[1:]] = folded.get(key[1:], 0) + packed
            yield from fold(level + 1, folded, chosen + (sub,))

    yield from fold(0, buckets, ())


def _least_entering_count(
    s: int, exponent: Fraction, last: DensityValue, cap: int
) -> int:
    """Smallest e <= cap whose DensityValue(e, s) is not strictly below
    `last` (cap + 1 if none is).  The value grows with e, so bisect."""
    lo, hi = 0, cap + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if DensityValue(mid, s, exponent)._compare(last) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def extract_dense_local(h: PartiteHypergraph, epsilon, seed: int = 0) -> Subsets:
    """Hill-climbing surrogate for the exact extraction.

    Starts from the full parts; moves are (a) removing a minimum-degree
    vertex from every part simultaneously (on degree ties, the best of
    the tied removal combinations, capped) and (b) single-vertex swaps
    within a part.  Only strictly density-increasing moves are accepted,
    so every step preserves equal sizes and the walk terminates at a
    local maximum.  Deterministic for a fixed seed.

    Candidates are scored from one pass over the edges per accepted
    move (`_box_degrees`), never by recounting a candidate box.  With
    e(S) the edges inside the current box S, deg[i][v] the edges through
    v in part i whose other vertices all lie in S, and inc[i][v] the
    inside edges through a member v:

    * swapping u out of part i and w in keeps every inside edge that
      avoids u and gains exactly the edges through w whose other
      vertices lie in S, so the new count is e(S) - deg[i][u] +
      deg[i][w]; the size is unchanged, so the swap improves exactly
      when deg[i][w] > deg[i][u];
    * dropping x_i from every part loses exactly the inside edges
      through some x_i, so the new count is e(S) minus the size of the
      union of the inc[i][x_i].

    Those are the counts a full recount of each candidate gives, so the
    walk makes the same decisions.  Candidates of one size order by
    their counts; a drop against the current box compares DensityValues.
    """
    n = _require_equal_parts(h)
    exponent = density_exponent(h.d, Fraction(epsilon))
    rng = random.Random(f"densify:{seed}")
    current = [list(range(n)) for _ in range(h.num_parts)]
    while True:
        inside, deg, inc = _box_degrees(h, current)
        s = len(current[0])
        # Simultaneous min-degree removal, only meaningful above size 1.
        if s > 1:
            tied: list[list[int]] = []
            for i, sub in enumerate(current):
                low = min(deg[i][v] for v in sub)
                tied.append([v for v in sub if deg[i][v] == low])
            if math.prod(len(tv) for tv in tied) > 64:
                tied = [tv[:1] for tv in tied]
            best_drops, best_count = None, -1
            for drops in itertools.product(*tied):
                lost = set()
                for i, x in enumerate(drops):
                    lost.update(inc[i][x])
                if inside - len(lost) > best_count:
                    best_drops, best_count = drops, inside - len(lost)
            if DensityValue(best_count, s - 1, exponent) > DensityValue(
                inside, s, exponent
            ):
                current = [
                    [v for v in sub if v != best_drops[i]]
                    for i, sub in enumerate(current)
                ]
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
            if deg[i][w] > deg[i][u]:
                current[i] = sorted([v for v in current[i] if v != u] + [w])
                break
        else:
            break
    return tuple(tuple(sorted(s)) for s in current)


def _box_degrees(h: PartiteHypergraph, subsets: list[list[int]]):
    """(e(S), deg, inc) for the box S = `subsets`, in one edge pass:
    deg[i][v] counts the edges through vertex v of part i, member of S
    or not, whose other vertices all lie in S, and inc[i][v] lists the
    edges inside S through a member v."""
    member = [[False] * size for size in h.part_sizes]
    for flags, sub in zip(member, subsets):
        for v in sub:
            flags[v] = True
    deg = [[0] * size for size in h.part_sizes]
    inc = [[[] for _ in range(size)] for size in h.part_sizes]
    inside = 0
    for e in h.edges:
        out = -1  # the one part where e leaves S, if any
        for i, v in enumerate(e):
            if not member[i][v]:
                if out >= 0:
                    break
                out = i
        else:
            if out >= 0:
                deg[out][e[out]] += 1
                continue
            inside += 1
            for i, v in enumerate(e):
                deg[i][v] += 1
                inc[i][v].append(e)
    return inside, deg, inc


@dataclass(frozen=True)
class PropertyIIReport:
    status: str  # "ok" | "counterexample"
    counterexample: Subsets | None
    combinations_checked: int


def verify_property_ii(h: PartiteHypergraph, subsets, epsilon) -> PropertyIIReport:
    """Check that every tuple of ceil(eps*s)-subsets still spans an edge.

    Exhaustive; more than `DEFAULT_GATE` tuples raise BudgetExceededError
    before any is checked.  Edge counts are monotone in the subsets, so
    checking the minimum subset size suffices.
    """
    subsets = _normalize_subsets(h, subsets)
    sizes = {len(s) for s in subsets}
    if len(sizes) != 1:
        raise InputError("subsets must have equal size")
    s = sizes.pop()
    epsilon = checked_epsilon(Fraction(epsilon))
    q = max(1, math.ceil(epsilon * s))
    if math.comb(s, q) ** h.num_parts > DEFAULT_GATE:
        raise BudgetExceededError(
            f"more than {DEFAULT_GATE} subset tuples, the gate"
        )
    edges = sorted(h.edges)

    def has_edge(masks: list[int]) -> bool:
        for e in edges:
            for i, v in enumerate(e):
                if not (masks[i] >> v) & 1:
                    break
            else:
                return True
        return False

    checked = 0
    for combo in itertools.product(
        *[itertools.combinations(sub, q) for sub in subsets]
    ):
        checked += 1
        if not has_edge([_mask_of(c) for c in combo]):
            return PropertyIIReport("counterexample", tuple(combo), checked)
    return PropertyIIReport("ok", None, checked)


def hypergraph_to_json(h: PartiteHypergraph) -> bytes:
    data = {
        "part_sizes": list(h.part_sizes),
        "edges": [list(e) for e in sorted(h.edges)],
    }
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _json_ints(value, what: str) -> list[int]:
    """A JSON list of integers, booleans excluded; else a ParseError."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ParseError(f"bad hypergraph JSON: {what} must be a list of integers")
    return value


def hypergraph_from_json(source) -> PartiteHypergraph:
    data = parse_json(source, "hypergraph JSON")
    try:
        sizes, edges = data["part_sizes"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad hypergraph JSON: {exc}") from exc
    if not isinstance(edges, list):
        raise ParseError("bad hypergraph JSON: edges must be a list")
    return partite_hypergraph(
        _json_ints(sizes, "part_sizes"), [_json_ints(e, "an edge") for e in edges]
    )
