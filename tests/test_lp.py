from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowdepth import separation
from rainbowdepth.errors import InputError
from rainbowdepth.lp import OPTIMAL, UNBOUNDED, LPResult, solve_lp_max

INFEASIBLE = "infeasible"


def two_phase_solve_lp_max(objective, a_ub, b_ub) -> LPResult:
    """The two-phase simplex with Bland's rule that `solve_lp_max` replaced:
    any right-hand sides, reduced costs recomputed from the duals at every
    iteration.  Kept as the reference for the differential tests."""
    c = [Fraction(v) for v in objective]
    a = [[Fraction(v) for v in row] for row in a_ub]
    b = [Fraction(v) for v in b_ub]
    n = len(c)
    m = len(a)
    if any(len(row) != n for row in a) or len(b) != m:
        raise InputError("inconsistent LP shapes")

    # x = u - v with u, v >= 0; one slack/surplus per row; artificials for
    # rows whose right-hand side had to be negated.
    n_struct = 2 * n
    art_rows = [i for i in range(m) if b[i] < 0]
    n_art = len(art_rows)
    width = n_struct + m + n_art

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = {row: n_struct + m + k for k, row in enumerate(art_rows)}
    for i in range(m):
        row = [Fraction(0)] * (width + 1)
        flip = -1 if b[i] < 0 else 1
        for j in range(n):
            row[j] = flip * a[i][j]
            row[n + j] = -flip * a[i][j]
        row[n_struct + i] = Fraction(flip)
        row[width] = flip * b[i]
        if i in art_col:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            basis.append(n_struct + i)
        tableau.append(row)

    def pivot(r: int, col: int) -> None:
        piv = tableau[r][col]
        tableau[r] = [v / piv for v in tableau[r]]
        for i in range(len(tableau)):
            if i != r and tableau[i][col] != 0:
                factor = tableau[i][col]
                tableau[i] = [
                    v - factor * w for v, w in zip(tableau[i], tableau[r])
                ]
        basis[r] = col

    def run_simplex(obj: list[Fraction], allowed: int) -> str:
        while True:
            duals = [obj[basis[i]] for i in range(len(tableau))]
            entering = -1
            for j in range(allowed):
                if j in basis:
                    continue
                reduced = obj[j] - sum(
                    duals[i] * tableau[i][j] for i in range(len(tableau))
                )
                if reduced > 0:
                    entering = j
                    break  # Bland: lowest index
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best = None
            for i in range(len(tableau)):
                coeff = tableau[i][entering]
                if coeff > 0:
                    ratio = tableau[i][-1] / coeff
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leaving])
                    ):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return UNBOUNDED
            pivot(leaving, entering)

    if n_art:
        phase1 = [Fraction(0)] * width
        for col in art_col.values():
            phase1[col] = Fraction(-1)
        run_simplex(phase1, width)
        infeas = sum(
            tableau[i][-1] for i in range(len(tableau)) if basis[i] >= n_struct + m
        )
        if infeas != 0:
            return LPResult(INFEASIBLE, None, None)
        # Pivot remaining zero-level artificials out of the basis; a row
        # with no eligible pivot is redundant and can be dropped.
        for i in reversed(range(len(tableau))):
            if basis[i] >= n_struct + m:
                col = next(
                    (j for j in range(n_struct + m) if tableau[i][j] != 0),
                    None,
                )
                if col is None:
                    del tableau[i]
                    del basis[i]
                else:
                    pivot(i, col)

    phase2 = [Fraction(0)] * width
    for j in range(n):
        phase2[j] = c[j]
        phase2[n + j] = -c[j]
    status = run_simplex(phase2, n_struct + m)
    if status != OPTIMAL:
        return LPResult(UNBOUNDED, None, None)

    values = [Fraction(0)] * width
    for i, col in enumerate(basis):
        values[col] = tableau[i][-1]
    x = tuple(values[j] - values[n + j] for j in range(n))
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult(OPTIMAL, x, value)


def test_basic_optimum():
    r = solve_lp_max([1, 1], [[1, 0], [0, 1]], [2, 3])
    assert r.status == OPTIMAL
    assert r.x == (Fraction(2), Fraction(3))
    assert r.value == 5


def test_infeasible_origin_refused():
    # maximize x subject to x <= -5: the origin is not feasible
    with pytest.raises(InputError, match="origin must be feasible"):
        solve_lp_max([1], [[1]], [-5])
    with pytest.raises(InputError, match="origin must be feasible"):
        solve_lp_max([1], [[1], [-1]], [1, -3])  # x <= 1 and x >= 3


def test_unbounded():
    r = solve_lp_max([1], [[-1]], [0])  # maximize x subject to x >= 0
    assert r.status == UNBOUNDED


def test_exact_fractional_solution():
    # maximize y subject to y <= x/3 + 1/7 and y <= -x + 2
    r = solve_lp_max(
        [0, 1],
        [[Fraction(-1, 3), 1], [1, 1]],
        [Fraction(1, 7), 2],
    )
    assert r.status == OPTIMAL
    x, y = r.x
    assert (x, y) == (Fraction(39, 28), Fraction(17, 28))  # exact, no drift
    assert r.value == y


def test_degenerate_ties_terminate():
    # many redundant constraints through the optimum exercise Bland's rule
    a = [[1, 1], [2, 2], [3, 3], [1, 0], [0, 1]]
    b = [2, 4, 6, 1, 1]
    r = solve_lp_max([1, 1], a, b)
    assert r.status == OPTIMAL
    assert r.value == 2


def test_shape_mismatch():
    with pytest.raises(InputError):
        solve_lp_max([1, 2], [[1]], [1])


def test_determinism():
    args = ([3, -1, 2], [[1, 1, 1], [2, -1, 0], [-1, 0, 4]], [5, 3, 8])
    r1 = solve_lp_max(*args)
    r2 = solve_lp_max(*args)
    assert r1 == r2


COEFFS = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
)
# Zero first and most often, so degenerate vertices are common.
RHS = st.one_of(
    st.just(0), st.just(0), st.integers(0, 5),
    st.builds(Fraction, st.integers(0, 6), st.integers(1, 4)),
)
# Sparse LPs: coefficients and right-hand sides mostly 0, so pivot rows
# hold zeros (the entries a sparse pivot skips) and the ratio test ties
# (where Bland's leaving rule decides).
NONZERO = COEFFS.filter(bool)
SPARSE_COEFFS = st.one_of(st.just(0), st.just(0), st.just(0), COEFFS)
SPARSE_RHS = st.one_of(st.just(0), st.just(0), st.just(0), RHS)


@st.composite
def feasible_origin_lps(draw):
    """(objective, a_ub, b_ub) with b_ub >= 0: 1-4 variables, 0-8 rows,
    some rows repeated or positively scaled copies of earlier ones.  Half
    of them are sparse: mostly zero coefficients and right-hand sides,
    and some rows with a single nonzero."""
    n = draw(st.integers(1, 4))
    sparse = draw(st.booleans())
    coeffs = SPARSE_COEFFS if sparse else COEFFS
    rhs = SPARSE_RHS if sparse else RHS
    a: list[list] = []
    b: list = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 3))
        if a and kind == 0:
            k = draw(st.integers(0, len(a) - 1))
            scale = draw(st.sampled_from([1, 1, 2, Fraction(1, 3)]))
            a.append([scale * v for v in a[k]])
            b.append(scale * b[k])
        elif sparse and kind == 1:
            row = [0] * n
            row[draw(st.integers(0, n - 1))] = draw(NONZERO)
            a.append(row)
            b.append(draw(rhs))
        else:
            a.append(draw(st.lists(coeffs, min_size=n, max_size=n)))
            b.append(draw(rhs))
    objective = draw(st.lists(coeffs, min_size=n, max_size=n))
    return objective, a, b


@settings(max_examples=400, deadline=None)
@given(feasible_origin_lps())
@example(([1], [[-1]], [0]))  # unbounded
@example(([1, 1], [[1, 1], [2, 2], [3, 3], [1, 0], [0, 1]], [2, 4, 6, 1, 1]))
@example(([0, 1], [[1, 1], [-1, 1], [1, 1], [0, 1]], [0, 0, 0, 0]))
@example(([1, 0], [], []))  # no rows: unbounded
@example(([0, 0], [], []))  # zero objective: the origin is optimal
# sparse: single-nonzero rows, zero rows and right-hand sides, ratio ties
@example(([1, 1, 0], [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 1, 1, 0]))
@example(([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4]))
@example(([0, 1, 0], [[0, 0, 0], [0, 2, 0], [0, 1, 0], [1, 0, -1]], [0, 2, 1, 0]))
@example(
    (
        [1, 0, 0, 1],
        [[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 1], [0, 0, 3, 0]],
        [Fraction(1, 2), 0, Fraction(1, 2), 0],
    )
)
def test_one_phase_matches_two_phase(lp):
    assert solve_lp_max(*lp) == two_phase_solve_lp_max(*lp)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            *[
                st.lists(
                    st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=5
                )
                for _ in range(2)
            ]
        )
    )
)
@example(([(0, 0), (2, 0), (0, 2)], [(1, 1), (3, 1), (1, 3)]))  # touching
@example(([(0, 0), (2, 2)], [(2, 0), (4, 2)]))  # parallel segments
@example(([(0, 0, 0), (2, 1, 0)], [(1, 0, 1), (1, 1, -1), (3, 3, 3)]))
def test_separation_lps_match_two_phase(sets):
    """Every LP that `strictly_separating_hyperplane` builds, on random
    planar and 3-D point sets (touching and overlapping hulls included),
    gets the same status, optimizer and value from both solvers."""
    calls = []

    def recording(*args):
        result = solve_lp_max(*args)
        calls.append((args, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(separation, "solve_lp_max", recording)
        separation.strictly_separating_hyperplane(*sets)
    for args, result in calls:
        assert result == two_phase_solve_lp_max(*args)
