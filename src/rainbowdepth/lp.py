"""Exact linear programming over rationals.

A small one-phase simplex with Bland's rule: adequate for the
separation and common-interior programs this package builds (a handful
of free variables, tens of constraints), and fully exact -- every
tableau entry is a Fraction, so "optimum > 0" is a certificate, not a
numerical judgement.  Deterministic: Bland's rule breaks all ties by
lowest index, so identical inputs pivot identically.

Each pivot is sparse: it collects the pivot row's nonzero columns once,
divides only those by the pivot, and updates every other row in place
at those columns only.  That is exact, not an approximation: at a
column where the pivot row holds 0 the dense update v - f*0 = v leaves
the entry as it was, so every tableau value and pivot is the same.

Contract: the origin is feasible, i.e. every right-hand side is >= 0.
The slack basis is then a starting vertex and no phase 1 is needed;
callers shift their variables to meet the contract, and a negative
right-hand side raises InputError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: tuple[Fraction, ...] | None
    value: Fraction | None


def solve_lp_max(
    objective: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence
) -> LPResult:
    """Maximize objective . x subject to a_ub x <= b_ub, x free, b_ub >= 0."""
    c = [Fraction(v) for v in objective]
    a = [[Fraction(v) for v in row] for row in a_ub]
    b = [Fraction(v) for v in b_ub]
    n = len(c)
    m = len(a)
    if any(len(row) != n for row in a) or len(b) != m:
        raise InputError("inconsistent LP shapes")
    if any(v < 0 for v in b):
        raise InputError("the origin must be feasible: every b_ub must be >= 0")

    # x = u - v with u, v >= 0 and one slack per row; the slacks form the
    # starting basis.  Row m holds the reduced costs, which at the slack
    # basis are the objective's own coefficients.
    width = 2 * n + m
    zero = Fraction(0)
    tableau = []
    for i, row in enumerate(a):
        slack = [zero] * m
        slack[i] = Fraction(1)
        tableau.append(row + [-v for v in row] + slack + [b[i]])
    tableau.append(c + [-v for v in c] + [zero] * (m + 1))
    basis = list(range(2 * n, width))

    while True:
        reduced = tableau[m]
        entering = next((j for j in range(width) if reduced[j] > 0), None)
        if entering is None:  # Bland: lowest improving index, else optimal
            break
        leaving = -1
        best: Fraction | None = None
        for i in range(m):
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
            return LPResult(UNBOUNDED, None, None)
        pivot_row = tableau[leaving]
        piv = pivot_row[entering]
        cols = [j for j, v in enumerate(pivot_row) if v]
        for j in cols:
            pivot_row[j] /= piv
        for i, row in enumerate(tableau):
            factor = row[entering]
            if i != leaving and factor:
                for j in cols:
                    row[j] -= factor * pivot_row[j]
        basis[leaving] = entering

    values = [zero] * width
    for i, col in enumerate(basis):
        values[col] = tableau[i][-1]
    x = tuple(values[j] - values[n + j] for j in range(n))
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult(OPTIMAL, x, value)
