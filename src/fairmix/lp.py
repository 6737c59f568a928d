"""Exact rational linear programming.

A small dense two-phase primal simplex over exact rationals, for programs
``maximize c·x`` subject to rows ``a·x (rel) b`` with every variable
``x >= 0``.  It is the single optimization backend for the efficiency
check, the epsilon-inefficiency LP, the core-fair-share checker, and the
egalitarian rule's leximin rounds, which read an optimal outcome's ``duals``.

``_pivot`` is the one exact Gauss-Jordan step in the library: the simplex
pivots with it, and ``row_reduce`` (the elimination behind the egalitarian
rule's min-norm step) is built on it.

Everything here is exact: solutions are basic feasible solutions whose
coordinates satisfy every constraint with exact rational arithmetic, so the
callers can use them as certificates rather than estimates.  Bland's rule
(Bland 1977) picks the entering and leaving columns, which makes the solver
deterministic and immune to cycling.

Every input entry is converted once to ``fractions.Fraction`` on the way
in, so integer inputs stay exact and every output is a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

__all__ = ["LinearProgram", "LpOutcome", "solve_lp", "row_reduce",
           "MAX_VARIABLES", "MAX_CONSTRAINTS"]

#: Hard scale caps: this solver is meant for desk-scale certificates only.
MAX_VARIABLES = 200
MAX_CONSTRAINTS = 400

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class LinearProgram:
    """``maximize c·x`` subject to rows ``a·x (rel) b`` and ``x >= 0``."""

    objective: tuple
    constraints: tuple  # of (row, relation, rhs)

    def __post_init__(self) -> None:
        nvar = len(self.objective)
        if nvar > MAX_VARIABLES:
            raise ValueError(f"too many variables: {nvar} > {MAX_VARIABLES}")
        if len(self.constraints) > MAX_CONSTRAINTS:
            raise ValueError(
                f"too many constraints: {len(self.constraints)} > {MAX_CONSTRAINTS}"
            )
        for row, rel, _rhs in self.constraints:
            if len(row) != nvar:
                raise ValueError("constraint row length differs from objective length")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    solution: Optional[tuple] = None
    duals: Optional[tuple] = None  # per row: >= 0 on "<=", <= 0 on ">=", None on "="


def _pivot(rows, leave, enter):
    """Gauss-Jordan step, in place: scale row ``leave`` so its ``enter``
    entry is 1, then clear column ``enter`` from every other row."""
    row = rows[leave]
    piv = row[enter]
    if piv != 1:
        inv = 1 / piv
        rows[leave] = row = [x * inv for x in row]
    for i, other in enumerate(rows):
        f = other[enter]
        if i != leave and f:
            rows[i] = [x - f * y for x, y in zip(other, row)]


def _price(rows, basis, cost):
    """Append ``cost`` to ``rows`` as the cost row, basic columns priced out.

    The cost row holds the reduced costs of a maximization, with the
    negated objective value in its last entry.
    """
    for i, b in enumerate(basis):
        f = cost[b]
        if f:
            cost = [x - f * y for x, y in zip(cost, rows[i])]
    rows.append(cost)


def _simplex(rows, basis):
    """Run Bland-rule simplex, in place, on ``rows``: one row per basic
    variable with the rhs last, then the cost row.

    Returns "optimal" or "unbounded".
    """
    rhs = len(rows[-1]) - 1
    while True:
        cost = rows[-1]
        enter = next((j for j in range(rhs) if cost[j] > 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, b in enumerate(basis):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][rhs] / a
                if best is None or ratio < best or (ratio == best and b < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(rows, leave, enter)
        basis[leave] = enter


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` exactly.  Deterministic: same input, same output."""
    nvar = len(lp.objective)
    nslack = sum(rel != EQ for _, rel, _ in lp.constraints)
    # a row's slack starts basic only for "<=" with rhs >= 0; every other
    # row gets an artificial column, numbered in row order after the slacks.
    # (A ">=" row with rhs < 0 could start on its flipped surplus, but that
    # changes which optimal vertex Bland's rule ends on.)
    needs_art = [rel != LE or Fraction(rhs) < 0 for _, rel, rhs in lp.constraints]
    real = nvar + nslack
    zeros = [Fraction(0)] * (nslack + sum(needs_art))
    rows, basis = [], []
    slack, art = nvar, real
    for (row, rel, rhs), artificial in zip(lp.constraints, needs_art):
        line = [Fraction(x) for x in row] + zeros + [Fraction(rhs)]
        if rel != EQ:
            line[slack] = Fraction(1 if rel == LE else -1)
            slack += 1
        if line[-1] < 0:
            line = [-x for x in line]
        if artificial:
            line[art] = Fraction(1)
            basis.append(art)
            art += 1
        else:
            basis.append(slack - 1)
        rows.append(line)

    if art > real:
        # Phase 1: maximize -(sum of artificials); it is bounded above by 0.
        _price(
            rows, basis, [Fraction(0)] * real + [Fraction(-1)] * (art - real) + [Fraction(0)]
        )
        _simplex(rows, basis)
        if rows.pop()[-1] != 0:
            return LpOutcome(status="infeasible")
        # Pivot every artificial still basic out of the basis, or drop its
        # row, then slice the artificial columns off.
        for i, b in enumerate(basis):
            if b >= real:
                enter = next((j for j in range(real) if rows[i][j] != 0), None)
                if enter is not None:
                    _pivot(rows, i, enter)
                    basis[i] = enter
        keep = [i for i, b in enumerate(basis) if b < real]
        rows = [rows[i][:real] + rows[i][-1:] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase 2.
    _price(rows, basis, [Fraction(c) for c in lp.objective] + [Fraction(0)] * (nslack + 1))
    if _simplex(rows, basis) == "unbounded":
        return LpOutcome(status="unbounded")
    solution = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            solution[b] = rows[i][-1]
    # row i's slack column is +e_i ("<=") or -e_i (">="), whatever sign the
    # row was stored with, so its reduced cost is -y_i or +y_i
    costs = iter(rows[-1][nvar:real])
    duals = tuple(
        None if rel == EQ else next(costs) * (-1 if rel == LE else 1)
        for _, rel, _ in lp.constraints
    )
    return LpOutcome(
        status="optimal",
        value=-rows[-1][-1],
        solution=tuple(solution),
        duals=duals,
    )


def row_reduce(rows, rhs, pivot_cols):
    """Gauss-Jordan reduction of ``rows · x = rhs``, pivoting only in
    ``pivot_cols``, taken in that order.

    Returns the independent reduced (row, rhs) pairs, one per pivot.  A row
    that vanishes on the pivot columns must have zero rhs (the other columns
    belong to variables fixed at 0); otherwise raises ``ValueError``.
    """
    work = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(rows, rhs)]
    r = 0
    for c in pivot_cols:
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        _pivot(work, r, c)
        r += 1
    if any(row[-1] != 0 for row in work[r:]):
        raise ValueError("inconsistent linear system")
    return [(tuple(row[:-1]), row[-1]) for row in work[:r]]
