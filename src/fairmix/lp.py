"""Exact rational linear programming.

A small dense two-phase primal simplex over exact rationals, for programs
``maximize c·x`` subject to rows ``a·x >= b`` or ``a·x = b`` with every
``b >= 0`` and every variable ``x >= 0``: the one row shape of its callers,
the efficiency and core-fair-share surplus LP, the epsilon-inefficiency LP,
and the egalitarian rule's leximin rounds, which read an optimal outcome's
``duals``.  Every row starts on its own artificial, so phase 1 always runs.

``_pivot`` is the one exact Gauss-Jordan step in the library: the simplex
pivots with it, and ``solve_linear`` (the linear solve behind the
egalitarian rule's min-norm step) is built on it.

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

__all__ = ["LinearProgram", "LpOutcome", "solve_lp", "solve_linear",
           "MAX_VARIABLES", "MAX_CONSTRAINTS"]

#: Hard scale caps: this solver is meant for desk-scale certificates only.
MAX_VARIABLES = 200
MAX_CONSTRAINTS = 400

EQ, GE = "=", ">="


@dataclass(frozen=True)
class LinearProgram:
    """``maximize c·x`` subject to rows ``a·x (rel) b``, ``b >= 0``, and ``x >= 0``."""

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
        for row, rel, rhs in self.constraints:
            if len(row) != nvar:
                raise ValueError("constraint row length differs from objective length")
            if rel not in (EQ, GE):
                raise ValueError(f"unknown relation {rel!r}")
            if rhs < 0:
                raise ValueError(f"negative right-hand side {rhs}")


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    solution: Optional[tuple] = None
    duals: Optional[tuple] = None  # per row: <= 0 on ">=", None on "="


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
    nslack = sum(rel == GE for _, rel, _ in lp.constraints)
    # row i's surplus (on ">=") cannot start basic, so it starts on its own
    # artificial, column real + i
    real = nvar + nslack
    nrow = len(lp.constraints)
    zeros = [Fraction(0)] * (nslack + nrow)
    rows, basis = [], list(range(real, real + nrow))
    slack = nvar
    for (row, rel, rhs), art in zip(lp.constraints, basis):
        line = [Fraction(x) for x in row] + zeros + [Fraction(rhs)]
        if rel == GE:
            line[slack] = Fraction(-1)
            slack += 1
        line[art] = Fraction(1)
        rows.append(line)

    # Phase 1: maximize -(sum of artificials); it is bounded above by 0.
    _price(rows, basis, [Fraction(0)] * real + [Fraction(-1)] * nrow + [Fraction(0)])
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
    # a ">=" row's surplus column is -e_i, so its reduced cost is y_i
    costs = iter(rows[-1][nvar:real])
    duals = tuple(None if rel == EQ else next(costs) for _, rel, _ in lp.constraints)
    return LpOutcome(
        status="optimal",
        value=-rows[-1][-1],
        solution=tuple(solution),
        duals=duals,
    )


def solve_linear(rows, rhs) -> list:
    """One solution of ``rows · x = rhs``, with the free variables at 0.

    Gauss-Jordan elimination, each row pivoting on its first nonzero entry.
    Raises ``ValueError`` when the system is inconsistent.
    """
    work = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots = {}  # column -> row
    for i in range(len(work)):
        c = next((j for j, x in enumerate(work[i][:-1]) if x), None)
        if c is not None:
            _pivot(work, i, c)
            pivots[c] = i
        elif work[i][-1]:
            raise ValueError("inconsistent linear system")
    ncol = len(rows[0])
    return [work[pivots[c]][-1] if c in pivots else Fraction(0) for c in range(ncol)]
