"""Exact rational linear programming.

A small dense two-phase primal simplex over exact rationals, for programs
``maximize c·x`` subject to rows ``a·x >= b`` or ``a·x = b`` with every
``b >= 0`` and every variable ``x >= 0``: the one row shape of its callers,
the efficiency and core-fair-share surplus LP, the epsilon-inefficiency LP,
and the egalitarian rule's leximin rounds, which read an optimal outcome's
``duals``.  Every row starts on its own artificial, so phase 1 always runs.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968; as in Avis'
``lrs``): Python int rows ``R`` over one common denominator ``d > 0``, the
true tableau being ``R / d``.  Scaled by the lcm of its denominators, each
input row is an integer row, and ``d`` starts at the product of those lcms,
the determinant of the artificial basis; the starting ``R`` is ``d`` times
the input.  From then on ``d`` is the absolute determinant of the current
basis, or an integer multiple of it once phase 1 drops rows, which keeps
every division in ``_pivot`` exact.  ``_pivot`` is the one elimination step
in the library: the simplex pivots with it, and ``solve_linear`` (the
linear solve behind the egalitarian rule's min-norm step) is built on it.

Everything here is exact: solutions are basic feasible solutions whose
coordinates satisfy every constraint with exact rational arithmetic, so the
callers can use them as certificates rather than estimates.  Bland's rule
(Bland 1977) picks the entering and leaving columns, reading signs off the
ints and comparing ratios by cross-multiplication, which makes the solver
deterministic and immune to cycling.

``fractions.Fraction`` appears only at the edges: the inputs (int, Fraction
or float entries) are read exactly through it, and every output is a
``Fraction``, one integer over ``d``.
"""

from __future__ import annotations

import math
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


def _over_lcm(values):
    """``values`` times the lcm ``s`` of their denominators, as ints, and ``s``."""
    values = [x if type(x) in (int, Fraction) else Fraction(x) for x in values]
    s = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (s // x.denominator) for x in values], s


def _pivot(rows, d, leave, enter):
    """Fraction-free Gauss-Jordan step, in place, on the integer ``rows``
    over the common denominator ``d > 0``; returns the new denominator.

    With ``p = rows[leave][enter]``, row ``leave`` stays as it is and every
    other row becomes ``(row * p - row[enter] * rows[leave]) / d``, an exact
    integer division.  The new denominator is ``p``, or ``-p`` with every
    row negated, so that it stays positive.
    """
    row = rows[leave]
    p = row[enter]
    for i, other in enumerate(rows):
        if i == leave:
            continue
        f = other[enter]
        if f:
            rows[i] = [(x * p - f * y) // d for x, y in zip(other, row)]
        elif p != d:
            rows[i] = [x * p // d for x in other]
    if p < 0:
        rows[:] = [[-x for x in r] for r in rows]
        p = -p
    return p


def _price(rows, basis, cost, d):
    """Append ``d * cost`` to ``rows`` as the cost row, basic columns priced
    out, for an integer ``cost``.

    The cost row holds ``d`` times the reduced costs of a maximization, with
    ``d`` times the negated objective value in its last entry.
    """
    line = [d * x for x in cost]
    for i, b in enumerate(basis):
        f = cost[b]
        if f:
            line = [x - f * y for x, y in zip(line, rows[i])]
    rows.append(line)


def _simplex(rows, basis, d):
    """Run Bland-rule simplex, in place, on ``rows`` over the denominator
    ``d``: one row per basic variable with the rhs last, then the cost row.

    Returns "optimal" or "unbounded", and the final denominator.  Since
    ``d > 0``, every sign test reads the ints directly.
    """
    rhs = len(rows[-1]) - 1
    while True:
        cost = rows[-1]
        enter = next((j for j in range(rhs) if cost[j] > 0), None)
        if enter is None:
            return "optimal", d
        leave = None
        for i, b in enumerate(basis):
            a = rows[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rows[i][rhs] / a against the least ratio so far, cross-multiplied
                best = rows[leave]
                gap = rows[i][rhs] * best[enter] - best[rhs] * a
                if gap < 0 or (gap == 0 and b < basis[leave]):
                    leave = i
        if leave is None:
            return "unbounded", d
        d = _pivot(rows, d, leave, enter)
        basis[leave] = enter


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` exactly.  Deterministic: same input, same output."""
    nvar = len(lp.objective)
    nslack = sum(rel == GE for _, rel, _ in lp.constraints)
    # row i's surplus (on ">=") cannot start basic, so it starts on its own
    # artificial, column real + i
    real = nvar + nslack
    nrow = len(lp.constraints)
    scaled = [_over_lcm((*row, rhs)) for row, _, rhs in lp.constraints]
    d = math.prod(s for _, s in scaled)  # the artificial basis's determinant
    zeros = [0] * (nslack + nrow)
    rows, basis = [], list(range(real, real + nrow))
    slack = nvar
    for (_, rel, _), (ints, s), art in zip(lp.constraints, scaled, basis):
        line = [x * (d // s) for x in ints]
        line[nvar:nvar] = zeros
        if rel == GE:
            line[slack] = -d
            slack += 1
        line[art] = d
        rows.append(line)

    # Phase 1: maximize -(sum of artificials); it is bounded above by 0.
    _price(rows, basis, [0] * real + [-1] * nrow + [0], d)
    _, d = _simplex(rows, basis, d)
    if rows.pop()[-1] != 0:
        return LpOutcome(status="infeasible")
    # Pivot every artificial still basic out of the basis, or drop its
    # row, then slice the artificial columns off.  A dropped row leaves a
    # common integer factor in the kept ones, so later divisions stay exact.
    for i, b in enumerate(basis):
        if b >= real:
            enter = next((j for j in range(real) if rows[i][j] != 0), None)
            if enter is not None:
                d = _pivot(rows, d, i, enter)
                basis[i] = enter
    keep = [i for i, b in enumerate(basis) if b < real]
    rows = [rows[i][:real] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2, on the objective times the lcm of its denominators.
    objective, scale = _over_lcm(lp.objective)
    _price(rows, basis, objective + [0] * (nslack + 1), d)
    status, d = _simplex(rows, basis, d)
    if status == "unbounded":
        return LpOutcome(status="unbounded")
    solution = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            solution[b] = Fraction(rows[i][-1], d)
    # a ">=" row's surplus column is -e_i, so its reduced cost is y_i
    costs = (Fraction(c, d * scale) for c in rows[-1][nvar:real])
    duals = tuple(None if rel == EQ else next(costs) for _, rel, _ in lp.constraints)
    return LpOutcome(
        status="optimal",
        value=Fraction(-rows[-1][-1], d * scale),
        solution=tuple(solution),
        duals=duals,
    )


def solve_linear(rows, rhs) -> list:
    """One solution of ``rows · x = rhs``, with the free variables at 0.

    Fraction-free Gauss-Jordan elimination over each row scaled to
    integers, each row pivoting on its first nonzero entry.  Raises
    ``ValueError`` when the system is inconsistent.
    """
    work = [_over_lcm((*r, v))[0] for r, v in zip(rows, rhs)]
    d = 1
    pivots = {}  # column -> row
    for i in range(len(work)):
        c = next((j for j, x in enumerate(work[i][:-1]) if x), None)
        if c is not None:
            d = _pivot(work, d, i, c)
            pivots[c] = i
        elif work[i][-1]:
            raise ValueError("inconsistent linear system")
    ncol = len(rows[0])
    return [Fraction(work[pivots[c]][-1], d) if c in pivots else Fraction(0)
            for c in range(ncol)]
