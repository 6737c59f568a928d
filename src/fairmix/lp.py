"""Exact rational linear programming.

A small dense two-phase primal simplex solver over exact rationals.  It is
the single optimization backend for the efficiency checks, the egalitarian
rule, the core-fair-share checker, and the epsilon-inefficiency LP.

Everything here is exact: solutions are basic feasible solutions whose
coordinates satisfy every constraint with exact rational arithmetic, so the
callers can use them as certificates rather than estimates.  Bland's rule
makes the solver deterministic and immune to cycling.

Internally the tableau uses ``gmpy2.mpq`` when available (noticeably faster
on the long pivot loops); the public interface speaks ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

try:  # pragma: no cover - exercised implicitly on machines with gmpy2
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = Fraction

__all__ = ["LinearProgram", "LpOutcome", "solve_lp", "MAX_VARIABLES", "MAX_CONSTRAINTS"]

#: Hard scale caps: this solver is meant for desk-scale certificates only.
MAX_VARIABLES = 200
MAX_CONSTRAINTS = 400

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class LinearProgram:
    """A linear program ``maximize c·x`` subject to rows ``a·x (rel) b``.

    ``lower``/``upper`` are per-variable bounds; ``None`` means unbounded on
    that side.  When the bound tuples are omitted every variable defaults to
    ``x >= 0`` with no upper bound.
    """

    objective: tuple
    constraints: tuple  # of (row, relation, rhs)
    lower: Optional[tuple] = None
    upper: Optional[tuple] = None

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
        lo = self.lower if self.lower is not None else (Fraction(0),) * nvar
        hi = self.upper if self.upper is not None else (None,) * nvar
        if len(lo) != nvar or len(hi) != nvar:
            raise ValueError("bound tuples must match the variable count")
        for a, b in zip(lo, hi):
            if a is not None and b is not None and a > b:
                raise ValueError("inconsistent bounds: lower > upper")

    def bounds(self) -> tuple:
        nvar = len(self.objective)
        lo = self.lower if self.lower is not None else (Fraction(0),) * nvar
        hi = self.upper if self.upper is not None else (None,) * nvar
        return lo, hi


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    solution: Optional[tuple] = None


def _simplex(tableau, basis, cost_row, ncols):
    """Run Bland-rule simplex on an equational tableau, in place.

    ``tableau`` is a list of rows over mpq, one per basic variable, with the
    rhs in the last column; ``cost_row`` holds reduced costs for a
    maximization, with the (negated) objective value in the last column.
    Returns "optimal" or "unbounded".
    """
    nrows = len(tableau)
    while True:
        enter = -1
        for j in range(ncols):
            if cost_row[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, cost_row, basis, leave, enter, ncols)


def _pivot(tableau, cost_row, basis, leave, enter, ncols):
    row = tableau[leave]
    piv = row[enter]
    if piv != 1:
        inv = 1 / piv
        tableau[leave] = row = [x * inv for x in row]
    for i, other in enumerate(tableau):
        if i != leave and other[enter]:
            f = other[enter]
            tableau[i] = [x - f * y for x, y in zip(other, row)]
    if cost_row[enter]:
        f = cost_row[enter]
        for j in range(ncols + 1):
            cost_row[j] -= f * row[j]
    basis[leave] = enter


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` exactly.  Deterministic: same input, same output."""
    nvar = len(lp.objective)
    lo, hi = lp.bounds()

    # Translate to the equational form A y = b, y >= 0.  Each original
    # variable with a finite lower bound is shifted; a doubly-unbounded
    # variable is split into a difference of two nonnegative parts.
    # Finite upper bounds become extra <= rows.
    col_of = []  # per original variable: ("shift", col, lo) or ("split", c+, c-)
    ncols = 0
    for k in range(nvar):
        if lo[k] is not None:
            col_of.append(("shift", ncols, Fraction(lo[k])))
            ncols += 1
        else:
            col_of.append(("split", ncols, ncols + 1))
            ncols += 2

    rows = []  # (coeffs over ncols, rel, rhs) all mpq
    def add_row(orig_row, rel, rhs):
        coeffs = [_mpq(0)] * ncols
        shift = _mpq(0)
        for k, c in enumerate(orig_row):
            if not c:
                continue
            c = _mpq(c.numerator, c.denominator) if isinstance(c, Fraction) else _mpq(c)
            kind = col_of[k]
            if kind[0] == "shift":
                coeffs[kind[1]] += c
                shift += c * _mpq(kind[2].numerator, kind[2].denominator)
            else:
                coeffs[kind[1]] += c
                coeffs[kind[2]] -= c
        rhs = _mpq(rhs.numerator, rhs.denominator) if isinstance(rhs, Fraction) else _mpq(rhs)
        rows.append((coeffs, rel, rhs - shift))

    for row, rel, rhs in lp.constraints:
        add_row([Fraction(x) for x in row], rel, Fraction(rhs))
    for k in range(nvar):
        if hi[k] is not None:
            unit = [Fraction(0)] * nvar
            unit[k] = Fraction(1)
            add_row(unit, LE, Fraction(hi[k]))

    obj = [_mpq(0)] * ncols
    obj_shift = _mpq(0)
    for k, c in enumerate(lp.objective):
        if not c:
            continue
        c = Fraction(c)
        cq = _mpq(c.numerator, c.denominator)
        kind = col_of[k]
        if kind[0] == "shift":
            obj[kind[1]] += cq
            obj_shift += cq * _mpq(kind[2].numerator, kind[2].denominator)
        else:
            obj[kind[1]] += cq
            obj[kind[2]] -= cq

    # Equational tableau with slacks/surpluses and artificials.
    nrows = len(rows)
    slack_cols = 0
    for _, rel, _ in rows:
        if rel != EQ:
            slack_cols += 1
    total = ncols + slack_cols + nrows  # artificial block at the very end
    tableau = []
    basis = []
    scol = ncols
    art_cols = []
    for i, (coeffs, rel, rhs) in enumerate(rows):
        line = list(coeffs) + [_mpq(0)] * (slack_cols + nrows) + [rhs]
        if rel == LE:
            line[scol] = _mpq(1)
            this_slack = scol
            scol += 1
        elif rel == GE:
            line[scol] = _mpq(-1)
            this_slack = None
            scol += 1
        else:
            this_slack = None
        if line[total] < 0:
            line = [-x for x in line]
            if this_slack is not None:
                this_slack = None  # slack coefficient is now -1: unusable as basis
        if this_slack is not None:
            basis.append(this_slack)
        else:
            acol = ncols + slack_cols + i
            line[acol] = _mpq(1)
            art_cols.append(acol)
            basis.append(acol)
        tableau.append(line)

    # Phase 1: maximize -(sum of artificials).
    if art_cols:
        cost = [_mpq(0)] * (total + 1)
        for c in art_cols:
            cost[c] = _mpq(-1)
        for i, b in enumerate(basis):
            if cost[b]:
                f = cost[b]
                for j in range(total + 1):
                    cost[j] -= f * tableau[i][j]
        status = _simplex(tableau, basis, cost, total)
        # Phase 1 is always bounded below by 0.
        if -cost[total] != 0:
            return LpOutcome(status="infeasible")
        # Pivot any artificial still in the basis out (or drop its row).
        for i in range(nrows):
            if basis[i] in art_cols:
                for j in range(ncols + slack_cols):
                    if tableau[i][j] != 0:
                        _pivot(tableau, cost, basis, i, j, total)
                        break
        keep = [i for i in range(len(basis)) if basis[i] not in art_cols]
        tableau = [tableau[i] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase 2: forbid re-entry of artificial columns by zeroing them.
    for line in tableau:
        for c in art_cols:
            line[c] = _mpq(0)
    cost = list(obj) + [_mpq(0)] * (slack_cols + nrows) + [_mpq(0)]
    for i, b in enumerate(basis):
        if cost[b]:
            f = cost[b]
            for j in range(total + 1):
                cost[j] -= f * tableau[i][j]
    status = _simplex(tableau, basis, cost, total)
    if status == "unbounded":
        return LpOutcome(status="unbounded")

    yvals = [_mpq(0)] * total
    for i, b in enumerate(basis):
        yvals[b] = tableau[i][total]
    solution = []
    for k in range(nvar):
        kind = col_of[k]
        if kind[0] == "shift":
            v = yvals[kind[1]] + _mpq(kind[2].numerator, kind[2].denominator)
        else:
            v = yvals[kind[1]] - yvals[kind[2]]
        solution.append(Fraction(v.numerator, v.denominator))
    value = -cost[total] + obj_shift
    return LpOutcome(
        status="optimal",
        value=Fraction(value.numerator, value.denominator),
        solution=tuple(solution),
    )
