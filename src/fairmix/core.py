"""Domain types and basic analysis for fair mixing under dichotomous preferences.

An instance ("problem") is an ``n x m`` 0/1 matrix: ``n`` agents, ``m``
outcomes, and ``u[i][a] = 1`` exactly when agent ``i`` likes outcome ``a``.
Rows are never all-zero: an agent who likes nothing has no stake in the
decision and is excluded from the preference domain.

A "mixture" is a point of the simplex over outcomes - a lottery, time share,
or budget division.  Agent ``i``'s utility at mixture ``z`` is the total
weight ``u_i . z`` that ``z`` puts on her liked outcomes.

All values are exact rationals (``fractions.Fraction``); anything a checker
reports is therefore a certificate that can be re-verified by hand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lp

__all__ = [
    "Problem",
    "Mixture",
    "UtilityProfile",
    "TypedProfile",
    "AxiomVerdict",
    "parse_problem",
    "format_problem",
    "parse_rational",
    "parse_mixture",
    "format_mixture",
    "utilities",
    "undominated_outcomes",
    "is_efficient",
    "epsilon_inefficiency",
    "interval_structure",
    "INTERVAL_MAX_OUTCOMES",
    "DEFAULT_EPSILON_TOL",
]

INTERVAL_MAX_OUTCOMES = 10
DEFAULT_EPSILON_TOL = Fraction(1, 2**30)


@dataclass(frozen=True)
class Problem:
    """An ``n x m`` approval matrix with no all-zero row."""

    u: tuple  # tuple of n tuples of m ints in {0, 1}

    def __post_init__(self) -> None:
        if not self.u:
            raise ValueError("a problem needs at least one agent")
        m = len(self.u[0])
        if m == 0:
            raise ValueError("a problem needs at least one outcome")
        for i, row in enumerate(self.u):
            if len(row) != m:
                raise ValueError(f"row {i} has length {len(row)}, expected {m}")
            if any(x not in (0, 1) for x in row):
                raise ValueError(f"row {i} contains a non-bit entry")
            if not any(row):
                raise ValueError(f"row {i} is all zeros (agent likes nothing)")

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def m(self) -> int:
        return len(self.u[0])

    def like_set(self, i: int) -> tuple:
        return tuple(a for a in range(self.m) if self.u[i][a])

    def like_mask(self, i: int) -> int:
        mask = 0
        for a in range(self.m):
            if self.u[i][a]:
                mask |= 1 << a
        return mask

    @property
    def types(self) -> tuple:
        """(count, like-mask) agent types, identical agents merged, in order of
        first appearance."""
        return _merged_types((1, self.like_mask(i)) for i in range(self.n))

    def column_sum(self, a: int) -> int:
        return sum(row[a] for row in self.u)

    def drop_agent(self, i: int) -> "Problem":
        if self.n < 2:
            raise ValueError("cannot drop the only agent")
        return Problem(tuple(r for k, r in enumerate(self.u) if k != i))

    def replace_row(self, i: int, row: Sequence[int]) -> "Problem":
        rows = list(self.u)
        rows[i] = tuple(row)
        return Problem(tuple(rows))


@dataclass(frozen=True)
class Mixture:
    """A point of the outcome simplex, coordinates exact and summing to 1."""

    z: tuple  # tuple of Fractions

    def __post_init__(self) -> None:
        z = tuple(Fraction(x) for x in self.z)
        object.__setattr__(self, "z", z)
        if any(x < 0 for x in z):
            raise ValueError("mixture coordinates must be nonnegative")
        if sum(z) != 1:
            raise ValueError("mixture coordinates must sum to exactly 1")

    @property
    def m(self) -> int:
        return len(self.z)

    def weight_on(self, outcomes) -> Fraction:
        return sum((self.z[a] for a in outcomes), Fraction(0))


@dataclass(frozen=True)
class UtilityProfile:
    """Per-agent utilities in ``[0, 1]``, exact rationals."""

    U: tuple

    def __post_init__(self) -> None:
        U = tuple(Fraction(x) for x in self.U)
        object.__setattr__(self, "U", U)
        if any(x < 0 or x > 1 for x in U):
            raise ValueError("utilities must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.U)

    def __getitem__(self, i: int) -> Fraction:
        return self.U[i]

    def total(self) -> Fraction:
        return sum(self.U, Fraction(0))


@dataclass(frozen=True)
class TypedProfile:
    """A compressed problem: (multiplicity, like-set) pairs, in listed order."""

    m: int
    entries: tuple  # tuple of (count, frozenset of outcome indices)

    def __post_init__(self) -> None:
        entries = tuple(
            (int(c), frozenset(int(a) for a in s)) for c, s in self.entries
        )
        object.__setattr__(self, "entries", entries)
        if self.m < 1:
            raise ValueError("a profile needs at least one outcome")
        if not entries:
            raise ValueError("a profile needs at least one agent type")
        for count, like in entries:
            if count <= 0:
                raise ValueError("type multiplicities must be positive")
            if not like:
                raise ValueError("like-sets must be nonempty")
            if any(a < 0 or a >= self.m for a in like):
                raise ValueError("like-set outcome index out of range")

    @property
    def n(self) -> int:
        return sum(c for c, _ in self.entries)

    @property
    def types(self) -> tuple:
        """(count, like-mask) agent types, as for ``Problem.types``."""
        return _merged_types((c, sum(1 << a for a in like)) for c, like in self.entries)

    def to_problem(self) -> Problem:
        rows = []
        for count, like in self.entries:
            row = tuple(1 if a in like else 0 for a in range(self.m))
            rows.extend([row] * count)
        return Problem(tuple(rows))


def _merged_types(pairs) -> tuple:
    counts: dict = {}
    for count, mask in pairs:
        counts[mask] = counts.get(mask, 0) + count
    return tuple((c, mask) for mask, c in counts.items())


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of an axiom check.

    ``passed`` is ``True``, ``False``, or ``None`` (inconclusive: a numeric
    rule produced a near-tie inside the tolerance guard).  A failing verdict
    always carries a witness from which the violated inequality can be
    re-evaluated exactly.
    """

    passed: Optional[bool]
    witness: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.passed is False and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.passed is True


# ---------------------------------------------------------------------------
# serialization


def parse_problem(text: str) -> Problem:
    """Parse the problem file format.

    Dense: first line ``"n m"``, then ``n`` lines of ``m`` characters from
    ``{0,1}``.  Typed: first line ``"typed m"``, then lines ``"count
    bitstring"``; typed rows expand in listed order.
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty problem text")
    header = lines[0].split()
    if header and header[0] == "typed":
        if len(header) != 2:
            raise ValueError(f"malformed typed header: {lines[0]!r}")
        try:
            m = int(header[1])
        except ValueError:
            raise ValueError(f"malformed typed header: {lines[0]!r}") from None
        entries = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"malformed typed entry: {ln!r}")
            count = int(parts[0])
            if count <= 0:
                raise ValueError(f"typed entry has non-positive count: {ln!r}")
            like = _parse_bitstring_row(parts[1], m)
            entries.append((count, frozenset(a for a in range(m) if like[a])))
        return TypedProfile(m=m, entries=tuple(entries)).to_problem()
    if len(header) != 2:
        raise ValueError(f"malformed header: {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"malformed header: {lines[0]!r}") from None
    if n < 1 or m < 1:
        raise ValueError("header must declare n >= 1 and m >= 1")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = tuple(_parse_bitstring_row(ln, m) for ln in lines[1:])
    return Problem(rows)


def _parse_bitstring_row(s: str, m: int) -> tuple:
    if len(s) != m:
        raise ValueError(f"row {s!r} has length {len(s)}, expected {m}")
    if any(ch not in "01" for ch in s):
        raise ValueError(f"row {s!r} contains characters outside {{0,1}}")
    return tuple(int(ch) for ch in s)


def format_problem(P: Problem) -> str:
    lines = [f"{P.n} {P.m}"]
    lines.extend("".join(str(x) for x in row) for row in P.u)
    return "\n".join(lines) + "\n"


def format_typed_profile(T: TypedProfile) -> str:
    lines = [f"typed {T.m}"]
    for count, like in T.entries:
        bits = "".join("1" if a in like else "0" for a in range(T.m))
        lines.append(f"{count} {bits}")
    return "\n".join(lines) + "\n"


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational such as ``3``, ``-1/2`` or ``0.25``.

    Malformed text and a zero denominator both raise ``ValueError``.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_mixture(text: str) -> Mixture:
    """Parse a mixture serialized as space-separated exact rationals."""
    parts = text.split()
    if not parts:
        raise ValueError("empty mixture text")
    return Mixture(tuple(parse_rational(p) for p in parts))


def format_mixture(z: Mixture) -> str:
    return " ".join(format_rational(x) for x in z.z)


# ---------------------------------------------------------------------------
# utilities, dominance, efficiency


def utilities(P: Problem, z: Mixture) -> UtilityProfile:
    """Exact utilities ``U_i = u_i . z``."""
    if z.m != P.m:
        raise ValueError(f"dimension mismatch: problem has m={P.m}, mixture m={z.m}")
    return UtilityProfile(
        tuple(
            sum((z.z[a] for a in range(P.m) if row[a]), Fraction(0)) for row in P.u
        )
    )


def undominated_outcomes(P: Problem) -> set:
    """Outcomes whose supporter set is not strictly contained in another's."""
    supporters = [frozenset(i for i in range(P.n) if P.u[i][a]) for a in range(P.m)]
    result = set()
    for a in range(P.m):
        if not any(supporters[a] < supporters[b] for b in range(P.m)):
            result.add(a)
    return result


def _type_floors(P: Problem, U: UtilityProfile) -> list:
    """One (0/1 row, largest U_i) pair per agent type, in ``P.types`` order.

    Agents sharing a like-set get the same utility from any mixture, so the
    largest of their ``U_i`` is the one floor that binds for all of them.
    """
    floors: dict = {}
    for i in range(P.n):
        mask = P.like_mask(i)
        floors[mask] = max(floors.get(mask, U[i]), U[i])
    return [
        (tuple(Fraction(mask >> a & 1) for a in range(P.m)), floor)
        for mask, floor in floors.items()
    ]


def _efficiency_lp(P: Problem, U: UtilityProfile) -> lp.LinearProgram:
    # maximize sum_i (u_i . z' - U_i)  s.t.  u_i . z' >= U_i, z' in simplex
    objective = tuple(Fraction(P.column_sum(a)) for a in range(P.m))
    constraints = [(row, lp.GE, floor) for row, floor in _type_floors(P, U)]
    constraints.append(((Fraction(1),) * P.m, lp.EQ, Fraction(1)))
    return lp.LinearProgram(objective=objective, constraints=tuple(constraints))


def is_efficient(
    P: Problem, U: UtilityProfile, source: Optional[Mixture] = None
) -> AxiomVerdict:
    """Is the utility profile Pareto-undominated among feasible profiles?

    Decided by one LP: maximize the total utility surplus over mixtures that
    weakly improve every agent.  The profile is efficient exactly when the
    optimal surplus is zero.  When a ``source`` mixture is supplied it vouches
    for feasibility of ``U``; otherwise infeasibility of the LP signals that
    ``U`` is not achievable at all.
    """
    if U.n != P.n:
        raise ValueError("utility profile size differs from agent count")
    if source is not None and utilities(P, source) != U:
        raise ValueError("source mixture does not realize the supplied utilities")
    out = lp.solve_lp(_efficiency_lp(P, U))
    if out.status == "infeasible":
        raise ValueError("utility profile is not feasible for this problem")
    base = U.total()
    if out.value == base:
        return AxiomVerdict(passed=True)
    improving = Mixture(out.solution)
    return AxiomVerdict(
        passed=False,
        witness={
            "improving_mixture": improving,
            "improved_profile": utilities(P, improving),
            "surplus": out.value - base,
        },
    )


def epsilon_inefficiency(
    P: Problem, U: UtilityProfile, tol: Fraction = DEFAULT_EPSILON_TOL
) -> Fraction:
    """Smallest ``eps`` (within ``tol``) with ``U <= eps * U'`` for feasible ``U'``.

    One LP gives the exact optimum: the largest ``t`` such that some mixture
    ``z'`` gives every agent at least ``t * U_i``; then ``eps* = 1/t*``.  The
    result is ``eps*`` rounded up to the dyadic grid of step ``2^-k``, where
    ``k >= 0`` is the smallest integer with ``2^-k <= tol`` (the value a
    bisection on that grid would return).  An efficient profile returns 1;
    smaller values mean the profile is further inside the feasible set.
    """
    if U.n != P.n:
        raise ValueError("utility profile size differs from agent count")
    if all(x == 0 for x in U.U):
        raise ValueError("at least one utility must be positive")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")

    # variables z'_0..z'_{m-1}, t >= 0: maximize t s.t. u_i . z' - t * U_i >= 0,
    # one row per type at its largest U_i
    constraints = [
        (row + (-floor,), lp.GE, Fraction(0)) for row, floor in _type_floors(P, U)
    ]
    constraints.append(((Fraction(1),) * P.m + (Fraction(0),), lp.EQ, Fraction(1)))
    prog = lp.LinearProgram(
        objective=(Fraction(0),) * P.m + (Fraction(1),), constraints=tuple(constraints)
    )
    t = lp.solve_lp(prog).value
    if t < 1:
        raise ValueError("utility profile is not feasible for this problem")
    grid = 2 ** (math.ceil(1 / tol) - 1).bit_length()  # 2^k, the least >= 1/tol
    return Fraction(math.ceil(grid / t), grid)


def interval_structure(P: Problem) -> Optional[tuple]:
    """A column order making every like-set an interval, if one exists.

    Brute force over column permutations; refuses ``m > 10``.
    """
    if P.m > INTERVAL_MAX_OUTCOMES:
        raise ValueError(
            f"interval_structure is capped at m <= {INTERVAL_MAX_OUTCOMES}"
        )
    masks = {P.like_mask(i) for i in range(P.n)}
    for perm in itertools.permutations(range(P.m)):
        ok = True
        for mask in masks:
            positions = [j for j, a in enumerate(perm) if mask >> a & 1]
            if positions[-1] - positions[0] + 1 != len(positions):
                ok = False
                break
        if ok:
            return perm
    return None
