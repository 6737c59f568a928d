"""Domain types and basic analysis for fair mixing under dichotomous preferences.

An instance ("problem") lists the like-sets of ``n`` agents over ``m``
outcomes as (count, like-mask) runs: bit ``a`` of agent ``i``'s mask is set
exactly when ``i`` likes outcome ``a``, i.e. ``u[i][a] = 1`` in the 0/1 view.
A like-set is never empty: an agent who likes nothing has no stake in the
decision and is excluded from the preference domain.

A "mixture" is a point of the simplex over outcomes - a lottery, time share,
or budget division.  Agent ``i``'s utility at mixture ``z`` is the total
weight ``u_i . z`` that ``z`` puts on her liked outcomes.

All values are exact rationals (``fractions.Fraction``); anything a checker
reports is therefore a certificate that can be re-verified by hand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from . import lp

__all__ = [
    "Problem",
    "Mixture",
    "UtilityProfile",
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
    "DEFAULT_EPSILON_TOL",
]

DEFAULT_EPSILON_TOL = Fraction(1, 2**30)  # step of epsilon_inefficiency's grid
MAX_EXPONENT = 1000  # Fraction builds 10**exponent exactly
MAX_TYPED_AGENTS = 2_000_000  # per-agent views expand; appendix_sp0 has 1,227,856


def mask_outcomes(mask: int) -> tuple:
    """The outcomes of a like-mask, ascending: bit ``a`` is outcome ``a``."""
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # the characters "0", "1" to bytes 0, 1


def mask_row(mask: int, m: int) -> tuple:
    """The 0/1 approval row of a like-mask over ``m`` outcomes."""
    return tuple(format(mask, f"0{m}b")[::-1].encode().translate(_BIT_VALUES))


@dataclass(frozen=True)
class Problem:
    """A profile as (count, like-mask) runs, whose listed order numbers the
    agents; adjacent runs with one mask are merged, so two problems with the
    same agents in the same order are equal."""

    m: int
    entries: tuple  # tuple of (count, like-mask) pairs of ints

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("a profile needs at least one outcome")
        if not self.entries:
            raise ValueError("a profile needs at least one agent type")
        runs = []
        for count, mask in self.entries:
            count, mask = int(count), int(mask)
            if count <= 0:
                raise ValueError("type multiplicities must be positive")
            if not 0 < mask < 1 << self.m:
                raise ValueError(f"like-mask {mask} outside 1 .. 2^{self.m} - 1")
            if runs and runs[-1][1] == mask:
                count += runs.pop()[0]
            runs.append((count, mask))
        object.__setattr__(self, "entries", tuple(runs))

    @classmethod
    def from_rows(cls, u: Sequence[Sequence[int]]) -> "Problem":
        """The problem of an ``n x m`` 0/1 matrix with no all-zero row."""
        if not u or not u[0]:
            raise ValueError("a problem needs at least one agent and one outcome")
        m = len(u[0])
        return cls(m, tuple((1, _row_mask(i, row, m)) for i, row in enumerate(u)))

    @cached_property
    def n(self) -> int:
        return sum(c for c, _ in self.entries)

    @cached_property
    def masks(self) -> tuple:
        """Each agent's like-mask."""
        return tuple(mask for c, mask in self.entries for _ in range(c))

    @property
    def u(self) -> tuple:
        """The ``n x m`` 0/1 approval matrix."""
        return tuple(mask_row(mask, self.m) for mask in self.masks)

    def like_set(self, i: int) -> tuple:
        return mask_outcomes(self.like_mask(i))

    def like_mask(self, i: int) -> int:
        self._require_agent(i)
        return self.masks[i]

    @property
    def clone_classes(self) -> tuple:
        """(like-mask, agent indices) per distinct like-set: identical agents
        merged into one clone class, in order of first appearance."""
        classes: dict = {}
        for i, mask in enumerate(self.masks):
            classes.setdefault(mask, []).append(i)
        return tuple((mask, tuple(agents)) for mask, agents in classes.items())

    @property
    def types(self) -> tuple:
        """(count, like-mask) agent types, one per clone class, in the same
        order."""
        counts: dict = {}
        for count, mask in self.entries:
            counts[mask] = counts.get(mask, 0) + count
        return tuple((c, mask) for mask, c in counts.items())

    def column_sum(self, a: int) -> int:
        return sum(c for c, mask in self.entries if mask >> a & 1)

    def _require_agent(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"agent index {i} outside 0 .. {self.n - 1}")

    def drop_agent(self, i: int) -> "Problem":
        self._require_agent(i)
        if self.n < 2:
            raise ValueError("cannot drop the only agent")
        masks = self.masks[:i] + self.masks[i + 1:]
        return Problem(self.m, tuple((1, mask) for mask in masks))

    def replace_row(self, i: int, row: Sequence[int]) -> "Problem":
        self._require_agent(i)
        masks = self.masks[:i] + (_row_mask(i, row, self.m),) + self.masks[i + 1:]
        return Problem(self.m, tuple((1, mask) for mask in masks))


def _row_mask(i: int, row: Sequence[int], m: int) -> int:
    """The like-mask of agent ``i``'s 0/1 row, checked against ``m``."""
    if len(row) != m:
        raise ValueError(f"row {i} has length {len(row)}, expected {m}")
    if any(x not in (0, 1) for x in row):
        raise ValueError(f"row {i} contains a non-bit entry")
    if not any(row):
        raise ValueError(f"row {i} is all zeros (agent likes nothing)")
    return int("".join("1" if x else "0" for x in reversed(row)), 2)


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

    def weight_on(self, mask: int) -> Fraction:
        """Total weight on the outcomes of the like-mask ``mask`` (zeros skipped)."""
        liked = (x for a, x in enumerate(self.z) if x and mask >> a & 1)
        return sum(liked, Fraction(0))


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
    bitstring"``, the runs in listed order, of at most ``MAX_TYPED_AGENTS``
    agents.
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
            like = _parse_bitstring_row(parts[1], m)
            entries.append((int(parts[0]), sum(x << a for a, x in enumerate(like))))
        P = Problem(m, tuple(entries))
        if P.n > MAX_TYPED_AGENTS:
            raise ValueError(f"typed profile has more than {MAX_TYPED_AGENTS} agents")
        return P
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
    return Problem.from_rows(tuple(_parse_bitstring_row(ln, m) for ln in lines[1:]))


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


def format_typed_profile(P: Problem) -> str:
    lines = [f"typed {P.m}"]
    for count, mask in P.entries:
        lines.append(f"{count} {''.join(map(str, mask_row(mask, P.m)))}")
    return "\n".join(lines) + "\n"


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational such as ``3``, ``-1/2``, ``0.25`` or ``1e-3``.

    Malformed text, a zero denominator and a decimal exponent above
    ``MAX_EXPONENT`` in magnitude raise ``ValueError``.
    """
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent above {MAX_EXPONENT} in magnitude in {text!r}")
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
    return UtilityProfile(tuple(z.weight_on(mask) for mask in P.masks))


def undominated_outcomes(P: Problem) -> set:
    """Outcomes whose supporter set is not strictly contained in another's."""
    supporters = [{i for i, x in enumerate(P.masks) if x >> a & 1} for a in range(P.m)]
    result = set()
    for a in range(P.m):
        if not any(supporters[a] < supporters[b] for b in range(P.m)):
            result.add(a)
    return result


def require_profile_size(P: Problem, U: UtilityProfile) -> None:
    if U.n != P.n:
        raise ValueError("utility profile size differs from agent count")


def _type_floors(P: Problem, U: UtilityProfile) -> list:
    """One (count, like-mask, largest U_i) triple per type, in ``P.types`` order.

    Agents sharing a like-set get the same utility from any mixture, so the
    largest of their ``U_i`` is the one floor that binds for all of them.
    """
    return [
        (len(agents), mask, max(U[i] for i in agents)) for mask, agents in P.clone_classes
    ]


def surplus_lp(m: int, floors, scale=1) -> lp.LpOutcome:
    """Maximize ``scale * sum count * (mask . z')`` subject to
    ``scale * (mask . z') >= floor`` for each (count, like-mask, floor)
    triple and ``z'`` in the simplex: the efficiency LP at scale 1, a
    coalition's core-fair-share LP at its share."""
    support = [sum(c for c, mask, _ in floors if mask >> a & 1) for a in range(m)]
    constraints = [
        (tuple(scale * (mask >> a & 1) for a in range(m)), lp.GE, floor)
        for _, mask, floor in floors
    ]
    constraints.append(((1,) * m, lp.EQ, 1))
    objective = tuple(scale * c for c in support)
    return lp.solve_lp(lp.LinearProgram(objective, tuple(constraints)))


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
    require_profile_size(P, U)
    if source is not None and utilities(P, source) != U:
        raise ValueError("source mixture does not realize the supplied utilities")
    out = surplus_lp(P.m, _type_floors(P, U))
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


def epsilon_inefficiency(P: Problem, U: UtilityProfile) -> Fraction:
    """Smallest ``eps`` with ``U <= eps * U'`` for feasible ``U'``, to ``2^-30``.

    One LP gives the exact optimum: the largest ``t`` such that some mixture
    ``z'`` gives every agent at least ``t * U_i``; then ``eps* = 1/t*``.  The
    result is ``eps*`` rounded up to the dyadic grid of step
    ``DEFAULT_EPSILON_TOL`` = 2^-30 (the value a bisection on that grid would
    return).  An efficient profile returns 1; smaller values mean the profile
    is further inside the feasible set.
    """
    require_profile_size(P, U)
    if all(x == 0 for x in U.U):
        raise ValueError("at least one utility must be positive")

    # variables z'_0..z'_{m-1}, t >= 0: maximize t s.t. u_i . z' - t * U_i >= 0,
    # one row per type at its largest U_i
    constraints = [
        (mask_row(mask, P.m) + (-floor,), lp.GE, 0)
        for _, mask, floor in _type_floors(P, U)
    ]
    constraints.append(((1,) * P.m + (0,), lp.EQ, 1))
    prog = lp.LinearProgram(objective=(0,) * P.m + (1,), constraints=tuple(constraints))
    t = lp.solve_lp(prog).value
    if t < 1:
        raise ValueError("utility profile is not feasible for this problem")
    grid = DEFAULT_EPSILON_TOL.denominator
    return Fraction(math.ceil(grid / t), grid)
