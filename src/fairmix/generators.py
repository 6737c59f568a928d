"""Named fixtures, worst-case instance families, and the large counterexample
constructions.

The fixtures are the small worked examples used throughout the test suite
and addressable from the CLI by name.  The parametric families exhibit the
worst-case inefficiency of the conditional-utilitarian and random-priority
rules; the appendix-style constructions are large profiles whose Nash
optima are known rational mixtures, certified exactly by a zero KKT
residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .core import Mixture, Problem

__all__ = [
    "fixture",
    "fixture_names",
    "CutWorstCaseParams",
    "RpWorstCaseParams",
    "cut_worstcase",
    "rp_worstcase",
    "cut_bound",
    "rp_family_ratio",
    "appendix_36",
    "appendix_860",
    "appendix_sp0",
    "APPENDIX_FAMILIES",
    "WORST_CASE_FAMILIES",
    "APPENDIX_860_Z",
    "APPENDIX_860_Z_MISREPORT",
    "SP0_Z_REPORTED",
    "SP0_Z_TRUTHFUL",
    "RP_WORSTCASE_MAX_OUTCOMES",
    "CUT_WORSTCASE_MAX_CELLS",
]

RP_WORSTCASE_MAX_OUTCOMES = 2 * 10**5
CUT_WORSTCASE_MAX_CELLS = 4 * 10**6  # the N = 1000 instance has about 2.0M


# ---------------------------------------------------------------------------
# fixtures

_FIXTURES = {
    # five agents, five outcomes; the last outcome is dominated by the fourth;
    # the standard example separating the rules
    "ex3": (
        (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 0),
        (1, 1, 0, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 1, 0, 1, 1),
    ),
    # six agents, five outcomes; CUT picks (0,0,0,1/2,1/2), RP is dominated
    "ex5": (
        (1, 0, 0, 1, 0),
        (1, 0, 0, 0, 1),
        (0, 1, 0, 1, 0),
        (0, 1, 0, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 0, 1),
    ),
    # simplest profile where EGAL is manipulable by a shrinking misreport
    "egal-true": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    # egal-true after agent 1 drops outcome b from her report
    "egal-misreport": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    # average fair share pins the mixture (2/5,0,0,3/5), the Nash max
    # product outcome
    "afs-example": (
        (1, 0, 0, 0),
        (1, 1, 1, 0),
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 0, 1),
    ),
    # (7/20,7/20,3/10) passes AFS but coalition {1,2,3} blocks it via
    # (1/2,1/2,0)
    "cfs-example": ((1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)),
    # polarized: blocks {1}|{a} and {2,3}|{b,c}
    "dec-m": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    # polarized; UTIL picks (0,1,0) and EGAL (1/2,1/2,0), both violating
    # blockwise proportionality
    "dec-mprime": ((1, 0, 0), (0, 1, 0), (0, 1, 1)),
}


def fixture(name: str) -> Problem:
    """Look up a named fixture problem."""
    if name not in fixture_names():
        raise ValueError(f"unknown fixture {name!r}")
    if name in _FIXTURES:
        return Problem.from_rows(_FIXTURES[name])
    family = name.removesuffix("-misreport")
    return APPENDIX_FAMILIES[family](name != family)


def fixture_names() -> tuple:
    """The worked examples, then each appendix family truthful and misreported,
    except sp0: checks run per agent over every fixture, and sp0 has
    1,227,856 agents."""
    typed = [family for family in APPENDIX_FAMILIES if family != "sp0"]
    return tuple(_FIXTURES) + tuple(f + s for f in typed for s in ("", "-misreport"))


# ---------------------------------------------------------------------------
# worst-case families


@dataclass(frozen=True)
class CutWorstCaseParams:
    """Parameters of the cyclic family exhibiting CUT's inefficiency.

    Requires p < n1, p < n2, and n1 | (p-1)*n2; q = (p-1)*n2/n1 is the
    window width of the first agent group.
    """

    n1: int
    n2: int
    p: int

    def __post_init__(self) -> None:
        if min(self.n1, self.n2, self.p) < 1:
            raise ValueError("parameters must be positive")
        if (self.n1 + self.n2) * (2 * self.n2 + 1) > CUT_WORSTCASE_MAX_CELLS:
            raise ValueError(f"instance would exceed {CUT_WORSTCASE_MAX_CELLS} cells")
        if not (self.p < self.n1 and self.p < self.n2):
            raise ValueError("requires p < n1 and p < n2")
        if ((self.p - 1) * self.n2) % self.n1 != 0:
            raise ValueError("requires n1 to divide (p-1)*n2")

    @property
    def q(self) -> int:
        return (self.p - 1) * self.n2 // self.n1


@dataclass(frozen=True)
class RpWorstCaseParams:
    """Parameters of the family exhibiting RP's inefficiency: n = k*d agents
    in d blocks of k, plus one outcome per ell-subset of agents."""

    k: int
    d: int
    ell: int

    def __post_init__(self) -> None:
        if min(self.k, self.d, self.ell) < 1:
            raise ValueError("parameters must be positive")
        if not (2 <= self.ell < self.k):
            raise ValueError("requires 2 <= ell < k")

    @property
    def n(self) -> int:
        return self.k * self.d


def cut_worstcase(params: CutWorstCaseParams) -> Problem:
    """The cyclic two-group family.

    Outcomes are ``a``, the ring ``B`` of size n2, and the ring ``C`` of size
    n2.  Group-one agent i likes ``a`` plus the q consecutive B-outcomes
    starting at i*q (mod n2); the windows tile the ring exactly p-1 times, so
    every B-outcome is liked by p-1 group-one agents.  Group-two agent j
    likes ``b_j`` plus the p-1 consecutive C-outcomes starting at j.  Column
    supports: n1 for ``a``, p for each B-outcome, p-1 for each C-outcome.
    """
    n1, n2, p, q = params.n1, params.n2, params.p, params.q
    ring = (1 << n2) - 1

    def window(start: int, width: int) -> int:
        # the ``width`` ring outcomes from ``start`` on, mod n2; one wrap is
        # enough, as p < n1 and p < n2 give q < n2 and p - 1 < n2
        bits = ((1 << width) - 1) << start
        return (bits | bits >> n2) & ring

    entries = [(1, 1 | window(i * q % n2, q) << 1) for i in range(n1)]
    entries += [(1, 1 << 1 + j | window(j, p - 1) << 1 + n2) for j in range(n2)]
    return Problem(2 * n2 + 1, tuple(entries))


def rp_worstcase(params: RpWorstCaseParams) -> Problem:
    """d block outcomes, each liked by one block of k agents, plus one
    outcome for every ell-subset of agents."""
    k, d, ell, n = params.k, params.d, params.ell, params.n
    m = d + comb(n, ell)
    if m > RP_WORSTCASE_MAX_OUTCOMES:
        raise ValueError(
            f"instance would have {m} outcomes, above the cap "
            f"{RP_WORSTCASE_MAX_OUTCOMES}"
        )
    masks = [1 << i // k for i in range(n)]
    for c, S in enumerate(combinations(range(n), ell)):
        for i in S:
            masks[i] |= 1 << d + c
    return Problem(m, tuple((1, mask) for mask in masks))


# the worst-case families by name, each as (parameter class, builder)
WORST_CASE_FAMILIES = {
    "cut-worstcase": (CutWorstCaseParams, cut_worstcase),
    "rp-worstcase": (RpWorstCaseParams, rp_worstcase),
}


def _cbrt_rational(n: int, up: bool, digits: int = 9) -> Fraction:
    """n**(1/3) rounded down, or up when ``up``, to the grid 10**-digits."""
    scale = 10**digits
    target = n * scale**3
    lo, hi = 0, max(2, n)* scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**3 <= target:
            lo = mid
        else:
            hi = mid - 1
    if up and lo**3 < target:
        lo += 1
    return Fraction(lo, scale)


def cut_bound(n: int) -> Fraction:
    """Guaranteed efficiency of CUT: 1/n + (1 - 1/n^(1/3)) * 3/n^(1/3).

    The cube root is rounded to 10**-9 on the side that keeps the bound a
    guarantee: down for n <= 8, up for n > 8, where the bound falls as the
    root grows.
    """
    if n < 5:
        raise ValueError("cut_bound requires n >= 5")
    c = _cbrt_rational(n, up=n > 8)
    return Fraction(1, n) + (1 - 1 / c) * (3 / c)


def rp_family_ratio(params: RpWorstCaseParams) -> Fraction:
    """Realized welfare ratio of RP on the family, in closed form:
    (1 - ell/k) * ((k-1)...(k-ell+1)) / ((n-1)...(n-ell+1)) + ell/k."""
    k, ell, n = params.k, params.ell, params.n
    num = 1
    den = 1
    for j in range(1, ell):
        num *= k - j
        den *= n - j
    return (1 - Fraction(ell, k)) * Fraction(num, den) + Fraction(ell, k)


# ---------------------------------------------------------------------------
# appendix constructions

# 36 agents, outcomes (a, b, c, d) as like-mask bits 0..3
_A36_TRUTHFUL = (
    (4, 0b0001),  # a
    (4, 0b1110),  # b c d
    (1, 0b0100),  # c
    (1, 0b1000),  # d
    (2, 0b0111),  # a b c
    (2, 0b1011),  # a b d
    (7, 0b0101),  # a c
    (7, 0b1001),  # a d
    (4, 0b0110),  # b c
    (4, 0b1010),  # b d
)


def appendix_36(misreport: bool = False) -> Problem:
    """The 36-agent, 4-outcome profile on which the Nash rule rewards a
    type-{a} agent for additionally reporting b."""
    if not misreport:
        return Problem(m=4, entries=_A36_TRUTHFUL)
    entries = ((3, 0b0001), (1, 0b0011)) + _A36_TRUTHFUL[1:]
    return Problem(m=4, entries=entries)


#: Nash optimum of the truthful 860-agent profile (exact, certified).
APPENDIX_860_Z = Mixture(
    (Fraction(9, 20), Fraction(1, 20), Fraction(1, 4), Fraction(1, 4))
)
#: Nash optimum after 44 type-{a} agents report {a,b} instead.
APPENDIX_860_Z_MISREPORT = Mixture(
    (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
)


def appendix_860(misreport: bool = False) -> Problem:
    """860 agents over outcomes (a, b, c1, c2).

    The truthful profile's Nash optimum is exactly (9/20, 1/20, 1/4, 1/4);
    after K = 44 of the 45 type-{a} agents report {a, b} it moves to
    (1/2, 1/6, 1/6, 1/6), so each of them gains weight on a - an inflation
    manipulation certified by exact rational stationarity at both mixtures.
    """
    common = (
        (55, 0b1110),  # b c1 c2
        (5, 0b0100),  # c1
        (5, 0b1000),  # c2
        (15, 0b0111),  # a b c1
        (15, 0b1011),  # a b c2
        (252, 0b0101),  # a c1
        (252, 0b1001),  # a c2
        (108, 0b0110),  # b c1
        (108, 0b1010),  # b c2
    )
    if misreport:
        entries = ((1, 0b0001), (44, 0b0011)) + common
    else:
        entries = ((45, 0b0001),) + common
    return Problem(m=4, entries=entries)


#: Nash optimum when the K switching agents report {a, a', a''}.
SP0_Z_REPORTED = Mixture(
    (
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 32),
        Fraction(15, 32),
    )
)
#: Nash optimum at the true profile, where they like {a, a', a'', b}.
SP0_Z_TRUTHFUL = Mixture(
    (
        Fraction(1, 16),
        Fraction(1, 16),
        Fraction(1, 16),
        Fraction(1, 4),
        Fraction(9, 16),
    )
)

_SP0_K = 13832  # = 8 * 19 * 91


def appendix_sp0():
    """The dropped-outcome manipulation pair over (a, a', a'', b, c).

    Returns ``(truthful, misreported)``: K = 13832 agents who truly like
    {a, a', a'', b} report {a, a', a''} instead and end up with more weight
    on the a-outcomes even though they can no longer consume b.  Both target
    mixtures are stationary with exact residual zero.

    Type sizes follow from the proportionality system of the construction
    with gamma = 48/13 and delta = 360/13: n_aaab = 27132, n_c = 23940,
    n_aab = 139650 and n_ac = 243390 (each three times, symmetric in the
    a-outcomes), next to K agents of the switching type and K of type {b,c}.
    """
    switching_true = (_SP0_K, 0b01111)  # a a' a'' b
    switching_reported = (_SP0_K, 0b00111)  # a a' a''
    rest = (
        (_SP0_K, 0b11000),  # b c
        (27132, 0b01111),  # a a' a'' b
        (23940, 0b10000),  # c
        (139650, 0b01110),  # a' a'' b
        (139650, 0b01101),  # a a'' b
        (139650, 0b01011),  # a a' b
        (243390, 0b10001),  # a c
        (243390, 0b10010),  # a' c
        (243390, 0b10100),  # a'' c
    )
    truthful = Problem(m=5, entries=(switching_true,) + rest)
    misreported = Problem(m=5, entries=(switching_reported,) + rest)
    return truthful, misreported


# the appendix constructions by family name, each built from ``misreport``
APPENDIX_FAMILIES = {
    "appendix36": appendix_36,
    "appendix860": appendix_860,
    "sp0": lambda misreport: appendix_sp0()[misreport],
}
