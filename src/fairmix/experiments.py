"""Impartial-culture simulation of utilitarian welfare ratios.

Profiles are drawn with every agent's like-set independent and uniform over
the nonempty subsets of outcomes (an all-zero row is outside the preference
domain, so it is never drawn in the first place).  For each drawn problem we
record the ratio of the rule's total utility to the best achievable total
utility, which is always attained at a most-supported pure outcome because
total utility is linear in the mixture.

Everything is seeded and deterministic: each draw derives its own sub-seed
from (seed, n, m, draw index), so results do not depend on evaluation order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import rules
from .core import MAX_TYPED_AGENTS, Problem, format_rational

__all__ = [
    "ExperimentGrid",
    "RatioCell",
    "impartial_culture",
    "welfare_ratio",
    "run_grid",
    "grid_to_csv",
]


@dataclass(frozen=True)
class ExperimentGrid:
    agent_counts: tuple
    outcome_counts: tuple
    draws: int
    seed: int
    rules: tuple  # of RuleId

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if not self.agent_counts or not self.outcome_counts:
            raise ValueError("grid must have at least one cell")
        if min(self.agent_counts) < 1 or min(self.outcome_counts) < 1:
            raise ValueError("need every n >= 1 and m >= 1")
        # caps the agents a cell draws, all of which the rules' memo may keep
        if max(self.agent_counts) * self.draws > MAX_TYPED_AGENTS:
            raise ValueError(f"a cell's n * draws exceeds {MAX_TYPED_AGENTS} agents")


@dataclass(frozen=True)
class RatioCell:
    min_ratio: Fraction
    avg_ratio: Fraction

    def __post_init__(self) -> None:
        if not (0 < self.min_ratio <= self.avg_ratio <= 1):
            raise ValueError("need 0 < min_ratio <= avg_ratio <= 1")


def _subseed(seed: int, n: int, m: int, draw: int) -> int:
    # Mix the coordinates into a 64-bit stream id; plain integer arithmetic,
    # so identical across platforms and schedules.
    x = (seed & (2**64 - 1)) or 1
    for v in (n, m, draw):
        x = (x * 6364136223846793005 + v + 1442695040888963407) % 2**64
    return x


def impartial_culture(n: int, m: int, seed: int) -> Problem:
    """One profile draw: like-sets uniform over the 2^m - 1 nonempty subsets."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    rng = random.Random(seed)
    return Problem(m, tuple((1, rng.randrange(1, 1 << m)) for _ in range(n)))


def welfare_ratio(P: Problem, rule: rules.RuleId) -> Fraction:
    """Total utility under the rule over the maximum total utility."""
    U, _ = rules.evaluate(rule, P)
    best = max(P.column_sum(a) for a in range(P.m))
    return U.total() / best


def run_grid(g: ExperimentGrid):
    """Evaluate every (rule, n, m) cell; returns a list of result rows.

    A cell is one pass over its draws: each problem is drawn once and scored
    by every rule, which keep a running minimum and sum of their ratios.
    """
    results = []
    for n in g.agent_counts:
        for m in g.outcome_counts:
            low = [Fraction(1)] * len(g.rules)  # no ratio exceeds 1
            total = [Fraction(0)] * len(g.rules)
            for k in range(g.draws):
                P = impartial_culture(n, m, _subseed(g.seed, n, m, k))
                for j, rule in enumerate(g.rules):
                    ratio = welfare_ratio(P, rule)
                    low[j] = min(low[j], ratio)
                    total[j] += ratio
            for rule, lo, tot in zip(g.rules, low, total):
                cell = RatioCell(min_ratio=lo, avg_ratio=tot / g.draws)
                results.append((rule, n, m, g.draws, g.seed, cell))
    return results


def grid_to_csv(results) -> str:
    """CSV with both the exact rational and a 6-decimal float per ratio."""
    lines = [
        "# impartial culture: like-sets drawn uniformly over nonempty subsets"
        " (all-zero rows are outside the domain and never drawn)",
        "rule,n,m,draws,seed,min_ratio,avg_ratio",
    ]
    for rule, n, m, draws, seed, cell in results:
        mn = f"{format_rational(cell.min_ratio)}={float(cell.min_ratio):.6f}"
        av = f"{format_rational(cell.avg_ratio)}={float(cell.avg_ratio):.6f}"
        lines.append(f"{rule},{n},{m},{draws},{seed},{mn},{av}")
    return "\n".join(lines) + "\n"
