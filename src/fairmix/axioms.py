"""Executable checkers for fairness, incentive, participation, and
decentralization properties.

Every checker returns an :class:`~fairmix.core.AxiomVerdict`.  A failing
verdict carries a machine-checkable witness: the coalition, the misreport,
or the improving mixture, with both sides of the violated inequality as
exact rationals.  Numeric rules (NMP, h-rules) have a tie guard
(``tie_guard``).  ``judge`` weighs each share axiom's misses (``SHARE_AXIOMS``)
against it, SP and participation report near-ties within it as inconclusive
(``passed is None``), and DEC passes a deviation within it.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from . import core, rules
from .core import AxiomVerdict, Mixture, Problem, UtilityProfile, format_rational
from .core import mask_outcomes, mask_row, require_profile_size, surplus_lp, utilities

__all__ = [
    "SpVariant",
    "polarized_partition",
    "judge",
    "SHARE_AXIOMS",
    "check_ifs",
    "check_ufs",
    "check_gfs",
    "check_afs",
    "check_cfs",
    "check_sp",
    "check_participation",
    "check_dec",
    "format_verdict",
    "COALITION_MAX_TYPES",
    "SP_MAX_OUTCOMES",
    "SP_MAX_TYPES_EXACT",
    "tie_guard",
]

COALITION_MAX_TYPES = 16
SP_MAX_OUTCOMES = 6
SP_MAX_TYPES_EXACT = 8

_ZERO = Fraction(0)


def tie_guard(rule: rules.RuleId) -> Fraction:
    """Ten times the residual the rule's solver stops at (numeric rules), or
    0 (exact rules)."""
    return 10 * rules.DEFAULT_NMP_TOL if rules.is_numeric(rule) else _ZERO


class SpVariant(enum.Enum):
    """Strategyproofness flavors.

    SP: any misreport, payoff judged by the true like-set.
    SP_PLUS: misreports that inflate the like-set.
    SP_MINUS: misreports that shrink it, consumption limited to the report.
    SP_STAR: shrinking misreports judged by the true like-set.
    EXSP: any misreport, consumption capped at the coordinate-wise minimum of
    the true and reported like-sets (excludable public outcomes).
    """

    SP = "sp"
    SP_PLUS = "sp+"
    SP_MINUS = "sp-"
    SP_STAR = "sp*"
    EXSP = "exsp"


def polarized_partition(P: Problem) -> tuple:
    """Connected components of the agent-outcome incidence graph, as
    (agents, outcomes) blocks of sorted indices.

    Clone classes whose like-sets meet are merged into one block.  Blocks are
    ordered by their smallest outcome index.  Outcomes liked by nobody get
    attached to the last block (they belong to no agent's component and carry
    no weight under any of the rules checked here).
    """
    blocks = []  # (outcome mask, agents) with pairwise disjoint masks
    for mask, agents in P.clone_classes:
        met = [b for b in blocks if b[0] & mask]
        blocks = [b for b in blocks if not b[0] & mask]
        for other, more in met:
            mask, agents = mask | other, agents + more
        blocks.append((mask, agents))
    blocks.sort(key=lambda b: b[0] & -b[0])
    # the last block also takes the outcomes nobody likes: all outcomes but
    # those of the other blocks, whose masks are disjoint
    blocks[-1] = ((1 << P.m) - 1 - sum(b[0] for b in blocks[:-1]), blocks[-1][1])
    return tuple(
        (tuple(sorted(agents)), mask_outcomes(mask)) for mask, agents in blocks
    )


# ---------------------------------------------------------------------------
# share axioms: each is a generator of (miss, witness) pairs, in checking
# order and every miss > 0, and ``judge`` alone turns one into a verdict


def judge(violations, guard: Fraction = _ZERO) -> AxiomVerdict:
    """The first miss above ``guard`` fails; otherwise the first miss at all
    is inconclusive (a numeric rule's rounding), and no miss passes.  Both
    verdicts carry that miss's witness; ``guard`` 0 is the exact verdict."""
    first = None
    for miss, witness in violations:
        if miss > guard:
            return AxiomVerdict(passed=False, witness=witness)
        if first is None:
            first = witness
    if first is None:
        return AxiomVerdict(passed=True)
    return AxiomVerdict(passed=None, witness=first)


def _eff_misses(P: Problem, U: UtilityProfile, z: Mixture):
    verdict = core.is_efficient(P, U, source=z)
    if verdict.passed is False:
        yield verdict.witness["surplus"], verdict.witness


def _ifs_misses(P: Problem, U: UtilityProfile, z=None):
    require_profile_size(P, U)
    share = Fraction(1, P.n)
    for i in range(P.n):
        if U[i] < share:
            yield share - U[i], {"agent": i, "utility": U[i], "required": share}


def check_ifs(P: Problem, U: UtilityProfile) -> AxiomVerdict:
    """Individual fair share: every agent gets at least 1/n."""
    return judge(_ifs_misses(P, U))


def _ufs_misses(P: Problem, U: UtilityProfile, z=None):
    require_profile_size(P, U)
    for _, members in P.clone_classes:
        share = Fraction(len(members), P.n)
        for i in members:
            if U[i] < share:
                yield share - U[i], {
                    "agent": i,
                    "clone_class": members,
                    "utility": U[i],
                    "required": share,
                }


def check_ufs(P: Problem, U: UtilityProfile) -> AxiomVerdict:
    """Unanimity fair share: s identical agents each get at least s/n."""
    return judge(_ufs_misses(P, U))


def _clone_closed_coalitions(P: Problem) -> list:
    """The 2^k - 1 coalitions that hold every clone of their members.

    Each is a (size, clone classes) pair, where k is the number of classes;
    they come ordered by size, then lexicographically by their sorted agents.
    Classes are numbered in order of first appearance, so among coalitions of
    one size that order is the order of their sorted class numbers.
    """
    classes = P.clone_classes
    k = len(classes)
    if k > COALITION_MAX_TYPES:
        raise ValueError(
            f"coalition checks are capped at {COALITION_MAX_TYPES} agent types"
        )
    picks = []
    for T in range(1, 1 << k):
        pick = tuple(t for t in range(k) if T >> t & 1)
        picks.append((sum(len(classes[t][1]) for t in pick), pick))
    picks.sort()
    return [(size, tuple(classes[t] for t in pick)) for size, pick in picks]


def _members(coalition: tuple) -> tuple:
    return tuple(sorted(i for _, agents in coalition for i in agents))


def _gfs_misses(P: Problem, U: UtilityProfile, z: Mixture):
    coalitions = _clone_closed_coalitions(P)
    if utilities(P, z) != U:
        raise ValueError("mixture does not realize the supplied utilities")
    for size, coalition in coalitions:
        pooled = 0
        for mask, _ in coalition:
            pooled |= mask
        weight = z.weight_on(pooled)
        share = Fraction(size, P.n)
        if weight < share:
            yield share - weight, {
                "coalition": _members(coalition),
                "pooled_weight": weight,
                "required": share,
            }


def check_gfs(P: Problem, U: UtilityProfile, z: Mixture) -> AxiomVerdict:
    """Group fair share: the pooled like-set of S carries weight >= |S|/n.

    Adding a member's clones to S keeps its pooled like-set and raises |S|,
    so S violates GFS only if its clone closure does: the clone-closed
    coalitions, 2^k - 1 for k agent types, decide the verdict.
    """
    return judge(_gfs_misses(P, U, z))


def _afs_misses(P: Problem, U: UtilityProfile, z=None):
    require_profile_size(P, U)
    for a in range(P.m):
        liking = [i for i, x in enumerate(P.masks) if x >> a & 1]
        liking.sort(key=U.__getitem__)
        total = _ZERO
        for s, i in enumerate(liking, 1):
            total += U[i]
            required = Fraction(s * s, P.n)
            if total < required:
                yield required - total, {
                    "coalition": tuple(sorted(liking[:s])),
                    "total_utility": total,
                    "required_total": required,
                }


def check_afs(P: Problem, U: UtilityProfile) -> AxiomVerdict:
    """Average fair share for coalitions with a commonly liked outcome.

    Such a coalition lies inside N_a, the agents who like some outcome a, and
    of the s-agent coalitions inside N_a the s smallest utilities have the
    least total.  So AFS holds iff, for every a and s, those s utilities sum
    to at least s^2/n: one sort per outcome, with no cap.  A failure reports
    the first such s-agent coalition, by outcome, then s.
    """
    return judge(_afs_misses(P, U))


def _cfs_misses(P: Problem, U: UtilityProfile, z=None):
    require_profile_size(P, U)
    coalitions = _clone_closed_coalitions(P)
    if any(U[i] != U[agents[0]] for _, agents in P.clone_classes for i in agents):
        raise ValueError("clones must have equal utilities")
    for size, coalition in coalitions:
        share = Fraction(size, P.n)
        floors = [(len(agents), mask, U[agents[0]]) for mask, agents in coalition]
        support = [sum(c for c, mask, _ in floors if mask >> a & 1) for a in range(P.m)]
        base = sum((c * floor for c, _, floor in floors), _ZERO)
        # cheap upper bound on the LP optimum: the objective is linear in z',
        # so it is maximized at a pure outcome; no block is possible unless
        # some outcome beats the coalition's current total
        if share * max(support) <= base:
            continue
        out = surplus_lp(P.m, floors, share)
        if out.status != "optimal":
            continue  # coalition cannot even match U: no block from S
        if out.value > base:
            yield out.value - base, {
                "coalition": _members(coalition),
                "blocking_mixture": Mixture(out.solution),
                "surplus": out.value - base,
            }


def check_cfs(P: Problem, U: UtilityProfile) -> AxiomVerdict:
    """Core fair share: no coalition can block with its proportional share.

    Coalition S blocks if a mixture z' gives every member i at least
    U_i / (|S|/n), one strictly more - equivalently the per-coalition LP
    below has a positive optimum.  Clones get equal utility from every
    mixture, and ``U`` must give them equal utility too (else ``ValueError``).
    Then adding a blocker's clones to S keeps every floor met at the same z'
    and does not lower the surplus, so only the clone-closed coalitions are
    checked, each by an LP with one row per clone class.  With all like-sets
    distinct these are all coalitions, by size and then lexicographically.
    """
    return judge(_cfs_misses(P, U))


# The share axioms by name, each a generator of misses on (P, U, z).
SHARE_AXIOMS = {
    "eff": _eff_misses, "ifs": _ifs_misses, "ufs": _ufs_misses,
    "gfs": _gfs_misses, "afs": _afs_misses, "cfs": _cfs_misses,
}


# ---------------------------------------------------------------------------
# strategyproofness


# (admits(truth, report), consumed(truth, report)) per variant, on like-masks
_SP_VARIANTS = {
    SpVariant.SP: (lambda t, r: True, lambda t, r: t),
    SpVariant.SP_PLUS: (lambda t, r: r & t == t, lambda t, r: t),
    SpVariant.SP_MINUS: (lambda t, r: r | t == t, lambda t, r: r),
    SpVariant.SP_STAR: (lambda t, r: r | t == t, lambda t, r: t),
    SpVariant.EXSP: (lambda t, r: True, lambda t, r: t & r),
}


def check_sp(rule: rules.RuleId, P: Problem, variant: SpVariant) -> AxiomVerdict:
    """Exhaustive misreport search for one strategyproofness variant.

    Iterates every agent (identical agents once) and every admissible
    misreported like-set, re-runs the rule, and compares the deviation payoff
    with the truthful utility.  Exact rules use exact comparisons; numeric
    rules count a deviation only beyond the tie guard and report near-ties
    as inconclusive.
    """
    if P.m > SP_MAX_OUTCOMES:
        raise ValueError(f"check_sp is capped at m <= {SP_MAX_OUTCOMES}")
    classes = P.clone_classes
    if not rules.is_numeric(rule) and len(classes) > SP_MAX_TYPES_EXACT:
        raise ValueError(
            f"check_sp for exact rules is capped at {SP_MAX_TYPES_EXACT} agent types"
        )
    admits, consumed = _SP_VARIANTS[variant]
    guard = tie_guard(rule)
    truthful_U, _ = rules.evaluate(rule, P)
    near_tie = None
    for truth, (i, *_) in classes:
        for report in range(1, 1 << P.m):
            if report == truth or not admits(truth, report):
                continue
            _, zprime = rules.evaluate(rule, P.replace_row(i, mask_row(report, P.m)))
            payoff = zprime.weight_on(consumed(truth, report))
            gain = payoff - truthful_U[i]
            if gain > guard:
                return AxiomVerdict(
                    passed=False,
                    witness={
                        "agent": i,
                        "misreport": mask_outcomes(report),
                        "truthful_utility": truthful_U[i],
                        "deviation_payoff": payoff,
                        "gain": gain,
                    },
                )
            if guard > 0 and gain > 0:
                near_tie = {
                    "agent": i,
                    "misreport": mask_outcomes(report),
                    "gain": gain,
                }
    if near_tie is not None:
        return AxiomVerdict(passed=None, witness=near_tie)
    return AxiomVerdict(passed=True)


# ---------------------------------------------------------------------------
# participation


def check_participation(
    rule: rules.RuleId, P: Problem, strict: bool = False
) -> AxiomVerdict:
    """Casting one's ballot never hurts (strictly helps unless already at 1).

    An agent's utility without her own ballot is her utility, under her true
    like-set, at the rule's representative mixture on the problem with her
    row removed; the agents of one run all drop to the same problem, so a run
    is judged once (a failure names its first agent, a near-tie its last).
    """
    if P.n < 2:
        raise ValueError("participation needs at least two agents")
    guard = tie_guard(rule)
    U, _ = rules.evaluate(rule, P)
    near_tie = None
    end = 0
    for count, mask in P.entries:
        i, end = end, end + count
        _, z_without = rules.evaluate(rule, P.drop_agent(i))
        absent = z_without.weight_on(mask)
        witness = {"agent": i, "with_ballot": U[i], "without_ballot": absent}
        if U[i] < absent - guard:
            return AxiomVerdict(passed=False, witness=witness)
        if strict and absent < 1 - guard and U[i] <= absent + guard:
            if U[i] <= absent - guard:
                return AxiomVerdict(passed=False, witness=witness)
            near_tie = dict(witness, agent=end - 1)
    if near_tie is not None:
        return AxiomVerdict(passed=None, witness=near_tie)
    return AxiomVerdict(passed=True)


# ---------------------------------------------------------------------------
# decentralization


def check_dec(rule: rules.RuleId, P: Problem) -> AxiomVerdict:
    """Blockwise proportionality on polarized problems.

    Requires the agent-outcome graph to split into at least two components;
    each agent's utility must equal |N^k|/n times her utility under the rule
    on her own block, exactly for exact rules, within the guard for numeric
    ones.
    """
    blocks = polarized_partition(P)
    if len(blocks) < 2:
        raise ValueError("no polarized structure: the problem is connected")
    guard = tie_guard(rule)
    U, _ = rules.evaluate(rule, P)
    u = P.u
    for k, (agents, outcomes) in enumerate(blocks):
        sub = Problem.from_rows(tuple(tuple(u[i][a] for a in outcomes) for i in agents))
        subU, _ = rules.evaluate(rule, sub)
        scale = Fraction(len(agents), P.n)
        for local, i in enumerate(agents):
            expected = scale * subU[local]
            if abs(U[i] - expected) > guard:
                witness = {"agent": i, "block": k, "utility": U[i], "expected": expected}
                return AxiomVerdict(passed=False, witness=witness)
    return AxiomVerdict(passed=True)


# ---------------------------------------------------------------------------
# reporting


def format_verdict(axiom: str, rule: str, verdict: AxiomVerdict) -> str:
    """Line-oriented report: ``AXIOM rule=<id> result=<...> witness=<...>``."""
    result = {True: "pass", False: "fail", None: "inconclusive"}[verdict.passed]
    parts = [axiom.upper(), f"rule={rule}", f"result={result}"]
    if verdict.witness is not None:
        items = ",".join(
            f"{k}={_format_witness_value(v)}" for k, v in sorted(verdict.witness.items())
        )
        parts.append(f"witness=[{items}]")
    return " ".join(parts)


def _format_witness_value(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, Mixture):
        return "(" + " ".join(format_rational(x) for x in v.z) + ")"
    if isinstance(v, UtilityProfile):
        return "(" + " ".join(format_rational(x) for x in v.U) + ")"
    if isinstance(v, tuple):
        return "(" + " ".join(str(x) for x in v) + ")"
    return str(v)
