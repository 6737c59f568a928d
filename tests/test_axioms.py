"""Tests for the axiom checkers."""

import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from fairmix import axioms, core, generators, lp, rules
from fairmix.axioms import (
    SpVariant,
    check_afs,
    check_cfs,
    check_dec,
    check_gfs,
    check_ifs,
    check_participation,
    check_sp,
    check_ufs,
    format_verdict,
    polarized_partition,
)
from fairmix.core import Mixture, Problem, UtilityProfile, utilities
from random_profiles import random_problem
from test_rules import _nested_profiles

F = Fraction

EX3 = generators.fixture("ex3")


# ---------------------------------------------------------------- IFS


def test_ifs_egal_always_passes():
    rng = random.Random(101)
    for _ in range(50):
        P = random_problem(rng, max_n=6, max_m=5)
        U, _ = rules.egal_rule(P)
        assert check_ifs(P, U).passed is True


def test_ifs_util_fails_on_ex3():
    U, _ = rules.util_rule(EX3)
    verdict = check_ifs(EX3, U)
    assert verdict.passed is False
    assert verdict.witness["agent"] in (2, 3)  # both get 0 under mass on d
    assert verdict.witness["utility"] == 0


def test_ifs_single_agent():
    P = Problem.from_rows(((1, 0),))
    assert check_ifs(P, UtilityProfile((F(1),))).passed is True
    assert check_ifs(P, UtilityProfile((F(1, 2),))).passed is False


# ---------------------------------------------------------------- UFS


def test_ufs_cut_always_passes():
    rng = random.Random(103)
    for _ in range(50):
        P = random_problem(rng, max_n=6, max_m=5)
        U, _ = rules.cut_rule(P)
        assert check_ufs(P, U).passed is True


def test_ufs_egal_fails_with_clones():
    # two clones liking {a} against one agent liking {b}: leximin splits
    # half-half, clones get 1/2 < 2/3
    P = Problem.from_rows(((1, 0), (1, 0), (0, 1)))
    U, _ = rules.egal_rule(P)
    assert U.U == (F(1, 2), F(1, 2), F(1, 2))
    verdict = check_ufs(P, U)
    assert verdict.passed is False
    assert verdict.witness["required"] == F(2, 3)


def test_ufs_all_identical():
    P = Problem.from_rows(((1, 0), (1, 0)))
    assert check_ufs(P, UtilityProfile((F(1), F(1)))).passed is True
    assert check_ufs(P, UtilityProfile((F(1), F(9, 10)))).passed is False


# ---------------------------------------------------------------- GFS


def test_gfs_rp_passes_small_random():
    rng = random.Random(107)
    for _ in range(25):
        P = random_problem(rng, max_n=6, max_m=4)
        U, z = rules.rp_exact(P)
        assert check_gfs(P, U, z).passed is True


def test_gfs_cut_passes_small_random():
    rng = random.Random(109)
    for _ in range(25):
        P = random_problem(rng, max_n=6, max_m=4)
        U, z = rules.cut_rule(P)
        assert check_gfs(P, U, z).passed is True


def test_gfs_util_fails_on_ex3():
    U, z = rules.util_rule(EX3)
    verdict = check_gfs(EX3, U, z)
    assert verdict.passed is False


# 17 distinct like-sets over 5 outcomes: one agent type more than the cap
SEVENTEEN_TYPES = Problem(5, tuple((1, k) for k in range(1, 18)))


def test_gfs_size_refusal():
    P = SEVENTEEN_TYPES
    z = Mixture((F(1, 5),) * 5)
    with pytest.raises(ValueError, match="16 agent types"):
        check_gfs(P, utilities(P, z), z)


# ---------------------------------------------------------------- AFS


def test_afs_nmp_target_on_afs_example():
    P = generators.fixture("afs-example")
    z = Mixture((F(2, 5), F(0), F(0), F(3, 5)))
    assert check_afs(P, utilities(P, z)).passed is True


def test_afs_passes_on_cfs_example_profile():
    P = generators.fixture("cfs-example")
    U = UtilityProfile((F(7, 20), F(7, 10), F(7, 20), F(3, 10)))
    assert check_afs(P, U).passed is True


def test_afs_reduces_to_ifs_when_no_common_outcomes():
    # disjoint singleton like-sets: only singleton coalitions share an
    # outcome, so AFS == IFS
    P = Problem.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    good = UtilityProfile((F(1, 3), F(1, 3), F(1, 3)))
    bad = UtilityProfile((F(1, 4), F(1, 4), F(1, 2)))
    assert check_afs(P, good).passed is True
    assert check_afs(P, bad).passed is check_ifs(P, bad).passed is False


# ---------------------------------------------------------------- CFS


def test_cfs_fails_on_cfs_example():
    P = generators.fixture("cfs-example")
    U = UtilityProfile((F(7, 20), F(7, 10), F(7, 20), F(3, 10)))
    verdict = check_cfs(P, U)
    assert verdict.passed is False
    assert verdict.witness["coalition"] == (0, 1, 2)
    zprime = verdict.witness["blocking_mixture"]
    s = F(3, 4)  # |S|/n
    for i in (0, 1, 2):
        boosted = s * sum(zprime.z[a] for a in range(P.m) if P.u[i][a])
        assert boosted >= U.U[i]


def test_cfs_nmp_passes_random():
    rng = random.Random(113)
    for _ in range(20):
        P = random_problem(rng, max_n=5, max_m=4)
        sol = rules.nmp_rule(P)
        misses = axioms.SHARE_AXIOMS["cfs"](P, utilities(P, sol.z), sol.z)
        # no miss beyond 1e-6; one within it is NMP's rounding (inconclusive)
        assert axioms.judge(misses, F(1, 10**6)).passed is not False


def test_cfs_at_grand_coalition_is_efficiency():
    # a profile failing efficiency also fails CFS (via S = N)
    P = EX3
    z = Mixture((F(0), F(1, 2), F(1, 2), F(0), F(0)))
    U = utilities(P, z)
    assert core.is_efficient(P, U, source=z).passed is False
    assert check_cfs(P, U).passed is False


def test_cfs_size_refusal():
    P = SEVENTEEN_TYPES
    with pytest.raises(ValueError, match="16 agent types"):
        check_cfs(P, utilities(P, Mixture((F(1, 5),) * 5)))


def test_coalition_checkers_accept_many_clones():
    # 40 agents of 2 types: the cap counts agent types, not agents
    P = Problem.from_rows(((1, 0),) * 30 + ((0, 1),) * 10)
    z = Mixture((F(3, 4), F(1, 4)))
    U = utilities(P, z)
    assert check_gfs(P, U, z).passed is True
    assert check_afs(P, U).passed is True
    assert check_cfs(P, U).passed is True
    z = Mixture((F(1, 2), F(1, 2)))
    U = utilities(P, z)
    assert check_gfs(P, U, z).witness["coalition"] == tuple(range(30))
    # 21 agents at 1/2 each fall short of 21^2/40; 30 clones at 1/2 block
    # with the pure mixture on their outcome
    assert check_afs(P, U).witness["coalition"] == tuple(range(21))
    assert check_cfs(P, U).witness["coalition"] == tuple(range(30))


def test_cfs_refuses_unequal_clone_utilities():
    P = Problem.from_rows(((1, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError, match="clones"):
        check_cfs(P, UtilityProfile((F(1, 2), F(1, 3), F(1, 2))))


@pytest.mark.parametrize("size", [1, 3])
def test_share_checkers_refuse_profile_of_wrong_size(size):
    P = Problem.from_rows(((1, 0), (0, 1)))
    U = UtilityProfile((F(1, 2),) * size)
    for check in (check_ifs, check_ufs, check_afs, check_cfs):
        with pytest.raises(ValueError, match="differs from agent count"):
            check(P, U)


# three agents, each liking only its own outcome: agent 0 misses its share
# by 1/1000 and agent 1 by 1/10, in every share axiom's checking order
TWO_MISSES = Problem.from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
TWO_MISSES_Z = Mixture(
    (F(1, 3) - F(1, 1000), F(1, 3) - F(1, 10), F(1, 3) + F(1, 10) + F(1, 1000))
)


@pytest.mark.parametrize("axiom, key, first, later", [
    ("ifs", "agent", 0, 1),
    ("ufs", "agent", 0, 1),
    ("gfs", "coalition", (0,), (1,)),
    ("afs", "coalition", (0,), (1,)),
    ("cfs", "coalition", (0,), (1,)),
])
@pytest.mark.parametrize("guard, passed, named", [
    (F(1, 100), False, "later"),  # looks past a near-tie to the larger miss
    (F(1, 2), None, "first"),  # every miss within the guard
    (F(0), False, "first"),  # the exact verdict
])
def test_judge_share_misses(axiom, key, first, later, guard, passed, named):
    P, z = TWO_MISSES, TWO_MISSES_Z
    U = utilities(P, z)
    verdict = axioms.judge(axioms.SHARE_AXIOMS[axiom](P, U, z), guard)
    assert verdict.passed is passed
    assert verdict.witness[key] == (first if named == "first" else later)
    if guard == 0:
        check = getattr(axioms, f"check_{axiom}")
        assert verdict == (check(P, U, z) if axiom == "gfs" else check(P, U))


def test_judge_eff_and_no_miss():
    z = Mixture((F(0), F(1, 2), F(1, 2), F(0), F(0)))  # not efficient on ex3
    U = utilities(EX3, z)
    surplus = core.is_efficient(EX3, U, source=z).witness["surplus"]
    misses = axioms.SHARE_AXIOMS["eff"]
    assert axioms.judge(misses(EX3, U, z)).passed is False
    assert axioms.judge(misses(EX3, U, z), surplus).passed is None
    assert axioms.judge(iter(())) == core.AxiomVerdict(passed=True)


# ------------------------------------------- coalition oracle (hypothesis)


@st.composite
def _clone_heavy_profiles(draw):
    """Up to 8 agents over up to 4 outcomes, like-sets drawn from the
    pairwise intersections and unions of at most 3 base like-sets, so most
    agents have clones."""
    m = draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=3))
    pool = sorted({op(a, b) for a in base for b in base
                   for op in (int.__and__, int.__or__)} - {0})
    masks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return Problem(m, tuple((1, k) for k in masks))


def _oracle_verdicts(P, U, z):
    """GFS (given ``z``), AFS and CFS (given ``z``) by walking every one of
    the 2^n - 1 agent coalitions; CFS solves one LP per coalition with one
    row per agent."""
    gfs = afs = cfs = True
    for size in range(1, P.n + 1):
        share = F(size, P.n)
        for S in itertools.combinations(range(P.n), size):
            liked = [{a for a in range(P.m) if P.u[i][a]} for i in S]
            base = sum(U[i] for i in S)
            if set.intersection(*liked) and base < F(size * size, P.n):
                afs = False
            if z is None:
                continue
            if sum(z.z[a] for a in set.union(*liked)) < share:
                gfs = False
            rows = [(tuple(share * P.u[i][a] for a in range(P.m)), lp.GE, U[i])
                    for i in S]
            rows.append(((F(1),) * P.m, lp.EQ, F(1)))
            objective = tuple(share * sum(P.u[i][a] for i in S)
                              for a in range(P.m))
            out = lp.solve_lp(lp.LinearProgram(objective, tuple(rows)))
            if out.status == "optimal" and out.value > base:
                cfs = False
    return gfs, afs, cfs


def _clone_closed(P, S):
    return all(j in S for i in S for j in range(P.n) if P.u[j] == P.u[i])


def _assert_afs_matches_oracle(P, U, expected):
    afs = check_afs(P, U)
    assert afs.passed is expected
    if not afs:
        S = afs.witness["coalition"]
        assert any(all(P.u[i][a] for i in S) for a in range(P.m))
        assert afs.witness["required_total"] == F(len(S) ** 2, P.n)
        assert afs.witness["total_utility"] == sum(U[i] for i in S)
        assert afs.witness["total_utility"] < afs.witness["required_total"]


# no shrink phase: every shrink candidate would rerun the 2^n-LP oracle
@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    _clone_heavy_profiles(),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 4), min_size=8, max_size=8),
)
def test_coalition_checkers_match_agent_walk_oracle(P, weights, quarters):
    # every rule's mixture and one drawn mixture; AFS, which takes any
    # profile, also gets utilities that no mixture need give
    weights = [F(w) for w in weights[:P.m]]
    if not any(weights):
        weights[0] = F(1)
    mixtures = [rules.evaluate(rid, P)[1]
                for rid in (rules.UTIL, rules.CUT, rules.RP, rules.EGAL, rules.NMP)]
    mixtures.append(Mixture(tuple(w / sum(weights) for w in weights)))
    for z in mixtures:
        U = utilities(P, z)
        expected_gfs, expected_afs, expected_cfs = _oracle_verdicts(P, U, z)
        _assert_afs_matches_oracle(P, U, expected_afs)
        gfs, cfs = check_gfs(P, U, z), check_cfs(P, U)
        assert (gfs.passed, cfs.passed) == (expected_gfs, expected_cfs)
        if not gfs:
            S = gfs.witness["coalition"]
            pooled = {a for i in S for a in range(P.m) if P.u[i][a]}
            assert _clone_closed(P, S)
            assert gfs.witness["required"] == F(len(S), P.n)
            assert gfs.witness["pooled_weight"] == sum(z.z[a] for a in pooled)
            assert gfs.witness["pooled_weight"] < gfs.witness["required"]
        if not cfs:
            S, zb = cfs.witness["coalition"], cfs.witness["blocking_mixture"]
            got = [F(len(S), P.n) * sum(zb.z[a] for a in range(P.m) if P.u[i][a])
                   for i in S]
            assert _clone_closed(P, S)
            assert all(g >= U[i] for g, i in zip(got, S))
            assert cfs.witness["surplus"] == sum(got) - sum(U[i] for i in S) > 0
    U = UtilityProfile(tuple(F(q, 4) for q in quarters[:P.n]))
    _assert_afs_matches_oracle(P, U, _oracle_verdicts(P, U, None)[1])


# ---------------------------------------------------------------- SP


def test_egal_sp_star_violation():
    P = generators.fixture("egal-true")
    verdict = check_sp(rules.EGAL, P, SpVariant.SP_STAR)
    assert verdict.passed is False
    assert verdict.witness["agent"] == 0
    assert verdict.witness["misreport"] == (0,)  # reports {a} only
    assert verdict.witness["truthful_utility"] == F(1, 2)
    assert verdict.witness["deviation_payoff"] == F(2, 3)


def test_egal_exsp_passes_fixture_and_random():
    P = generators.fixture("egal-true")
    assert check_sp(rules.EGAL, P, SpVariant.EXSP).passed is True
    rng = random.Random(127)
    for _ in range(10):
        Q = random_problem(rng, max_n=4, max_m=3)
        assert check_sp(rules.EGAL, Q, SpVariant.EXSP).passed is True


def test_cut_and_rp_sp_on_random():
    rng = random.Random(131)
    for _ in range(10):
        P = random_problem(rng, max_n=5, max_m=4)
        assert check_sp(rules.CUT, P, SpVariant.SP).passed is True
        assert check_sp(rules.RP, P, SpVariant.SP).passed is True


def test_nmp_sp_plus_violation_on_36_agent_profile():
    P = generators.appendix_36(misreport=False)
    verdict = check_sp(rules.NMP, P, SpVariant.SP_PLUS)
    assert verdict.passed is False
    # a type-{a} agent adds b
    assert verdict.witness["misreport"] == (0, 1)
    assert verdict.witness["gain"] > F(1, 1000)


# (report admissible for the truth, outcomes the agent then consumes), on
# sets, as the variants are defined
_SP_DEFINITIONS = {
    SpVariant.SP: (lambda truth, report: True, lambda truth, report: truth),
    SpVariant.SP_PLUS: (lambda truth, report: report >= truth,
                        lambda truth, report: truth),
    SpVariant.SP_MINUS: (lambda truth, report: report <= truth,
                         lambda truth, report: report),
    SpVariant.SP_STAR: (lambda truth, report: report <= truth,
                        lambda truth, report: truth),
    SpVariant.EXSP: (lambda truth, report: True,
                     lambda truth, report: truth & report),
}


def _misreport_gains(rule, P, variant):
    """Gain of every admissible misreport, keyed by (agent, reported set):
    every agent, clones included, and every nonempty like-set but its own."""
    admissible, consumed = _SP_DEFINITIONS[variant]
    U = rules.evaluate(rule, P)[0]
    gains = {}
    for i in range(P.n):
        truth = frozenset(a for a in range(P.m) if P.u[i][a])
        for bits in itertools.product((0, 1), repeat=P.m):
            report = frozenset(a for a in range(P.m) if bits[a])
            if not report or report == truth or not admissible(truth, report):
                continue
            z = rules.evaluate(rule, Problem.from_rows(P.u[:i] + (bits,) + P.u[i + 1:]))[1]
            gains[i, report] = sum(z.z[a] for a in consumed(truth, report)) - U[i]
    return gains


@settings(max_examples=200, deadline=None)
@given(_nested_profiles(max_agents=4).filter(lambda P: P.m <= 3))
@example(generators.fixture("egal-true"))
def test_check_sp_matches_misreport_walk_oracle(P):
    for rule in (rules.UTIL, rules.CUT, rules.RP, rules.EGAL):
        for variant in SpVariant:
            gains = _misreport_gains(rule, P, variant)
            verdict = check_sp(rule, P, variant)
            assert verdict.passed is all(g <= 0 for g in gains.values())
            if not verdict:
                w = verdict.witness
                key = (w["agent"], frozenset(w["misreport"]))
                assert key in gains  # the report is admissible for the variant
                assert w["gain"] == gains[key] > 0
                assert w["deviation_payoff"] == w["truthful_utility"] + w["gain"]
                assert w["truthful_utility"] == rules.evaluate(rule, P)[0][w["agent"]]


def test_sp_size_refusals():
    wide = Problem.from_rows((tuple([1] * 7),))
    with pytest.raises(ValueError):
        check_sp(rules.CUT, wide, SpVariant.SP)
    # the exact-rule cap counts agent types: nine distinct like-sets
    tall = Problem(4, tuple((1, mask) for mask in range(1, 10)))
    with pytest.raises(ValueError, match="8 agent types"):
        check_sp(rules.CUT, tall, SpVariant.SP)


def test_sp_accepts_many_agents_of_few_types():
    clones = Problem.from_rows(tuple((1, 0) for _ in range(9)))
    assert check_sp(rules.CUT, clones, SpVariant.SP).passed is True
    # 20 agents of 5 types, four of each
    masks = (0b00011, 0b00110, 0b01100, 0b11000, 0b10001)
    P = Problem(5, tuple((4, mask) for mask in masks))
    assert check_sp(rules.EGAL, P, SpVariant.EXSP).passed is True


# ---------------------------------------------------------------- PART


def test_participation_strict_cut_nmp_random():
    rng = random.Random(137)
    for _ in range(12):
        P = random_problem(rng, max_n=5, max_m=4)
        if P.n < 2:
            continue
        assert check_participation(rules.CUT, P, strict=True).passed is True
        assert (
            check_participation(rules.NMP, P, strict=True).passed is not False
        )


def test_participation_strict_egal_fails_with_clone():
    # an agent with a clone changes nothing by showing up
    P = Problem.from_rows(((1, 0), (1, 0), (0, 1)))
    assert check_participation(rules.EGAL, P, strict=False).passed is True
    verdict = check_participation(rules.EGAL, P, strict=True)
    assert verdict.passed is False
    assert verdict.witness["with_ballot"] == verdict.witness["without_ballot"]


def test_participation_on_long_runs_is_fast():
    # one rule evaluation per run, not per agent
    P = Problem(3, ((4000, 0b011), (4000, 0b110)))
    start = time.perf_counter()
    assert check_participation(rules.CUT, P, strict=True).passed is True
    assert time.perf_counter() - start < 2


def _participation_by_agent(rule, P, strict):
    """Participation judged agent by agent, each dropped on its own."""
    guard = axioms.tie_guard(rule)
    U, _ = rules.evaluate(rule, P)
    near_tie = None
    for i in range(P.n):
        _, z = rules.evaluate(rule, P.drop_agent(i))
        absent = z.weight_on(P.like_mask(i))
        witness = {"agent": i, "with_ballot": U[i], "without_ballot": absent}
        if U[i] < absent - guard:
            return False, witness
        if strict and absent < 1 - guard and U[i] <= absent + guard:
            if U[i] <= absent - guard:
                return False, witness
            near_tie = witness
    return (True, None) if near_tie is None else (None, near_tie)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, (1 << m) - 1)),
            min_size=1,
            max_size=4,
        ).map(lambda runs: Problem(m, tuple(runs)))
    ).filter(lambda P: P.n >= 2),
    st.sampled_from([rules.UTIL, rules.CUT, rules.EGAL, rules.NMP]),
    st.booleans(),
    st.sampled_from([None, F(1, 100)]),
)
# the runs' strict near-ties (1/2 against 49/99) end at agent 99, not 50
@example(Problem(2, ((50, 1), (50, 2))), rules.CUT, True, F(1, 100))
def test_participation_matches_agent_by_agent_oracle(P, rule, strict, guard):
    # a wide guard turns the exact ties of clones into near-ties
    tie_guard = axioms.tie_guard if guard is None else lambda rule: guard
    with mock.patch.object(axioms, "tie_guard", tie_guard):
        verdict = check_participation(rule, P, strict=strict)
        expected = _participation_by_agent(rule, P, strict)
    assert (verdict.passed, verdict.witness) == expected


def test_participation_fails_when_a_ballot_costs_its_agent(monkeypatch):
    # no rule in the corpora fails participation, so a stub rule does: agent
    # 0 gets 0 with its ballot and 1 without it
    P = Problem(2, ((1, 0b01), (1, 0b10)))

    def stub(rule, Q):
        z = Mixture((F(0), F(1)) if Q == P else (F(1), F(0)))
        return utilities(Q, z), z

    monkeypatch.setattr(rules, "evaluate", stub)
    verdict = check_participation(rules.CUT, P)
    assert verdict.passed is False
    assert verdict.witness == {"agent": 0, "with_ballot": 0, "without_ballot": 1}


def test_participation_needs_two_agents():
    with pytest.raises(ValueError):
        check_participation(rules.CUT, Problem.from_rows(((1,),)))


# ---------------------------------------------------------------- DEC


def test_polarized_partition_shapes():
    part = polarized_partition(generators.fixture("dec-m"))
    assert len(part) == 3
    part2 = polarized_partition(generators.fixture("dec-mprime"))
    assert len(part2) == 2
    connected = polarized_partition(EX3)
    assert len(connected) == 1


def test_dec_pass_and_fail_on_polarized_pair():
    M = generators.fixture("dec-m")
    Mp = generators.fixture("dec-mprime")
    for rid in (rules.CUT, rules.RP, rules.NMP):
        assert check_dec(rid, M).passed is True
        assert check_dec(rid, Mp).passed is True
    # UTIL picks the most-supported outcome b in M': agent 1's block share
    # is violated
    assert check_dec(rules.UTIL, Mp).passed is False
    assert check_dec(rules.EGAL, Mp).passed is False


def test_dec_witness_is_the_first_agent_off_its_block_share():
    # UTIL puts everything on b: agent 0 gets 0, below its block share 1/3
    verdict = check_dec(rules.UTIL, generators.fixture("dec-mprime"))
    assert verdict.witness == {
        "agent": 0, "block": 0, "utility": F(0), "expected": F(1, 3),
    }


def test_dec_requires_polarized_structure():
    with pytest.raises(ValueError):
        check_dec(rules.CUT, EX3)


# ---------------------------------------------------------------- report


def test_format_verdict_lines():
    P = generators.fixture("egal-true")
    U, _ = rules.egal_rule(P)
    line = format_verdict("ifs", "egal", check_ifs(P, U))
    assert line == "IFS rule=egal result=pass"
    U2, _ = rules.util_rule(EX3)
    line2 = format_verdict("ifs", "util", check_ifs(EX3, U2))
    assert line2.startswith("IFS rule=util result=fail witness=[")
    assert "agent=" in line2
