"""Cross-cutting property suites: axiom implications and rule relationships."""

import random
from fractions import Fraction

from fairmix import axioms, core, generators, rules
from fairmix.axioms import SpVariant
from fairmix.core import Mixture, Problem, utilities
from random_profiles import random_problem

F = Fraction


def _random_mixture(rng, m):
    weights = [F(rng.randint(0, 6)) for _ in range(m)]
    if sum(weights) == 0:
        weights[rng.randrange(m)] = F(1)
    total = sum(weights)
    return Mixture(tuple(w / total for w in weights))


def test_fair_share_implication_chain():
    # CFS => UFS, AFS => UFS, GFS => UFS, UFS => IFS on mixture-generated
    # profiles
    rng = random.Random(211)
    seen = {"cfs": 0, "afs": 0, "gfs": 0, "ufs": 0}
    for _ in range(120):
        P = random_problem(rng, max_n=5, max_m=4)
        z = _random_mixture(rng, P.m)
        U = utilities(P, z)
        ufs = axioms.check_ufs(P, U).passed
        ifs = axioms.check_ifs(P, U).passed
        if axioms.check_cfs(P, U).passed:
            seen["cfs"] += 1
            assert ufs
        if axioms.check_afs(P, U).passed:
            seen["afs"] += 1
            assert ufs
        if axioms.check_gfs(P, U, z).passed:
            seen["gfs"] += 1
            assert ufs
        if ufs:
            seen["ufs"] += 1
            assert ifs
    # the corpus actually exercised each antecedent
    assert all(v > 5 for v in seen.values())


def test_sp_variant_equivalences():
    # SP <=> SP+ and SP*; EXSP <=> SP+ and SP-, pointwise per instance
    rng = random.Random(223)
    for _ in range(25):
        P = random_problem(rng, max_n=4, max_m=4)
        for rule in (rules.UTIL, rules.EGAL, rules.CUT, rules.RP):
            results = {
                v: axioms.check_sp(rule, P, v).passed
                for v in SpVariant
            }
            assert results[SpVariant.SP] == (
                results[SpVariant.SP_PLUS] and results[SpVariant.SP_STAR]
            )
            assert results[SpVariant.EXSP] == (
                results[SpVariant.SP_PLUS] and results[SpVariant.SP_MINUS]
            )


def test_cfs_at_grand_coalition_implies_efficiency():
    rng = random.Random(227)
    inefficient_seen = 0
    for _ in range(60):
        P = random_problem(rng, max_n=5, max_m=4)
        z = _random_mixture(rng, P.m)
        U = utilities(P, z)
        if core.is_efficient(P, U, source=z).passed:
            continue
        inefficient_seen += 1
        assert axioms.check_cfs(P, U).passed is False
    assert inefficient_seen > 5


def test_cut_rp_welfare_and_efficiency():
    rng = random.Random(229)
    efficient_rp_seen = 0
    for _ in range(150):
        P = random_problem(rng, max_n=6, max_m=5)
        Urp, zrp = rules.rp_exact(P)
        Ucut, zcut = rules.cut_rule(P)
        assert Urp.total() <= Ucut.total()
        if core.is_efficient(P, Urp, source=zrp).passed:
            efficient_rp_seen += 1
            assert core.is_efficient(P, Ucut, source=zcut).passed is True
    assert efficient_rp_seen > 10


def test_cut_equals_rp_when_undominated_supports_equal():
    # if every undominated outcome has the same support size, CUT and RP
    # give the same utility profile
    rng = random.Random(233)
    tested = 0
    attempts = 0
    while tested < 20 and attempts < 4000:
        attempts += 1
        P = random_problem(rng, max_n=5, max_m=4)
        undom = core.undominated_outcomes(P)
        supports = {P.column_sum(a) for a in undom}
        if len(supports) != 1:
            continue
        tested += 1
        Urp, _ = rules.rp_exact(P)
        Ucut, _ = rules.cut_rule(P)
        assert Urp == Ucut
    assert tested == 20


def test_egal_leximin_dominates_every_feasible_minimum():
    # the EGAL minimum utility is the maximin value: no mixture does better
    rng = random.Random(239)
    for _ in range(40):
        P = random_problem(rng, max_n=5, max_m=4)
        U, _ = rules.egal_rule(P)
        floor = min(U.U)
        for _ in range(15):
            z = _random_mixture(rng, P.m)
            assert min(utilities(P, z).U) <= floor


def test_util_maximizes_total_utility():
    rng = random.Random(241)
    for _ in range(40):
        P = random_problem(rng, max_n=6, max_m=5)
        U, _ = rules.util_rule(P)
        best = max(P.column_sum(a) for a in range(P.m))
        assert U.total() == best


def test_dec_exact_rules_on_random_polarized_instances():
    # glue two random problems into a polarized instance; CUT/RP/NMP must
    # satisfy blockwise proportionality on it
    rng = random.Random(251)
    for _ in range(15):
        A = random_problem(rng, max_n=3, max_m=3)
        B = random_problem(rng, max_n=3, max_m=3)
        P = Problem(A.m + B.m, A.entries + tuple((c, mask << A.m) for c, mask in B.entries))
        for rid in (rules.CUT, rules.RP, rules.NMP):
            assert axioms.check_dec(rid, P).passed is True
