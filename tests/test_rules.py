"""Tests for the mixing rules."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import core, experiments, generators, lp, rules
from fairmix.core import Mixture, Problem, utilities
from fairmix.rules import (
    CUT,
    EGAL,
    HRULE,
    NMP,
    RP,
    UTIL,
    cut_rule,
    egal_rule,
    evaluate,
    h_rule,
    kkt_residual,
    nmp_rule,
    rp_exact,
    sigma_priority,
    util_rule,
)
from random_profiles import random_problem

F = Fraction

EX3 = generators.fixture("ex3")
EX5 = generators.fixture("ex5")


def _electorate(seed, j, m, types, agents):
    """Profile ``j`` of ``seed``: ``types`` random like-sets over ``m`` outcomes
    sharing ``agents`` agents in random positive counts."""
    rng = random.Random(random.Random(f"electorate:{seed}:{j}").getrandbits(63))
    masks = rng.sample(range(1, 1 << m), types)
    cuts = sorted(rng.sample(range(1, agents), types - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [agents])]
    return Problem(m=m, entries=list(zip(counts, masks)))


# ---------------------------------------------------------------- UTIL


def test_util_ex3_point_mass_on_d():
    U, z = util_rule(EX3)
    assert z.z == (F(0), F(0), F(0), F(1), F(0))


def test_util_identical_columns_collapse():
    P = Problem.from_rows(((1, 1), (1, 1)))
    U, z = util_rule(P)
    # two identical columns form one class; its mass is split inside the
    # class but utilities equal the reduced problem's
    assert U.U == (F(1), F(1))
    assert sum(z.z) == 1


def test_util_identity_problem():
    P = generators.fixture("dec-m")  # 3x3 identity
    U, z = util_rule(P)
    assert z.z == (F(1, 3), F(1, 3), F(1, 3))


# ---------------------------------------------------------------- CUT


def test_cut_ex3():
    U, z = cut_rule(EX3)
    assert z.z == (F(1, 5), F(1, 10), F(1, 10), F(3, 5), F(0))


def test_cut_ex5():
    U, z = cut_rule(EX5)
    assert z.z == (F(0), F(0), F(0), F(1, 2), F(1, 2))
    assert U.U == (F(1, 2),) * 6


def test_cut_single_agent_uniform_split():
    P = Problem.from_rows(((1, 1, 0),))
    U, z = cut_rule(P)
    assert z.z == (F(1, 2), F(1, 2), F(0))
    assert U.U == (F(1),)


def test_cut_universal_likers_participate():
    # an agent liking everything spreads her share over the most-supported
    # column classes like anyone else
    P = Problem.from_rows(((1, 1), (1, 0)))
    U, z = cut_rule(P)
    assert z.z == (F(1), F(0))  # column a has support 2, b support 1


def test_cut_clones_share_by_count():
    # the two clones of type {a} control 2/3 together
    U, z = cut_rule(Problem.from_rows(((1, 0), (1, 0), (0, 1))))
    assert z.z == (F(2, 3), F(1, 3))


# ---------------------------------------------------------------- sigma


def test_sigma_priority_ex3_trace():
    # agents are 0-indexed: priority order (3,5,4,1,2) -> (2,4,3,0,1)
    U, z = sigma_priority(EX3, (2, 4, 3, 0, 1))
    assert z.z == (F(0), F(1), F(0), F(0), F(0))
    assert U.U == (F(0), F(0), F(1), F(0), F(1))


def test_sigma_priority_single_agent():
    P = Problem.from_rows(((1, 0, 1),))
    U, z = sigma_priority(P, (0,))
    assert U.U == (F(1),)
    assert z.z == (F(1, 2), F(0), F(1, 2))


def test_sigma_priority_common_outcome():
    P = Problem.from_rows(((1, 1, 0), (1, 0, 1), (1, 0, 0)))
    U, z = sigma_priority(P, (0, 1, 2))
    assert z.z == (F(1), F(0), F(0))
    assert U.U == (F(1), F(1), F(1))


def test_sigma_priority_rejects_non_permutation():
    with pytest.raises(ValueError):
        sigma_priority(EX3, (0, 0, 1, 2, 3))


# ---------------------------------------------------------------- RP


def test_rp_ex3():
    U, z = rp_exact(EX3)
    assert z.z == (F(1, 5), F(1, 6), F(1, 6), F(7, 15), F(0))


def test_rp_ex5():
    U, z = rp_exact(EX5)
    assert z.z == (F(1, 9), F(1, 9), F(1, 9), F(1, 3), F(1, 3))
    assert U.U == (F(4, 9),) * 6


def test_rp_single_agent_equals_cut():
    P = Problem.from_rows(((0, 1, 1),))
    assert rp_exact(P) == cut_rule(P)


def test_rp_matches_explicit_enumeration():
    rng = random.Random(41)
    for _ in range(10):
        P = random_problem(rng, max_n=5, max_m=4)
        U, z = rp_exact(P)
        n = P.n
        total = [F(0)] * P.m
        count = 0
        for order in itertools.permutations(range(n)):
            _, zs = sigma_priority(P, order)
            total = [t + w for t, w in zip(total, zs.z)]
            count += 1
        expected = tuple(t / count for t in total)
        assert z.z == expected


@st.composite
def _nested_profiles(draw, max_agents=6):
    """Up to ``max_agents`` agents over up to 5 outcomes, like-sets drawn from
    the pairwise intersections of at most 3 base like-sets, so they repeat
    and nest."""
    m = draw(st.integers(1, 5))
    base = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=3))
    pool = sorted({a & b for a in base for b in base} - {0})
    masks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_agents))
    return Problem(m, tuple((1, k) for k in masks))


@settings(max_examples=150, deadline=None)
@given(_nested_profiles())
def test_rp_matches_all_orders(P):
    # the oracle walks every one of the n! orders itself
    total = [F(0)] * P.m
    orders = list(itertools.permutations(range(P.n)))
    for order in orders:
        feasible = set(range(P.m))
        for i in order:
            feasible = feasible & {a for a in range(P.m) if P.u[i][a]} or feasible
        for a in feasible:
            total[a] += F(1, len(feasible))
    expected = tuple(x / len(orders) for x in total)
    U, z = rp_exact(P)
    assert z.z == expected
    assert U == utilities(P, z)
    # cloning every agent 3 times (n up to 18) scales all type counts
    # together, so the mixture cannot change
    clones = Problem.from_rows(tuple(row for row in P.u for _ in range(3)))
    U3, z3 = rp_exact(clones)
    assert z3.z == expected
    assert U3 == utilities(clones, z3)


@pytest.mark.parametrize("k,d,ell", [(4, 3, 2), (5, 3, 2), (6, 2, 2)])
def test_rp_realizes_family_ratio_beyond_ten_agents(k, d, ell):
    params = generators.RpWorstCaseParams(k=k, d=d, ell=ell)
    P = generators.rp_worstcase(params)
    assert 12 <= P.n <= 15
    U, _ = rp_exact(P)
    best = max(P.column_sum(a) for a in range(P.m))
    assert U.total() / best == generators.rp_family_ratio(params)


def test_rp_size_refusal():
    # 12 co-singletons over 12 outcomes reach all 4,095 nonempty feasible sets:
    # 12 * 4,095 DP steps, over the budget, refused by the integer count alone
    m = 12
    P = Problem.from_rows(tuple(tuple(int(a != i) for a in range(m)) for i in range(m)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="DP steps"):
        rp_exact(P)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------- EGAL


def test_egal_true_profile():
    P = generators.fixture("egal-true")
    U, z = egal_rule(P)
    assert z.z == (F(0), F(1, 2), F(1, 2))
    assert U.U == (F(1, 2), F(1, 2), F(1, 2))


def test_egal_misreported_profile():
    P = generators.fixture("egal-misreport")
    U, z = egal_rule(P)
    assert z.z == (F(1, 3), F(1, 3), F(1, 3))


def test_egal_ex5_symmetric():
    U, z = egal_rule(EX5)
    assert U.U == (F(1, 2),) * 6


def test_egal_is_leximin_on_small_instances():
    # cross-check the frozen utilities against a direct leximin over the
    # LP-computable maximin sequence
    rng = random.Random(43)
    for _ in range(30):
        P = random_problem(rng, max_n=4, max_m=3)
        U, z = egal_rule(P)
        assert utilities(P, z) == U
        # leximin optimality: no feasible profile has a lexicographically
        # greater sorted utility vector; spot-check against vertices of the
        # simplex and midpoints
        ours = sorted(U.U)
        points = [
            Mixture(tuple(F(1) if b == a else F(0) for b in range(P.m)))
            for a in range(P.m)
        ]
        for za, zb in itertools.combinations(points, 2):
            points.append(Mixture(tuple((x + y) / 2 for x, y in zip(za.z, zb.z))))
        for cand in points:
            theirs = sorted(utilities(P, cand).U)
            assert not theirs > ours or theirs == ours


def test_egal_failed_lp_raises(monkeypatch):
    # control flow must not rely on assert, which python -O strips
    monkeypatch.setattr(rules.lp, "solve_lp", lambda prog: lp.LpOutcome("infeasible"))
    with pytest.raises(RuntimeError):
        egal_rule(EX3)


def test_egal_solves_at_most_one_lp_per_type(monkeypatch):
    # one LP per leximin round, and every round freezes at least one type
    calls = []

    def counting(prog, solve=lp.solve_lp):
        calls.append(prog)
        return solve(prog)

    monkeypatch.setattr(rules.lp, "solve_lp", counting)
    problems = [generators.fixture(name) for name in generators.fixture_names()]
    problems += [experiments.impartial_culture(2 + s % 6, 2 + s // 6 % 4, s)
                 for s in range(120)]
    for P in problems:
        calls.clear()
        egal_rule(P)
        assert 1 <= len(calls) <= len(P.types)


def test_egal_lp_work_on_criterion_08_seed_0_is_pinned(monkeypatch):
    # Bland's rule fixes every pivot, so these counts move only if the pivot
    # sequence does: a change to lp's arithmetic must leave them as they are
    counts = dict.fromkeys(("_pivot", "solve_lp", "solve_linear"), 0)
    for name in counts:
        def counting(*args, name=name, inner=getattr(lp, name)):
            counts[name] += 1
            return inner(*args)
        monkeypatch.setattr(lp, name, counting)
    for n in (3, 5, 7):
        for m in (3, 5):
            for k in range(100):
                egal_rule(experiments.impartial_culture(n, m, experiments._subseed(0, n, m, k)))
    assert counts == {"_pivot": 16836, "solve_lp": 1812, "solve_linear": 1394}


def _float_leximin(P):
    """Independent leximin over the per-agent matrix in floating point:
    HiGHS round LPs, then one probe LP per agent left at the floor."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    u = [[float(x) for x in row] for row in P.u]
    frozen = {}
    while len(frozen) < P.n:
        free = [i for i in range(P.n) if i not in frozen]
        # agents already fixed keep at least their value (slack for rounding)
        held = [([-x for x in u[i]], 1e-9 - v) for i, v in frozen.items()]
        # variables z_1..z_m, t: maximize t with u_i . z >= t for the free ones
        res = linprog(
            [0.0] * P.m + [-1.0],
            A_ub=[[-x for x in u[i]] + [1.0] for i in free]
                 + [row + [0.0] for row, _ in held],
            b_ub=[0.0] * len(free) + [b for _, b in held],
            A_eq=[[1.0] * P.m + [0.0]], b_eq=[1.0],
            bounds=(0, None), method="highs",
        )
        assert res.status == 0
        t = -res.fun
        floor = held + [([-x for x in u[i]], 1e-9 - t) for i in free]
        newly = []
        for j in free:
            probe = linprog(
                [-x for x in u[j]],
                A_ub=[row for row, _ in floor], b_ub=[b for _, b in floor],
                A_eq=[[1.0] * P.m], b_eq=[1.0],
                bounds=(0, None), method="highs",
            )
            assert probe.status == 0
            if -probe.fun <= t + 1e-7:
                newly.append(j)
        assert newly
        for j in newly:
            frozen[j] = t
    return [frozen[i] for i in range(P.n)]


@settings(max_examples=100, deadline=None)
@given(_nested_profiles(max_agents=7))
def test_egal_matches_float_leximin_oracle(P):
    U, z = egal_rule(P)
    assert U == utilities(P, z)
    theirs = _float_leximin(P)
    # the leximin profile is unique, so agentwise agreement is required,
    # which is stronger than agreement of the sorted vectors
    assert all(abs(float(ours) - v) <= 1e-7 for ours, v in zip(U.U, theirs))


def test_egal_clone_invariance():
    rng = random.Random(47)
    for _ in range(25):
        P = random_problem(rng, max_n=5, max_m=4)
        i = rng.randrange(P.n)
        clone = Problem.from_rows(P.u + (P.u[i],))
        U, _ = egal_rule(P)
        U2, _ = egal_rule(clone)
        assert U2.U[: P.n] == U.U
        assert U2.U[P.n] == U.U[i]


def test_egal_canonical_mixture_neutrality():
    # permuting columns permutes the representative mixture identically
    rng = random.Random(53)
    for _ in range(20):
        P = random_problem(rng, max_n=5, max_m=4)
        perm = list(range(P.m))
        rng.shuffle(perm)
        Q = Problem.from_rows(tuple(tuple(row[perm[a]] for a in range(P.m)) for row in P.u))
        _, z = egal_rule(P)
        _, zq = egal_rule(Q)
        assert zq.z == tuple(z.z[perm[a]] for a in range(P.m))


def _is_min_norm(P, z):
    """Exact KKT certificate that ``z`` is the minimum-norm mixture with its
    utilities: some lambda has (B^T lambda)_a = z_a on the support and
    (B^T lambda)_a <= 0 off it, B being the simplex row plus the agents'
    distinct rows.  Decided as a feasibility LP in lambda = lambda+ - lambda-."""
    B = [(1,) * P.m, *dict.fromkeys(P.u)]
    constraints = []
    for a, za in enumerate(z.z):
        column = tuple(row[a] for row in B) + tuple(-row[a] for row in B)
        if za > 0:
            constraints.append((column, lp.EQ, za))
        else:
            constraints.append((tuple(-x for x in column), lp.GE, 0))
    prog = lp.LinearProgram((0,) * len(column), tuple(constraints))
    return lp.solve_lp(prog).status == "optimal"


def test_egal_mixture_is_the_minimum_norm_one():
    P = experiments.impartial_culture(5, 8, 4682)
    U, z = egal_rule(P)
    assert z.z == (F(3, 14), F(1, 6), F(5, 42), F(1, 7), F(1, 21), F(0), F(1, 6), F(1, 7))
    assert sum(x * x for x in z.z) == F(10, 63)
    assert _is_min_norm(P, z)
    # repeated columns give outcome classes of different sizes, whose
    # weights the min-norm step must scale by the class size
    rng = random.Random(61)
    problems = [generators.fixture(name) for name in generators.fixture_names()]
    while len(problems) < 60:
        n, m = rng.randint(2, 6), rng.randint(3, 7)
        base = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(2, 4))]
        cols = [rng.choice(base) for _ in range(m)]
        rows = tuple(tuple(col[i] for col in cols) for i in range(n))
        if all(any(row) for row in rows):
            problems.append(Problem.from_rows(rows))
    for P in problems:
        U, z = egal_rule(P)
        assert utilities(P, z) == U
        assert _is_min_norm(P, z)


# ---------------------------------------------------------------- NMP


def test_nmp_afs_example():
    P = generators.fixture("afs-example")
    sol = nmp_rule(P)
    assert sol.converged
    target = (F(2, 5), F(0), F(0), F(3, 5))
    for got, want in zip(sol.z.z, target):
        assert abs(got - want) <= F(1, 10**8)
    assert kkt_residual(P, Mixture(target)) == 0


def test_nmp_single_agent():
    P = Problem.from_rows(((1, 1, 0),))
    sol = nmp_rule(P)
    assert sol.converged
    U = utilities(P, sol.z)
    assert abs(U.U[0] - 1) <= F(1, 10**9)


def test_nmp_residual_certificate_bound():
    rng = random.Random(59)
    for _ in range(15):
        P = random_problem(rng, max_n=5, max_m=4)
        sol = nmp_rule(P)
        assert sol.converged
        assert sol.kkt_residual <= rules.DEFAULT_NMP_TOL
        # supported outcomes carry gradient mass >= n - residual
        n = F(P.n)
        U = utilities(P, sol.z)
        for a in range(P.m):
            if sol.z.z[a] > 0:
                g = sum(F(1) / U.U[i] for i in range(P.n) if P.u[i][a])
                assert g >= n - sol.kkt_residual


def test_nmp_typed_profile_no_expansion():
    tp = generators.appendix_860(misreport=False)
    sol = nmp_rule(tp)
    assert sol.converged
    target = generators.APPENDIX_860_Z
    for got, want in zip(sol.z.z, target.z):
        assert abs(got - want) <= F(1, 10**6)


def test_nmp_certifies_after_snapping():
    # the float stop test passes while one class weight is still in
    # (0, 1e-13]; snapping it moves small utilities, so the solver resumes
    for seed, j in ((20, 22), (201, 46)):
        T = _electorate(seed, j, 5, 20, 1000)
        sol = nmp_rule(T)
        assert sol.converged
        assert sol.kkt_residual <= rules.DEFAULT_NMP_TOL
        assert sol.kkt_residual == kkt_residual(T, sol.z)


def _sha256_of_repr(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_nmp_bits_on_criterion_08_draws():
    # NMP's float solve, bit for bit, on criterion 08's 600 seed-0 draws
    draws = [experiments.impartial_culture(n, m, experiments._subseed(0, n, m, k))
             for n in (3, 5, 7) for m in (3, 5) for k in range(100)]
    assert _sha256_of_repr([nmp_rule(P) for P in draws]) == (
        "6c2940fe07ffb8c8971ba87b64c8afd92587be71aed7c276acdbb69c9784cbfc"
    )


@st.composite
def _typed_with_repeats(draw):
    """Typed profiles whose like-masks are drawn as ints from a small pool,
    so one like-set is often listed more than once."""
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(st.integers(1, 2**m - 1), min_size=1, max_size=3))
    entries = draw(st.lists(
        st.tuples(st.integers(1, 20), st.sampled_from(pool)), min_size=1, max_size=6
    ))
    return Problem(m=m, entries=entries)


@settings(max_examples=100, deadline=None)
@given(_typed_with_repeats())
def test_typed_profile_agrees_with_its_expansion(T):
    P = Problem.from_rows(
        [tuple(mask >> a & 1 for a in range(T.m)) for c, mask in T.entries for _ in range(c)]
    )
    assert T.types == P.types and T.n == P.n
    z = nmp_rule(T).z
    assert kkt_residual(T, z) == kkt_residual(P, z)
    rows = [sum((x for x, bit in zip(z.z, row) if bit), F(0)) for row in P.u]
    assert utilities(P, z).U == tuple(rows)


@st.composite
def _typed_with_mixture(draw):
    """A ``_typed_with_repeats`` profile and a mixture over it whose
    coordinates have mixed, mostly non-dyadic denominators, and some zeros."""
    T = draw(_typed_with_repeats())
    weights = draw(st.lists(st.integers(0, 6), min_size=T.m, max_size=T.m).filter(any))
    return T, Mixture(tuple(F(w, sum(weights)) for w in weights))


@settings(max_examples=200, deadline=None)
@given(_typed_with_mixture())
def test_utilities_match_the_per_agent_rows(case):
    T, z = case
    rows = [sum((x for x, bit in zip(z.z, row) if bit), F(0)) for row in T.u]
    U = utilities(T, z)
    assert U.U == tuple(rows)
    assert [U[i] for i in range(T.n)] == rows
    assert U.total() == sum(rows, F(0))


@pytest.mark.parametrize("misreport", [False, True])
def test_exact_rules_on_sp0_expand_no_agents(misreport):
    # 1,227,856 agents of 9 types: neither the rule nor the total builds a
    # per-agent view, of the problem or of the profile
    P = generators.appendix_sp0()[misreport]
    evaluate.cache_clear()  # a memo hit could return a profile viewed before
    for rule in (UTIL, CUT, RP, EGAL):
        U, _ = evaluate(rule, P)
        U.total()
        assert "masks" not in vars(P)
        assert "U" not in vars(U)


def _kkt_oracle(P, z):
    """The residual in ``Fraction``s, per outcome: count / U_t per type, and
    each outcome's gradient summed over the types that like it."""
    inv = []
    for count, mask in P.types:
        U = sum((x for a, x in enumerate(z.z) if mask >> a & 1), F(0))
        if U == 0:
            return None
        inv.append(F(count) / U)
    residual = F(0)
    for a, x in enumerate(z.z):
        g = sum((y for (_, mask), y in zip(P.types, inv) if mask >> a & 1), F(0))
        residual = max(residual, abs(g - P.n) if x > 0 else g - P.n)
    return residual


@settings(max_examples=200, deadline=None)
@given(_typed_with_mixture())
def test_kkt_residual_matches_the_fraction_oracle(case):
    T, z = case
    expected = _kkt_oracle(T, z)
    if expected is None:
        with pytest.raises(ValueError):
            kkt_residual(T, z)
    else:
        assert kkt_residual(T, z) == expected


def test_kkt_residual_trivial():
    P = Problem.from_rows(((1, 1),))
    assert kkt_residual(P, Mixture((F(1, 2), F(1, 2)))) == 0


def test_kkt_residual_counts_a_deficit_on_a_supported_outcome():
    # at (2/3, 1/3): U = (2/3, 1), g_a = 3/2 + 1 = n + 1/2 and g_b = 1 = n - 1
    P = Problem.from_rows(((1, 0), (1, 1)))
    assert kkt_residual(P, Mixture((F(2, 3), F(1, 3)))) == 1


def test_kkt_residual_rejects_zero_utility():
    P = generators.fixture("egal-true")
    with pytest.raises(ValueError):
        kkt_residual(P, Mixture((F(1), F(0), F(0))))


def test_nmp_separation_inequality():
    # sum_i U_i / U*_i <= n (+ slack for the numeric tolerance) for every
    # feasible profile; checked against random mixtures
    rng = random.Random(61)
    for _ in range(10):
        P = random_problem(rng, max_n=5, max_m=4)
        sol = nmp_rule(P)
        Ustar = utilities(P, sol.z)
        n = F(P.n)
        for _ in range(20):
            weights = [F(rng.randint(0, 5)) for _ in range(P.m)]
            if sum(weights) == 0:
                continue
            tot = sum(weights)
            z = Mixture(tuple(w / tot for w in weights))
            U = utilities(P, z)
            lhs = sum(U.U[i] / Ustar.U[i] for i in range(P.n))
            assert lhs <= n + n * rules.DEFAULT_NMP_TOL


def test_nmp_coalition_bound():
    # U*_S >= (1/n) * (number of supporters of a inside S)^2 for each pure
    # outcome a, up to tolerance
    rng = random.Random(67)
    for _ in range(10):
        P = random_problem(rng, max_n=6, max_m=4)
        sol = nmp_rule(P)
        U = utilities(P, sol.z)
        n = F(P.n)
        for _ in range(10):
            S = [i for i in range(P.n) if rng.random() < 0.5]
            if not S:
                continue
            U_S = sum(U.U[i] for i in S)
            for a in range(P.m):
                s_a = sum(1 for i in S if P.u[i][a])
                assert U_S >= F(s_a * s_a) / n - rules.DEFAULT_NMP_TOL


# ---------------------------------------------------------------- h-rules


def test_hrule_symmetric_on_ex5():
    sol = h_rule(EX5, q=F(1, 2))
    assert sol.converged
    U = utilities(EX5, sol.z)
    lo, hi = min(U.U), max(U.U)
    assert hi - lo < F(1, 10**6)


def test_hrule_single_agent():
    P = Problem.from_rows(((0, 1),))
    sol = h_rule(P, q=F(-1))
    assert utilities(P, sol.z).U[0] > 1 - F(1, 10**6)


def test_hrule_near_one_approaches_util():
    sol = h_rule(EX3, q=F(999, 1000))
    U = utilities(EX3, sol.z)
    Uutil, _ = util_rule(EX3)
    for got, want in zip(U.U, Uutil.U):
        assert abs(got - want) < F(1, 1000)


def test_hrule_newton_on_electorate():
    # the multiplicative step alone needs over 10^6 iterations here
    sol = h_rule(_electorate(206, 32, 6, 16, 400), q=F(1, 2))
    assert sol.converged
    assert sol.iterations <= 1000
    # the one solve in this suite that takes the Newton reseed branch: pin
    # its bits, as no NMP input found so far reaches that branch
    assert _sha256_of_repr(sol) == (
        "69f64d9abd19b9997156b631b9532da2b29c1040ddde4766e910d25b5e4fda00"
    )


def test_hrule_damps_on_objective_tie():
    # without damping on an exact tie, q = -1 cycles between class weights
    # (2/3, 1/3) and (1/5, 4/5) here; the optimum is U_0 = 1/(1 + sqrt 2)
    P = Problem.from_rows(((1, 1, 0), (0, 0, 1), (0, 0, 1)))
    sol = h_rule(P, q=-1)
    assert sol.converged
    assert abs(float(utilities(P, sol.z).U[0]) - 1 / (1 + math.sqrt(2))) <= 1e-6


def test_hrule_rejects_bad_q():
    with pytest.raises(ValueError):
        h_rule(EX3, q=0)
    with pytest.raises(ValueError):
        h_rule(EX3, q=1)


@pytest.mark.parametrize("q", [F(-50), F(-1000), -F(10) ** 400, F(1, 10**400)])
def test_hrule_refuses_q_beyond_float_range(q):
    # float(q) overflows or is 0, or the powers U^(q-1) overflow in the solve
    with pytest.raises(ValueError, match="q"):
        h_rule(EX3, q=q)


def test_hrule_ex3_moderate_q_unchanged():
    sol = h_rule(EX3, q=F(-1, 2))
    scale = 2**51
    assert sol.z.z == (F(974648707459473, scale), 0, 0, F(1277151106225775, scale), 0)
    assert (sol.iterations, sol.converged) == (159, True)


# ---------------------------------------------------------------- evaluate


def test_evaluate_dispatch_matches_direct_calls():
    assert evaluate(UTIL, EX3) == util_rule(EX3)
    assert evaluate(CUT, EX3) == cut_rule(EX3)
    assert evaluate(RP, EX3) == rp_exact(EX3)
    assert evaluate(EGAL, EX3) == egal_rule(EX3)
    U, z = evaluate(NMP, EX3)
    assert utilities(EX3, z) == U


def test_hrule_id_validation():
    with pytest.raises(ValueError):
        HRULE(1)
    with pytest.raises(ValueError):
        HRULE(0)


def test_rule_id_refuses_q_outside_hrule():
    # a stray q would print as the bare kind yet miss the evaluate memo
    for kind in ("UTIL", "EGAL", "RP", "CUT", "NMP"):
        with pytest.raises(ValueError, match="takes no exponent"):
            rules.RuleId(kind, q="abc")
        assert rules.RuleId(kind, q=None) == rules.RuleId(kind)


def test_rules_anonymity_and_neutrality():
    rng = random.Random(71)
    rule_ids = [UTIL, EGAL, CUT, RP, NMP]
    for _ in range(20):
        P = random_problem(rng, max_n=5, max_m=4)
        rperm = list(range(P.n))
        rng.shuffle(rperm)
        Pr = Problem.from_rows(tuple(P.u[rperm[i]] for i in range(P.n)))
        cperm = list(range(P.m))
        rng.shuffle(cperm)
        Pc = Problem.from_rows(tuple(tuple(row[cperm[a]] for a in range(P.m)) for row in P.u))
        for rid in rule_ids:
            U, z = evaluate(rid, P)
            Ur, zr = evaluate(rid, Pr)
            Uc, zc = evaluate(rid, Pc)
            if rules.is_numeric(rid):
                tol = F(1, 10**6)
                assert all(
                    abs(Ur.U[i] - U.U[rperm[i]]) < tol for i in range(P.n)
                )
                assert all(
                    abs(zc.z[a] - z.z[cperm[a]]) < tol for a in range(P.m)
                )
            else:
                assert Ur.U == tuple(U.U[rperm[i]] for i in range(P.n))
                assert zc.z == tuple(z.z[cperm[a]] for a in range(P.m))


def test_cut_and_rp_support_undominated_only():
    rng = random.Random(73)
    for _ in range(40):
        P = random_problem(rng, max_n=6, max_m=5)
        undom = core.undominated_outcomes(P)
        for fn in (cut_rule, rp_exact):
            _, z = fn(P)
            assert all(z.z[a] == 0 for a in range(P.m) if a not in undom)


def test_util_egal_nmp_outputs_efficient():
    rng = random.Random(79)
    for _ in range(25):
        P = random_problem(rng, max_n=5, max_m=4)
        for rid in (UTIL, EGAL):
            U, z = evaluate(rid, P)
            assert core.is_efficient(P, U, source=z).passed is True
