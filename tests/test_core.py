"""Tests for core domain types, I/O, utilities, and efficiency."""

import itertools
import random
from fractions import Fraction

import pytest

from fairmix import core, generators, lp, rules
from fairmix.core import (
    Mixture,
    Problem,
    TypedProfile,
    UtilityProfile,
    epsilon_inefficiency,
    format_mixture,
    format_problem,
    interval_structure,
    is_efficient,
    parse_mixture,
    parse_problem,
    undominated_outcomes,
    utilities,
)

F = Fraction


def _random_problem(rng, max_n=6, max_m=6):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    rows = []
    for _ in range(n):
        mask = rng.randrange(1, 1 << m)
        rows.append(tuple(1 if mask >> a & 1 else 0 for a in range(m)))
    return Problem(tuple(rows))


def _random_mixture(rng, m, support=None):
    weights = [F(0)] * m
    cols = support if support is not None else range(m)
    for a in cols:
        weights[a] = F(rng.randint(0, 8))
    total = sum(weights)
    if total == 0:
        weights[next(iter(cols))] = F(1)
        total = F(1)
    return Mixture(tuple(w / total for w in weights))


# ---------------------------------------------------------------- types


def test_problem_rejects_zero_row():
    with pytest.raises(ValueError):
        Problem(((0, 0), (1, 1)))


def test_problem_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Problem(((1, 0), (1,)))


def test_mixture_must_sum_to_one():
    with pytest.raises(ValueError):
        Mixture((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        Mixture((F(3, 2), F(-1, 2)))


def test_utility_profile_range():
    with pytest.raises(ValueError):
        UtilityProfile((F(3, 2),))
    assert UtilityProfile((F(1), F(0))).total() == 1


def test_typed_profile_expansion_order_stable():
    tp = TypedProfile(m=3, entries=((2, frozenset({0})), (1, frozenset({1, 2}))))
    P = tp.to_problem()
    assert P.u == ((1, 0, 0), (1, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        TypedProfile(m=3, entries=((0, frozenset({0})),))
    with pytest.raises(ValueError):
        TypedProfile(m=3, entries=((1, frozenset()),))


# ---------------------------------------------------------------- parsing


def test_parse_dense_problem():
    P = parse_problem("3 3\n110\n010\n001")
    assert P.u == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert P == generators.fixture("egal-true")


def test_parse_smallest_problem():
    assert parse_problem("1 1\n1").u == ((1,),)


def test_parse_rejects_zero_row():
    with pytest.raises(ValueError):
        parse_problem("2 2\n00\n11")


def test_parse_rejects_malformed():
    for text in ("", "2\n11\n11", "2 2\n111\n11", "2 2\n11", "x y\n1\n1"):
        with pytest.raises(ValueError):
            parse_problem(text)


def test_parse_typed_format():
    P = parse_problem("typed 3\n2 100\n1 011")
    assert P.u == ((1, 0, 0), (1, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        parse_problem("typed 3\n0 100")


def test_problem_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        P = _random_problem(rng)
        assert parse_problem(format_problem(P)) == P


def test_mixture_round_trip():
    z = Mixture((F(1, 5), F(1, 10), F(1, 10), F(3, 5), F(0)))
    text = format_mixture(z)
    assert text == "1/5 1/10 1/10 3/5 0/1"
    assert parse_mixture(text) == z


# ---------------------------------------------------------------- utilities


def test_utilities_on_ex3():
    P = generators.fixture("ex3")
    z = Mixture((F(1, 5), F(1, 10), F(1, 10), F(3, 5), F(0)))
    U = utilities(P, z)
    # agent 5 likes {b,d,e}: 1/10 + 3/5 + 0 = 7/10
    assert U.U == (F(3, 5), F(7, 10), F(3, 10), F(3, 10), F(7, 10))


def test_utilities_point_mass():
    rng = random.Random(5)
    for _ in range(20):
        P = _random_problem(rng)
        a = rng.randrange(P.m)
        z = Mixture(tuple(F(1) if b == a else F(0) for b in range(P.m)))
        assert utilities(P, z).U == tuple(F(P.u[i][a]) for i in range(P.n))


def test_utilities_on_ex5():
    P = generators.fixture("ex5")
    z = Mixture((F(0), F(0), F(0), F(1, 2), F(1, 2)))
    assert utilities(P, z).U == (F(1, 2),) * 6


def test_utilities_dimension_mismatch():
    P = generators.fixture("ex3")
    with pytest.raises(ValueError):
        utilities(P, Mixture((F(1),)))


def test_total_utility_identity():
    # Sum_i U_i == sum_a z_a * (column sum at a), exactly.
    rng = random.Random(11)
    for _ in range(100):
        P = _random_problem(rng)
        z = _random_mixture(rng, P.m)
        U = utilities(P, z)
        assert U.total() == sum(
            z.z[a] * P.column_sum(a) for a in range(P.m)
        )


# ---------------------------------------------------------------- dominance


def test_undominated_ex3():
    P = generators.fixture("ex3")
    assert undominated_outcomes(P) == {0, 1, 2, 3}  # e dominated by d


def test_undominated_egal_true():
    P = generators.fixture("egal-true")
    assert undominated_outcomes(P) == {1, 2}  # a dominated by b


def test_undominated_identical_columns():
    P = Problem(((1, 1), (1, 1), (1, 1)))
    assert undominated_outcomes(P) == {0, 1}


def test_undominated_clone_invariance():
    rng = random.Random(17)
    for _ in range(50):
        P = _random_problem(rng, max_m=5)
        a = rng.randrange(P.m)
        cloned = Problem(tuple(row + (row[a],) for row in P.u))
        before = undominated_outcomes(P)
        after = undominated_outcomes(cloned)
        # the original columns keep their status, and the clone of a is
        # interchangeable with a
        assert before == {b for b in after if b < P.m}
        assert (a in after) == (P.m in after)


# ---------------------------------------------------------------- efficiency


def test_is_efficient_redistribution_example():
    P = generators.fixture("ex3")
    z = Mixture((F(0), F(1, 2), F(1, 2), F(0), F(0)))
    verdict = is_efficient(P, utilities(P, z), source=z)
    assert verdict.passed is False
    improving = verdict.witness["improving_mixture"]
    # The improvement shifts weight toward a and d.
    assert improving.z[0] + improving.z[3] > F(0)


def test_is_efficient_pure_outcomes():
    rng = random.Random(23)
    checked_dominated = 0
    for _ in range(1000):
        P = _random_problem(rng)
        undom = undominated_outcomes(P)
        a = rng.randrange(P.m)
        z = Mixture(tuple(F(1) if b == a else F(0) for b in range(P.m)))
        verdict = is_efficient(P, utilities(P, z), source=z)
        if a in undom:
            assert verdict.passed is True
        else:
            assert verdict.passed is False
            checked_dominated += 1
    assert checked_dominated > 50


def test_is_efficient_ex5_half_half():
    P = generators.fixture("ex5")
    z = Mixture((F(0), F(0), F(0), F(1, 2), F(1, 2)))
    assert is_efficient(P, utilities(P, z), source=z).passed is True


def test_is_efficient_rejects_infeasible_profile():
    P = generators.fixture("egal-true")
    with pytest.raises(ValueError):
        is_efficient(P, UtilityProfile((F(1), F(1), F(1))))


def test_is_efficient_rejects_lying_source():
    P = generators.fixture("egal-true")
    z = Mixture((F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        is_efficient(P, UtilityProfile((F(1), F(1), F(0))), source=z)


# ---------------------------------------------------------------- epsilon


def test_epsilon_of_efficient_profile_is_one():
    P = generators.fixture("ex5")
    z = Mixture((F(0), F(0), F(0), F(1, 2), F(1, 2)))
    eps = epsilon_inefficiency(P, utilities(P, z))
    assert eps == 1  # the LP optimum is t* = 1


def test_epsilon_scaling():
    P = generators.fixture("ex5")
    z = Mixture((F(0), F(0), F(0), F(1, 2), F(1, 2)))
    U = utilities(P, z)
    half = UtilityProfile(tuple(x / 2 for x in U.U))
    eps = epsilon_inefficiency(P, half)
    assert abs(eps - F(1, 2)) <= core.DEFAULT_EPSILON_TOL


def test_epsilon_rp_on_ex3():
    # U^rp on this fixture is Pareto-dominated, but the only improving
    # direction leaves one agent exactly flat, so no uniform proportional
    # boost above 1 exists: the max-t LP has t* = 1 exactly.
    P = generators.fixture("ex3")
    U, z = rules.rp_exact(P)
    assert is_efficient(P, U, source=z).passed is False
    assert epsilon_inefficiency(P, U) == 1


def _epsilon_bisection(P, U, tol):
    """Reference: bisection on eps with one LP feasibility test per step."""

    def feasible(eps):
        constraints = [
            (tuple(F(P.u[i][a]) for a in range(P.m)), lp.GE, U[i] / eps)
            for i in range(P.n)
        ]
        constraints.append(((F(1),) * P.m, lp.EQ, F(1)))
        prog = lp.LinearProgram(objective=(F(0),) * P.m, constraints=tuple(constraints))
        return lp.solve_lp(prog).status == "optimal"

    lo, hi = F(0), F(1)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_epsilon_matches_bisection():
    rng = random.Random(83)
    for _ in range(12):
        P = _random_problem(rng, max_n=5, max_m=4)
        z = _random_mixture(rng, P.m)
        scale = F(rng.randint(1, 12), 12)
        U = UtilityProfile(tuple(x * scale for x in utilities(P, z).U))
        if all(x == 0 for x in U.U):
            continue
        for tol in (core.DEFAULT_EPSILON_TOL, F(1, 1000), F(3, 7), F(1), F(2)):
            assert epsilon_inefficiency(P, U, tol) == _epsilon_bisection(P, U, tol)


def test_epsilon_rejects_all_zero():
    P = generators.fixture("egal-true")
    with pytest.raises(ValueError):
        epsilon_inefficiency(P, UtilityProfile((F(0), F(0), F(0))))


# ---------------------------------------------------------------- intervals


def test_interval_structure_already_interval():
    P = Problem(((1, 1, 0), (0, 1, 1)))
    order = interval_structure(P)
    assert order is not None
    # every like-set is consecutive under the returned order
    for i in range(P.n):
        pos = sorted(order.index(a) for a in P.like_set(i))
        assert pos[-1] - pos[0] + 1 == len(pos)


def test_interval_structure_ex3_has_none():
    assert interval_structure(generators.fixture("ex3")) is None


def test_interval_structure_single_column():
    assert interval_structure(Problem(((1,), (1,)))) == (0,)


def test_interval_structure_size_refusal():
    P = Problem((tuple([1] * 11),))
    with pytest.raises(ValueError):
        interval_structure(P)


def test_interval_structure_implies_efficiency_of_undominated_support():
    # On instances with interval structure, any mixture over undominated
    # outcomes is efficient.
    rng = random.Random(31)
    found = 0
    while found < 25:
        P = _random_problem(rng, max_n=6, max_m=5)
        if interval_structure(P) is None:
            continue
        found += 1
        undom = undominated_outcomes(P)
        z = _random_mixture(rng, P.m, support=sorted(undom))
        assert is_efficient(P, utilities(P, z), source=z).passed is True


def test_small_size_efficiency():
    # For m <= 3 or n <= 4, every mixture of undominated outcomes is
    # efficient.
    rng = random.Random(37)
    for _ in range(150):
        if rng.random() < 0.5:
            P = _random_problem(rng, max_n=4, max_m=6)
        else:
            P = _random_problem(rng, max_n=8, max_m=3)
        undom = undominated_outcomes(P)
        z = _random_mixture(rng, P.m, support=sorted(undom))
        assert is_efficient(P, utilities(P, z), source=z).passed is True
