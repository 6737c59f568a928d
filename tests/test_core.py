"""Tests for core domain types, I/O, utilities, and efficiency."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import core, generators, lp, rules
from fairmix.core import (
    Mixture,
    Problem,
    UtilityProfile,
    epsilon_inefficiency,
    format_mixture,
    format_problem,
    format_typed_profile,
    is_efficient,
    parse_mixture,
    parse_rational,
    parse_problem,
    undominated_outcomes,
    utilities,
)
from random_profiles import random_problem

F = Fraction


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
        Problem.from_rows(((0, 0), (1, 1)))


def test_problem_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Problem.from_rows(((1, 0), (1,)))


def test_problem_normalises_list_rows():
    P = Problem.from_rows([[1, 0], [0, 1]])
    assert P.u == ((1, 0), (0, 1)) and P == Problem.from_rows(((1, 0), (0, 1)))
    # hashable, so the memoized rule dispatcher accepts it
    assert rules.evaluate(rules.UTIL, P) == rules.util_rule(P)
    assert rules.util_rule(P)[1].z == (F(1, 2), F(1, 2))


def test_mixture_must_sum_to_one():
    with pytest.raises(ValueError):
        Mixture((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        Mixture((F(3, 2), F(-1, 2)))
    # ints and floats are checked exactly too
    with pytest.raises(ValueError, match="nonnegative"):
        Mixture((2, -1))
    with pytest.raises(ValueError, match="nonnegative"):
        Mixture((1.5, -0.5))
    with pytest.raises(ValueError, match="exactly 1"):
        Mixture((1, 1))
    with pytest.raises(ValueError, match="exactly 1"):
        Mixture((0.1, 0.9))  # 1.0 in floats, 1 + 2^-55 exactly
    assert Mixture((0, 0.25, 0.75)).z == (F(0), F(1, 4), F(3, 4))


def test_mixture_keeps_its_fraction_coordinates():
    x = F(1, 3)
    z = Mixture((x, F(2, 3)))
    assert z.z[0] is x
    assert z.weight_on(0b01) == x and z.weight_on(0b11) == 1


def test_utility_profile_range():
    P = Problem.from_rows(((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="lie in"):
        UtilityProfile(P, (F(3, 2), F(0)))
    assert UtilityProfile(P, (F(1), F(0))).total() == 1


def test_utility_profile_refuses_wrong_value_count():
    # rows A, B, A: three agents, two types
    P = Problem.from_rows(((1, 0), (0, 1), (1, 0)))
    for count in (1, 3):
        with pytest.raises(ValueError, match="one value per agent type"):
            UtilityProfile(P, (F(1, 2),) * count)
    assert UtilityProfile(P, (F(1, 4), F(1, 2))).U == (F(1, 4), F(1, 2), F(1, 4))


def test_typed_profile_expansion_order_stable():
    tp = Problem(m=3, entries=((2, 0b001), (1, 0b110)))
    P = tp
    assert P.u == ((1, 0, 0), (1, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        Problem(m=3, entries=((0, 0b001),))
    with pytest.raises(ValueError):
        Problem(m=3, entries=((1, 0),))
    with pytest.raises(ValueError):
        Problem(m=3, entries=())
    with pytest.raises(ValueError):
        Problem(m=0, entries=())


def test_agent_index_out_of_range():
    P = Problem.from_rows(((1, 0), (0, 1), (1, 1)))
    for i in (5, -1):
        with pytest.raises(ValueError):
            P.drop_agent(i)
    for i in (-1, 7):
        with pytest.raises(ValueError):
            P.replace_row(i, (1, 1))
    assert P.drop_agent(2).u == ((1, 0), (0, 1))
    assert P.replace_row(2, (0, 1)).u == ((1, 0), (0, 1), (0, 1))


def test_replace_mask_is_replace_row_of_its_row():
    rng = random.Random(11)
    for _ in range(100):
        P = random_problem(rng, max_n=6, max_m=5)
        i, mask = rng.randrange(P.n), rng.randrange(1, 1 << P.m)
        row = tuple(mask >> a & 1 for a in range(P.m))
        assert P.replace_mask(i, mask) == P.replace_row(i, row)
        for bad in (-1, P.n):
            with pytest.raises(ValueError, match="agent index"):
                P.replace_mask(bad, mask)


def test_like_mask_rejects_agent_index_out_of_range():
    P = Problem.from_rows(((1, 0), (0, 1)))
    for i in (-1, 5):
        with pytest.raises(ValueError):
            P.like_mask(i)
        with pytest.raises(ValueError):
            P.like_set(i)
    assert (P.like_mask(1), P.like_set(1)) == (0b10, (1,))


@st.composite
def _runs(draw):
    """(m, entries, rows): runs whose masks come from a small pool, so
    adjacent runs often share a mask, and the 0/1 rows they list."""
    m = draw(st.integers(1, 4))
    pool = draw(st.lists(st.integers(1, 2**m - 1), min_size=1, max_size=3))
    entries = draw(st.lists(
        st.tuples(st.integers(1, 4), st.sampled_from(pool)), min_size=1, max_size=6
    ))
    rows = [
        tuple(mask >> a & 1 for a in range(m)) for count, mask in entries
        for _ in range(count)
    ]
    return m, entries, rows


@settings(max_examples=200, deadline=None)
@given(_runs(), st.data())
def test_runs_agree_with_their_rows(runs, data):
    m, entries, rows = runs
    P = Problem(m, entries)
    assert P == Problem.from_rows(rows) and hash(P) == hash(Problem.from_rows(rows))
    masks = [sum(x << a for a, x in enumerate(row)) for row in rows]
    classes = {}
    for i, row in enumerate(rows):
        classes.setdefault(row, []).append(i)
    assert P.n == len(rows) and P.u == tuple(rows)
    assert P.clone_classes == tuple(
        (masks[agents[0]], tuple(agents)) for agents in classes.values()
    )
    assert P.types == tuple((len(agents), masks[agents[0]]) for agents in classes.values())
    assert [P.column_sum(a) for a in range(m)] == [sum(col) for col in zip(*rows)]
    columns = {}
    for a, col in enumerate(zip(*rows)):
        columns.setdefault(col, []).append(a)
    assert P.outcome_classes == tuple(
        (
            tuple(outcomes),
            sum(1 << t for t, agents in enumerate(classes.values()) if col[agents[0]]),
            sum(col),
        )
        for col, outcomes in columns.items()
    )
    assert [P.like_mask(i) for i in range(len(rows))] == masks
    i = data.draw(st.integers(0, len(rows) - 1))
    mask = data.draw(st.integers(1, 2**m - 1))
    row = tuple(mask >> a & 1 for a in range(m))
    assert P.replace_row(i, row) == Problem.from_rows(rows[:i] + [row] + rows[i + 1:])
    if len(rows) > 1:
        assert P.drop_agent(i) == Problem.from_rows(rows[:i] + rows[i + 1:])
    assert parse_problem(format_problem(P)) == P
    assert parse_problem(format_typed_profile(P)) == P


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


@pytest.mark.parametrize("text, message", [
    ("2 2\n111\n11", "row '111' has length 3, expected 2"),
    ("2 2\n11\n1x", "row '1x' contains characters outside {0,1}"),
    ("2 2\n11\n00", "row 1 is all zeros (agent likes nothing)"),
    # every row's length and characters are checked before any all-zero row
    ("2 2\n00\n1", "row '1' has length 1, expected 2"),
    ("typed 2\n1 111", "row '111' has length 3, expected 2"),
    ("typed 2\n1 1x", "row '1x' contains characters outside {0,1}"),
    ("typed 2\n1 01\n1 00", "like-mask 0 outside 1 .. 2^2 - 1"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError) as err:
        parse_problem(text)
    assert str(err.value) == message


def test_parse_typed_format():
    P = parse_problem("typed 3\n2 100\n1 011")
    assert P.u == ((1, 0, 0), (1, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        parse_problem("typed 3\n0 100")


def test_typed_agent_cap_is_inclusive():
    # typed files are kept as runs, so a file at the cap parses at once
    cap = core.MAX_TYPED_AGENTS
    P = parse_problem(f"typed 2\n{cap - 1} 01\n1 01")
    assert P.n == cap and P.entries == ((cap, 0b10),)
    with pytest.raises(ValueError, match="agents"):
        parse_problem(f"typed 2\n{cap} 01\n1 10")


def test_problem_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        P = random_problem(rng, max_n=6, max_m=6)
        assert parse_problem(format_problem(P)) == P


def test_mixture_round_trip():
    z = Mixture((F(1, 5), F(1, 10), F(1, 10), F(3, 5), F(0)))
    text = format_mixture(z)
    assert text == "1/5 1/10 1/10 3/5 0/1"
    assert parse_mixture(text) == z


def test_parse_rational():
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("0.25") == F(1, 4)
    for bad in ("1/0", "abc", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError):
        parse_mixture("1/0 1")


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
        P = random_problem(rng, max_n=6, max_m=6)
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
        P = random_problem(rng, max_n=6, max_m=6)
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
    P = Problem.from_rows(((1, 1), (1, 1), (1, 1)))
    assert undominated_outcomes(P) == {0, 1}


def test_undominated_clone_invariance():
    rng = random.Random(17)
    for _ in range(50):
        P = random_problem(rng, max_n=6, max_m=5)
        a = rng.randrange(P.m)
        cloned = Problem.from_rows(tuple(row + (row[a],) for row in P.u))
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
        P = random_problem(rng, max_n=6, max_m=6)
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
        is_efficient(P, UtilityProfile(P, (F(1), F(1), F(1))))


def test_is_efficient_rejects_lying_source():
    P = generators.fixture("egal-true")
    z = Mixture((F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        is_efficient(P, UtilityProfile(P, (F(1), F(1), F(0))), source=z)


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
    half = UtilityProfile(P, tuple(x / 2 for x in U.values))
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
        P = random_problem(rng, max_n=5, max_m=4)
        z = _random_mixture(rng, P.m)
        scale = F(rng.randint(1, 12), 12)
        U = UtilityProfile(P, tuple(x * scale for x in utilities(P, z).values))
        if all(x == 0 for x in U.values):
            continue
        tol = core.DEFAULT_EPSILON_TOL
        assert epsilon_inefficiency(P, U) == _epsilon_bisection(P, U, tol)


def test_epsilon_rejects_all_zero():
    P = generators.fixture("egal-true")
    with pytest.raises(ValueError):
        epsilon_inefficiency(P, UtilityProfile(P, (F(0), F(0), F(0))))


# ---------------------------------------------------------------- intervals


def _has_interval_order(P):
    # brute force over column orders: is every like-set consecutive in one?
    for perm in itertools.permutations(range(P.m)):
        spans = ([j for j, a in enumerate(perm) if P.u[i][a]] for i in range(P.n))
        if all(pos[-1] - pos[0] + 1 == len(pos) for pos in spans):
            return True
    return False


def test_interval_structure_implies_efficiency_of_undominated_support():
    # On instances with interval structure, any mixture over undominated
    # outcomes is efficient.
    rng = random.Random(31)
    found = 0
    while found < 25:
        P = random_problem(rng, max_n=6, max_m=5)
        if not _has_interval_order(P):
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
            P = random_problem(rng, max_n=4, max_m=6)
        else:
            P = random_problem(rng, max_n=8, max_m=3)
        undom = undominated_outcomes(P)
        z = _random_mixture(rng, P.m, support=sorted(undom))
        assert is_efficient(P, utilities(P, z), source=z).passed is True


def test_src_has_no_assert_statements():
    # python -O strips asserts, so no control flow in the library may rely on them
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(core.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
