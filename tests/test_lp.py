"""Tests for the exact rational LP solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairmix import lp


def _solve(objective, constraints):
    return lp.solve_lp(lp.LinearProgram(objective=tuple(objective),
                                        constraints=tuple(constraints)))


def test_vertex_optimum_on_simplex():
    # max z_a over the 2-outcome simplex -> point mass on a.
    out = _solve(
        (Fraction(1), Fraction(0)),
        [((Fraction(1), Fraction(1)), lp.EQ, Fraction(1))],
    )
    assert out.status == "optimal"
    assert out.value == 1
    assert out.solution == (Fraction(1), Fraction(0))


def test_infeasible_simplex_constraint():
    # z_a >= 2 is impossible inside the simplex.
    out = _solve(
        (Fraction(0), Fraction(0)),
        [((Fraction(1), Fraction(1)), lp.EQ, Fraction(1)),
         ((Fraction(1), Fraction(0)), lp.GE, Fraction(2))],
    )
    assert out.status == "infeasible"


def test_unbounded():
    out = _solve((Fraction(1),), [((Fraction(1),), lp.GE, Fraction(0))])
    assert out.status == "unbounded"


def test_efficiency_lp_detects_inefficiency():
    # Efficiency LP for the five-agent fixture at z = (0,1/2,1/2,0,0):
    # a positive optimum certifies a Pareto improvement.
    from fairmix import core, generators

    P = generators.fixture("ex3")
    z = core.Mixture((Fraction(0), Fraction(1, 2), Fraction(1, 2),
                      Fraction(0), Fraction(0)))
    U = core.utilities(P, z)
    verdict = core.is_efficient(P, U, source=z)
    assert verdict.passed is False
    assert verdict.witness["surplus"] > 0
    improved = verdict.witness["improved_profile"]
    assert all(improved.U[i] >= U.U[i] for i in range(P.n))
    assert any(improved.U[i] > U.U[i] for i in range(P.n))


def test_size_refusal():
    n = lp.MAX_VARIABLES + 1
    with pytest.raises(ValueError):
        _solve((Fraction(0),) * n, [])


def test_determinism():
    rng = random.Random(7)
    for _ in range(20):
        nv = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        obj = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv))
        cons = tuple(
            (tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv)),
             rng.choice((lp.EQ, lp.GE)),
             Fraction(rng.randint(0, 5)))
            for _ in range(nc)
        )
        first = _solve(obj, cons)
        second = _solve(obj, cons)
        assert first == second


def test_strong_duality_spot_check():
    # Random primal max c.x s.t. Ax >= b, x >= 0.  Its returned duals must
    # solve the dual min b.y s.t. A^T y >= c, y <= 0: dual feasibility plus
    # b.y equal to the primal optimum certifies both optima exactly.
    rng = random.Random(20260823)
    optimal = 0
    for _ in range(500):
        nv = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(nv)]
             for _ in range(nc)]
        b = [Fraction(rng.randint(0, 6)) for _ in range(nc)]
        # a positive c_j is often unbounded under ">=" rows, so fewer are drawn
        c = [Fraction(rng.randint(-4, 2)) for _ in range(nv)]
        primal = _solve(c, [(tuple(row), lp.GE, rhs) for row, rhs in zip(A, b)])
        if primal.status == "optimal":
            y = primal.duals
            assert all(yi <= 0 for yi in y)
            assert all(sum(A[i][j] * y[i] for i in range(nc)) >= c[j]
                       for j in range(nv))
            assert sum(bi * yi for bi, yi in zip(b, y)) == primal.value
            optimal += 1
    assert optimal > 100  # the corpus genuinely exercises duality


def test_optimal_solution_satisfies_constraints_exactly():
    rng = random.Random(99)
    for _ in range(100):
        nv = rng.randint(1, 4)
        nc = rng.randint(1, 3)
        obj = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv))
        cons = tuple(
            (tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv)),
             rng.choice((lp.EQ, lp.GE)),
             Fraction(rng.randint(0, 4)))
            for _ in range(nc)
        )
        out = _solve(obj, cons)
        if out.status != "optimal":
            continue
        x = out.solution
        assert all(v >= 0 for v in x)
        assert sum(ci * xi for ci, xi in zip(obj, x)) == out.value
        assert len(out.duals) == len(cons)
        for (row, rel, rhs), y in zip(cons, out.duals):
            lhs = sum(r * xi for r, xi in zip(row, x))
            assert (y is None) == (rel == lp.EQ)
            if rel == lp.GE:
                assert lhs >= rhs and y <= 0
            else:
                assert lhs == rhs
            if y:  # complementary slackness
                assert lhs == rhs


_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _small_lps(draw):
    nv = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 4))
    objective = tuple(draw(st.lists(_RATIONAL, min_size=nv, max_size=nv)))
    constraints = tuple(
        (tuple(draw(st.lists(_RATIONAL, min_size=nv, max_size=nv))),
         draw(st.sampled_from((lp.EQ, lp.GE))),
         draw(st.fractions(min_value=0, max_value=5, max_denominator=2)))
        for _ in range(nc)
    )
    return objective, constraints


@settings(max_examples=300, deadline=None)
@given(_small_lps())
def test_solve_lp_agrees_with_highs(program):
    # Independent oracle: HiGHS through scipy, in floating point.  Its
    # presolve reports some unbounded programs as infeasible, so it is off;
    # an inconclusive HiGHS run (status 4) is no verdict and is skipped.
    linprog = pytest.importorskip("scipy.optimize").linprog
    objective, constraints = program
    ours = _solve(objective, constraints)
    ge = [(row, rhs) for row, rel, rhs in constraints if rel == lp.GE]
    eq = [(row, rhs) for row, rel, rhs in constraints if rel == lp.EQ]
    res = linprog(
        [-float(c) for c in objective],
        A_ub=[[-float(a) for a in row] for row, _ in ge] or None,
        b_ub=[-float(rhs) for _, rhs in ge] or None,
        A_eq=[[float(a) for a in row] for row, _ in eq] or None,
        b_eq=[float(rhs) for _, rhs in eq] or None,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    assume(res.status != 4)
    assert ours.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    if ours.status == "optimal":
        assert abs(float(ours.value) + res.fun) <= 1e-9 * max(1.0, abs(res.fun))


def test_solve_linear_sets_free_variables_to_zero():
    F = Fraction
    # x0 + x1 + x2 = 1 and x1 + 2 x2 = 1/2: x2 is free and set to 0
    x = lp.solve_linear([(F(1), F(1), F(1)), (F(0), F(1), F(2))], [F(1), F(1, 2)])
    assert x == [F(1, 2), F(1, 2), F(0)]
    # the first nonzero entry of each row pivots, so here x0 is free
    assert lp.solve_linear([(F(0), F(2), F(1))], [F(3)]) == [F(0), F(3, 2), F(0)]


def test_solve_linear_dependent_and_inconsistent_rows():
    F = Fraction
    rows = [(F(1), F(1)), (F(2), F(2))]
    # the second row is twice the first: consistent, one independent row
    assert lp.solve_linear(rows, [F(1), F(2)]) == [F(1), F(0)]
    with pytest.raises(ValueError):
        lp.solve_linear(rows, [F(1), F(3)])
    # a zero row needs a zero rhs
    assert lp.solve_linear([(F(0), F(0))], [F(0)]) == [F(0), F(0)]
    with pytest.raises(ValueError):
        lp.solve_linear([(F(0), F(0))], [F(1)])


def test_solve_linear_stays_exact_on_int_input():
    # an int pivot of 2 must not turn the solution into floats
    x = lp.solve_linear([[2, 1]], [1])
    assert x == [Fraction(1, 2), 0]
    assert all(type(v) is Fraction for v in x)


def test_solve_lp_int_coefficients_give_fractions():
    # maximize -x - 2y  s.t.  2x + 3y >= 5,  x >= 1: optimum (5/2, 0), value -5/2
    prog = lp.LinearProgram(
        objective=(-1, -2), constraints=(((2, 3), lp.GE, 5), ((1, 0), lp.GE, 1))
    )
    out = lp.solve_lp(prog)
    assert out.status == "optimal"
    assert out.value == Fraction(-5, 2) and out.solution == (Fraction(5, 2), 0)
    assert out.duals == (Fraction(-1, 2), 0)
    assert all(
        type(x) is Fraction for x in (out.value,) + out.solution + out.duals
    )


def test_linear_program_refuses_le_rows_and_negative_rhs():
    with pytest.raises(ValueError, match="unknown relation"):
        lp.LinearProgram(objective=(1,), constraints=(((1,), "<=", 1),))
    with pytest.raises(ValueError, match="negative right-hand side"):
        lp.LinearProgram(objective=(1,), constraints=(((1,), lp.GE, -1),))
    with pytest.raises(ValueError, match="negative right-hand side"):
        lp.LinearProgram(objective=(1,), constraints=(((-1,), lp.EQ, Fraction(-1, 2)),))
