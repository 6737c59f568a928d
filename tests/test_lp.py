"""Tests for the exact rational LP solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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


def test_cleanup_pivot_on_a_negative_entry():
    # the row 0 * x >= 0 leaves its artificial basic after phase 1; the
    # clean-up pivots it out on the surplus column, whose entry is -1
    out = _solve((Fraction(-2),), [((Fraction(0),), lp.GE, Fraction(0))])
    assert out == lp.LpOutcome("optimal", Fraction(0), (Fraction(0),), (Fraction(0),))
    assert _solve((Fraction(2),), [((Fraction(0),), lp.GE, Fraction(0))]).status == "unbounded"


# ---------------------------------------------------------------------------
# Reference oracle: a dense two-phase Bland simplex and Gauss-Jordan solve
# in Fraction arithmetic, one Fraction per tableau entry.  lp's integer
# tableau must make the same pivots and so return the same outcomes.


def _ref_pivot(rows, leave, enter):
    row = rows[leave]
    inv = 1 / row[enter]
    rows[leave] = row = [x * inv for x in row]
    for i, other in enumerate(rows):
        f = other[enter]
        if i != leave and f:
            rows[i] = [x - f * y for x, y in zip(other, row)]


def _ref_price(rows, basis, cost):
    for i, b in enumerate(basis):
        f = cost[b]
        if f:
            cost = [x - f * y for x, y in zip(cost, rows[i])]
    rows.append(cost)


def _ref_simplex(rows, basis):
    rhs = len(rows[-1]) - 1
    while True:
        enter = next((j for j in range(rhs) if rows[-1][j] > 0), None)
        if enter is None:
            return "optimal"
        leave = best = None
        for i, b in enumerate(basis):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][rhs] / a
                if best is None or ratio < best or (ratio == best and b < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return "unbounded"
        _ref_pivot(rows, leave, enter)
        basis[leave] = enter


def _ref_solve_lp(prog):
    F = Fraction
    nvar, nrow = len(prog.objective), len(prog.constraints)
    nslack = sum(rel == lp.GE for _, rel, _ in prog.constraints)
    real = nvar + nslack
    rows, basis = [], list(range(real, real + nrow))
    slack = nvar
    for (row, rel, rhs), art in zip(prog.constraints, basis):
        line = [F(x) for x in row] + [F(0)] * (nslack + nrow) + [F(rhs)]
        if rel == lp.GE:
            line[slack] = F(-1)
            slack += 1
        line[art] = F(1)
        rows.append(line)
    _ref_price(rows, basis, [F(0)] * real + [F(-1)] * nrow + [F(0)])
    _ref_simplex(rows, basis)
    if rows.pop()[-1] != 0:
        return lp.LpOutcome(status="infeasible")
    for i, b in enumerate(basis):
        if b >= real:
            enter = next((j for j in range(real) if rows[i][j] != 0), None)
            if enter is not None:
                _ref_pivot(rows, i, enter)
                basis[i] = enter
    keep = [i for i, b in enumerate(basis) if b < real]
    rows = [rows[i][:real] + rows[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    _ref_price(rows, basis, [F(c) for c in prog.objective] + [F(0)] * (nslack + 1))
    if _ref_simplex(rows, basis) == "unbounded":
        return lp.LpOutcome(status="unbounded")
    solution = [F(0)] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            solution[b] = rows[i][-1]
    costs = iter(rows[-1][nvar:real])
    duals = tuple(None if rel == lp.EQ else next(costs) for _, rel, _ in prog.constraints)
    return lp.LpOutcome("optimal", -rows[-1][-1], tuple(solution), duals)


def _ref_solve_linear(rows, rhs):
    work = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots = {}
    for i in range(len(work)):
        c = next((j for j, x in enumerate(work[i][:-1]) if x), None)
        if c is not None:
            _ref_pivot(work, i, c)
            pivots[c] = i
        elif work[i][-1]:
            raise ValueError("inconsistent linear system")
    return [work[pivots[c]][-1] if c in pivots else Fraction(0) for c in range(len(rows[0]))]


def _outcome(solve, *args):
    try:
        return repr(solve(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


_SIGNED = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _redundant_lps(draw):
    """Small LPs whose extra rows are positive multiples or sums of earlier
    ones, so that phase 1 can end with an artificial basic at 0 and the
    clean-up pivots on a negative entry."""
    nv = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("new", "new", "scaled", "sum"))) if rows else "new"
        rel = draw(st.sampled_from((lp.EQ, lp.GE)))
        if kind == "new":
            row = tuple(draw(st.lists(_SIGNED, min_size=nv, max_size=nv)))
            rhs = draw(st.fractions(min_value=0, max_value=4, max_denominator=3))
        elif kind == "scaled":
            k = draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
            base, _, b = draw(st.sampled_from(rows))
            row, rhs = tuple(k * x for x in base), k * b
        else:
            (r1, _, b1), (r2, _, b2) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row, rhs = tuple(x + y for x, y in zip(r1, r2)), b1 + b2
        rows.append((row, rel, rhs))
    objective = tuple(draw(st.lists(_SIGNED, min_size=nv, max_size=nv)))
    return lp.LinearProgram(objective, tuple(rows))


@settings(max_examples=400, deadline=None)
@given(_redundant_lps())
# a tie in the ratio test that the basis index decides: the ">=" row's dual
# is 0 on Bland's path, and -1 if the tie goes to the first row instead
@example(lp.LinearProgram((-1, 0), (((0, 1), lp.EQ, 1), ((1, 1), lp.GE, 1))))
def test_solve_lp_matches_the_fraction_reference(prog):
    assert repr(lp.solve_lp(prog)) == _outcome(_ref_solve_lp, prog)


@st.composite
def _rank_deficient_systems(draw):
    ncol = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    rows = [draw(st.lists(entries, min_size=ncol, max_size=ncol))
            for _ in range(draw(st.integers(1, 4)))]
    rhs = [draw(_SIGNED) for _ in rows]
    for _ in range(draw(st.integers(0, 2))):  # dependent rows, consistent or not
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(entries), draw(entries)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        rhs.append(a * rhs[i] + b * rhs[j] + draw(st.sampled_from((0, 0, Fraction(1, 2)))))
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(_rank_deficient_systems())
def test_solve_linear_matches_the_fraction_reference(system):
    rows, rhs = system
    assert _outcome(lp.solve_linear, rows, rhs) == _outcome(_ref_solve_linear, rows, rhs)
