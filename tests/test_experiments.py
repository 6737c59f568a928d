"""Tests for the impartial-culture experiment machinery."""

import collections
import math
from fractions import Fraction

import pytest

from fairmix import experiments, generators, rules
from fairmix.experiments import (
    ExperimentGrid,
    RatioCell,
    grid_to_csv,
    impartial_culture,
    run_grid,
    welfare_ratio,
)

F = Fraction


def test_impartial_culture_single_outcome():
    P = impartial_culture(n=3, m=1, seed=5)
    assert P.u == ((1,), (1,), (1,))


def test_impartial_culture_deterministic():
    assert impartial_culture(4, 3, 99) == impartial_culture(4, 3, 99)


def test_impartial_culture_uniform_over_nonempty_subsets():
    # chi-square over the 7 nonempty subsets at m=3
    draws = 100000
    counts = collections.Counter()
    for k in range(draws // 5):
        P = impartial_culture(5, 3, seed=k)
        for row in P.u:
            counts[row] += 1
    total = sum(counts.values())
    expected = total / 7
    assert len(counts) == 7
    for c in counts.values():
        # 3 sigma of a binomial with p = 1/7
        sigma = math.sqrt(total * (1 / 7) * (6 / 7))
        assert abs(c - expected) <= 3 * sigma


def test_welfare_ratio_util_is_one():
    for seed in range(20):
        P = impartial_culture(4, 4, seed)
        assert welfare_ratio(P, rules.UTIL) == 1


def test_welfare_ratio_cut_on_ex3():
    # total CUT utility 13/5 against the best column sum 3
    P = generators.fixture("ex3")
    assert welfare_ratio(P, rules.CUT) == F(13, 15)


def test_welfare_ratio_rp_on_ex5():
    P = generators.fixture("ex5")
    assert welfare_ratio(P, rules.RP) == F(6, 1) * F(4, 9) / 3


def test_grid_validation():
    with pytest.raises(ValueError):
        ExperimentGrid((3,), (3,), draws=0, seed=1, rules=(rules.CUT,))
    for agents, outcomes in (((7, 0), (5,)), ((3,), (4, 0)), ((-1,), (3,))):
        with pytest.raises(ValueError):
            ExperimentGrid(agents, outcomes, draws=1, seed=1, rules=(rules.CUT,))
    # random priority is bounded by its own work budget, not by n
    ExperimentGrid((12,), (3,), draws=1, seed=1, rules=(rules.RP,))
    with pytest.raises(ValueError):
        RatioCell(min_ratio=F(3, 4), avg_ratio=F(1, 2))


def test_run_grid_deterministic():
    g = ExperimentGrid((3, 4), (3,), draws=10, seed=7,
                       rules=(rules.CUT, rules.RP))
    first = run_grid(g)
    second = run_grid(g)
    assert first == second
    assert grid_to_csv(first) == grid_to_csv(second)


def test_run_grid_rp_never_beats_cut_in_total():
    g = ExperimentGrid((3, 5), (3, 4), draws=25, seed=11,
                       rules=(rules.CUT, rules.RP))
    rows = {(str(rule), n, m): cell for rule, n, m, _, _, cell in run_grid(g)}
    for n in (3, 5):
        for m in (3, 4):
            assert rows[("RP", n, m)].avg_ratio <= rows[("CUT", n, m)].avg_ratio


def test_csv_format():
    g = ExperimentGrid((3,), (3,), draws=5, seed=2, rules=(rules.CUT,))
    text = grid_to_csv(run_grid(g))
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "rule,n,m,draws,seed,min_ratio,avg_ratio"
    fields = lines[2].split(",")
    assert fields[:5] == ["CUT", "3", "3", "5", "2"]
    for ratio_field in fields[5:]:
        exact, approx = ratio_field.split("=")
        p, q = exact.split("/")
        assert abs(F(int(p), int(q)) - F(approx)) < F(1, 10**5)
