"""Tests for the command-line interface."""

import argparse
import time
from fractions import Fraction

import pytest

from fairmix import cli, core, experiments, generators, rules

F = Fraction


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- solve


def test_solve_cut_on_fixture(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "cut", "--fixture", "ex3")
    assert code == 0
    assert out.strip() == "1/5 1/10 1/10 3/5 0"


def test_solve_from_file(capsys, tmp_path):
    path = tmp_path / "ex3.prob"
    path.write_text(core.format_problem(generators.fixture("ex3")))
    code, out, _ = run(capsys, "solve", "--rule", "rp", str(path))
    assert code == 0
    assert out.strip() == "1/5 1/6 1/6 7/15 0"


def test_solve_float_output(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "cut", "--fixture", "ex3",
                       "--float")
    assert code == 0
    assert out.split() == ["0.2", "0.1", "0.1", "0.6", "0"]


def test_solve_round_trips_into_check(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "egal", "--fixture",
                       "egal-true")
    assert code == 0
    code2, out2, _ = run(capsys, "check", "--axiom", "ifs", "--mixture",
                         out.strip(), "--fixture", "egal-true")
    assert code2 == 0
    assert "result=pass" in out2


def test_solve_rp_beyond_ten_agents(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "rp", "--fixture", "appendix860")
    assert code == 0
    assert core.parse_mixture(out).m == 4


def test_check_eff_on_appendix860(capsys):
    # 860 agents of few types: one efficiency LP row per type
    code, out, _ = run(capsys, "check", "--axiom", "eff", "--rule", "nmp",
                       "--fixture", "appendix860")
    assert code == 0
    assert "result=pass" in out


@pytest.mark.parametrize("axiom", ["gfs", "afs", "cfs"])
def test_check_coalition_axioms_on_appendix860(capsys, axiom):
    # 860 agents of 4 types: the coalition checks read clone classes
    code, out, _ = run(capsys, "check", "--axiom", axiom, "--rule", "nmp",
                       "--fixture", "appendix860")
    assert code == 0
    assert out.strip() == f"{axiom.upper()} rule=NMP result=pass"


def test_check_cfs_cut_fails_on_appendix36(capsys):
    code, out, _ = run(capsys, "check", "--axiom", "cfs", "--rule", "cut",
                       "--fixture", "appendix36")
    assert code == 1
    witness = dict(
        item.split("=") for item in out.split("witness=[")[1].rstrip("]\n").split(",")
    )
    S = tuple(int(i) for i in witness["coalition"].strip("()").split())
    zb = [F(x) for x in witness["blocking_mixture"].strip("()").split()]
    P = generators.fixture("appendix36")
    U, _ = rules.cut_rule(P)
    got = [F(len(S), P.n) * sum(zb[a] for a in range(P.m) if P.u[i][a]) for i in S]
    assert all(g >= U[i] for g, i in zip(got, S))
    assert F(witness["surplus"]) == sum(got) - sum(U[i] for i in S) > 0


def test_solve_hrule(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "hrule", "--q", "1/2",
                       "--fixture", "ex5", "--float")
    assert code == 0
    values = [float(x) for x in out.split()]
    assert abs(sum(values) - 1) < 1e-9


def test_solve_no_input(capsys):
    code, _, err = run(capsys, "solve", "--rule", "cut")
    assert code == 2 and "no input" in err


def test_solve_both_inputs_rejected(capsys, tmp_path):
    path = tmp_path / "p.prob"
    path.write_text("1 1\n1\n")
    code, _, err = run(capsys, "solve", "--rule", "cut", "--fixture", "ex3",
                       str(path))
    assert code == 2


# ---------------------------------------------------------------- check


def test_check_axiom_failure_exits_one(capsys):
    code, out, _ = run(capsys, "check", "--axiom", "ifs", "--rule", "util",
                       "--fixture", "ex3")
    assert code == 1
    assert "result=fail" in out and "witness=[" in out


# impartial_culture(5, 4, 1135): NMP's rounded mixture gives agent 3 a
# utility 4.4e-17 short of 1/5, well inside the tie guard
NMP_ROUNDING_PROBLEM = "5 4\n1001\n0001\n1100\n0010\n0101\n"


# the witness of the first miss, within the guard, that each axiom prints
_U3 = "900719925474099/4503599627370496"  # agent 3's utility
NMP_ROUNDING_WITNESSES = {
    "ifs": f"agent=3,required=1/5,utility={_U3}",
    "ufs": f"agent=3,clone_class=(3),required=1/5,utility={_U3}",
    "gfs": f"coalition=(3),pooled_weight={_U3},required=1/5",
    "afs": f"coalition=(3),required_total=1/5,total_utility={_U3}",
    "cfs": "blocking_mixture=(0/1 0/1 1/1 0/1),coalition=(3),"
           "surplus=1/22517998136852480",
}


@pytest.mark.parametrize("axiom", ["ifs", "cfs", "gfs", "ufs", "afs"])
def test_check_numeric_rule_within_tie_guard_is_inconclusive(capsys, tmp_path, axiom):
    path = tmp_path / "ic1135.prob"
    path.write_text(NMP_ROUNDING_PROBLEM)
    code, out, _ = run(capsys, "check", str(path), "--axiom", axiom, "--rule", "nmp")
    assert code == 0
    assert out == (f"{axiom.upper()} rule=NMP result=inconclusive "
                   f"witness=[{NMP_ROUNDING_WITNESSES[axiom]}]\n")


@pytest.mark.parametrize("text, q, coalition", [
    # impartial_culture(5, 4, 189): coalition (4) misses by about 2e-17,
    # inside the tie guard, but (3 4) misses its 4/5 by about 1/10
    ("5 4\n0001\n0111\n0011\n1010\n1100\n", "1/2", "(3 4)"),
    # impartial_culture(6, 4, 207) and (6, 3, 341)
    ("6 4\n1001\n1101\n1101\n0101\n0111\n0010\n", "-1", "(0 1 2 3 4)"),
    ("6 3\n101\n110\n101\n010\n100\n100\n", "-1", "(0 1 2 4 5)"),
])
def test_check_afs_failure_beyond_a_near_tie_is_a_failure(capsys, tmp_path, text, q,
                                                          coalition):
    path = tmp_path / "ic.prob"
    path.write_text(text)
    code, out, _ = run(capsys, "check", str(path), "--axiom", "afs", "--rule",
                       "hrule", f"--q={q}")
    assert code == 1
    assert "result=fail" in out and f"coalition={coalition}," in out


def test_check_sp_star_egal(capsys):
    code, out, _ = run(capsys, "check", "--axiom", "sp*", "--rule", "egal",
                       "--fixture", "egal-true")
    assert code == 1
    assert "result=fail" in out


def test_check_exsp_egal_passes(capsys):
    code, out, _ = run(capsys, "check", "--axiom", "exsp", "--rule", "egal",
                       "--fixture", "egal-true")
    assert code == 0
    assert "result=pass" in out


def test_check_dec(capsys):
    code, out, _ = run(capsys, "check", "--axiom", "dec", "--rule", "util",
                       "--fixture", "dec-mprime")
    assert code == 1
    code2, out2, _ = run(capsys, "check", "--axiom", "dec", "--rule", "cut",
                         "--fixture", "dec-mprime")
    assert code2 == 0


def test_check_requires_rule_or_mixture(capsys):
    code, _, err = run(capsys, "check", "--axiom", "ifs", "--fixture", "ex3")
    assert code == 2
    code2, _, err2 = run(capsys, "check", "--axiom", "sp", "--fixture", "ex3")
    assert code2 == 2


def test_check_rule_with_mixture_is_a_usage_error(capsys):
    # the verdict would be the mixture's but labelled with the rule; EGAL
    # always satisfies IFS, the point mass on outcome a does not
    for axiom in ("ifs", "eff"):
        code, out, err = run(capsys, "check", "--axiom", axiom, "--rule", "egal",
                             "--mixture", "1 0 0", "--fixture", "egal-true")
        assert code == 2 and out == "" and "not both" in err
    code, out, _ = run(capsys, "check", "--axiom", "ifs", "--rule", "egal",
                       "--fixture", "egal-true")
    assert code == 0 and "result=pass" in out


def test_check_unknown_axiom(capsys):
    code, _, err = run(capsys, "check", "--axiom", "bogus", "--rule", "cut",
                       "--fixture", "ex3")
    assert code == 2 and "unknown axiom" in err


@pytest.mark.parametrize("argv", [
    ("check", "--axiom", "ifs", "--mixture", "1/0 1 0 0 0", "--fixture", "ex3"),
    ("solve", "--rule", "hrule", "--q", "1/0", "--fixture", "ex3"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    # exit 1 means "axiom fails"; a malformed rational must not look like it
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:") and "zero denominator" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--rule", "nmp", "--q", "1/2", "--fixture", "ex3"),
    ("check", "--axiom", "ifs", "--mixture", "1 0 0", "--q", "1/2",
     "--fixture", "egal-true"),
    ("check", "--axiom", "sp", "--rule", "cut", "--q", "1/2", "--fixture", "ex3"),
    ("table", "--agents", "3", "--outcomes", "3", "--draws", "1",
     "--rules", "cut,nmp", "--q", "1/2"),
])
def test_q_without_hrule_is_a_usage_error(capsys, argv):
    # --q would be silently dropped: no named rule reads it
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--q" in err


def test_table_q_with_hrule_among_rules(capsys):
    code, out, _ = run(capsys, "table", "--agents", "3", "--outcomes", "3",
                       "--draws", "1", "--rules", "cut,HRule", "--q", "1/2")
    assert code == 0 and "HRULE(1/2)" in out


# ---------------------------------------------------------------- table


def test_table_csv_deterministic(capsys, tmp_path):
    args = ("table", "--agents", "3", "--outcomes", "3", "--draws", "5",
            "--seed", "9", "--rules", "cut,rp")
    code, out, _ = run(capsys, *args)
    assert code == 0
    dest = tmp_path / "grid.csv"
    code2, _, _ = run(capsys, *args, "--output", str(dest))
    assert code2 == 0 and dest.read_text() == out


def test_table_rp_cap(capsys):
    # the first draw at n=30, m=16 for seed 0 is over random priority's budget
    code, _, err = run(capsys, "table", "--agents", "30", "--outcomes", "16",
                       "--draws", "1", "--seed", "0", "--rules", "rp")
    assert code == 2
    assert "DP steps" in err


@pytest.mark.parametrize("agents, draws", [("3000000", "1"), ("3", "1000000")])
def test_table_cell_over_the_agent_cap_draws_nothing(capsys, monkeypatch, agents,
                                                      draws):
    def no_draws(*args):
        raise AssertionError("a profile was drawn")

    monkeypatch.setattr(experiments, "impartial_culture", no_draws)
    code, out, err = run(capsys, "table", "--agents", agents, "--outcomes", "3",
                         "--draws", draws, "--rules", "cut")
    assert code == 2 and out == "" and "n * draws" in err


# ---------------------------------------------------------------- construct


def test_construct_cut_worstcase(capsys):
    code, out, _ = run(capsys, "construct", "--family", "cut-worstcase",
                       "--n1", "5", "--n2", "5", "--p", "4")
    assert code == 0
    P = core.parse_problem(out)
    assert (P.n, P.m) == (10, 11)


def test_construct_appendix860_typed(capsys):
    code, out, _ = run(capsys, "construct", "--family", "appendix860")
    assert code == 0
    assert out.startswith("typed 4\n")
    P = core.parse_problem(out)
    assert P.n == 860


def test_construct_sp0_misreport(capsys):
    code, out, _ = run(capsys, "construct", "--family", "sp0", "--misreport")
    assert code == 0
    truthful, misreported = generators.appendix_sp0()
    assert core.parse_problem(out).n == sum(c for c, _ in misreported.entries)


def test_construct_missing_params(capsys):
    code, _, err = run(capsys, "construct", "--family", "cut-worstcase")
    assert code == 2


@pytest.mark.parametrize("family, message", [
    ("cut-worstcase", "cut-worstcase needs --n1 --n2 --p"),
    ("rp-worstcase", "rp-worstcase needs --k --d --ell"),
])
def test_construct_missing_params_names_them(capsys, family, message):
    code, out, err = run(capsys, "construct", "--family", family, "--n1", "5",
                         "--k", "3")
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_construct_unknown_family(capsys):
    code, _, err = run(capsys, "construct", "--family", "bogus")
    assert code == 2


# ---------------------------------------------------------------- verify


def test_verify_appendix_860(capsys):
    code, out, _ = run(capsys, "verify-appendix", "--which", "860")
    assert code == 0
    assert out.count("residual") == 2
    assert "OK" in out


def test_verify_appendix_sp0(capsys):
    code, out, _ = run(capsys, "verify-appendix", "--which", "sp0")
    assert code == 0
    assert "7/16" in out and "1/2" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--rule", "cut", "--fixture", "ex3", "--bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- names


def _listed(command, option):
    """The names the help string of ``command``'s ``option`` lists."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in subs.choices[command]._actions if option in a.option_strings)
    return action.help.split("|")


def _cases(name):
    mixed = "".join(c.upper() if i % 2 else c for i, c in enumerate(name))
    return [name.lower(), name.upper(), mixed]


@pytest.mark.parametrize(
    "rule", [case for name in _listed("solve", "--rule") for case in _cases(name)]
)
def test_every_listed_rule_name_is_accepted(capsys, rule):
    q = ("--q", "1/2") if rule.upper() == "HRULE" else ()
    code, out, err = run(capsys, "solve", "--rule", rule, *q, "--fixture", "ex3")
    assert code == 0 and err == ""
    assert core.parse_mixture(out).m == 5


@pytest.mark.parametrize("axiom", _listed("check", "--axiom"))
def test_every_listed_axiom_name_is_accepted(capsys, axiom):
    # dec-m is polarized, so dec applies
    code, out, err = run(capsys, "check", "--axiom", axiom, "--rule", "cut",
                         "--fixture", "dec-m")
    assert code in (0, 1) and err == ""
    assert out.startswith(f"{axiom.upper()} rule=CUT result=")


_FAMILY_ARGS = {
    "cut-worstcase": ("--n1", "5", "--n2", "5", "--p", "4"),
    "rp-worstcase": ("--k", "3", "--d", "2", "--ell", "2"),
}


@pytest.mark.parametrize("family", _listed("construct", "--family"))
def test_every_listed_family_is_accepted(capsys, family):
    code, out, err = run(capsys, "construct", "--family", family,
                         *_FAMILY_ARGS.get(family, ()))
    assert code == 0 and err == ""
    assert core.parse_problem(out).n >= 1


@pytest.mark.parametrize("name", generators.fixture_names())
def test_every_fixture_name_is_accepted(capsys, name):
    code, out, err = run(capsys, "solve", "--rule", "cut", "--fixture", name)
    assert code == 0 and err == ""
    assert core.parse_mixture(out).m == generators.fixture(name).m


def test_hrule_without_q_is_a_usage_error(capsys):
    code, out, err = run(capsys, "solve", "--rule", "hrule", "--fixture", "ex3")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("solve", "--fixture", "ex3", "--rule", "hrule", "--q=-50"),
    ("solve", "--fixture", "ex3", "--rule", "hrule", "--q=-1000"),
    ("solve", "--fixture", "ex3", "--rule", "hrule", "--q=-1e400"),
    ("solve", "--fixture", "ex3", "--rule", "hrule", "--q=1e-400"),
    ("table", "--agents", "3", "--outcomes", "3", "--rules", "hrule", "--q=-300"),
])
def test_hrule_q_beyond_float_range_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", [
    ("solve", "--fixture", "ex3", "--rule"),
    ("check", "--fixture", "ex3", "--axiom", "ifs", "--rule"),
])
def test_unconverged_hrule_is_an_input_error(capsys, monkeypatch, command):
    # q = -5 on ex3 needs more iterations than the lowered cap
    monkeypatch.setattr(rules, "_ITERATION_CAP", 300)
    rules.evaluate.cache_clear()
    code, out, err = run(capsys, *command, "hrule", "--q=-5")
    assert code == 2 and out == ""
    assert err.startswith("error: hrule q=-5 did not converge in 300 iterations")


def test_stalled_hrule_stops_before_the_cap(capsys):
    # q = -5 on ex3 cycles between two sets of class weights: the solver
    # stops at the first repeat of a checkpoint, not at the iteration cap
    code, out, err = run(capsys, "solve", "--fixture", "ex3", "--rule", "hrule",
                         "--q=-5")
    assert code == 2 and out == ""
    prefix = "error: hrule q=-5 did not converge in "
    assert err.startswith(prefix)
    assert int(err[len(prefix):].split()[0]) < rules._ITERATION_CAP


@pytest.mark.parametrize("rule", ["util", "cut", "egal", "rp"])
def test_solve_appendix860_builds_no_rows(capsys, monkeypatch, rule):
    def no_rows(P):
        raise AssertionError("the 0/1 rows were built")

    monkeypatch.setattr(core.Problem, "u", property(no_rows))
    rules.evaluate.cache_clear()  # a memo hit would run no rule at all
    code, out, _ = run(capsys, "solve", "--fixture", "appendix860", "--rule", rule)
    assert code == 0 and len(out.split()) == 4


# ---------------------------------------------------------------- input caps


@pytest.mark.parametrize("argv", [
    ("solve", "--rule", "hrule", "--q", "1e999999999", "--fixture", "ex3"),
    ("check", "--axiom", "ifs", "--mixture", "1e999999999 0 0", "--fixture", "dec-m"),
])
def test_huge_exponent_fails_fast(capsys, argv):
    # Fraction would build 10**999999999 exactly
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "exponent" in err


def test_huge_typed_count_fails_fast(capsys, tmp_path):
    # expanding 10^9 rows would take about 30 GB
    path = tmp_path / "huge.prob"
    path.write_text("typed 1\n1000000000 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--rule", "cut", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "agents" in err


@pytest.mark.parametrize("n1, n2", [("2", "99999999"), ("99999999", "3")])
def test_huge_cut_worstcase_fails_fast(capsys, n1, n2):
    # with p = 1, n1 divides (p - 1) * n2 = 0 for every n1, so both sizes
    # pass the family's own conditions; the matrix would have 10^8+ rows
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--family", "cut-worstcase",
                         "--n1", n1, "--n2", n2, "--p", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "cells" in err
