"""Tests for the command-line interface."""

from fractions import Fraction

import pytest

from fairmix import cli, core, generators

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
