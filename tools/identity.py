"""Byte-identity corpus: one sha256 over the ``repr`` of many exact outputs.

Run it on two trees and compare the digests, to confirm that a refactor
changed no rule output, verdict, witness or printed text:

    PYTHONPATH=src python tools/identity.py

It prints the record count and the sha256.  The corpus:

- ``impartial_culture(2 + s % 6, 2 + (s // 6) % 4, 31000 + s)`` for
  s = 0 .. 239, plus every named fixture other than the two appendix860
  ones.  On each: ``evaluate`` under UTIL, CUT, RP, EGAL, NMP, HRULE(1/2)
  and HRULE(-1), ``polarized_partition``, the sorted
  ``undominated_outcomes`` and every ``like_set(i)``.
- Where n <= 6 and m <= 4, under UTIL, CUT, RP, EGAL and NMP: the five
  ``check_sp`` variants, plain and strict participation, IFS, UFS, GFS, AFS,
  CFS, ``is_efficient(source=z)``, ``check_dec`` (or its error text), and
  the epsilon-inefficiency under RP and CUT.
- The six appendix profiles' ``types``, ``n`` and ``format_typed_profile``,
  and ``kkt_residual`` at ``nmp_rule``'s mixture for the four small ones.
- Stdout and exit code of ``verify-appendix``; ``construct`` for sp0 with
  and without ``--misreport``, for appendix36 with ``--misreport`` and for
  appendix860; and ``solve --rule egal --fixture appendix36-misreport``.
- Stdout, stderr and exit status of further commands (``CLI_SURFACE``):
  the worst-case families with all, some and invalid options; every axiom
  name under each rule on five fixtures and three files, with a mixture,
  and in the usage errors of ``check``; each ``verify-appendix --which``;
  the ``--help`` of the program and of each subcommand, at 80 columns; and
  a small ``table``.

Only the public API is used, so the script runs unchanged on older trees.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from fractions import Fraction

from fairmix import axioms, cli, core, experiments, generators, rules

EXACT = (rules.UTIL, rules.CUT, rules.RP, rules.EGAL)
EVALUATED = EXACT + (rules.NMP, rules.HRULE(Fraction(1, 2)), rules.HRULE(-1))
CHECKED = EXACT + (rules.NMP,)


def _attempt(fn, *args, **kwargs):
    """The call's result, or the text of the ``ValueError`` it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_full(argv):
    """Exit status, stdout and stderr of one command, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


AXIOMS = ("eff", "ifs", "ufs", "gfs", "afs", "cfs", "sp", "sp+", "sp-", "sp*",
          "exsp", "part", "part*", "dec")
RULE_ARGS = (("util",), ("egal",), ("rp",), ("cut",), ("nmp",),
             ("hrule", "--q", "1/2"), ("hrule", "--q=-1"))
PROFILE_FILES = {
    # impartial_culture(5, 4, 1135): NMP misses IFS by 4.4e-17
    "ic1135": "5 4\n1001\n0001\n1100\n0010\n0101\n",
    # impartial_culture(5, 4, 189) and (6, 4, 207): the h-rules' AFS misses
    "ic189": "5 4\n0001\n0111\n0011\n1010\n1100\n",
    "ic207": "6 4\n1001\n1101\n1101\n0101\n0111\n0010\n",
}


def cli_surface(tmp):
    """The argument lists of the command-line records."""
    for argv in (
        ["--n1", "5", "--n2", "5", "--p", "4"],
        ["--n1", "4", "--n2", "6", "--p", "3", "--misreport"],
        ["--n1", "5", "--n2", "5"],
        ["--n1", "5", "--n2", "5", "--p", "9"],
        ["--k", "3", "--d", "2", "--ell", "2"],
        ["--k", "4", "--d", "2", "--ell", "3"],
        ["--k", "3", "--ell", "2"],
        ["--k", "3", "--d", "2", "--ell", "3"],
        [],
    ):
        for family in ("cut-worstcase", "rp-worstcase", "bogus"):
            yield ["construct", "--family", family] + argv
    inputs = [["--fixture", f] for f in ("ex3", "egal-true", "dec-m", "afs-example",
                                         "cfs-example")]
    for name, text in PROFILE_FILES.items():
        path = os.path.join(tmp, name + ".prob")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        inputs.append([path])
    for source in inputs:
        for axiom in AXIOMS:
            for rule in RULE_ARGS:
                yield ["check", *source, "--axiom", axiom, "--rule", *rule]
    for axiom in AXIOMS + ("bogus", "SP+", "Part*"):
        yield ["check", "--fixture", "ex3", "--axiom", axiom, "--mixture",
               "1/5 1/5 1/5 1/5 1/5"]
        yield ["check", "--fixture", "ex3", "--axiom", axiom, "--mixture", "0 0 0 1 0"]
        yield ["check", "--fixture", "ex3", "--axiom", axiom]
        yield ["check", "--fixture", "ex3", "--axiom", axiom, "--rule", "cut",
               "--mixture", "0 0 0 1 0"]
        yield ["check", "--fixture", "ex3", "--axiom", axiom, "--rule", "cut",
               "--q", "1/2"]
        yield ["check", "--fixture", "ex3", "--axiom", axiom, "--rule", "bogus"]
    for which in ("36", "860", "sp0", "all", "bogus"):
        yield ["verify-appendix", "--which", which]
    for command in ([], ["solve"], ["check"], ["table"], ["construct"],
                    ["verify-appendix"]):
        yield command + ["--help"]
    yield ["table", "--agents", "3,4", "--outcomes", "3", "--draws", "2", "--seed",
           "5", "--rules", "util,egal,rp,cut,nmp,hrule", "--q", "1/2"]


def _problems():
    for s in range(240):
        n, m = 2 + s % 6, 2 + (s // 6) % 4
        yield f"ic{s}", experiments.impartial_culture(n, m, 31000 + s)
    for name in generators.fixture_names():
        if not name.startswith("appendix860"):
            yield name, generators.fixture(name)


def _checks(P):
    for rule in CHECKED:
        U, z = rules.evaluate(rule, P)
        for variant in axioms.SpVariant:
            yield ("sp", str(rule), variant.value), _attempt(
                axioms.check_sp, rule, P, variant
            )
        for strict in (False, True):
            yield ("part", str(rule), strict), _attempt(
                axioms.check_participation, rule, P, strict=strict
            )
        yield ("ifs", str(rule)), axioms.check_ifs(P, U)
        yield ("ufs", str(rule)), axioms.check_ufs(P, U)
        yield ("gfs", str(rule)), _attempt(axioms.check_gfs, P, U, z)
        yield ("afs", str(rule)), axioms.check_afs(P, U)
        yield ("cfs", str(rule)), _attempt(axioms.check_cfs, P, U)
        yield ("eff", str(rule)), core.is_efficient(P, U, source=z)
        yield ("dec", str(rule)), _attempt(axioms.check_dec, rule, P)
        if rule in (rules.RP, rules.CUT):
            yield ("eps", str(rule)), core.epsilon_inefficiency(P, U)


def records():
    for name, P in _problems():
        for rule in EVALUATED:
            yield (name, "evaluate", str(rule)), rules.evaluate(rule, P)
        yield (name, "polarized"), axioms.polarized_partition(P)
        yield (name, "undominated"), sorted(core.undominated_outcomes(P))
        yield (name, "like_sets"), tuple(P.like_set(i) for i in range(P.n))
        if P.n <= 6 and P.m <= 4:
            for key, value in _checks(P):
                yield (name,) + key, value
    for family, build in generators.APPENDIX_FAMILIES.items():
        for misreport in (False, True):
            T = build(misreport)
            key = (family, misreport)
            yield key + ("types",), T.types
            yield key + ("n",), T.n
            yield key + ("format",), core.format_typed_profile(T)
            if family != "sp0":
                yield key + ("kkt",), rules.kkt_residual(T, rules.nmp_rule(T).z)
    for argv in (
        ["verify-appendix"],
        ["construct", "--family", "sp0"],
        ["construct", "--family", "sp0", "--misreport"],
        ["construct", "--family", "appendix36", "--misreport"],
        ["construct", "--family", "appendix860"],
        ["solve", "--rule", "egal", "--fixture", "appendix36-misreport"],
    ):
        yield tuple(argv), _cli(argv)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        for argv in cli_surface(tmp):
            yield tuple(arg.replace(tmp, "TMP") for arg in argv), _cli_full(argv)


def main() -> int:
    digest = hashlib.sha256()
    count = 0
    for record in records():
        digest.update(repr(record).encode())
        digest.update(b"\n")
        count += 1
    print(count, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
