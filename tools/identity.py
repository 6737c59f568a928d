"""Byte-identity corpus: one sha256 over the ``repr`` of many exact outputs.

Run it on two trees and compare the digests, to confirm that a refactor
changed no rule output, verdict, witness or printed text:

    PYTHONPATH=src python tools/identity.py

It prints the record count and the sha256.  The corpus, 13,510 records
and about 30 s on one core:

- ``impartial_culture(2 + s % 6, 2 + (s // 6) % 4, 31000 + s)`` for
  s = 0 .. 239, plus every named fixture other than the two appendix860
  ones.  On each: ``evaluate`` under UTIL, CUT, RP, EGAL, NMP, HRULE(1/2)
  and HRULE(-1), ``polarized_partition``, and every ``like_set(i)``.
- Where n <= 6 and m <= 4, under UTIL, CUT, RP, EGAL and NMP: the five
  ``check_sp`` variants, plain and strict participation, IFS, UFS, GFS, AFS,
  CFS, ``is_efficient(source=z)``, ``check_dec`` (or its error text), and
  the epsilon-inefficiency under RP and CUT.
- The six appendix profiles' ``types``, ``n`` and ``format_typed_profile``,
  and ``kkt_residual`` at ``nmp_rule``'s mixture for the four small ones.
- Stdout and exit code of ``verify-appendix``; ``construct`` for sp0 with
  and without ``--misreport``, for appendix36 with ``--misreport`` and for
  appendix860; and ``solve --rule egal --fixture appendix36-misreport``.

Only the public API is used, so the script runs unchanged on older trees.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
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
