"""Command-line front end.

Subcommands:

- ``solve``: run a rule on a problem file or named fixture; print the mixture.
- ``check``: run an axiom checker against a rule (or a given mixture).
- ``table``: impartial-culture welfare-ratio grid, CSV output.
- ``construct``: emit a worst-case family instance or appendix construction.
- ``verify-appendix``: certify the large counterexample constructions.

Exit status: 0 success / axiom passes, 1 axiom fails (witness printed),
2 usage or input error.  All numbers print as exact rationals unless
``--float`` is given.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import axioms, core, experiments, generators, rules

__all__ = ["main"]


def _format_value(x: Fraction, as_float: bool) -> str:
    return f"{float(x):.12g}" if as_float else str(Fraction(x))


def _format_vector(values, as_float: bool) -> str:
    return " ".join(_format_value(v, as_float) for v in values)


def _load_problem(args) -> core.Problem:
    if args.fixture is not None and args.input is not None:
        raise ValueError("give either --fixture or an input file, not both")
    if args.fixture is not None:
        return generators.fixture(args.fixture)
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            return core.parse_problem(fh.read())
    raise ValueError("no input: give --fixture NAME or an input file")


_RULE_NAMES = {
    "util": rules.UTIL,
    "egal": rules.EGAL,
    "rp": rules.RP,
    "cut": rules.CUT,
    "nmp": rules.NMP,
}


def _parse_rule(name: str, q) -> rules.RuleId:
    key = name.lower()
    if key in _RULE_NAMES:
        return _RULE_NAMES[key]
    if key == "hrule":
        if q is None:
            raise ValueError("hrule needs --q")
        return rules.HRULE(core.parse_rational(q))
    raise ValueError(f"unknown rule {name!r}")


def _add_problem_args(sub) -> None:
    sub.add_argument("input", nargs="?", help="problem file (see README for format)")
    sub.add_argument("--fixture", help="named fixture instead of a file")


def _add_rule_args(sub, required: bool) -> None:
    sub.add_argument("--rule", required=required, help="util|egal|rp|cut|nmp|hrule")
    sub.add_argument("--q", help="exponent for hrule (rational, q<1, q!=0)")


def _cmd_solve(args) -> int:
    P = _load_problem(args)
    rule = _parse_rule(args.rule, args.q)
    _, z = rules.evaluate(rule, P)
    print(_format_vector(z.z, args.float))
    return 0


_COALITION_AXIOMS = {"ifs", "ufs", "gfs", "afs", "cfs", "eff"}
_SP_AXIOMS = {
    "sp": axioms.SpVariant.SP,
    "sp+": axioms.SpVariant.SP_PLUS,
    "sp-": axioms.SpVariant.SP_MINUS,
    "sp*": axioms.SpVariant.SP_STAR,
    "exsp": axioms.SpVariant.EXSP,
}


def _cmd_check(args) -> int:
    P = _load_problem(args)
    axiom = args.axiom.lower()
    rule = None
    rule_label = "-"
    if args.rule is not None:
        rule = _parse_rule(args.rule, args.q)
        rule_label = str(rule)

    if axiom in _SP_AXIOMS or axiom in ("part", "part*", "dec"):
        if rule is None:
            raise ValueError(f"--axiom {axiom} needs --rule")
        if args.mixture is not None:
            raise ValueError(f"--axiom {axiom} takes a rule, not --mixture")
        if axiom in _SP_AXIOMS:
            verdict = axioms.check_sp(rule, P, _SP_AXIOMS[axiom])
        elif axiom == "dec":
            verdict = axioms.check_dec(rule, P)
        else:
            verdict = axioms.check_participation(rule, P, strict=axiom == "part*")
    elif axiom in _COALITION_AXIOMS:
        if args.mixture is not None:
            z = core.parse_mixture(args.mixture)
            U = core.utilities(P, z)
        elif rule is not None:
            U, z = rules.evaluate(rule, P)
        else:
            raise ValueError(f"--axiom {axiom} needs --rule or --mixture")
        if axiom == "ifs":
            verdict = axioms.check_ifs(P, U)
        elif axiom == "ufs":
            verdict = axioms.check_ufs(P, U)
        elif axiom == "gfs":
            verdict = axioms.check_gfs(P, U, z)
        elif axiom == "afs":
            verdict = axioms.check_afs(P, U)
        elif axiom == "cfs":
            verdict = axioms.check_cfs(P, U)
        else:
            verdict = core.is_efficient(P, U, source=z)
    else:
        raise ValueError(f"unknown axiom {args.axiom!r}")

    print(axioms.format_verdict(axiom, rule_label, verdict))
    return 1 if verdict.passed is False else 0


def _cmd_table(args) -> int:
    rule_ids = [_parse_rule(name, args.q) for name in args.rules.split(",")]
    grid = experiments.ExperimentGrid(
        agent_counts=tuple(int(x) for x in args.agents.split(",")),
        outcome_counts=tuple(int(x) for x in args.outcomes.split(",")),
        draws=args.draws,
        seed=args.seed,
        rules=tuple(rule_ids),
    )
    csv = experiments.grid_to_csv(experiments.run_grid(grid))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_construct(args) -> int:
    family = args.family
    if family == "cut-worstcase":
        if None in (args.n1, args.n2, args.p):
            raise ValueError("cut-worstcase needs --n1 --n2 --p")
        P = generators.cut_worstcase(
            generators.CutWorstCaseParams(n1=args.n1, n2=args.n2, p=args.p)
        )
        text = core.format_problem(P)
    elif family == "rp-worstcase":
        if None in (args.k, args.d, args.ell):
            raise ValueError("rp-worstcase needs --k --d --ell")
        P = generators.rp_worstcase(
            generators.RpWorstCaseParams(k=args.k, d=args.d, ell=args.ell)
        )
        text = core.format_problem(P)
    elif family == "appendix36":
        text = core.format_typed_profile(generators.appendix_36(args.misreport))
    elif family == "appendix860":
        text = core.format_typed_profile(generators.appendix_860(args.misreport))
    elif family == "sp0":
        truthful, misreported = generators.appendix_sp0()
        chosen = misreported if args.misreport else truthful
        text = core.format_typed_profile(chosen)
    else:
        raise ValueError(f"unknown family {family!r}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify_36() -> bool:
    truthful = generators.appendix_36(False)
    misreported = generators.appendix_36(True)
    sol = rules.nmp_rule(truthful)
    sol_mis = rules.nmp_rule(misreported)
    gain = sol_mis.z.z[0] - sol.z.z[0]
    print("appendix-36 truthful z  =", _format_vector(sol.z.z, True))
    print("appendix-36 misreport z'=", _format_vector(sol_mis.z.z, True))
    print(f"appendix-36 weight gain on a: {float(gain):.6f} (needs > 0.001)")
    ok = sol.converged and sol_mis.converged and gain > Fraction(1, 1000)
    print("appendix-36:", "OK" if ok else "FAILED")
    return ok


def _verify_860() -> bool:
    r1 = rules.kkt_residual(generators.appendix_860(False), generators.APPENDIX_860_Z)
    r2 = rules.kkt_residual(
        generators.appendix_860(True), generators.APPENDIX_860_Z_MISREPORT
    )
    print(f"appendix-860 truthful residual at (9/20,1/20,1/4,1/4): {r1}")
    print(f"appendix-860 misreport residual at (1/2,1/6,1/6,1/6): {r2}")
    ok = r1 == 0 and r2 == 0
    print("appendix-860:", "OK (both stationary exactly)" if ok else "FAILED")
    return ok


def _verify_sp0() -> bool:
    truthful, misreported = generators.appendix_sp0()
    r1 = rules.kkt_residual(misreported, generators.SP0_Z_REPORTED)
    r2 = rules.kkt_residual(truthful, generators.SP0_Z_TRUTHFUL)
    print(f"sp0 residual at reported optimum (1/6,1/6,1/6,1/32,15/32): {r1}")
    print(f"sp0 residual at truthful optimum (1/16,1/16,1/16,1/4,9/16): {r2}")
    # switching agents: truthful consumption 3/16 + 1/4 = 7/16; after dropping
    # b they consume 3 * 1/6 = 1/2 despite losing access to b.
    before = generators.SP0_Z_TRUTHFUL.weight_on((0, 1, 2, 3))
    after = generators.SP0_Z_REPORTED.weight_on((0, 1, 2))
    print(f"sp0 switching agents: {before} truthfully vs {after} after dropping b")
    ok = r1 == 0 and r2 == 0 and after > before
    print("sp0:", "OK (both stationary exactly, drop is profitable)" if ok else "FAILED")
    return ok


def _cmd_verify_appendix(args) -> int:
    which = args.which
    ok = True
    if which in ("36", "all"):
        ok &= _verify_36()
    if which in ("860", "all"):
        ok &= _verify_860()
    if which in ("sp0", "all"):
        ok &= _verify_sp0()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmix",
        description="Fair mixing rules for dichotomous preferences",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("solve", help="run a rule and print its mixture")
    _add_problem_args(s)
    _add_rule_args(s, required=True)
    s.add_argument("--float", action="store_true", help="print 12-digit floats")
    s.set_defaults(func=_cmd_solve)

    s = subs.add_parser("check", help="check an axiom for a rule or mixture")
    _add_problem_args(s)
    _add_rule_args(s, required=False)
    s.add_argument(
        "--axiom",
        required=True,
        help="eff|ifs|ufs|gfs|afs|cfs|sp|sp+|sp-|sp*|exsp|part|part*|dec",
    )
    s.add_argument("--mixture", help="check this mixture instead of a rule output")
    s.set_defaults(func=_cmd_check)

    s = subs.add_parser("table", help="impartial-culture welfare-ratio grid (CSV)")
    s.add_argument("--agents", required=True, help="comma-separated agent counts")
    s.add_argument("--outcomes", required=True, help="comma-separated outcome counts")
    s.add_argument("--draws", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--rules", required=True, help="comma-separated rule names")
    s.add_argument("--q", help="exponent if hrule is among the rules")
    s.add_argument("--output", help="CSV file (default: stdout)")
    s.set_defaults(func=_cmd_table)

    s = subs.add_parser("construct", help="emit a generated instance")
    s.add_argument(
        "--family",
        required=True,
        help="cut-worstcase|rp-worstcase|appendix36|appendix860|sp0",
    )
    s.add_argument("--n1", type=int)
    s.add_argument("--n2", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--d", type=int)
    s.add_argument("--ell", type=int)
    s.add_argument("--misreport", action="store_true")
    s.add_argument("--output", help="output file (default: stdout)")
    s.set_defaults(func=_cmd_construct)

    s = subs.add_parser("verify-appendix", help="certify the large constructions")
    s.add_argument("--which", default="all", choices=["36", "860", "sp0", "all"])
    s.set_defaults(func=_cmd_verify_appendix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
