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
import dataclasses
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


def _parse_rule(name: str, q) -> rules.RuleId:
    """``RuleId`` refuses an unknown kind and an HRULE without ``q``."""
    kind = name.upper()
    q = core.parse_rational(q) if kind == "HRULE" and q is not None else None
    return rules.RuleId(kind, q)


def _reject_q_without_hrule(names, q) -> None:
    if q is not None and "hrule" not in (name.lower() for name in names):
        raise ValueError("--q is only for the hrule rule")


def _add_problem_args(sub) -> None:
    sub.add_argument("input", nargs="?", help="problem file (see README for format)")
    sub.add_argument("--fixture", help="named fixture instead of a file")


def _add_rule_args(sub, required: bool) -> None:
    kinds = "|".join(rules.RULE_KINDS).lower()
    sub.add_argument("--rule", required=required, help=kinds)
    sub.add_argument("--q", help="exponent for hrule (rational, q<1, q!=0)")


def _cmd_solve(args) -> int:
    P = _load_problem(args)
    _reject_q_without_hrule([args.rule], args.q)
    rule = _parse_rule(args.rule, args.q)
    _, z = rules.evaluate(rule, P)
    print(_format_vector(z.z, args.float))
    return 0


# Axioms of a rule: the strategyproofness variants, participation and DEC.
_RULE_AXIOMS = {
    v.value: lambda rule, P, v=v: axioms.check_sp(rule, P, v) for v in axioms.SpVariant
} | {
    "part": lambda rule, P: axioms.check_participation(rule, P),
    "part*": lambda rule, P: axioms.check_participation(rule, P, strict=True),
    "dec": lambda rule, P: axioms.check_dec(rule, P),
}


def _cmd_check(args) -> int:
    P = _load_problem(args)
    axiom = args.axiom.lower()
    _reject_q_without_hrule([args.rule or ""], args.q)
    rule = None if args.rule is None else _parse_rule(args.rule, args.q)

    if axiom in axioms.SHARE_AXIOMS:
        if (rule is None) == (args.mixture is None):
            raise ValueError(f"--axiom {axiom} needs --rule or --mixture, not both")
        if rule is not None:
            U, z = rules.evaluate(rule, P)
            guard = axioms.tie_guard(rule)
        else:
            z = core.parse_mixture(args.mixture)
            U, guard = core.utilities(P, z), 0
        verdict = axioms.judge(axioms.SHARE_AXIOMS[axiom](P, U, z), guard)
    elif axiom in _RULE_AXIOMS:
        if rule is None:
            raise ValueError(f"--axiom {axiom} needs --rule")
        if args.mixture is not None:
            raise ValueError(f"--axiom {axiom} takes a rule, not --mixture")
        verdict = _RULE_AXIOMS[axiom](rule, P)
    else:
        raise ValueError(f"unknown axiom {axiom!r}")

    print(axioms.format_verdict(axiom, "-" if rule is None else str(rule), verdict))
    return 1 if verdict.passed is False else 0


def _cmd_table(args) -> int:
    names = args.rules.split(",")
    _reject_q_without_hrule(names, args.q)
    rule_ids = [_parse_rule(name, args.q) for name in names]
    grid = experiments.ExperimentGrid(
        agent_counts=tuple(int(x) for x in args.agents.split(",")),
        outcome_counts=tuple(int(x) for x in args.outcomes.split(",")),
        draws=args.draws,
        seed=args.seed,
        rules=tuple(rule_ids),
    )
    return _write(experiments.grid_to_csv(experiments.run_grid(grid)), args.output)


def _write(text: str, path) -> int:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_construct(args) -> int:
    family = args.family
    if family in generators.WORST_CASE_FAMILIES:
        params, build = generators.WORST_CASE_FAMILIES[family]
        values = {f.name: getattr(args, f.name) for f in dataclasses.fields(params)}
        if None in values.values():
            raise ValueError(f"{family} needs " + " ".join(f"--{x}" for x in values))
        text = core.format_problem(build(params(**values)))
    elif family in generators.APPENDIX_FAMILIES:
        build = generators.APPENDIX_FAMILIES[family]
        text = core.format_typed_profile(build(args.misreport))
    else:
        raise ValueError(f"unknown family {family!r}")
    return _write(text, args.output)


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
    before = generators.SP0_Z_TRUTHFUL.weight_on(0b1111)
    after = generators.SP0_Z_REPORTED.weight_on(0b111)
    print(f"sp0 switching agents: {before} truthfully vs {after} after dropping b")
    ok = r1 == 0 and r2 == 0 and after > before
    print("sp0:", "OK (both stationary exactly, drop is profitable)" if ok else "FAILED")
    return ok


_VERIFIERS = {"36": _verify_36, "860": _verify_860, "sp0": _verify_sp0}


def _cmd_verify_appendix(args) -> int:
    oks = [verify() for w, verify in _VERIFIERS.items() if args.which in (w, "all")]
    return 0 if all(oks) else 1


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
    names = "|".join([*axioms.SHARE_AXIOMS, *_RULE_AXIOMS])
    s.add_argument("--axiom", required=True, help=names)
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
    names = "|".join([*generators.WORST_CASE_FAMILIES, *generators.APPENDIX_FAMILIES])
    s.add_argument("--family", required=True, help=names)
    for params, _ in generators.WORST_CASE_FAMILIES.values():
        for field in dataclasses.fields(params):
            s.add_argument(f"--{field.name}", type=int)
    s.add_argument("--misreport", action="store_true")
    s.add_argument("--output", help="output file (default: stdout)")
    s.set_defaults(func=_cmd_construct)

    s = subs.add_parser("verify-appendix", help="certify the large constructions")
    s.add_argument("--which", default="all", choices=[*_VERIFIERS, "all"])
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
