"""Mutation gate: every mutant below must make its target test fail.

Each mutant is (file, exact old text, new text, pytest node id).  The script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
first runs every target on the unmutated copy (they must pass), then applies
one mutant at a time and requires its target to fail.  A mutant whose old
text does not occur exactly once in its file fails the gate too, so a
refactor of the code under test must carry its mutants along.

Run from anywhere: ``python tools/mutants.py``.  Exit status 0 when every
mutant is killed, 1 otherwise.  Hypothesis targets run with a fixed seed
and without shrinking (a ``conftest.py`` in the copy loads that profile),
so a killed mutant stops at its first failing example.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # per target run; a mutant that hangs its target fails the gate
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate])
"""

MUTANTS = [
    # lp: a ">=" row gets a "<=" slack
    ("src/fairmix/lp.py",
     "line[slack] = -d",
     "line[slack] = d",
     "tests/test_lp.py::test_optimal_solution_satisfies_constraints_exactly"),
    # lp: phase 1 never reports infeasibility
    ("src/fairmix/lp.py",
     "if rows.pop()[-1] != 0:",
     "if rows.pop()[-1] < 0:",
     "tests/test_lp.py::test_infeasible_simplex_constraint"),
    # lp: the duals of ">=" rows negated
    ("src/fairmix/lp.py",
     "None if rel == EQ else next(costs) for",
     "None if rel == EQ else -next(costs) for",
     "tests/test_lp.py::test_strong_duality_spot_check"),
    # lp: a negative pivot leaves the common denominator negative
    ("src/fairmix/lp.py",
     "    if p < 0:\n        rows[:] =",
     "    if False:\n        rows[:] =",
     "tests/test_lp.py::test_cleanup_pivot_on_a_negative_entry"),
    # lp: Bland's ratio test ignores the basis index on a tie
    ("src/fairmix/lp.py",
     "if gap < 0 or (gap == 0 and b < basis[leave]):",
     "if gap < 0:",
     "tests/test_lp.py::test_solve_lp_matches_the_fraction_reference"),
    # EGAL: every floor dual is <= 0, so this freezes zero-dual types too
    ("src/fairmix/rules.py",
     "zip(unfrozen, out.duals[1:]) if y != 0]",
     "zip(unfrozen, out.duals[1:]) if y <= 0]",
     "tests/test_rules.py::test_egal_is_leximin_on_small_instances"),
    # EGAL: the min-norm step weighs every outcome class as one outcome
    ("src/fairmix/rules.py",
     "    k = len(sizes)\n",
     "    k = len(sizes)\n    sizes = [1] * k\n",
     "tests/test_rules.py::test_egal_mixture_is_the_minimum_norm_one"),
    # UTIL: spread over every outcome class, not only the maximal-support ones
    ("src/fairmix/rules.py",
     "best = _best(P.outcome_classes)",
     "best = [cls for cls, _, _ in P.outcome_classes]",
     "tests/test_rules.py::test_util_ex3_point_mass_on_d"),
    # CUT: a type's share ignores its count
    ("src/fairmix/rules.py",
     "[Fraction(count, P.n * len(best))]",
     "[Fraction(1, P.n * len(best))]",
     "tests/test_rules.py::test_cut_clones_share_by_count"),
    # CUT: every type picks among the classes of type 0's like-set
    ("src/fairmix/rules.py",
     "if c[1] >> t & 1]",
     "if c[1] & 1]",
     "tests/test_rules.py::test_cut_ex3"),
    # RP: live moves weighted by 1 instead of by their type's count
    ("src/fairmix/rules.py",
     "live = [(c, feasible & mask) for c, mask in types]",
     "live = [(1, feasible & mask) for c, mask in types]",
     "tests/test_rules.py::test_rp_matches_explicit_enumeration"),
    # kkt_residual: a gradient deficit on a supported outcome goes unseen
    ("src/fairmix/rules.py",
     "max(residual, abs(g - n) if",
     "max(residual, g - n if",
     "tests/test_rules.py::test_kkt_residual_counts_a_deficit_on_a_supported_outcome"),
    # NMP: no resume from the snapped class weights
    ("src/fairmix/rules.py",
     "if converged and residual > DEFAULT_NMP_TOL:",
     "if False:",
     "tests/test_rules.py::test_nmp_certifies_after_snapping"),
    # IFS: an agent exactly at 1/n fails
    ("src/fairmix/axioms.py",
     "    for i in range(P.n):\n        if U[i] < share:",
     "    for i in range(P.n):\n        if U[i] <= share:",
     "tests/test_axioms.py::test_ifs_egal_always_passes"),
    # UFS: the share counts 1 instead of the clone class
    ("src/fairmix/axioms.py",
     "share = Fraction(len(members), P.n)",
     "share = Fraction(1, P.n)",
     "tests/test_axioms.py::test_ufs_egal_fails_with_clones"),
    # AFS: the s largest utilities instead of the s smallest
    ("src/fairmix/axioms.py",
     "key=U.__getitem__)",
     "key=U.__getitem__, reverse=True)",
     "tests/test_axioms.py::test_coalition_checkers_match_agent_walk_oracle"),
    # CFS: the surplus LP without the share factor |S|/n
    ("src/fairmix/axioms.py",
     "out = surplus_lp(P.m, floors, share)",
     "out = surplus_lp(P.m, floors)",
     "tests/test_axioms.py::test_coalition_checkers_match_agent_walk_oracle"),
    # GFS: the share counts clone classes instead of agents
    ("src/fairmix/axioms.py",
     "weight = z.weight_on(pooled)\n        share = Fraction(size, P.n)",
     "weight = z.weight_on(pooled)\n        share = Fraction(len(coalition), P.n)",
     "tests/test_axioms.py::test_coalition_checkers_match_agent_walk_oracle"),
    # EXSP: consumption of the truth instead of truth & report
    ("src/fairmix/axioms.py",
     "lambda t, r: t & r)",
     "lambda t, r: t)",
     "tests/test_axioms.py::test_check_sp_matches_misreport_walk_oracle"),
    # SP-: consumption of the truth instead of the report
    ("src/fairmix/axioms.py",
     "SpVariant.SP_MINUS: (lambda t, r: r | t == t, lambda t, r: r)",
     "SpVariant.SP_MINUS: (lambda t, r: r | t == t, lambda t, r: t)",
     "tests/test_axioms.py::test_check_sp_matches_misreport_walk_oracle"),
    # participation: an agent whose ballot lowers its utility is never caught
    ("src/fairmix/axioms.py",
     "        if U[i] < absent - guard:",
     "        if False:",
     "tests/test_axioms.py::test_participation_fails_when_a_ballot_costs_its_agent"),
    # strict participation: an exact tie becomes a near-tie, not a failure
    ("src/fairmix/axioms.py",
     "            if U[i] <= absent - guard:",
     "            if U[i] < absent - guard:",
     "tests/test_axioms.py::test_participation_strict_egal_fails_with_clone"),
    # participation: a near-tie names the run's first agent, not its last
    ("src/fairmix/axioms.py",
     "near_tie = dict(witness, agent=end - 1)",
     "near_tie = witness",
     "tests/test_axioms.py::test_participation_matches_agent_by_agent_oracle"),
    # participation: a near-tie names the agent dropped, not the run's last
    ("src/fairmix/axioms.py",
     "agent=end - 1)",
     "agent=i)",
     "tests/test_axioms.py::test_participation_matches_agent_by_agent_oracle"),
    # SP: the exact-rule cap counts agents again instead of agent types
    ("src/fairmix/axioms.py",
     "len(classes) > SP_MAX_TYPES_EXACT",
     "P.n > SP_MAX_TYPES_EXACT",
     "tests/test_axioms.py::test_sp_accepts_many_agents_of_few_types"),
    # DEC: only utilities above the block share count as violations
    ("src/fairmix/axioms.py",
     "if abs(U[i] - expected) > guard:",
     "if U[i] - expected > guard:",
     "tests/test_axioms.py::test_dec_witness_is_the_first_agent_off_its_block_share"),
    # outcome_classes: outcomes grouped by their support, not by their likers
    ("src/fairmix/core.py",
     "classes.setdefault(likers, [])",
     "classes.setdefault(self.column_sum(a), [])",
     "tests/test_core.py::test_runs_agree_with_their_rows"),
    # undominated_outcomes: every class strictly dominates itself
    ("src/fairmix/core.py",
     "mask != other and mask | other == other",
     "mask | other == other",
     "tests/test_core.py::test_undominated_ex3"),
    # Problem: adjacent runs with one mask are not merged
    ("src/fairmix/core.py",
     "            if runs and runs[-1][1] == mask:",
     "            if False:",
     "tests/test_core.py::test_runs_agree_with_their_rows"),
    # typed parser: a file of exactly MAX_TYPED_AGENTS agents is refused
    ("src/fairmix/core.py",
     "if P.n > MAX_TYPED_AGENTS:",
     "if P.n >= MAX_TYPED_AGENTS:",
     "tests/test_core.py::test_typed_agent_cap_is_inclusive"),
    # HRULE: a solve that hit the iteration cap is returned as the rule's
    ("src/fairmix/rules.py",
     "        if not sol.converged:",
     "        if False:",
     "tests/test_cli.py::test_unconverged_hrule_is_an_input_error"),
    # judge: the first miss within the guard ends the search
    ("src/fairmix/axioms.py",
     "        if first is None:\n            first = witness",
     "        if first is None:\n            return AxiomVerdict(passed=None, witness=witness)",
     "tests/test_cli.py::test_check_afs_failure_beyond_a_near_tie_is_a_failure"),
    # judge: an inconclusive verdict names the last miss, not the first
    ("src/fairmix/axioms.py",
     "        if first is None:\n            first = witness",
     "        if True:\n            first = witness",
     "tests/test_axioms.py::test_judge_share_misses"),
    # welfare solver: no stop when a checkpoint's class weights repeat
    ("src/fairmix/rules.py",
     "if tuple(zf) in checkpoints:",
     "if False:",
     "tests/test_cli.py::test_stalled_hrule_stops_before_the_cap"),
    # construct: a worst-case family built with options missing
    ("src/fairmix/cli.py",
     "if None in values.values():",
     "if False:",
     "tests/test_cli.py::test_construct_missing_params_names_them"),
    # CUT family: a group-two window one outcome off, column supports kept
    ("src/fairmix/generators.py",
     "window(j, p - 1)",
     "window(j + 1, p - 1)",
     "tests/test_generators.py::test_cut_worstcase_example_instance"),
    # RP family: an agent's block bit by its place in the block, not its block
    ("src/fairmix/generators.py",
     "masks = [1 << i // k for i in range(n)]",
     "masks = [1 << i % k for i in range(n)]",
     "tests/test_generators.py::test_rp_worstcase_shape"),
    # run_grid: a cell's minimum stays at its first draw's ratio
    ("src/fairmix/experiments.py",
     "low[j] = min(low[j], ratio)",
     "low[j] = low[j] if k else ratio",
     "tests/test_experiments.py::test_run_grid_cells_are_the_min_and_mean_of_each_draw"),
    # mask_text: bit 0 printed as the last outcome instead of the first
    ("src/fairmix/core.py",
     'format(mask, f"0{m}b")[::-1]',
     'format(mask, f"0{m}b")',
     "tests/test_core.py::test_problem_round_trip"),
    # _parse_mask: a row's first character read as its highest bit
    ("src/fairmix/core.py",
     "return int(s[::-1], 2)",
     "return int(s, 2)",
     "tests/test_core.py::test_parse_dense_problem"),
    # replace_mask: the new mask spliced in after agent i instead of over it
    ("src/fairmix/core.py",
     "masks = self.masks[:i] + (mask,) + self.masks[i + 1:]",
     "masks = self.masks[:i + 1] + (mask,) + self.masks[i + 2:]",
     "tests/test_core.py::test_agent_index_out_of_range"),
    # DEC: each block's sub-problem holds every agent, not the block's
    ("src/fairmix/axioms.py",
     "tuple((1, P.masks[i]) for i in agents))",
     "tuple((1, P.masks[i]) for i in range(P.n)))",
     "tests/test_axioms.py::test_dec_pass_and_fail_on_polarized_pair"),
    # _row_mask: a row's first entry read as its highest bit
    ("src/fairmix/core.py",
     'for x in reversed(row)), 2)',
     'for x in row), 2)',
     "tests/test_core.py::test_like_mask_rejects_agent_index_out_of_range"),
    # cut_bound: the cube root rounded down for n > 8 overstates the bound
    ("src/fairmix/generators.py",
     "c = _cbrt_rational(n, up=n > 8)",
     "c = _cbrt_rational(n, up=False)",
     "tests/test_generators.py::test_cut_bound_is_a_guarantee"),
    # cut_bound: an exact cube root rounded up as well
    ("src/fairmix/generators.py",
     "root + (up and root**3 < target)",
     "root + up",
     "tests/test_generators.py::test_cut_bound_is_exact_at_perfect_cubes"),
]


def _pytest(work: Path, targets) -> int | str:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "--hypothesis-profile=mutants", *targets]
    try:
        return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main() -> int:
    start = time.perf_counter()
    ok = True
    for path, old, _new, _target in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"STALE  {path}: old text found {count} times: {old!r}")
            ok = False
    if not ok:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / "tests" / "conftest.py").write_text(CONFTEST, encoding="utf-8")
        targets = sorted({target for *_, target in MUTANTS})
        code = _pytest(work, targets)
        if code != 0:
            print(f"BASELINE targets exit {code} on the unmutated copy")
            return 1
        for path, old, new, target in MUTANTS:
            original = (work / path).read_text(encoding="utf-8")
            (work / path).write_text(original.replace(old, new), encoding="utf-8")
            t0 = time.perf_counter()
            code = _pytest(work, [target])  # 1: tests ran and failed
            (work / path).write_text(original, encoding="utf-8")
            verdict = "killed" if code == 1 else f"SURVIVED (exit {code})"
            print(f"{verdict:<20} {time.perf_counter() - t0:5.1f}s  {path}: "
                  f"{old.strip()!r} -> {new.strip()!r}")
            ok &= code == 1
    print(f"{len(MUTANTS)} mutants, {time.perf_counter() - start:.1f}s total")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
