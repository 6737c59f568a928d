"""In-process A/B timing of two fairmix source trees.

    python tools/ab.py PARENT_SRC CHANGE_SRC [--passes N]

Each argument is a directory holding the ``fairmix`` package (a tree's
``src``).  Both trees are imported into this one process, and each keeps
its own module objects.  Every workload first runs once on each tree, and
the sha256 of the ``repr`` of its outputs must agree, or the script exits 1
before timing anything.  Then it times ``--passes`` pairs, the parent first
in even pairs and the change first in odd ones.  Each side of a pair is the
minimum of ``REPEATS`` back-to-back runs of the pass, which drops a run the
host slowed.  It prints each pair's ratio (parent time over change time;
above 1 means the change is faster) and their median.  Both trees share the
host's drift, so a ratio resolves changes far smaller than the spread of
separate runs.

Workloads:

- ``egal``: ``egal_rule`` on criterion 08's seed-0 draws (n in 3, 5, 7,
  m in 3, 5, 100 draws a cell);
- ``nmp``: ``nmp_rule`` on the same draws;
- ``exsp``: ``check_sp`` of EGAL under EXSP on ``impartial_culture(6, 5,
  12345)``, the memo cleared first;
- ``grid``: the ops of one pass of perfbench's ``grid`` workload at seed 1,
  the memo cleared first.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import statistics
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

REPEATS = 3  # runs of a pass per side of a pair; the pair keeps each side's fastest


def load(tree):
    """Import the ``fairmix`` under ``tree`` and drop it from ``sys.modules``."""
    def forget():
        for name in [n for n in sys.modules if n.split(".")[0] == "fairmix"]:
            del sys.modules[name]
    forget()
    sys.path.insert(0, str(Path(tree).resolve()))
    try:
        fm = types.SimpleNamespace(**{m: importlib.import_module("fairmix." + m)
                                      for m in ("axioms", "experiments", "rules")})
    finally:
        del sys.path[0]
        forget()
    return fm


def passes(fm):
    """One callable per workload, each returning its outputs."""
    ex, rules = fm.experiments, fm.rules
    draws = [ex.impartial_culture(n, m, ex._subseed(0, n, m, k))
             for n in (3, 5, 7) for m in (3, 5) for k in range(100)]
    P = ex.impartial_culture(6, 5, 12345)
    ops = next(workloads.grid_stream(fm, 1, []))

    def exsp():
        rules.evaluate.cache_clear()
        return fm.axioms.check_sp(rules.EGAL, P, fm.axioms.SpVariant.EXSP)

    def grid():
        rules.evaluate.cache_clear()
        return [call() for _, _, call in ops]

    return {"egal": lambda: [rules.egal_rule(Q) for Q in draws],
            "nmp": lambda: [rules.nmp_rule(Q) for Q in draws], "exsp": exsp, "grid": grid}


def fastest(run) -> float:
    """The shortest of ``REPEATS`` back-to-back timings of ``run``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    trees = [passes(load(args.parent)), passes(load(args.change))]
    for name in trees[0]:
        digests = [hashlib.sha256(repr(t[name]()).encode()).hexdigest() for t in trees]
        if digests[0] != digests[1]:
            print(f"{name}: outputs differ, {digests[0][:12]} vs {digests[1][:12]}")
            return 1
        times = []
        for k in range(args.passes):
            pair = {side: fastest(trees[side][name]) for side in ((0, 1), (1, 0))[k % 2]}
            times.append((pair[0], pair[1]))
        ratios = [a / b for a, b in times]
        print(f"{name}: sha256 {digests[0][:12]}, parent {statistics.median(a for a, _ in times):.2f} s, "
              f"change {statistics.median(b for _, b in times):.2f} s, ratios "
              f"{' '.join(f'{r:.2f}' for r in ratios)}, median {statistics.median(ratios):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
