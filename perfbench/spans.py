"""Spans around fairmix's public functions, recorded from outside the library.

``Tracer.install`` replaces module attributes with timing wrappers and
``Tracer.uninstall`` puts the originals back.  A name is patched everywhere a
caller looks it up: ``utilities`` is bound by ``from .core import`` in
``rules`` and ``axioms`` too, while ``evaluate``, the rule functions and
``lp.solve_lp`` are reached as module attributes or module globals.

Each span is ``[name_id, start, end, parent, op, extra]``; spans stay in
memory until ``layer_metrics`` reduces them and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import statistics
import time

from workloads import GRID_CELLS, GRID_RULES

LAYERS = ("lp", "rules", "core", "axioms", "experiments", "cli")
CHECKERS = ("check_sp", "check_participation", "check_cfs")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.op = -1
        self._saved = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, extra=None):
        nid = self._name_id(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if extra is not None:
                rec[5] = extra(args, result)
            return result

        return traced

    def run_op(self, op, kind, fn):
        self.op = op
        return self.wrap("op." + kind, fn)()

    def _patch(self, owners, attr, name, extra=None):
        wrapper = self.wrap(name, getattr(owners[0], attr), extra)
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self, fm):
        self._patch(
            [fm.lp], "solve_lp", "lp.solve_lp",
            lambda a, out: (len(a[0].constraints), len(a[0].objective), out.status),
        )
        self._patch([fm.rules], "evaluate", "rules.evaluate")
        for attr, name in (
            ("egal_rule", "rules.egal"),
            ("rp_exact", "rules.rp"),
            ("cut_rule", "rules.cut"),
            ("util_rule", "rules.util"),
            ("kkt_residual", "rules.kkt_residual"),
        ):
            self._patch([fm.rules], attr, name)
        self._patch(
            [fm.rules], "nmp_rule", "rules.nmp",
            lambda a, s: (s.iterations, s.converged, float(s.kkt_residual)),
        )
        self._patch([fm.core, fm.rules, fm.axioms], "utilities", "core.utilities")
        self._patch([fm.core], "is_efficient", "core.is_efficient")
        self._patch([fm.core], "epsilon_inefficiency", "core.epsilon_inefficiency")
        self._patch(
            [fm.axioms], "check_sp", "axioms.check_sp",
            lambda a, out: (a[0].kind, a[2].name),
        )
        for attr in CHECKERS[1:]:
            self._patch([fm.axioms], attr, "axioms." + attr)
        self._patch(
            [fm.experiments], "welfare_ratio", "experiments.welfare_ratio",
            lambda a, out: (a[1].kind, a[0].n, a[0].m),
        )
        self._patch([fm.cli], "main", "cli.main")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self):
        return {"names": self.names, "spans": self.spans}


def unit(metric):
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("share", "ratio")):
        return "ratio"
    if metric.endswith("kkt_max"):
        return "residual"
    return "count"


def _p50_ms(durations):
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(tracer, memo, wall_s, untraced_wall_s):
    """Reduce the spans of one traced phase to the per-layer metrics.

    ``memo`` holds the unwrapped ``evaluate``'s hits, misses and largest size,
    summed over the phase's passes.
    """
    names, spans = tracer.names, tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(names[s[0]], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(dur[i] for i in idx(name))

    def self_s(name):
        return sum(dur[i] - child[i] for i in idx(name))

    def under(name, ancestor):
        """How many ``name`` spans have an ``ancestor`` span above them."""
        count = 0
        for i in idx(name):
            p = spans[i][3]
            while p >= 0:
                if names[spans[p][0]] == ancestor:
                    count += 1
                    break
                p = spans[p][3]
        return count

    def per_call(name, ancestor):
        calls = len(idx(ancestor))
        return under(name, ancestor) / calls if calls else 0.0

    out = {}
    lp_spans = idx("lp.solve_lp")
    lp_busy = busy("lp.solve_lp")
    out["lp.solves"] = len(lp_spans)
    out["lp.busy_s"] = lp_busy
    out["lp.share"] = lp_busy / wall_s
    out["lp.solve_p50_ms"] = _p50_ms([dur[i] for i in lp_spans])
    out["lp.rows_mean"] = (
        statistics.fmean(spans[i][5][0] for i in lp_spans) if lp_spans else 0.0
    )
    out["lp.cols_mean"] = (
        statistics.fmean(spans[i][5][1] for i in lp_spans) if lp_spans else 0.0
    )
    out["lp.infeasible"] = sum(1 for i in lp_spans if spans[i][5][2] == "infeasible")

    lookups = memo["hits"] + memo["misses"]
    out["rules.evaluate.calls"] = len(idx("rules.evaluate"))
    out["rules.evaluate.hits"] = memo["hits"]
    out["rules.evaluate.misses"] = memo["misses"]
    out["rules.evaluate.hit_ratio"] = memo["hits"] / lookups if lookups else 0.0
    out["rules.evaluate.entries"] = memo["entries"]

    out["rules.egal.busy_s"] = busy("rules.egal")
    out["rules.egal.self_s"] = self_s("rules.egal")
    out["rules.egal.lp_per_call"] = per_call("lp.solve_lp", "rules.egal")
    out["rules.rp.calls"] = len(idx("rules.rp"))
    out["rules.rp.busy_s"] = busy("rules.rp")

    nmp = [spans[i][5] for i in idx("rules.nmp")]
    out["rules.nmp.busy_s"] = busy("rules.nmp")
    out["rules.nmp.iterations_mean"] = statistics.fmean(e[0] for e in nmp) if nmp else 0.0
    out["rules.nmp.unconverged"] = sum(1 for e in nmp if not e[1])
    out["rules.nmp.kkt_max"] = max((e[2] for e in nmp), default=0.0)
    out["rules.cut.busy_s"] = busy("rules.cut")
    out["rules.util.busy_s"] = busy("rules.util")
    out["rules.kkt_residual.busy_s"] = busy("rules.kkt_residual")

    out["core.utilities.calls"] = len(idx("core.utilities"))
    out["core.utilities.busy_s"] = busy("core.utilities")
    out["core.is_efficient.busy_s"] = busy("core.is_efficient")
    out["core.epsilon_inefficiency.busy_s"] = busy("core.epsilon_inefficiency")
    out["core.epsilon_inefficiency.lp_per_call"] = per_call(
        "lp.solve_lp", "core.epsilon_inefficiency"
    )

    for checker in CHECKERS:
        name = "axioms." + checker
        out[name + ".busy_s"] = busy(name)
        out[name + ".self_s"] = self_s(name)
        out[name + ".evals_per_verdict"] = per_call("rules.evaluate", name)
        out[name + ".lp_per_verdict"] = per_call("lp.solve_lp", name)
    exsp_egal = sum(
        dur[i] for i in idx("axioms.check_sp") if spans[i][5] == ("EGAL", "EXSP")
    )
    out["axioms.exsp_egal.share"] = exsp_egal / wall_s

    cells = {}
    for i in idx("experiments.welfare_ratio"):
        cells.setdefault(spans[i][5], []).append(dur[i])
    for rule in GRID_RULES:
        out[f"experiments.welfare_ratio.{rule}.busy_s"] = sum(
            sum(d) for key, d in cells.items() if key[0] == rule
        )
        for n, m in GRID_CELLS:
            out[f"experiments.welfare_ratio.{rule}.n{n}m{m}.p50_ms"] = _p50_ms(
                cells.get((rule, n, m), [])
            )

    out["cli.verify_appendix_ms"] = _p50_ms([dur[i] for i in idx("cli.main")])

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = names[s[0]].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += dur[i] - child[i]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    out["trace.overhead_ratio"] = wall_s / untraced_wall_s - 1
    return out
