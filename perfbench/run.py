"""fairmix benchmark: one closed-loop client in one process, no threads.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0

Run from the repository root.  Workloads: ``grid`` and ``audit`` (see
``perfbench/README.md``).  With ``--trace 0`` the passes run untraced for
``--seconds`` and the last stdout line carries the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced, the same passes run
again traced, and the last line carries the per-layer metrics.  A run record (and, when traced, every span)
is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 7
MODULES = ("core", "lp", "rules", "axioms", "experiments", "generators", "cli")

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def import_fairmix():
    """Import fairmix from scratch, so repeated set-ups each pay for it."""
    for name in [n for n in sys.modules if n == "fairmix" or n.startswith("fairmix.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module("fairmix." + m) for m in MODULES}
    )


def setup(workload, seed):
    """Import fairmix and build the inputs ``SETUP_REPEATS`` times.

    Returns the last modules and pool, and the median set-up time.
    """
    build = workloads.WORKLOADS[workload][0]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fm = import_fairmix()
        pool = build(fm, seed)
        times.append(time.perf_counter() - start)
    return fm, pool, statistics.median(times)


def run_passes(passes, fm, check=None, seconds=None, count=None, tracer=None):
    """Closed loop: each op starts when the previous one has returned.

    Every pass starts with a cold memo.  A pass is started only while the
    average pass so far still fits in ``seconds``; with ``count``, exactly
    that many passes run.  ``check`` runs untimed and untraced after each
    pass, while the memo still holds that pass's results.  Returns the op
    count, per-op latencies, failures, each pass's throughput, the time spent
    inside passes, and the memo's hits, misses and largest size over passes.
    """
    evaluate = fm.rules.evaluate
    ops_done, latencies, failures, rates = 0, [], [], []
    busy = 0.0
    memo = {"hits": 0, "misses": 0, "entries": 0}
    for p, ops in enumerate(passes):
        if count is not None and p >= count:
            break
        evaluate.cache_clear()
        if tracer:
            tracer.install(fm)
        results = []
        start = time.perf_counter()
        for kind, inp, call in ops:
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(ops_done + len(results), str(kind), call) if tracer else call()
                err = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            results.append((kind, inp, out, err))
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
        info = evaluate.cache_info()
        memo["hits"] += info.hits
        memo["misses"] += info.misses
        memo["entries"] = max(memo["entries"], info.currsize)
        if check:
            bad = workloads.check_all(check, fm, evaluate, results)
            failures += [(ops_done + k, msg) for k, msg in bad]
        ops_done += len(results)
        busy += wall
        rates.append(len(ops) / wall)
        if seconds is not None and busy * (p + 2) / (p + 1) > seconds:
            break
    return ops_done, latencies, failures, rates, busy, memo


def calibration_s():
    """A fixed pure-Python loop; its time tracks host speed.  Never used to
    normalise a metric."""
    start = time.perf_counter()
    x = 0
    for i in range(500_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def src_facts():
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, h.hexdigest()


def golden_failures(workload, fm, reference):
    expected = reference["golden"][workload]
    try:
        got = {key: workloads.digest(text) for key, text in workloads.WORKLOADS[workload][3](fm)}
    except Exception as exc:  # a golden op that raises fails them all
        print(f"# golden set raised {type(exc).__name__}: {exc}")
        return len(expected), list(expected)
    bad = [key for key in expected if got.get(key) != expected[key]]
    bad += [key for key in got if key not in expected]
    return len(got), bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairmix" / "__init__.py").is_file():
        print(f"error: no fairmix sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    sys.path.insert(0, str(SRC))

    _, stream_of, check, _ = workloads.WORKLOADS[args.workload]
    calibration = [calibration_s()]
    fm, pool, setup_s = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        _, _, _, untraced_rates, untraced_wall, _ = run_passes(
            stream_of(fm, args.seed, pool), fm, seconds=args.seconds / 2
        )
        tracer = spans.Tracer()
        ops, latencies, failures, rates, wall, memo = run_passes(
            stream_of(fm, args.seed, pool), fm, check,
            count=len(untraced_rates), tracer=tracer,
        )
        layer = spans.layer_metrics(tracer, memo, wall, untraced_wall)
    else:
        ops, latencies, failures, rates, wall, memo = run_passes(
            stream_of(fm, args.seed, pool), fm, check, seconds=args.seconds
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    golden_ops, golden_bad = golden_failures(args.workload, fm, reference)
    calibration.append(calibration_s())

    failed = len({k for k, _ in failures})
    latencies_ms = sorted(x * 1e3 for x in latencies)
    p90_rank = -(-ops * 9 // 10)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_p90_ms": (latencies_ms[p90_rank - 1], "ms"),  # nearest rank
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines, src_sha = src_facts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "failed_ops": failed,
        "failed_ratio": failed / ops if ops else 1.0,
        "failures": [f"op {k}: {msg}" for k, msg in failures[:50]],
        "golden_ops": golden_ops,
        "golden_mismatches": golden_bad,
        "wall_s": wall,
        "pass_ops_per_s": rates,
        "p90_samples_beyond": ops - p90_rank,
        "memo": memo,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "backend": "gmpy2.mpq"
            if importlib.util.find_spec("gmpy2")
            else "fractions.Fraction",
            "calibration_s": calibration,
        },
        "src": {
            "lines": lines,
            "sha256": src_sha,
            "reference_commit": reference["commit"],
            "matches_reference_src": src_sha == reference["src_sha256"],
        },
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer:
        record["untraced_wall_s"] = untraced_wall
        record["per_layer"] = layer
        record["spans"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=str))

    print(
        f"# {args.workload} seed={args.seed} ops={ops} failed={failed} "
        f"failed_ratio={record['failed_ratio']:.4g} golden={golden_ops - len(golden_bad)}/"
        f"{golden_ops} p90_beyond={record['p90_samples_beyond']} memo={memo['hits']}/"
        f"{memo['misses']} calibration_s={calibration[0]:.4f},{calibration[1]:.4f} "
        f"src_lines={lines} record={out_file.relative_to(ROOT)}"
    )
    for line in (record["failures"] + [f"golden mismatch {key}" for key in golden_bad])[:10]:
        print("# FAIL", line)
    if tracer:
        result_metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in layer.items()}
    else:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    attempted = ops + golden_ops
    failed_all = failed + len(golden_bad)
    print(
        json.dumps(
            {
                "correct": failed_all == 0,
                "attempted": attempted,
                "failed": failed_all,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
