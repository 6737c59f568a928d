"""Record the golden digests that every benchmark run compares against.

    python3 perfbench/reference.py

Run from the repository root, on the commit whose outputs are the reference;
it rewrites ``perfbench/reference.json``.  Re-record only when a change to
fairmix is meant to change an exact output, and say so in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    fm = run.import_fairmix()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    golden = {
        name: {key: workloads.digest(text) for key, text in entry[3](fm)}
        for name, entry in workloads.WORKLOADS.items()
    }
    record = {"commit": commit, "src_sha256": run.src_facts()[1], "golden": golden}
    run.REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE} ({sum(map(len, golden.values()))} digests)")


if __name__ == "__main__":
    main()
