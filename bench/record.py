"""Record the reference tables that bench/expected.json holds.

    python3 bench/record.py

The oracles prove most answers from theory, but some results have no
cheap independent proof: an absent nested selection, dibond growth
counts, compactness and coherence results, and the canonical CLI reports
(`enumerate`, `family`, `quotient` on fixed inputs). For those the
benchmark compares with what the package returned when the tables were
recorded. The file also records how each named known-defect op failed.
All recorded ops are seed independent. Re-record only in a change that
redefines the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    tables = {w: {} for w in workloads.WORKLOADS}
    tables["known_failures"] = {}
    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            dicuts, ops, _ = run.set_up(workload, 0, workdir, {}, 1)
            for op in ops:
                named = op.name in workloads.NAMED_FAILURES[workload]
                if op.summary is None and not named:
                    continue
                try:
                    result = op.run()
                except Exception as exc:  # recorded as the op's outcome
                    tables["known_failures"][f"{workload}/{op.name}"] = \
                        workloads.classify(dicuts, exc)
                    continue
                if named:
                    tables["known_failures"][f"{workload}/{op.name}"] = op.judge(result)[0]
                if op.summary is not None:
                    tables[workload][op.name] = op.summary(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.TABLES, "w", encoding="utf-8") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
