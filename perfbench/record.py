"""Record the expected exit code and report digest of every pool request.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the root of a clubcat checkout.  Rewrites the named workloads (all
by default) in ``perfbench/expected.json``.  Reports are byte-identical for
the same inputs, so a recorded digest is the oracle later runs are checked
against; re-record only when a change alters reports on purpose, and say so.
Refuses to record a crash, a timeout, or a mutant club that passes its check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import pool, run  # noqa: E402


def record(workload, src):
    workdir = run.fresh_workdir(workload)
    entries = {}
    try:
        pool.prepare(workload, workdir)
        for rid, argv in pool.requests(workload):
            res = run.spawn(argv, workdir, src, False,
                            time.perf_counter() + 600)
            if res.get("timed_out") or "latency_s" not in res \
                    or res.get("crash"):
                raise SystemExit(f"{rid}: no clean result\n{res['stderr']}")
            if rid.startswith("club-check:mutant") and res["exit"] != 1:
                raise SystemExit(f"{rid}: mutant club exited {res['exit']}")
            entries[rid] = {"argv": argv, "exit": res["exit"],
                            "sha256": res["digest"]}
            print(f"{rid} exit {res['exit']} {res['latency_s']:.3f} s",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return entries


def main(argv):
    src = run.source_dir()
    sys.path.insert(0, src)
    workloads = argv or list(pool.WORKLOADS)
    expected = {}
    if os.path.exists(run.EXPECTED_FILE):
        with open(run.EXPECTED_FILE, encoding="utf-8") as handle:
            expected = json.load(handle)
    for workload in workloads:
        expected[workload] = record(workload, src)
    with open(run.EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
