"""Capture the reference outcomes of the in-process jobs at seed 0.

    python3 perfbench/capture.py

Writes `perfbench/reference.json`: for each job, the digest of its output
(and, for colon jobs, the basis text and, for probe jobs, the per-degree
counts, which the checks of other seeds compare against).  Where a golden
report exists, the job must match it before anything is written.  Run it
only when the program's answers are meant to change, and review the diff.
"""

import json
import sys

from workloads import REFERENCE_FILE, jobs


def main() -> int:
    reference = {}
    for workload in ("colon", "probe", "monomial"):
        for job in jobs(workload, 0):
            result = job.run()
            reference[job.name] = job.outcome(result)
            error = job.check(result, reference)
            if error is not None:
                print(f"{job.name}: {error}", file=sys.stderr)
                return 1
            print(f"captured {job.name}")
    REFERENCE_FILE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
