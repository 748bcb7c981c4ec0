"""Self-check of the benchmark's correctness gate.

    python3 bench/selfcheck.py

Runs verify-grid's cheap ``moment`` op through the benchmark's own measuring
loop three times: with its stored constant, with that constant tampered, and
with an argument the CLI must refuse.  Exits 0 when only the first op passes
and all three stay in the timing sample; prints what it saw either way.
"""

from __future__ import annotations

import sys

import run
from workloads import MOMENT_N4, WORKLOADS, check


def main() -> int:
    run.TMP.mkdir(exist_ok=True)
    op = next(op for op in WORKLOADS["verify-grid"](0) if op["argv"][0] == "moment")
    tampered = {**op, "checks": [(p, "31/106" if v == MOMENT_N4 else v)
                                 for p, v in op["checks"]]}
    refused = {**op, "argv": ["moment", "--sigma", "0.5", "--n", "4"]}
    records, rounds = run.measure([op, tampered, refused], seconds=0)
    errors = [r["error"] for r in records]
    for name, error in zip(("stored", "tampered", "refused"), errors):
        print(f"{name:9s} -> {error or 'passed'}")
    ok = (len(records) == 3 and errors[0] is None and None not in errors[1:]
          and rounds == [sum(r["wall"] for r in records)]
          and check(op, None, "") == "timed out")
    print("selfcheck", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
