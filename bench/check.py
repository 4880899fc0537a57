"""Self-test of the benchmark.

Usage (from the repository root): python3 bench/check.py

1. For each workload, at a small window, two traced jobs must give identical
   deterministic counts (bench/spans.py DETERMINISTIC), and the traced
   stdout must equal the untraced stdout byte for byte.
2. The golden comparison must accept each workload's golden output, and
   reject a golden record with one deliberately altered row, a job row whose
   `ok` is false, and a changed exit code.

Exit code 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import sys

import run
import spans

SMALL_WINDOW = {"group-ell-p2": 48, "verify-all-p5": 60, "verify-ko-p2": 40}


def stdout_of(rows: list) -> bytes:
    """Bytes the CLI prints for these JSON rows."""
    return (json.dumps(rows, indent=2) + "\n").encode()


def altered(rows: list, k: int) -> list:
    """Copy of rows with one value of row k changed."""
    out = copy.deepcopy(rows)
    key = next(key for key, v in out[k].items() if isinstance(v, list))
    out[k][key].append("altered")
    return out


def main() -> int:
    results = []

    def check(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)

    for name, workload in run.WORKLOADS.items():
        argv = run.thh_argv(workload, SMALL_WINDOW[name])
        plain, _ = run.spawn("run", argv)
        outs, counts = [], []
        for _ in range(2):
            out, report = run.spawn("trace", argv)
            outs.append(out)
            counts.append({k: report["layers"][k] for k in spans.DETERMINISTIC})
        check(f"{name}: deterministic counts repeat across traced jobs",
              counts[0] == counts[1])
        check(f"{name}: traced stdout equals untraced stdout",
              outs[0] == plain and outs[1] == plain)

        window = workload["window"]
        golden = run.load_golden(name, window)
        rows = golden["rows"]
        check(f"{name}: golden rows re-serialize to the golden stdout",
              stdout_of(rows) == golden["stdout"])
        n = len(rows)
        check(f"{name}: golden output is accepted",
              run.compare(golden, golden["stdout"], golden["exit"]) == (n, 0, True))
        bad = dict(golden, rows=altered(rows, n // 2),
                   stdout=stdout_of(altered(rows, n // 2)))
        check(f"{name}: an altered golden row is rejected",
              run.compare(bad, golden["stdout"], golden["exit"]) == (n, 1, False))
        check(f"{name}: a changed exit code fails every row",
              run.compare(golden, golden["stdout"], golden["exit"] + 1) == (n, n, False))
        if "ok" in rows[0]:
            failing = copy.deepcopy(rows)
            failing[0]["ok"] = False
            check(f"{name}: a row whose ok is false fails",
                  run.compare(dict(golden, rows=failing), stdout_of(failing),
                              golden["exit"]) == (n, 1, False))
    print(f"{sum(results)} of {len(results)} checks hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
