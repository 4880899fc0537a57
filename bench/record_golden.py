"""Record the golden output of every workload at every window of its band.

Usage (from the repository root): python3 bench/record_golden.py [NAME ...]

Writes bench/golden/<workload>/w<window>.json.gz, a gzip'd JSON record of the
job's exit code and stdout.  Run it only at a commit whose answers are known
to be right: every later run of bench/run.py is checked against these files.
"""
from __future__ import annotations

import gzip
import json
import sys

import run


def main(names: list[str]) -> int:
    for name in names or list(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        for offset in range(run.SPEC["band"]):
            window = workload["window"] + offset
            stdout, report = run.spawn("run", run.thh_argv(workload, window))
            record = {"exit": report["rc"], "stdout": stdout.decode()}
            path = run.golden_path(name, window)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(gzip.compress(json.dumps(record).encode(), mtime=0))
            print(f"{path.relative_to(run.ROOT)}: exit {report['rc']}, "
                  f"{len(run.rows_of(stdout) or [])} rows, "
                  f"{report['wall_s']:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
