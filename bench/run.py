"""Benchmark of the `thh` CLI: fixed jobs, end-to-end timing, traced layers.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S

Each job runs `thh` in a fresh child process (bench/child.py) from the
sources under src/, one job after another (closed loop, one client).  Every
job's stdout and exit code are compared row by row with the golden output
recorded for its window.  The seed only picks the top degree: the workload's
window plus (seed mod band).

--trace 0 reports the end-to-end metrics: setup_s (fresh interpreter until
`thh` is imported and the argv parsed, median over set-up-only children and
jobs), wall_s (job time after set-up, median over the jobs of the run) and
peak_rss_mb (median ru_maxrss of the jobs).  --trace 1 runs untraced and
traced jobs in pairs and reports the per-layer metrics of bench/spans.py.

setup_s and wall_s are stated at a reference machine speed.  On a shared
host the speed of the same code drifts by up to a third over minutes, which
no median within one run removes.  So each job's child also times a fixed
calibration loop that uses no thh code (child.calibrate), just before and
just after the job; wall_s is the median over jobs of wall * CAL_REF_S /
calibration, and setup_s the median set-up time * CAL_REF_S / the run's
median calibration.  CAL_REF_S is about the loop's time on the machine the
goldens were recorded on, so figures there read as plain seconds; the
summary line also prints the unscaled medians.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when every output matched, 1 on any mismatch,
and 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
SPEC = json.loads((BENCH / "workloads.json").read_text())
WORKLOADS = {w["name"]: w for w in SPEC["workloads"]}
SETUPS_PER_JOB = 4
CAL_REF_S = 0.22
JOB_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (missing sources, crashed child, ...)."""


def window_for(workload: dict, seed: int) -> int:
    return workload["window"] + seed % SPEC["band"]


def thh_argv(workload: dict, window: int) -> list[str]:
    return [a.replace("{w}", str(window)) for a in workload["argv"]]


def golden_path(name: str, window: int) -> Path:
    return GOLDEN / name / f"w{window}.json.gz"


def spawn(mode: str, argv: list[str]) -> tuple[bytes, dict]:
    """Run bench/child.py in `mode`; returns the job's stdout and its report."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-E", "-s", str(BENCH / "child.py"), str(SRC),
             mode, *argv],
            cwd=ROOT, capture_output=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"thh {' '.join(argv)} ran over {JOB_TIMEOUT_S} s") from exc
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode} on thh {' '.join(argv)}: "
                         + "\n".join(lines[-5:]))
    try:
        report = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"no report from thh {' '.join(argv)}: {lines[-1]}") from exc
    report["setup_s"] = report["setup_end"] - start
    return proc.stdout, report


def rows_of(stdout: bytes) -> list | None:
    try:
        rows = json.loads(stdout)
    except ValueError:
        return None
    return rows if isinstance(rows, list) else [rows]


def compare(golden: dict, stdout: bytes, rc: int) -> tuple[int, int, bool]:
    """(attempted, failed, correct) of one job against its golden record.

    A row fails if its `ok` is false or it differs from the golden row;
    missing and extra rows fail; an exit code other than the golden one
    fails every row.  `correct` also needs the whole stdout byte for byte.
    """
    want = golden["rows"]
    got = rows_of(stdout) or []
    attempted = max(len(want), len(got))
    failed = abs(len(want) - len(got))
    for w, g in zip(want, got):
        if (json.dumps(g) != json.dumps(w)
                or (isinstance(g, dict) and g.get("ok") is False)):
            failed += 1
    if rc != golden["exit"]:
        failed = attempted
    correct = failed == 0 and stdout == golden["stdout"]
    return attempted, failed, correct


def load_golden(name: str, window: int) -> dict:
    path = golden_path(name, window)
    if not path.is_file():
        raise BenchError(f"no golden output {path.relative_to(ROOT)}")
    record = json.loads(gzip.decompress(path.read_bytes()))
    stdout = record["stdout"].encode()
    return {"exit": record["exit"], "stdout": stdout, "rows": rows_of(stdout)}


def sloc() -> dict[str, int]:
    """Non-blank, non-comment source lines of each module of src/thh."""
    out = {}
    for path in sorted((SRC / "thh").glob("*.py")):
        lines = path.read_text().splitlines()
        name = "init" if path.stem == "__init__" else path.stem.lstrip("_")
        out[f"{name}.sloc"] = sum(1 for ln in lines
                                  if ln.strip() and not ln.strip().startswith("#"))
    return out


class Run:
    """Jobs of one workload at one window, checked against the golden."""

    def __init__(self, name: str, seed: int):
        workload = WORKLOADS[name]
        self.name = name
        self.window = window_for(workload, seed)
        self.argv = thh_argv(workload, self.window)
        self.golden = load_golden(name, self.window)
        self.attempted = self.failed = 0
        self.correct = True

    def failed_ratio(self) -> str:
        return (f"{self.failed / self.attempted:.4f} "
                f"({self.failed} of {self.attempted} rows failed)")

    def job(self, mode: str) -> tuple[bytes, dict]:
        stdout, report = spawn(mode, self.argv)
        attempted, failed, correct = compare(self.golden, stdout, report["rc"])
        self.attempted += attempted
        self.failed += failed
        self.correct &= correct
        return stdout, report

    def end_to_end(self, seconds: float) -> dict[str, float]:
        spawn("setup", self.argv)  # unmeasured: lets byte-compilation finish
        setups, walls, cals, rss = [], [], [], []
        start = time.monotonic()
        while not walls or time.monotonic() - start + walls[-1] <= seconds:
            setups += [spawn("setup", self.argv)[1]["setup_s"]
                       for _ in range(SETUPS_PER_JOB)]
            _, report = self.job("run")
            setups.append(report["setup_s"])
            walls.append(report["wall_s"])
            cals.append(report["calibration_s"])
            rss.append(report["maxrss_kb"] / 1024)
        wall = median([w * CAL_REF_S / c for w, c in zip(walls, cals)])
        setup = median(setups) * CAL_REF_S / median(cals)
        print(f"{self.name} w={self.window}: wall_s {wall:.4f} s over "
              f"{len(walls)} jobs (unscaled median {median(walls):.4f}, "
              f"min {min(walls):.4f}, max {max(walls):.4f}); setup_s "
              f"{setup:.4f} s over {len(setups)} (unscaled median "
              f"{median(setups):.4f}); calibration median {median(cals):.4f} s "
              f"against {CAL_REF_S} s; peak_rss_mb {median(rss):.2f} MB; "
              f"failed_ratio {self.failed_ratio()}")
        return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": median(rss)}

    def per_layer(self, seconds: float) -> dict[str, float]:
        plain, traced = [], []
        start = time.monotonic()
        while not traced or (time.monotonic() - start + plain[-1]["wall_s"]
                             + traced[-1]["wall_s"]) <= seconds:
            out_plain, rep_plain = self.job("run")
            out_traced, rep_traced = self.job("trace")
            if out_traced != out_plain:
                self.correct = False
                print(f"{self.name} w={self.window}: traced stdout differs "
                      "from untraced stdout", file=sys.stderr)
            plain.append(rep_plain)
            traced.append(rep_traced)
        metrics = {k: median([r["layers"][k] for r in traced])
                   for k in traced[0]["layers"]}
        base = median([r["wall_s"] for r in plain])
        wall = median([r["wall_s"] for r in traced])
        metrics.update({"trace.untraced_wall_s": base,
                        "trace.traced_wall_s": wall,
                        "trace.overhead_ratio": wall / base - 1})
        metrics.update(sloc())
        print(f"{self.name} w={self.window}: {len(traced)} traced jobs; "
              f"traced wall {wall:.4f} s over untraced wall {base:.4f} s, "
              f"overhead {wall / base - 1:+.4f}; "
              f"failed_ratio {self.failed_ratio()}")
        return metrics


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed)
    kind = "per_layer" if trace else "end_to_end"
    values = run.per_layer(seconds) if trace else run.end_to_end(seconds)
    units = declared(kind)
    if set(values) != set(units):
        raise BenchError(f"{kind} metrics {sorted(set(values) ^ set(units))} "
                         "are not both measured and declared in BENCHMARK.json")
    return {"correct": run.correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} cpus, "
          f"seed {args.seed}, {args.seconds:g} s per workload", flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "thh" / "__init__.py").is_file():
            raise BenchError(f"no thh sources under {SRC}")
        results = {n: measure(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
