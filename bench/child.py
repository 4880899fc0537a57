"""One `thh` CLI job of the benchmark, in a fresh interpreter.

Usage: python3 child.py SRC_DIR MODE THH_ARGV...

MODE is `setup` (import `thh` and parse the argv, then stop), `run` (also run
the job) or `trace` (run it with the span tracer installed).  The job's
stdout is passed through unchanged.  The last line of stderr is a JSON report:
`setup_end` (CLOCK_MONOTONIC once the argv is parsed, to be set against the
parent's clock at spawn), and after a job its exit code, wall time, peak RSS
and the time of the calibration loop run just before and just after it, plus
the per-layer metrics in `trace` mode.
"""
import os
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed pure-Python integer elimination that uses no thh
    code, with the garbage collector off so the job's heap cannot slow it."""
    import gc
    import random

    rng = random.Random(1)
    gc.disable()
    start = time.perf_counter()
    for _ in range(30):
        a = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
        prev = 1
        for k in range(39):  # fraction-free (Bareiss) elimination
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, 40) if a[i][k]), k)
                a[k], a[swap] = a[swap], a[k]
            for i in range(k + 1, 40):
                aik = a[i][k]
                for j in range(k + 1, 40):
                    a[i][j] = (a[i][j] * a[k][k] - aik * a[k][j]) // prev
            prev = a[k][k] or 1
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> int:
    src, mode, argv = os.path.abspath(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    from thh import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"thh was imported from {cli.__file__}, not from {src}")
    args = cli.build_parser().parse_args(argv)
    setup_end = time.monotonic()

    import json
    import resource

    report = {"setup_end": setup_end}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        before = calibrate()
        start = time.perf_counter()
        rc = cli.main(argv)
        sys.stdout.flush()
        wall = time.perf_counter() - start
        report.update(rc=rc, wall_s=wall, calibration_s=(before + calibrate()) / 2,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            report["layers"] = spans.layer_metrics(tracer.spans, wall,
                                                   args.max_degree)
    sys.stderr.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
