"""Run every pinned `thh` command and check its stdout bytes and exit code.

    python tests/cli_pins.py

Each entry of `tests/golden/cli-pins.json` is one command (`argv`, the words
after `thh`), the sha256 of its stdout, its exit code, and `why` it is
pinned.  Each runs as `python -m thh.cli ...` with the checkout's `src` first
on PYTHONPATH, so the checkout is what is checked, installed or not.  Prints
one line per pin that does not hold, then `K of N pins hold`; exits 1 if any
pin does not hold.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "golden" / "cli-pins.json"


def mismatches(pins: list[dict]) -> list[str]:
    """One line for each pin whose stdout digest or exit code differs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    found = []
    for pin in pins:
        proc = subprocess.run([sys.executable, "-m", "thh.cli", *pin["argv"].split()],
                              env=env, capture_output=True)
        got = hashlib.sha256(proc.stdout).hexdigest()
        if (got, proc.returncode) != (pin["sha256"], pin["exit"]):
            err = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            found.append(" ".join([f"thh {pin['argv']}: sha256 {got} exit {proc.returncode},",
                                   f"pinned {pin['sha256']} exit {pin['exit']}", *err]))
    return found


def main() -> int:
    pins = json.loads(PINS.read_text())
    bad = mismatches(pins)
    print(*bad, f"{len(pins) - len(bad)} of {len(pins)} pins hold", sep="\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
