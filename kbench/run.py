#!/usr/bin/env python3
"""Build the kpath host benchmark from source and run it.

Run from the root of a kpath checkout:

    python3 kbench/run.py --workload paper-copy --seed 1 --seconds 15 --trace 0

The arguments go to kbench.exe unchanged (see kbench/kbench.ml). The
build stays inside the checkout: dune writes to _build and its shared
cache is disabled. The last line of standard output is the result.
"""

import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "kbench", "kbench.exe")
TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("kbench: run from the root of a kpath checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./kbench/kbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("kbench: build failed\n")
        return 1
    # Own process group, so a timeout stops the unit processes too.
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("kbench: timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
