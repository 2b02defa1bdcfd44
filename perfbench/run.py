#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Everything it builds or writes stays
inside the checkout: dune's build directory, and `.perfbench/` for the
unix sockets, the shared-memory file and the Chrome trace.  The last
line of stdout is the result object printed by the benchmark itself.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench"


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: no dune-project here; run from the repository root\n")
        return 2
    env = dict(os.environ)
    # No shared dune cache outside the checkout.
    env["DUNE_CACHE"] = "disabled"
    # Relative, so unix-socket paths stay short whatever the checkout path.
    env["TMPDIR"] = os.path.join(".", WORK)
    os.makedirs(WORK, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    # One CPU for the hub, its leaves and the floors: a closed loop that
    # hands each batch between processes otherwise mostly measures where
    # the scheduler put them and cross-CPU wake-ups.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = subprocess.run([EXE] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
