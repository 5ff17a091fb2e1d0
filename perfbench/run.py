#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (output to stderr), then runs it
from the checkout root with the same arguments. The benchmark's last
line of standard output is its JSON result; see perfbench/README.md.
Exits non-zero without a result when the checkout cannot be built.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; not a source checkout" % ROOT,
              file=sys.stderr)
        return 2
    cmd = dune()
    if cmd is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        cmd + ["build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
