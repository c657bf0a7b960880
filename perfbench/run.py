#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wire-route-small --seed 1 --seconds 10 --trace 0

It builds perfbench/ (a Go module that uses the repository's module
through a replace directive) into .bench_build/, keeping the Go build
cache, temporary files and tool state there too, then runs the binary
with the given arguments plus the commit and a digest of the source
tree for the record. The binary's last output line is the result; the exit code is
the binary's. Without the repository's sources the build fails and the
script exits nonzero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the repository's Go sources and module files."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or \
            not os.path.isfile(os.path.join(ROOT, "perfbench", "go.mod")):
        fail("run from the repository root (go.mod and perfbench/go.mod must exist)")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
    })
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env, timeout=850)
    if build.returncode != 0:
        fail("build failed")
    run = subprocess.run([BINARY, *sys.argv[1:], "--commit", commit(), "--source", source_digest()],
                         cwd=ROOT, env=env, timeout=175)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
