#!/usr/bin/env python3
"""Build and run the c56perf benchmark from the root of a source checkout.

    python3 c56perf/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

Builds the Go program in c56perf/ against the repository's module, keeping
every build and run artifact under .bench_build/ in the checkout, then runs
it. The program's last line of standard output is the result object. Exits
non-zero, printing no result, if the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest(root):
    """sha256 over the Go sources of the checkout: which program was measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".s", ".mod")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "c56perf")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("c56perf: run from the root of a code56 checkout (no go.mod here)", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        XDG_CACHE_HOME=os.path.join(out, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOENV="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "c56perf")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"c56perf: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(out, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work", work,
           "--spans", os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl"),
           "--source-digest", source_digest(root)]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"c56perf: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
