#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `perfbench`
package (release, offline) into $CARGO_TARGET_DIR, or perfbench/target
when that is unset, then runs one workload. Standard output ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Earlier
lines start with '#' and carry the stamp (git revision or source-tree
hash, core count, CPU model). A failed build or run exits non-zero
without printing a result. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("service_mix", "commit_storm", "fleet_forensics")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Inputs of the build, hashed into the stamp when git is unavailable.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "compat", "perfbench")
SKIP_DIRS = {"target", "out", "work", ".bench_build", "__pycache__"}


def revision():
    """The git revision, or a hash of the build's sources outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run(cmd, timeout, **kw):
    """subprocess.run that kills and reaps the child on timeout."""
    with subprocess.Popen(cmd, cwd=ROOT, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        rc, _ = run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            BUILD_TIMEOUT_S, env=env, stdout=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--revision", revision()]
    try:
        rc, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: run exited with {rc}", file=sys.stderr)
        return rc or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
