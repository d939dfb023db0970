#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that BENCHMARK.json is
well-formed and matches the metric catalogue in perfbench/src/main.rs,
runs the package's unit tests, runs every workload briefly with and
without tracing and checks the result lines and span files, and checks
that the benchmark fails cleanly in a directory that holds only
BENCHMARK.json and perfbench/. Exits non-zero on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    if not 1 <= bench["run_seconds"] <= 60 or not isinstance(bench["run_seconds"], int):
        fail("run_seconds must be a whole number in 1..60")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("2 to 8 workloads")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200:
            fail(f"workload entry {w}")
        names.add(w["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric entry {m}")
        if m["name"] in names:
            fail(f"name {m['name']} used twice")
        names.add(m["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end entry {m}")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer entry {m}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must carry the largest bound")

    src = open(os.path.join(HERE, "src", "main.rs")).read()

    def catalogue(const):
        block = src[src.index(f"pub const {const}"):]
        return re.findall(r'\("([^"]+)", "([^"]+)"\)', block[:block.index("];")])

    for const, key in (("END_TO_END", "end_to_end"), ("PER_LAYER", "per_layer")):
        want = [(m["name"], m["unit"]) for m in bench[key]]
        if catalogue(const) != want:
            fail(f"{const} in src/main.rs differs from {key} in BENCHMARK.json")
    return bench


def run_bench(cwd, workload, trace, seconds=1, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900, env=env)
    return out, time.time() - t0


def check_run(bench, workload, trace):
    out, secs = run_bench(ROOT, workload, trace)
    if out.returncode != 0:
        fail(f"{workload} --trace {trace} exited {out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: {lines[-1][:200]}\n{out.stderr[-3000:]}")
    spec = bench["per_layer" if trace else "end_to_end"]
    got = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    if sorted(got) != sorted(m["name"] for m in spec):
        fail(f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
    for m in spec:
        value, unit = got[m["name"]]
        if unit != m["unit"] or not isinstance(value, (int, float)):
            fail(f"{workload}: {m['name']} = {value} {unit}")
        if not trace and value <= 0:
            fail(f"{workload}: end-to-end metric {m['name']} reads {value}")
    if not any(l.startswith("# stamp ") and '"cpu_model"' in l and '"revision"' in l for l in lines):
        fail(f"{workload}: no stamp line")
    if trace:
        path = os.path.join(ROOT, "perfbench", "out", f"trace-{workload}-seed1.json")
        with open(path) as fh:
            dump = json.load(fh)
        if not dump["spans"] or "unaccounted_s" not in dump["metrics"] or "revision" not in dump["stamp"]:
            fail(f"{path} lacks spans, unaccounted_s or the stamp")
    print(f"selftest: {workload} --trace {trace} ok ({secs:.1f}s)")


def check_isolated():
    """A directory with only BENCHMARK.json and perfbench/ must fail cleanly."""
    iso = os.path.join(HERE, "work", "isolated")
    shutil.rmtree(iso, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "out", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(iso, ".bench_build"))
    try:
        out, secs = run_bench(iso, "service_mix", 0, env=env)
    finally:
        shutil.rmtree(iso, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(iso))
        except OSError:
            pass
    if out.returncode == 0 or secs > 180:
        fail(f"isolated run exited {out.returncode} after {secs:.0f}s")
    for line in out.stdout.splitlines():
        if line.startswith("{"):
            fail("isolated run printed a result")
    print(f"selftest: isolated run fails cleanly ({secs:.1f}s)")


def main():
    bench = check_manifest()
    print("selftest: BENCHMARK.json matches the catalogue")
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
        env=dict(os.environ, CARGO_TARGET_DIR=os.environ.get(
            "CARGO_TARGET_DIR", os.path.join(HERE, "target"))),
    )
    if tests.returncode != 0:
        fail(f"unit tests:\n{tests.stdout[-3000:]}{tests.stderr[-3000:]}")
    print("selftest: unit tests pass")
    # service_mix is not in BENCHMARK.json (see README.md) but stays
    # runnable, so it is checked too.
    for name in [w["name"] for w in bench["workloads"]] + ["service_mix"]:
        for trace in (0, 1):
            check_run(bench, name, trace)
    check_isolated()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
