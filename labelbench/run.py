#!/usr/bin/env python3
"""Builds the label server and the benchmark from source, then runs them.

Run from the repository root:

    python3 labelbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 labelbench/run.py --smoke

The first form builds `xmlprime` (the served binary) and `labelbench` (the
load generator), runs one workload and passes its output through; the last
line of standard output is the result object. `--smoke` runs every workload
of BENCHMARK.json at toy size, untraced and traced, and checks that every
named metric is present and finite and that the correctness, durability and
coverage checks ran with nonzero coverage.

Build products go to $CARGO_TARGET_DIR (default `.bench_build`), scratch
stores and span files to `.bench_run`, both under the repository root.
"""

import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".bench_run"


def fail(msg):
    print(f"labelbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds both executables; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("no repository around labelbench/ (Cargo.toml and crates/ are missing)")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "xmlprime", "--bin", "xmlprime"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "xmlprime"), os.path.join(release, "labelbench")


def run_bench(bench, server, args, capture=False):
    """Runs the benchmark in its own process group, so an interrupted run
    still takes its servers down with it."""
    cmd = [bench, *args, "--server-bin", server, "--work-dir", WORK_DIR]
    child = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else None, text=True,
    )

    def stop(signum, _frame):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, _ = child.communicate()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    return child.returncode, out


def smoke(server, bench):
    """Every workload at toy size: metrics present and finite, checks ran."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--seconds", "2",
                    "--trace", str(trace), "--smoke"]
            code, out = run_bench(bench, server, args, capture=True)
            where = f"{workload} trace {trace}"
            lines = out.strip().splitlines() if out else []
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            checks = next((json.loads(l[len("checks: "):]) for l in lines if l.startswith("checks: ")), {})
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if sorted(result["metrics"]) != sorted(names[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} = {m.get('value')!r}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct {result['correct']}, failed {result['failed']}")
            for key in ("answers_checked", "acked_mutations"):
                if not checks.get(key):
                    problems.append(f"{where}: {key} = {checks.get(key)!r}")
            for key in ("durable", "verified", "oracle_match"):
                if checks.get(key) is not True:
                    problems.append(f"{where}: {key} = {checks.get(key)!r}")
            if trace and not (checks.get("coverage") or 0) >= 0.9:
                problems.append(f"{where}: coverage {checks.get('coverage')!r}")
            print(f"smoke {where}: {len(result['metrics'])} metrics, checks {checks}", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    server, bench = build()
    if args == ["--smoke"]:
        sys.exit(smoke(server, bench))
    code, _ = run_bench(bench, server, args)
    sys.exit(code)


if __name__ == "__main__":
    main()
