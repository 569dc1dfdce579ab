#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/check_bench.py

Run from the repository root. Builds and runs the C++ self-test of the
checking helpers (the ≡SQL check, the tail percentile, the result digest,
span attribution), then runs every workload briefly through perfbench/run.py
and checks that:

  * every printed metric is declared in BENCHMARK.json with the same unit,
    and every declared metric is printed (end_to_end untraced, per_layer
    traced);
  * the output gate held (correct is true) and no operation failed;
  * the same seed gives the same operation sequence and the same ok_share,
    and another seed another sequence.

Exits non-zero on the first failed check. Takes about two minutes.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def fail(msg):
    print(f"FAILED: {msg}")
    sys.exit(1)


def run(workload, seed, trace, seconds="1"):
    p = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", seconds,
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace} exited {p.returncode}\n"
             f"{p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    digest = re.search(r"op sequence: \d+ ops, digest ([0-9a-f]+)", p.stderr)
    return result, digest.group(1) if digest else None


def selftest():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    # run.py configures the build directory on first use.
    run("adhoc", 1, 0)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_selftest", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)
    p = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                       capture_output=True, text=True)
    print(p.stdout.strip())
    if p.returncode != 0:
        fail("perfbench_selftest")


def main():
    selftest()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, _ = run(name, 3, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                missing = set(declared[trace]) - set(printed)
                extra = set(printed) - set(declared[trace])
                units = {k for k in printed
                         if k in declared[trace] and printed[k] != declared[trace][k]}
                fail(f"{name} trace {trace}: missing {sorted(missing)}, "
                     f"undeclared {sorted(extra)}, unit mismatch {sorted(units)}")
            if not result["correct"] or result["failed"] != 0:
                fail(f"{name} trace {trace}: correct={result['correct']} "
                     f"failed={result['failed']}")
        print(f"ok: {name} prints exactly the declared metrics")

    for name in ("adhoc", "serve_rw"):
        a, seq_a = run(name, 11, 0)
        b, seq_b = run(name, 11, 0)
        c, seq_c = run(name, 12, 0)
        if seq_a is None or seq_a != seq_b:
            fail(f"{name}: seed 11 gave two operation sequences")
        if seq_a == seq_c:
            fail(f"{name}: seeds 11 and 12 gave the same operation sequence")
        if (a["metrics"]["ok_share"]["value"] != b["metrics"]["ok_share"]["value"]
                or a["attempted"] != b["attempted"]):
            fail(f"{name}: seed 11 gave two ok_share values")
        print(f"ok: {name} repeats its sequence and ok_share for one seed")
    print("all benchmark checks passed")


if __name__ == "__main__":
    main()
