#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke_test.py

Runs every workload once at a tiny size, untraced and traced, and
asserts that each run passes its correctness checks and emits exactly
the metrics BENCHMARK.json names, with their units. It also
checks that the perfbench binary's simulation path reports what
bench::runAccelerator reports, that a changed simulated output is
caught as a failure, and that the benchmark refuses to run without
the apir sources. Takes about a minute after the build.
"""

import json
import shutil
import subprocess
import sys

import run

TINY = ("--scale", "0.02")
# apird-mix needs 1000 requests for a p99 with ten samples beyond.
SECONDS = 7


def check(cond, what):
    if not cond:
        sys.exit(f"smoke test FAILED: {what}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    run.build()

    eq = run.run_binary("equivalence", 1, 0, False, TINY)
    # Six apps, each cold, warmup save and restored.
    check(eq["attempted"] == 18 and eq["failed"] == 0,
          f"perfbench path differs from bench::runAccelerator: {eq['notes']}")

    for kind, names in (("end_to_end", run.E2E),
                        ("per_layer", run.PER_LAYER)):
        declared = {m["name"] for m in spec[kind]}
        check(declared == set(names),
              f"{kind}: BENCHMARK.json and run.py disagree on "
              f"{sorted(declared ^ set(names))}")

    for w in workloads:
        for trace in (0, 1):
            res = run.one_run(w, 1, SECONDS, trace, TINY)
            got = res["metrics"]
            want = run.PER_LAYER if trace else run.E2E
            only = (run.ONLY_LAYER if trace else run.ONLY_E2E).get(w, [])
            check(res["correct"] and res["failed"] == 0,
                  f"{w} trace {trace}: {res['notes']}")
            check(res["attempted"] >= 1, f"{w}: no operations attempted")
            check(set(got) == set(want),
                  f"{w} trace {trace}: missing {set(want) - set(got)}, "
                  f"extra {set(got) - set(want)}")
            for name, mv in got.items():
                check(mv["unit"] == units[name],
                      f"{w} {name}: unit {mv['unit']}, "
                      f"BENCHMARK.json says {units[name]}")
            check(set(res["only"]) == set(only),
                  f"{w} trace {trace}: missing {set(only) - set(res['only'])}"
                  " of its own metrics")
            print(f"ok  {w} trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} operations")

    # A simulated output that changes between two runs of a seed fails.
    out = run.run_binary("fig10-starved-restore", 1, SECONDS, False, TINY)
    check(run.repeat_problem(out, out) is None,
          "a run does not repeat itself")
    tampered = json.loads(json.dumps(out))
    name = sorted(tampered["outputs"])[0]
    tampered["outputs"][name] = "0" * 16
    check(run.repeat_problem(out, tampered) is not None,
          "a changed simulated output was not reported")
    print("ok  a changed simulated output fails the run")

    # Without the apir sources the benchmark fails and prints no result.
    bare = run.BUILD / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workloads[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=170)
    shutil.rmtree(bare)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          "the benchmark ran without the apir sources")
    print("ok  refuses to run without the apir sources")
    print("smoke test passed")


if __name__ == "__main__":
    main()
