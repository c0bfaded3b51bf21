#!/usr/bin/env python3
"""The apir benchmark (see perfbench/README.md).

One run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload apird-mix --seed 1 --trace 0

builds the simulator from source into .bench_build/, runs the workload,
checks its outputs, prints a readable report and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the run's spans to .bench_build/traces/).

Steadiness report: every workload --runs times on consecutive seeds
from --seed, then again from the held-out --heldout-seed; prints each
end-to-end metric's median, quartiles and spread against its bound,
and how far the held-out median moved:

    python3 perfbench/run.py --steadiness --seed 1 --heldout-seed 1001
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))
import trace_report  # noqa: E402

# Every workload reports every metric of BENCHMARK.json: these.
E2E = ["wall_s", "cpu_s", "setup_s", "peak_rss_mb", "sim_cycles",
       "sim_cycles_per_s", "req_per_s"]
PER_LAYER = [
    "hw.run_s", "hw.ns_per_cycle", "hw.ns_per_visit", "hw.ticks",
    "hw.stage_visits", "hw.visits_per_tick", "hw.useful_visit_ratio",
    "hw.wake_recomputes", "hw.arena_allocs", "hw.skipped_cycle_ratio",
    "mem.cache_hit_ratio", "mem.qpi_bytes", "mem.qpi_busy_frac",
    "mem.mshr_rejects", "stages.busy_frac", "stages.stall_frac",
    "stages.idle_frac", "liveness.squash_retries", "accel.squashed",
    "accel.tasks_executed", "apps.build_s", "hw.construct_s",
    "apps.verify_s", "support.emit_s", "graph.gen_s", "geometry.gen_s",
    "sparse.gen_s", "trace.coverage", "trace.overhead_s",
    "trace.overhead_frac",
]
# Metrics of a layer only one workload uses. They are printed in that
# workload's report, not in the result line, which holds the same
# metrics for every workload.
ONLY_E2E = {"apird-mix": ["req_p50_ms", "req_p99_ms"]}
ONLY_LAYER = {
    "fig10-starved-restore": [
        "cpumodel.s", "checkpoint.save_s", "checkpoint.restore_s",
        "checkpoint.bytes"],
    "apird-mix": [
        "server.parse_us", "server.handle_hit_us", "server.handle_miss_ms",
        "server.rtt_idle_ms", "server.hit_p50_ms", "server.hit_p99_ms",
        "server.miss_p50_ms", "server.result_hit_ratio",
        "server.workload_hit_ratio", "server.busy_ratio"],
}

# Per-layer self times taken from the spans: metric -> (root, layer).
# Generators and checkpoint saves run in set-up, everything else in
# the timed region. apird-mix has its own roots, see ROOTS.
SPAN_TIMES = {
    "hw.run_s": ("bench:timed", "hw.run"),
    "apps.build_s": ("bench:timed", "apps.build"),
    "hw.construct_s": ("bench:timed", "hw.construct"),
    "support.emit_s": ("bench:timed", "support.emit"),
    "apps.verify_s": ("bench:timed", "apps.verify"),
    "cpumodel.s": ("bench:timed", "cpumodel"),
    "checkpoint.restore_s": ("bench:timed", "checkpoint.restore"),
    "checkpoint.save_s": ("bench:setup", "checkpoint.save"),
    "graph.gen_s": ("bench:setup", "graph.gen"),
    "geometry.gen_s": ("bench:setup", "geometry.gen"),
    "sparse.gen_s": ("bench:setup", "sparse.gen"),
}
# apird-mix: the generators run in the in-process replay, and the
# simulations in the in-process rerun of the replay's misses.
ROOTS = {"apird-mix": {"bench:setup": "bench:replay",
                       "bench:timed": "bench:sims"}}


class BenchError(Exception):
    pass


def build():
    """Build the simulator, apird and perfbench from this checkout."""
    for need in ("src/server/apird_main.cc", "bench/bench_common.cc",
                 "scenarios/bandwidth_starved.conf",
                 "scenarios/apird_soak.conf"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} is missing: run from the root of a "
                             "checkout of the apir repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def reap_group(p):
    """Kill whatever is left of perfbench's process group, and wait."""
    for _ in range(100):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if p.poll() is None:
            p.wait()
        time.sleep(0.01)
    p.wait()


def run_binary(workload, seed, seconds, trace, extra=()):
    """Run the perfbench binary once; returns its result object."""
    (BUILD / "work").mkdir(exist_ok=True)
    (BUILD / "traces").mkdir(exist_ok=True)
    trace_file = BUILD / "traces" / f"{workload}-seed{seed}.json"
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--work-dir", str(BUILD / "work"),
           "--trace-out", str(trace_file), "--apird", str(BUILD / "apird"),
           "--scenario-dir", str(ROOT / "scenarios"), *extra]
    # Its own process group, so the apird daemons it starts go with it
    # if it dies or times out.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"{workload} did not finish within 170 s"
    finally:
        reap_group(p)
    if p.returncode != 0 or not stdout.strip():
        raise BenchError(f"perfbench {workload} exited {p.returncode}:\n"
                         + stderr[-2000:])
    out = json.loads(stdout.strip().splitlines()[-1])
    out["trace_file"] = trace_file if trace else None
    return out


def repeat_problem(out, again):
    """Compare the simulated outputs of two runs of one seed.

    Every operation both runs made must have the same fingerprint.
    Returns a failure message, or None."""
    shared = set(out["outputs"]) & set(again["outputs"])
    if not shared:
        return "the repeat run shared no operation with the run"
    diff = sorted(k for k in shared
                  if out["outputs"][k] != again["outputs"][k])
    if diff:
        return ("simulated outputs differ between two runs of the same "
                "seed: " + ", ".join(diff[:5]))
    return None


def layer_metrics(workload, out):
    """Per-layer metrics: perfbench's counts plus span self times."""
    m = {k: v["value"] for k, v in out["metrics"].items()}
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    rep = trace_report.analyse(trace_report.load(out["trace_file"]))
    roots = ROOTS.get(workload, {})
    for name, (root, layer) in SPAN_TIMES.items():
        root = roots.get(root, root)
        if root in rep:
            m[name] = rep[root]["layers"].get(layer, 0.0)
            units[name] = "s"
    if m.get("hw.stage_visits"):
        m["hw.ns_per_cycle"] = 1e9 * m["hw.run_s"] / m["hw.sim_cycles"]
        m["hw.ns_per_visit"] = 1e9 * m["hw.run_s"] / m["hw.stage_visits"]
        units["hw.ns_per_cycle"] = units["hw.ns_per_visit"] = "ns"
    timed = rep["bench:timed"]
    m["trace.coverage"] = timed["covered_s"] / timed["wall_s"]
    units["trace.coverage"] = "ratio"
    print(trace_report.render(rep))
    return {k: (m[k], units[k]) for k in m}


def one_run(workload, seed, seconds, trace, extra=()):
    """A full benchmark run: returns the result object to print.

    "metrics" holds the metrics of BENCHMARK.json, "only" those that
    only this workload measures."""
    out = run_binary(workload, seed, seconds, trace, extra)
    failed = out["failed"]
    notes = list(out["notes"])
    # The same seed again in a fresh process, one second's work, one
    # set-up and one round: the operations it shares with this run must
    # repeat.
    again = run_binary(workload, seed, 1, False,
                       (*extra, "--setups", "1", "--rounds", "1"))
    problem = repeat_problem(out, again)
    if problem:
        failed += 1
        notes.append("FAILED: " + problem)
    if trace:
        metrics = layer_metrics(workload, out)
        names, only = PER_LAYER, ONLY_LAYER.get(workload, [])
    else:
        metrics = {k: (v["value"], v["unit"])
                   for k, v in out["metrics"].items()}
        names, only = E2E, ONLY_E2E.get(workload, [])
    missing = [k for k in names if k not in metrics]
    if missing:
        raise BenchError(f"{workload} did not measure {missing}")

    def pick(keys):
        return {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                for k in keys if k in metrics}
    return {
        "correct": failed == 0,
        "attempted": int(out["attempted"]),
        "failed": int(failed),
        "metrics": pick(names),
        "only": pick(only),
        "notes": notes,
    }


def print_result(workload, res):
    print(f"workload {workload}: {res['attempted']} operations, "
          f"{res['failed']} failed")
    for note in res["notes"]:
        print("  " + note)
    for name, mv in res["metrics"].items():
        print(f"  {name:<28} {mv['value']:>16.6g} {mv['unit']}")
    if res["only"]:
        print(f"  measured on {workload} only:")
    for name, mv in res["only"].items():
        print(f"  {name:<28} {mv['value']:>16.6g} {mv['unit']}")
    final = {k: res[k] for k in ("correct", "attempted", "failed",
                                 "metrics")}
    print(json.dumps(final))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        sets = []
        for first in (args.seed, args.heldout_seed):
            runs = []
            for i in range(args.runs):
                res = one_run(w, first + i, args.seconds, False)
                if not res["correct"]:
                    ok = False
                    print(f"{w} seed {first + i}: {res['failed']} failed: "
                          + "; ".join(res["notes"][:3]))
                runs.append(res)
            sets.append(runs)
        print(f"\n== {w}: {args.runs} runs on seeds {args.seed}.., "
              f"held-out {args.heldout_seed}.. ==")
        print(f"{'metric':<18}{'bound':>7}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'/bound':>8}{'held-out':>14}"
              f"{'spread':>9}{'moved':>9}")
        for name in E2E:
            b = bounds[name]
            a = spread([r["metrics"][name]["value"] for r in sets[0]])
            h = spread([r["metrics"][name]["value"] for r in sets[1]])
            moved = (h[0] - a[0]) / a[0]
            worse = moved if b["better"] == "lower" else -moved
            flag = ""
            if max(a[3], h[3]) > b["bound"]:
                flag, ok = " SPREAD", False
            if worse > b["bound"]:
                flag, ok = flag + " MOVED", False
            print(f"{name:<18}{b['bound']:>7.2f}{a[0]:>14.6g}{a[1]:>14.6g}"
                  f"{a[2]:>14.6g}{a[3]:>9.3f}{a[3] / b['bound']:>8.2f}"
                  f"{h[0]:>14.6g}{h[3]:>9.3f}{moved:>+9.3f}{flag}")
        for label, runs in zip(("runs", "held-out runs"), sets):
            print(f"{label} wall_s: " + " ".join(
                f"{r['metrics']['wall_s']['value']:.3f}" for r in runs))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--heldout-seed", type=int, default=1001)
    args = ap.parse_args()
    try:
        build()
        if args.steadiness:
            return steadiness(args, spec)
        if not args.workload or len(args.workload) != 1:
            ap.error("give exactly one --workload")
        w = args.workload[0]
        print_result(w, one_run(w, args.seed, args.seconds, args.trace))
        return 0
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
