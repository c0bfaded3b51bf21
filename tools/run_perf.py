#!/usr/bin/env python3
"""Record the simulator's tick-loop throughput as BENCH_tick.json.

Wraps the micro_tick profiling bench into the standardized perf
trajectory file the ROADMAP asks for: one record per paper benchmark
with the deterministic tick-loop counters (simulated cycles, ticks
executed, stage visits, busy stage visits, fast-forward skips,
wake-calendar recomputes, arena allocations) and the measured
wall-clock throughput
(cycles_per_sec). The deterministic fields are diffable across
commits; the throughput fields track the hot-path trend on a fixed
machine.

Usage:
  tools/run_perf.py [--build-dir build] [--scale 0.1] [--reps 2]
                    [--out BENCH_tick.json]
                    [--check BASELINE --tolerance 0.30]

The record also carries a "checkpoint" section: wall-clock of a full
fig9 run, of the same run saving a mid-flight checkpoint, and of a
run restored from that checkpoint (docs/checkpointing.md). The gated
quantities are the two ratios — save overhead (save/full) and restore
speedup (full/restore) — which compare runs from the same machine and
so are far more stable than absolute seconds.

With --check, the fresh run is compared against a previously written
record: any benchmark whose cycles_per_sec drops more than the
tolerance below the baseline, whose stage_visits or arena_allocs
rise more than 5% above it (both are deterministic, so no noise
allowance: a rise in visits means stages stopped sleeping, one in
allocations that the hot path allocates per token event again), a
restore speedup more than the tolerance below the baseline's, or a
save overhead more than the tolerance above it fails the run (exit
nonzero, all regressions listed). The scales must match, otherwise
the comparison is meaningless and the script refuses. This powers the
CI perf smoke leg; refresh the committed baseline when the timing
model or the CI hardware changes.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

# Deterministic per-benchmark fields copied from the micro_tick
# stats-json: identical across hosts for a given commit.
DET_FIELDS = ("cycles", "tasks_executed")
TICK_FIELDS = ("ticks", "stage_visits", "ff_skips", "skipped_cycles",
               "wake_queries", "wake_recomputes", "arena_allocs")
# Deterministic counters gated against the baseline, with the rise
# each may show (no timing noise, so no noise allowance).
COUNT_GATES = {"stage_visits": ("stage visits", 0.05),
               "arena_allocs": ("arena allocations", 0.05)}


def run_micro_tick(bench, scale, reps):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        stats = pathlib.Path(tmp.name)
    cmd = [str(bench), "--scale", str(scale), "--reps", str(reps),
           "--threads", "1", "--stats-json", str(stats)]
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"FAIL: {' '.join(cmd)}\n{proc.stdout}\n")
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    doc = json.load(open(stats))
    stats.unlink()
    return doc["runs"]


def run_checkpoint_probe(build_dir, scale, reps):
    """Wall-clock the checkpoint paths (best of `reps` each): a full
    fig9 sweep, the same sweep saving auto-calibrated checkpoints
    (each run saves at 75% of its own length, at the cost of a cold
    calibration run — so save_overhead is expected near 2x), and a
    sweep restored from those checkpoints. Returns the three times
    plus the two gated ratios."""
    bench = REPO / build_dir / "bench" / "fig9_speedup"
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="ckpt-perf-"))

    def timed(tag, extra):
        stats = workdir / f"{tag}.json"
        cmd = [str(bench), "--scale", str(scale), "--threads", "1",
               "--stats-json", str(stats)] + extra
        best = None
        for _ in range(reps):
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            dt = time.monotonic() - t0
            if proc.returncode != 0:
                sys.stderr.write(f"FAIL: {' '.join(cmd)}\n{proc.stdout}\n")
                sys.exit(1)
            best = dt if best is None else min(best, dt)
        return best, stats

    full_s, _ = timed("full", [])
    prefix = workdir / "warm"
    save_s, _ = timed("save", ["--checkpoint-save", f"auto:{prefix}"])
    restore_s, _ = timed("restore",
                         ["--checkpoint-restore", str(prefix)])
    shutil.rmtree(workdir)
    return {
        "full_seconds": full_s,
        "save_seconds": save_s,
        "restore_seconds": restore_s,
        "save_overhead": save_s / full_s,
        "restore_speedup": full_s / restore_s,
    }


def make_record(runs, scale, reps):
    record = {"bench": "micro_tick", "scale": scale, "reps": reps,
              "points": {}}
    for r in runs:
        point = {f: r[f] for f in DET_FIELDS}
        # A stage is busy only on a visit, so the busy-cycle total is
        # the number of useful visits.
        point["busy_visits"] = int(sum(
            v for k, v in r["stats"]["stages"].items()
            if k.endswith(".busy")))
        point["cycles_per_sec"] = r["cycles_per_sec"]
        point.update({f: r["tick_perf"][f] for f in TICK_FIELDS})
        record["points"][r["benchmark"]] = point
    return record


def check_regression(fresh, baseline_path, tolerance):
    baseline = json.load(open(baseline_path))
    if baseline.get("scale") != fresh["scale"]:
        sys.stderr.write(
            f"FAIL: baseline scale {baseline.get('scale')} != fresh "
            f"scale {fresh['scale']}; rerun with --scale "
            f"{baseline.get('scale')}\n")
        sys.exit(1)
    failures = []
    for name, base in baseline["points"].items():
        point = fresh["points"].get(name)
        if point is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        floor = base["cycles_per_sec"] * (1.0 - tolerance)
        got = point["cycles_per_sec"]
        verdict = "ok  " if got >= floor else "FAIL"
        print(f"{verdict} {name}: {got:.3g} cycles/sec "
              f"(baseline {base['cycles_per_sec']:.3g}, "
              f"floor {floor:.3g})")
        if got < floor:
            failures.append(
                f"{name}: {got:.3g} cycles/sec is more than "
                f"{tolerance:.0%} below the baseline "
                f"{base['cycles_per_sec']:.3g}")
        for field, (label, rise) in COUNT_GATES.items():
            ceiling = base[field] * (1.0 + rise)
            got = point[field]
            verdict = "ok  " if got <= ceiling else "FAIL"
            print(f"{verdict} {name}: {got} {label} "
                  f"(baseline {base[field]}, ceiling {ceiling:.0f})")
            if got > ceiling:
                failures.append(
                    f"{name}: {got} {label} are more than {rise:.0%} "
                    f"above the baseline {base[field]}")
    # Checkpoint ratio gates: the save overhead may not grow, the
    # restore speedup may not shrink, beyond the tolerance. Both are
    # same-machine ratios, so the 30% default covers load noise, not
    # hardware drift.
    base_ck = baseline.get("checkpoint")
    fresh_ck = fresh.get("checkpoint")
    if base_ck and fresh_ck:
        ceiling = base_ck["save_overhead"] * (1.0 + tolerance)
        got = fresh_ck["save_overhead"]
        verdict = "ok  " if got <= ceiling else "FAIL"
        print(f"{verdict} checkpoint save overhead: {got:.3f}x full run "
              f"(baseline {base_ck['save_overhead']:.3f}, "
              f"ceiling {ceiling:.3f})")
        if got > ceiling:
            failures.append(
                f"checkpoint: save overhead {got:.3f} is more than "
                f"{tolerance:.0%} above the baseline "
                f"{base_ck['save_overhead']:.3f}")
        floor = base_ck["restore_speedup"] * (1.0 - tolerance)
        got = fresh_ck["restore_speedup"]
        verdict = "ok  " if got >= floor else "FAIL"
        print(f"{verdict} checkpoint restore speedup: {got:.2f}x "
              f"(baseline {base_ck['restore_speedup']:.2f}, "
              f"floor {floor:.2f})")
        if got < floor:
            failures.append(
                f"checkpoint: restore speedup {got:.2f} is more than "
                f"{tolerance:.0%} below the baseline "
                f"{base_ck['restore_speedup']:.2f}")
    elif base_ck and not fresh_ck:
        failures.append("checkpoint: section missing from the fresh run")

    if failures:
        sys.stderr.write("tick-loop throughput regression:\n")
        for f in failures:
            sys.stderr.write(f"  {f}\n")
        sys.exit(1)
    print(f"throughput within {tolerance:.0%} of the baseline on all "
          f"{len(baseline['points'])} benchmarks")


def write_summary(fresh, baseline_path, out_path):
    """Append a per-counter markdown delta table (fresh vs baseline)
    to `out_path` — pointed at $GITHUB_STEP_SUMMARY by CI so every
    counter's drift is visible on the job page, not just the
    cycles_per_sec pass/fail."""
    baseline = json.load(open(baseline_path))
    counters = (DET_FIELDS + ("busy_visits",) + TICK_FIELDS +
                ("cycles_per_sec",))
    lines = ["### Tick-loop perf vs committed baseline", "",
             f"scale {fresh['scale']}, reps {fresh['reps']}", "",
             "| benchmark | counter | baseline | fresh | delta |",
             "|---|---|---:|---:|---:|"]
    for name in sorted(baseline["points"]):
        base = baseline["points"][name]
        point = fresh["points"].get(name, {})
        for c in counters:
            b, f = base.get(c), point.get(c)
            if b is None or f is None:
                delta = "n/a"
            elif b == f:
                delta = "="
            elif b == 0:
                delta = "new"
            else:
                delta = f"{(f - b) / b:+.1%}"
            fmt = lambda v: ("n/a" if v is None
                             else f"{v:.3g}" if isinstance(v, float)
                             else f"{v}")
            lines.append(f"| {name} | {c} | {fmt(b)} | {fmt(f)} "
                         f"| {delta} |")
    # Visits per executed tick against the useful (busy) share of
    # them: how close the scheduler comes to ticking only stages
    # that act; and arena allocations per executed tick.
    lines += ["", "| benchmark | visits_per_tick baseline | fresh "
              "| busy_per_tick baseline | fresh "
              "| allocs_per_tick baseline | fresh |",
              "|---|---:|---:|---:|---:|---:|---:|"]
    per_tick = lambda p, c: (f"{p[c] / p['ticks']:.2f}"
                             if p.get(c) is not None and p.get("ticks")
                             else "n/a")
    for name in sorted(baseline["points"]):
        base = baseline["points"][name]
        point = fresh["points"].get(name, {})
        lines.append(f"| {name} | {per_tick(base, 'stage_visits')} "
                     f"| {per_tick(point, 'stage_visits')} "
                     f"| {per_tick(base, 'busy_visits')} "
                     f"| {per_tick(point, 'busy_visits')} "
                     f"| {per_tick(base, 'arena_allocs')} "
                     f"| {per_tick(point, 'arena_allocs')} |")
    lines.append("")
    base_ck = baseline.get("checkpoint", {})
    fresh_ck = fresh.get("checkpoint", {})
    lines += ["| benchmark | counter | baseline | fresh | delta |",
              "|---|---|---:|---:|---:|"]
    for c in ("full_seconds", "save_seconds", "restore_seconds",
              "save_overhead", "restore_speedup"):
        b, f = base_ck.get(c), fresh_ck.get(c)
        if b is None or f is None:
            delta = "n/a"
        elif b == 0:
            delta = "new"
        else:
            delta = f"{(f - b) / b:+.1%}"
        bs = "n/a" if b is None else f"{b:.3g}"
        fs = "n/a" if f is None else f"{f:.3g}"
        lines.append(f"| checkpoint | {c} | {bs} | {fs} | {delta} |")
    with open(out_path, "a") as f:
        f.write("\n".join(lines) + "\n")
    print(f"appended per-counter delta table to {out_path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--reps", type=int, default=5,
                    help="best-of-N timing; higher damps wall-clock "
                         "noise on loaded machines (default 5)")
    ap.add_argument("--out", default="BENCH_tick.json")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare against a committed BENCH_tick.json")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional cycles/sec drop (default 0.30)")
    ap.add_argument("--summary", metavar="PATH",
                    help="with --check: append a per-counter markdown "
                         "delta table to PATH (e.g. $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args()

    if args.summary and not args.check:
        ap.error("--summary requires --check")

    bench = REPO / args.build_dir / "bench" / "micro_tick"
    if not bench.exists():
        sys.stderr.write(f"bench binary not found: {bench}\n")
        sys.exit(1)

    runs = run_micro_tick(bench, args.scale, args.reps)
    record = make_record(runs, args.scale, args.reps)
    # Best-of-3 is enough for the ratio gates; the full reps count
    # would triple the probe's cost for little extra stability.
    record["checkpoint"] = run_checkpoint_probe(
        args.build_dir, args.scale, min(args.reps, 3))

    out = REPO / args.out
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out} ({len(record['points'])} benchmarks)")

    if args.check:
        if args.summary:
            write_summary(record, REPO / args.check, args.summary)
        check_regression(record, REPO / args.check, args.tolerance)


if __name__ == "__main__":
    main()
