#!/usr/bin/env python3
"""Smoke-sweep the scenarios/ corpus and record BENCH_scenarios.json.

Runs fig9_speedup once per scenarios/*.conf at a small scale with
--stats-json, checks that harp_default.conf reproduces the no-config
stats-json byte-for-byte, enforces the liveness cycle budgets, and
writes a deterministic per-scenario/per-benchmark record (no
timestamps, no wall-clock) so the corpus trajectory can be diffed
across commits.

Failures are aggregated: every scenario is attempted, every FAIL line
is printed, and the process exits nonzero if ANY scenario failed to
run or violated a budget — so the CI leg gates on the whole corpus,
not just the first scenario alphabetically. The record file is only
written when the sweep is fully clean.

Usage:
  tools/run_scenarios.py [--build-dir build] [--scale 0.1]
                         [--out BENCH_scenarios.json] [--self-test]

--self-test skips the sweep and instead verifies the failure paths
themselves: a fabricated over-budget run and a failing bench command
must both be flagged. It exits 0 iff the negative checks trip.
"""

import argparse
import filecmp
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Stats fields captured per (scenario, benchmark). Deliberately the
# machine-independent simulation outputs: identical across hosts for a
# given commit, so the record is diffable.
FIELDS = ("cycles", "seconds", "utilization", "tasks_executed", "squashed")

# Scenarios under a hard liveness cycle budget. degenerate_mshr1 is
# the worst legal machine (single-line cache, one MSHR): before the
# squash-retry liveness subsystem (docs/liveness.md) the speculative
# benchmarks ground through hundreds of millions of cycles of retry
# churn here; the protocol bounds them to cycles linear in executed
# tasks, and CI enforces that bound forever.
LIVENESS_BUDGET_SCENARIOS = ("degenerate_mshr1",)

# Liveness budget coefficients: cycles allowed per executed task on the
# degenerate machine, per benchmark. Cycles/task is the quantity that
# stays flat as --scale grows (measured at scales 0.1/0.25/0.5:
# SPEC-BFS 66-71, COOR-BFS 48-49, SPEC-SSSP 102-104, SPEC-MST 60-65,
# SPEC-DMR 940-1134, COOR-LU 4018-5031), so a per-task budget holds at
# paper scale where a fixed constant would either false-fail or gate
# nothing. COOR-BFS runs one task per edge, so its coefficient is the
# ~46-52 cycles/edge linearity the liveness work recorded (CHANGES.md);
# the others fold their per-task fan-out into the coefficient. Each
# budget is ~2x the measured ceiling, plus a flat startup/drain
# allowance so tiny runs aren't judged on their prologue.
LIVENESS_BUDGET_BASE = 50_000
LIVENESS_BUDGET_PER_TASK = {
    "SPEC-BFS": 140,
    "COOR-BFS": 100,
    "SPEC-SSSP": 210,
    "SPEC-MST": 130,
    "SPEC-DMR": 2300,
    "COOR-LU": 10000,
}

# Checkpoint campaign run modes: activity-driven scheduling (ff) and
# the every-stage, every-cycle oracle (noff).
CHECKPOINT_MODES = (
    ("ff", []),
    ("noff", ["--no-fast-forward"]),
)


class FailureLog:
    """Collects FAIL lines so one bad scenario can't mask the rest."""

    def __init__(self):
        self.lines = []

    def fail(self, msg):
        self.lines.append(msg)
        sys.stderr.write(f"FAIL {msg}\n")

    def ok(self):
        return not self.lines


def check_liveness_budget(tag, runs, log):
    for r in runs:
        per_task = LIVENESS_BUDGET_PER_TASK.get(r["benchmark"])
        if per_task is None:
            log.fail(f"[{tag}/{r['benchmark']}]: no liveness budget "
                     "coefficient for this benchmark; add it to "
                     "LIVENESS_BUDGET_PER_TASK")
            continue
        budget = LIVENESS_BUDGET_BASE + per_task * r["tasks_executed"]
        if r["cycles"] > budget:
            log.fail(f"[{tag}/{r['benchmark']}]: {r['cycles']} cycles "
                     f"exceeds the liveness budget {budget} "
                     f"({per_task} cycles/task x "
                     f"tasks_executed={r['tasks_executed']})")


def run_fig9(bench, outdir, tag, scale, extra, log, env=None):
    """Run one sweep; returns the stats path or None on failure.

    `env` adds variables to the inherited environment."""
    stats = outdir / f"{tag}.stats.json"
    cmd = [str(bench), "--scale", str(scale), "--stats-json", str(stats)] + extra
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env={**os.environ, **env} if env else None)
    if proc.returncode != 0:
        log.fail(f"[{tag}]: {' '.join(cmd)}\n{proc.stdout}")
        return None
    return stats


def compare_stats(a, b, what, log):
    """Byte-compare two files; FAIL with `what` on mismatch."""
    if filecmp.cmp(a, b, shallow=False):
        return True
    log.fail(f"{what}: {b} differs from {a}")
    return False


def checkpoint_campaign(bench, outdir, confs, scale, seeds, log):
    """Save/restore round-trip property campaign (docs/checkpointing.md).

    For every scenario x run mode (fast-forward on/off) x seed: run the sweep plain (A), rerun it saving a
    mid-run checkpoint (B), then restore that checkpoint in a fresh
    process (C). A, B and C must produce byte-identical stats-json —
    saving must not perturb the run it snapshots, and a restored
    machine must be indistinguishable from one that never stopped.

    The save cycle is half the shortest run in A: adaptive, because a
    fixed cycle either lands after a small-scale run has drained
    (which the bench makes fatal) or snapshots a near-empty machine at
    large scale.

    Each combo's first seed saves a second time (B') in a process run
    under MALLOC_PERTURB_, which fills fresh heap memory with a
    pattern; B and B' must write identical checkpoint files, so no
    byte of a file comes from memory the simulation never wrote.
    """
    for conf in confs:
        for mode, mode_extra in CHECKPOINT_MODES:
            for seed in seeds:
                tag = f"ckpt.{conf.stem}.{mode}.s{seed}"
                extra = ["--config", str(conf), "--seed", str(seed)]
                extra += mode_extra
                a = run_fig9(bench, outdir, f"{tag}.a", scale, extra, log)
                if a is None:
                    continue
                min_cycles = min(r["cycles"]
                                 for r in json.load(open(a))["runs"])
                save = max(1, min_cycles // 2)
                prefix = outdir / f"{tag}"
                b = run_fig9(bench, outdir, f"{tag}.b", scale,
                             extra + ["--checkpoint-save",
                                      f"{save}:{prefix}"], log)
                c = run_fig9(bench, outdir, f"{tag}.c", scale,
                             extra + ["--checkpoint-restore",
                                      str(prefix)], log)
                good = b is not None and compare_stats(
                    a, b, f"[{tag}] save run not byte-identical", log)
                good &= c is not None and compare_stats(
                    a, c, f"[{tag}] restored run not byte-identical", log)
                if seed == seeds[0] and b is not None:
                    twin = outdir / f"{tag}.perturbed"
                    b2 = run_fig9(bench, outdir, f"{tag}.b2", scale,
                                  extra + ["--checkpoint-save",
                                           f"{save}:{twin}"], log,
                                  env={"MALLOC_PERTURB_": "165"})
                    good &= b2 is not None
                    for r in json.load(open(a))["runs"] if b2 else []:
                        name = r["benchmark"]
                        good &= compare_stats(
                            f"{prefix}.{name}.ckpt", f"{twin}.{name}.ckpt",
                            f"[{tag}] checkpoint bytes differ across "
                            "processes", log)
                if good:
                    print(f"ok   {tag}: save@{save} + restore "
                          "byte-identical to the uninterrupted run")


def self_test(outdir):
    """Verify the gating paths: each negative probe must record a FAIL."""
    ok = True

    log = FailureLog()
    check_liveness_budget(
        "selftest",
        [{"benchmark": "SPEC-BFS", "cycles": 10_000_000,
          "tasks_executed": 100}],
        log)
    if log.ok():
        sys.stderr.write("self-test: over-budget run was NOT flagged\n")
        ok = False
    else:
        print("ok   self-test: over-budget run flagged")

    log = FailureLog()
    check_liveness_budget(
        "selftest",
        [{"benchmark": "NOT-A-BENCH", "cycles": 1,
          "tasks_executed": 1}],
        log)
    if log.ok():
        sys.stderr.write(
            "self-test: unknown benchmark was NOT flagged\n")
        ok = False
    else:
        print("ok   self-test: benchmark without a budget coefficient "
              "flagged")

    log = FailureLog()
    outdir.mkdir(parents=True, exist_ok=True)
    if run_fig9(pathlib.Path("false"), outdir, "selftest-bad", 0.1,
                [], log) is not None or log.ok():
        sys.stderr.write("self-test: failing bench command was NOT flagged\n")
        ok = False
    else:
        print("ok   self-test: failing bench command flagged")

    log = FailureLog()
    fa = outdir / "selftest-cmp-a.json"
    fb = outdir / "selftest-cmp-b.json"
    fa.write_text('{"runs": [1]}\n')
    fb.write_text('{"runs": [2]}\n')
    if compare_stats(fa, fb, "selftest-cmp", log) or log.ok():
        sys.stderr.write(
            "self-test: differing stats files were NOT flagged\n")
        ok = False
    else:
        print("ok   self-test: differing stats files flagged")

    if not ok:
        sys.exit(1)
    print("self-test passed: failure paths gate as intended")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--out", default="BENCH_scenarios.json")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the failure paths instead of sweeping")
    ap.add_argument("--checkpoint", action="store_true",
                    help="run the checkpoint round-trip campaign "
                         "instead of the corpus sweep")
    ap.add_argument("--checkpoint-seeds", type=int, default=5,
                    help="workload seeds per combo in the checkpoint "
                         "campaign (default 5)")
    ap.add_argument("--only", default=None,
                    help="restrict to scenarios whose stem matches "
                         "this glob (e.g. --only 'harp*')")
    args = ap.parse_args()

    outdir = REPO / args.build_dir / "scenario-smoke"
    if args.self_test:
        self_test(outdir)
        return

    bench = REPO / args.build_dir / "bench" / "fig9_speedup"
    if not bench.exists():
        sys.stderr.write(f"bench binary not found: {bench}\n")
        sys.exit(1)

    confs = sorted((REPO / "scenarios").glob("*.conf"))
    if args.only:
        confs = [c for c in confs
                 if pathlib.PurePath(c.stem).match(args.only)]
    if not confs:
        sys.stderr.write("no scenarios/*.conf files matched\n")
        sys.exit(1)

    outdir.mkdir(parents=True, exist_ok=True)

    if args.checkpoint:
        log = FailureLog()
        seeds = range(1, args.checkpoint_seeds + 1)
        checkpoint_campaign(bench, outdir, confs, args.scale, seeds, log)
        if not log.ok():
            sys.stderr.write(
                f"{len(log.lines)} checkpoint round-trip failure(s)\n")
            sys.exit(1)
        n = len(confs) * len(CHECKPOINT_MODES) * args.checkpoint_seeds
        print(f"checkpoint campaign passed: {n} combos byte-identical")
        return

    log = FailureLog()
    record = {"bench": "fig9_speedup", "scale": args.scale, "scenarios": {}}
    for conf in confs:
        tag = conf.stem
        stats = run_fig9(bench, outdir, tag, args.scale,
                         ["--config", str(conf)], log)
        if stats is None:
            continue
        runs = json.load(open(stats))["runs"]
        record["scenarios"][tag] = {
            r["benchmark"]: {f: r[f] for f in FIELDS} for r in runs
        }
        if tag in LIVENESS_BUDGET_SCENARIOS:
            before = len(log.lines)
            check_liveness_budget(tag, runs, log)
            if len(log.lines) == before:
                print(f"ok   {tag}: {len(runs)} benchmarks, "
                      "within the liveness cycle budget")
        else:
            print(f"ok   {tag}: {len(runs)} benchmarks")

    # Acceptance check: the paper-faithful scenario must be
    # byte-identical to the compiled-in default path.
    base = run_fig9(bench, outdir, "no-config-baseline", args.scale, [], log)
    harp = outdir / "harp_default.stats.json"
    if base is not None and harp.exists():
        if filecmp.cmp(base, harp, shallow=False):
            print("ok   harp_default.conf is byte-identical to the "
                  "no-config run")
        else:
            log.fail("harp_default.conf stats-json differs from the "
                     f"no-config run ({harp} vs {base})")

    if not log.ok():
        sys.stderr.write(
            f"{len(log.lines)} scenario failure(s); not writing "
            f"{args.out}\n")
        sys.exit(1)

    out = REPO / args.out
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out} ({len(record['scenarios'])} scenarios)")


if __name__ == "__main__":
    main()
