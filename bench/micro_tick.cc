/**
 * @file
 * Profiling harness for the simulator's per-cycle hot path: runs each
 * paper benchmark's accelerator end to end, measures host wall-clock,
 * and reports simulated cycles per wall second — the number every
 * tick-loop optimization must move (docs/tick-performance.md). Also
 * dumps the tick-loop perf counters (ticks executed, stage visits,
 * fast-forward skips, wake-calendar work, arena allocations) so a win
 * can be attributed, not just asserted.
 *
 * `tools/run_perf.py` wraps this bench into the standardized perf
 * trajectory record BENCH_tick.json and the CI smoke leg that fails
 * on large regressions.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "config/strict_num.hh"
#include "support/logging.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::bench;

namespace {

const char *kTickUsage =
    "usage: micro_tick [--bench NAME] [--reps N] [shared bench flags]";

} // namespace

int
main(int argc, char **argv)
{
    // Split off the micro_tick-specific flags, then hand the rest to
    // the shared strict parser (which fatals on anything unknown).
    std::vector<char *> shared;
    shared.push_back(argv[0]);
    std::vector<Bench> selected;
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> std::string {
            size_t n = std::strlen(flag);
            if (a.size() > n && a[n] == '=')
                return a.substr(n + 1);
            if (i + 1 >= argc)
                fatal(flag, " needs a value; ", kTickUsage);
            return argv[++i];
        };
        if (a == "--bench" || a.rfind("--bench=", 0) == 0) {
            std::string name = value("--bench");
            auto b = benchFromName(name);
            if (!b)
                fatal("unknown benchmark '", name, "'; ", kTickUsage);
            selected.push_back(*b);
        } else if (a == "--reps" || a.rfind("--reps=", 0) == 0) {
            std::string v = value("--reps");
            auto n = parseStrictU64(v);
            if (!n || *n < 1)
                fatal("--reps: '", v, "' is not a positive integer");
            reps = static_cast<int>(*n);
        } else {
            shared.push_back(argv[i]);
        }
    }
    Options opt = parseOptions(static_cast<int>(shared.size()),
                               shared.data());
    requireNoCheckpoint(opt, "micro_tick");
    if (selected.empty())
        selected.assign(std::begin(kAllBenches), std::end(kAllBenches));

    Workloads w = makeWorkloads(opt.scale);
    std::printf("=== micro_tick: simulator throughput on the per-cycle "
                "hot path ===\n");
    std::printf("workload: road %u vertices / %llu arcs (scale %.3g), "
                "best of %d reps\n\n",
                w.road.numVertices(),
                static_cast<unsigned long long>(w.road.numEdges()),
                opt.scale, reps);

    TextTable table({"benchmark", "sim-cycles", "wall(s)", "cycles/sec",
                     "ticks", "visits/cycle", "allocs/cycle"});
    JsonValue runs = JsonValue::array();
    for (Bench b : selected) {
        AccelRun run;
        double wall = timeSeconds(
            [&] { run = runAccelerator(b, w, defaultAccelConfig(opt)); },
            reps);
        double cps = static_cast<double>(run.rr.cycles) / wall;
        const TickPerf &perf = run.rr.tickPerf;
        double cycles = static_cast<double>(run.rr.cycles);
        double visits_per_cycle =
            static_cast<double>(perf.stageVisits) / cycles;
        double allocs_per_cycle =
            static_cast<double>(perf.arenaAllocs) / cycles;
        table.addRow({benchName(b),
                      strprintf("%llu", static_cast<unsigned long long>(
                                            run.rr.cycles)),
                      strprintf("%.3f", wall),
                      strprintf("%.3g", cps),
                      strprintf("%llu", static_cast<unsigned long long>(
                                            perf.ticks)),
                      strprintf("%.2f", visits_per_cycle),
                      strprintf("%.3f", allocs_per_cycle)});

        JsonValue j = runToJson(run);
        j.set("benchmark", JsonValue::str(benchName(b)));
        j.set("wall_seconds", JsonValue::number(wall));
        j.set("cycles_per_sec", JsonValue::number(cps));
        JsonValue tp = JsonValue::object();
        tp.set("ticks", JsonValue::number(
                            static_cast<double>(perf.ticks)));
        tp.set("stage_visits", JsonValue::number(
                                   static_cast<double>(perf.stageVisits)));
        tp.set("ff_skips", JsonValue::number(
                               static_cast<double>(perf.ffSkips)));
        tp.set("skipped_cycles",
               JsonValue::number(static_cast<double>(perf.skippedCycles)));
        tp.set("wake_queries",
               JsonValue::number(static_cast<double>(perf.wakeQueries)));
        tp.set("wake_recomputes",
               JsonValue::number(static_cast<double>(perf.wakeRecomputes)));
        tp.set("arena_allocs",
               JsonValue::number(static_cast<double>(perf.arenaAllocs)));
        tp.set("arena_bytes",
               JsonValue::number(static_cast<double>(perf.arenaBytes)));
        j.set("tick_perf", std::move(tp));
        runs.push(std::move(j));
    }
    std::printf("%s\n", table.render().c_str());
    maybeWriteStatsJson(opt, "micro_tick", runs);
    return 0;
}
