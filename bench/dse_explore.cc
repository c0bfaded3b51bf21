/**
 * @file
 * Design-space exploration demo (Section 8 future work made real):
 * for each benchmark, the explorer sweeps the template parameters,
 * prunes designs that do not fit the Stratix V with the resource
 * model, simulates the survivors, and reports the chosen
 * configuration against the hand-picked default — with the greedy
 * strategy's evaluation savings alongside.
 */

#include <cstdio>

#include "bench_common.hh"
#include "dse/explorer.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::bench;

namespace {

/** Build a DSE runner evaluating one benchmark on the workloads. */
DseRunner
runnerFor(Bench b, const Workloads &w)
{
    return [b, &w](const AccelConfig &cfg) {
        AccelRun run = runAccelerator(b, w, cfg, false);
        return std::make_pair(run.seconds, run.rr.utilization);
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    requireNoCheckpoint(opt, "dse_explore");
    // DSE multiplies simulator runs; use a quarter-scale workload.
    Workloads w = makeWorkloads(0.25 * opt.scale);

    std::printf("=== Design-space exploration (future-work extension) "
                "===\n\n");
    TextTable table({"benchmark", "default(s)", "best(s)", "gain",
                     "chosen config", "evals(greedy)", "pruned"});

    DseOptions options;
    options.greedy = true;
    options.pipelinesPerSet = {1, 2, 4, 8};
    options.ruleLanes = {8, 16, 32, 64};
    options.queueBanks = {1, 2, 4};
    options.lsuEntries = {4, 8, 16};
    options.threads = opt.threads; // 0 = hardware concurrency

    // The six hand-picked baselines are themselves an independent
    // sweep; fan them out before the per-benchmark explorations.
    std::vector<SweepJob> baseJobs;
    for (Bench b : kAllBenches)
        baseJobs.push_back({b, defaultAccelConfig(opt), false, {}});
    std::vector<AccelRun> defaults = runSweep(baseJobs, w, opt.threads);

    size_t next = 0;
    for (Bench b : kAllBenches) {
        // Resource pruning reads the spec of the workload it simulates.
        MemorySystem scratch;
        std::unique_ptr<App> app = appRow(b).build(w, scratch);
        AccelConfig base = defaultAccelConfig(opt);
        const AccelRun &dflt = defaults[next++];

        DseResult res =
            exploreDesignSpace(app->spec(), base, runnerFor(b, w), options);
        const DsePoint &best = res.best();

        table.addRow(
            {benchName(b), strprintf("%.4f", dflt.seconds),
             strprintf("%.4f", best.seconds),
             strprintf("%.2fx", dflt.seconds / best.seconds),
             describeConfig(best.cfg),
             strprintf("%u", res.evaluations),
             strprintf("%u", res.pruned)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("the explorer prunes with the resource model, simulates "
                "survivors, and\npicks the fastest design that fits the "
                "device.\n");
    return 0;
}
