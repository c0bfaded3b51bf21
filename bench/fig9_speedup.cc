/**
 * @file
 * Figure 9: speedup of the synthesized accelerators over their
 * sequential (1-core) and parallel (10-core) software counterparts
 * on the paper's Xeon E5-2680 v2.
 *
 * Paper result: 2.3-5.9x over one core; 0.5-1.9x against ten cores,
 * with the QPI memory subsystem as the bottleneck.
 *
 * Accelerator times come from the cycle-level simulator at 200 MHz
 * (stock HARP memory parameters). CPU times come from the Xeon
 * timing model (see cpumodel/xeon_model.hh) fed with the measured
 * work of the run; native wall-clock times on this machine are
 * printed alongside for transparency (they are cache-resident at
 * bench scale and therefore NOT the paper's comparison).
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::bench;

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    Workloads w = makeWorkloads(opt.scale, opt.seed);

    std::printf("=== Figure 9: speedup of synthesized accelerators over "
                "software counterparts ===\n");
    std::printf("workload: road %u vertices / %llu arcs, mesh %u pts, "
                "LU %ux%u blocks of %u\n\n",
                w.road.numVertices(),
                static_cast<unsigned long long>(w.road.numEdges()),
                w.meshPoints, w.luBlocks, w.luBlocks, w.luBlockSize);

    XeonParams xeon;
    TextTable table({"benchmark", "accel(s)", "xeon-1c(s)", "xeon-10c(s)",
                     "speedup-1c", "speedup-10c", "native-1c(s)",
                     "util", "squash"});

    double min_s1 = 1e30, max_s1 = 0.0, min_s10 = 1e30, max_s10 = 0.0;
    std::vector<SweepJob> jobs;
    // One run per benchmark, so the checkpoint directives apply to
    // every job: each writes/reads its own PREFIX.<BENCH>.ckpt.
    for (Bench b : kAllBenches)
        jobs.push_back({b, defaultAccelConfig(opt), true, opt.ckpt});
    std::vector<AccelRun> sweep = runSweep(jobs, w, opt.threads);

    JsonValue runs = JsonValue::array();
    for (size_t i = 0; i < jobs.size(); ++i) {
        Bench b = jobs[i].bench;
        const AccelRun &run = sweep[i];
        double t1 = xeonTime(run.work, xeon, 1);
        double t10 = xeonTime(run.work, xeon, 10);
        double native = appRow(b).sequential(w);
        double s1 = t1 / run.seconds;
        double s10 = t10 / run.seconds;
        JsonValue j = runToJson(run);
        j.set("benchmark", JsonValue::str(benchName(b)));
        j.set("xeon_1c_seconds", JsonValue::number(t1));
        j.set("xeon_10c_seconds", JsonValue::number(t10));
        j.set("speedup_1c", JsonValue::number(s1));
        j.set("speedup_10c", JsonValue::number(s10));
        runs.push(std::move(j));
        min_s1 = std::min(min_s1, s1);
        max_s1 = std::max(max_s1, s1);
        min_s10 = std::min(min_s10, s10);
        max_s10 = std::max(max_s10, s10);
        table.addRow({benchName(b), strprintf("%.4f", run.seconds),
                      strprintf("%.4f", t1), strprintf("%.4f", t10),
                      strprintf("%.2fx", s1), strprintf("%.2fx", s10),
                      strprintf("%.4f", native),
                      strprintf("%.3f", run.rr.utilization),
                      strprintf("%llu", static_cast<unsigned long long>(
                                            run.rr.squashed))});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("measured: %.1fx-%.1fx over 1 core, %.1fx-%.1fx over 10 "
                "cores\n",
                min_s1, max_s1, min_s10, max_s10);
    std::printf("paper:    2.3x-5.9x over 1 core, 0.5x-1.9x over 10 "
                "cores\n");
    maybeWriteStatsJson(opt, "fig9_speedup", runs, &w);
    return 0;
}
