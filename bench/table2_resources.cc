/**
 * @file
 * Section 6.2 (structure of accelerators): estimated FPGA resources
 * of each generated design on a Stratix V-class device, with the
 * rule engine's share of registers highlighted.
 *
 * Paper result: depending on the application the rule engine takes
 * 4.8-10% of total registers (mostly allocator and event bus);
 * BRAMs and combinational logic are negligible next to the task
 * pipelines. Pipelines are replicated by the paper's heuristic until
 * the device is full.
 */

#include <cstdio>

#include "bench_common.hh"
#include "resource/resource.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::bench;

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    Options opt = parseOptions(argc, argv);
    requireNoCheckpoint(opt, "table2_resources");
    Workloads w = makeWorkloads(opt.scale, opt.seed);
    DeviceLimits dev;

    std::printf("=== Section 6.2: structure and resources of generated "
                "accelerators (Stratix V 5SGXEA7) ===\n\n");
    TextTable table({"benchmark", "pipes/set", "regs", "alms",
                     "bram(Mb)", "fill", "rule-engine regs",
                     "rule share"});

    double min_share = 1.0, max_share = 0.0;
    for (Bench b : kAllBenches) {
        MemorySystem mem;
        std::unique_ptr<App> app = appRow(b).build(w, mem);
        const AcceleratorSpec &spec = app->spec();
        AccelConfig cfg = defaultAccelConfig(opt);
        cfg.pipelinesPerSet = fitPipelinesToDevice(spec, cfg, dev);
        ResourceReport rep = estimateResources(spec, cfg);
        double share = rep.ruleEngineRegisterShare();
        min_share = std::min(min_share, share);
        max_share = std::max(max_share, share);
        Resources t = rep.total();
        table.addRow(
            {benchName(b), strprintf("%u", cfg.pipelinesPerSet),
             humanCount(static_cast<double>(t.registers)),
             humanCount(static_cast<double>(t.alms)),
             strprintf("%.1f", t.bramBits / 1e6),
             strprintf("%.0f%%", 100.0 * rep.deviceRegisterFill(dev)),
             humanCount(static_cast<double>(rep.ruleEngines.registers)),
             strprintf("%.1f%%", 100.0 * share)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("measured rule-engine register share: %.1f%%-%.1f%%\n",
                100.0 * min_share, 100.0 * max_share);
    std::printf("paper:    4.8%%-10%% of registers, BRAM/logic "
                "negligible\n");
    return 0;
}
