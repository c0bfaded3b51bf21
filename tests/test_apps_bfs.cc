/**
 * @file
 * BFS benchmark tests: algorithm implementations agree across
 * sequential / threaded / emulated forms, and the generated
 * accelerators stay correct across template-parameter sweeps
 * (pipelines, lanes, banks, LSU order, bandwidth).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "apps/bfs.hh"
#include "graph/generators.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace apir {
namespace {

TEST(BfsAlgo, SequentialOnPath)
{
    CsrGraph g = pathGraph(50, 1, 5, 2);
    auto lvl = bfsSequential(g, 0);
    // Spine vertices at multiples of 1: level == vertex id.
    for (VertexId v = 0; v + 1 < 50; ++v)
        EXPECT_EQ(lvl[v], v);
}

TEST(BfsAlgo, UnreachableStaysInf)
{
    std::vector<EdgeTriple> edges = {{0, 1, 1}, {1, 0, 1}};
    CsrGraph g(3, edges);
    auto lvl = bfsSequential(g, 0);
    EXPECT_EQ(lvl[2], kInfDistance);
}

TEST(BfsAlgo, ThreadsMatchSequential)
{
    CsrGraph g = roadNetwork(10, 30, 0.08, 0.05, 50, 3);
    auto ref = bfsSequential(g, 0);
    EXPECT_EQ(bfsParallelThreads(g, 0, 1), ref);
    EXPECT_EQ(bfsParallelThreads(g, 0, 4), ref);
}

TEST(BfsAlgo, EmulatedMatchesSequentialAndTimesRounds)
{
    CsrGraph g = roadNetwork(10, 30, 0.08, 0.05, 50, 3);
    auto ref = bfsSequential(g, 0);
    MulticoreConfig cfg;
    auto run = bfsParallelEmulated(g, 0, cfg);
    EXPECT_EQ(run.values, ref);
    EXPECT_GT(run.seconds, 0.0);
}

TEST(BfsAlgo, EmulatedFasterWithMoreCores)
{
    CsrGraph g = rmatGraph(11, 8, 0.57, 0.19, 0.19, 10, 5);
    MulticoreConfig one;
    one.cores = 1;
    one.barrierSeconds = 0.0;
    MulticoreConfig ten;
    ten.cores = 10;
    ten.barrierSeconds = 0.0;
    double t1 = bfsParallelEmulated(g, 0, one).seconds;
    double t10 = bfsParallelEmulated(g, 0, ten).seconds;
    EXPECT_LT(t10, t1);
}

/** Accelerator correctness across template parameters. */
struct CfgCase
{
    uint32_t pipelines;
    uint32_t lanes;
    uint32_t banks;
    bool lsuInOrder;
    double bwScale;
};

/** Print a case as its initializer, not as its bytes (see below). */
void
PrintTo(const CfgCase &c, std::ostream *os)
{
    *os << strprintf("{%u, %u, %u, %s, %g}", c.pipelines, c.lanes,
                     c.banks, c.lsuInOrder ? "true" : "false", c.bwScale);
}

class BfsAccelSweep : public ::testing::TestWithParam<CfgCase>
{
};

TEST_P(BfsAccelSweep, SpecBfsCorrectUnderAnyConfig)
{
    setQuietLogging(true);
    const CfgCase &c = GetParam();
    CsrGraph g = roadNetwork(8, 12, 0.08, 0.05, 60, 9);
    auto ref = bfsSequential(g, 0);

    MemConfig mc;
    mc.bandwidthScale = c.bwScale;
    MemorySystem mem(mc);
    auto app = buildSpecBfs(g, 0, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = c.pipelines;
    cfg.ruleLanes = c.lanes;
    cfg.queueBanks = c.banks;
    cfg.lsuInOrder = c.lsuInOrder;
    cfg.mem = mc;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_EQ(readLevels(app.img, mem), ref);
}

TEST_P(BfsAccelSweep, CoorBfsCorrectUnderAnyConfig)
{
    setQuietLogging(true);
    const CfgCase &c = GetParam();
    CsrGraph g = roadNetwork(8, 12, 0.08, 0.05, 60, 9);
    auto ref = bfsSequential(g, 0);

    MemConfig mc;
    mc.bandwidthScale = c.bwScale;
    MemorySystem mem(mc);
    auto app = buildCoorBfs(g, 0, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = c.pipelines;
    cfg.ruleLanes = c.lanes;
    cfg.queueBanks = c.banks;
    cfg.lsuInOrder = c.lsuInOrder;
    cfg.mem = mc;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_EQ(readLevels(app.img, mem), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BfsAccelSweep,
    ::testing::Values(CfgCase{1, 4, 1, false, 1.0},
                      CfgCase{2, 16, 2, false, 1.0},
                      CfgCase{4, 32, 4, false, 1.0},
                      CfgCase{2, 16, 2, true, 1.0},
                      CfgCase{2, 2, 2, false, 1.0},
                      CfgCase{2, 16, 2, false, 8.0},
                      CfgCase{2, 16, 2, false, 0.25}),
    // Named, and printed, by its fields: gtest's default prints the
    // struct's bytes, padding included, which differ from build to
    // build, and ctest names the tests by both.
    [](const ::testing::TestParamInfo<CfgCase> &info) {
        const CfgCase &c = info.param;
        std::string name = strprintf(
            "p%u_l%u_b%u_%s_bw%g", c.pipelines, c.lanes, c.banks,
            c.lsuInOrder ? "inorder" : "ooo", c.bwScale);
        std::replace(name.begin(), name.end(), '.', 'p');
        return name;
    });

TEST(BfsAccel, SingleVertexGraph)
{
    setQuietLogging(true);
    CsrGraph g(1, {});
    MemorySystem mem;
    auto app = buildSpecBfs(g, 0, mem);
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(readLevels(app.img, mem)[0], 0u);
    EXPECT_GE(rr.tasksExecuted, 1u);
}

TEST(BfsAccel, SpeculationSquashesAreVisible)
{
    setQuietLogging(true);
    // Uniform random graphs create many same-vertex collisions.
    CsrGraph g = uniformGraph(100, 8, 20, 4);
    MemorySystem mem;
    auto app = buildSpecBfs(g, 0, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 4;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    // Many Updates target already-visited vertices; the design must
    // squash them rather than re-commit.
    EXPECT_GT(rr.squashed, 0u);
    EXPECT_EQ(readLevels(app.img, mem), bfsSequential(g, 0));
}

TEST(BfsAccel, UtilizationScalesWithBandwidth)
{
    setQuietLogging(true);
    CsrGraph g = rmatGraph(9, 8, 0.57, 0.19, 0.19, 10, 7);

    auto run_at = [&](double scale) {
        MemConfig mc;
        mc.bandwidthScale = scale;
        MemorySystem mem(mc);
        auto app = buildSpecBfs(g, 0, mem);
        AccelConfig cfg;
        cfg.pipelinesPerSet = 2;
        cfg.mem = mc;
        Accelerator accel(app.spec, cfg, mem);
        return accel.run();
    };
    RunResult low = run_at(0.5);
    RunResult high = run_at(8.0);
    EXPECT_LT(high.cycles, low.cycles); // more bandwidth, faster
}

} // namespace
} // namespace apir
