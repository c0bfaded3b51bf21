/**
 * @file
 * BFS benchmark tests: the sequential reference on hand-checked
 * graphs and against a relaxation oracle, and the generated accelerators stay correct across
 * template-parameter sweeps (pipelines, lanes, banks, LSU order,
 * bandwidth).
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

/** The graphs the BFS and SSSP oracle sweeps run on, by name. */
CsrGraph
oracleGraph(const std::string &name)
{
    if (name == "road")
        return roadNetwork(10, 30, 0.08, 0.05, 50, 3);
    if (name == "rmat")
        return rmatGraph(11, 8, 0.57, 0.19, 0.19, 10, 5);
    return uniformGraph(150, 2, 1000, 9); // sparse: some unreached
}

class BfsOracleSweep : public ::testing::TestWithParam<std::string>
{
};

/**
 * The reference against an independent oracle: relax every arc with
 * unit weight until nothing changes (Bellman-Ford), which reaches the
 * hop-count fixed point a level-ordered queue must also produce.
 */
TEST_P(BfsOracleSweep, LevelsAreShortestHopCounts)
{
    CsrGraph g = oracleGraph(GetParam());
    std::vector<uint32_t> oracle(g.numVertices(), kInfDistance);
    oracle[0] = 0;
    for (bool changed = true; changed;) {
        changed = false;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            if (oracle[v] == kInfDistance)
                continue;
            for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
                VertexId u = g.edgeDst(e);
                if (oracle[v] + 1 < oracle[u]) {
                    oracle[u] = oracle[v] + 1;
                    changed = true;
                }
            }
        }
    }
    auto lvl = bfsSequential(g, 0);
    EXPECT_EQ(lvl, oracle);
    auto reached = std::count_if(lvl.begin(), lvl.end(), [](uint32_t l) {
        return l != kInfDistance;
    });
    EXPECT_EQ(static_cast<VertexId>(reached), g.reachableFrom(0));
}

INSTANTIATE_TEST_SUITE_P(Graphs, BfsOracleSweep,
                         ::testing::Values("road", "rmat", "uniform"),
                         [](const ::testing::TestParamInfo<std::string>
                                &info) { return info.param; });

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
