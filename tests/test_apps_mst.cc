/**
 * @file
 * MST benchmark tests: Kruskal reference on hand-checked graphs and
 * against Prim, and SPEC-MST accelerator correctness including retry/squash behaviour.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <utility>

#include "apps/mst.hh"
#include "core/parallel_executor.hh"
#include "core/seq_executor.hh"
#include "core/threaded_runtime.hh"
#include "graph/generators.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"

namespace apir {
namespace {

CsrGraph
triangleWithTail()
{
    // Triangle 0-1-2 (weights 1, 2, 3) plus tail 2-3 (weight 4),
    // stored undirected. MST = {1, 2, 4} = 7 over 3 edges.
    std::vector<EdgeTriple> edges;
    auto add = [&](VertexId a, VertexId b, uint32_t w) {
        edges.push_back({a, b, w});
        edges.push_back({b, a, w});
    };
    add(0, 1, 1);
    add(1, 2, 2);
    add(0, 2, 3);
    add(2, 3, 4);
    return CsrGraph(4, edges);
}

TEST(MstAlgo, HandComputedTree)
{
    MstResult r = mstSequential(triangleWithTail());
    EXPECT_EQ(r.totalWeight, 7u);
    EXPECT_EQ(r.edgesInTree, 3u);
}

TEST(MstAlgo, ForestOnDisconnectedGraph)
{
    std::vector<EdgeTriple> edges = {{0, 1, 2}, {1, 0, 2},
                                     {2, 3, 5}, {3, 2, 5}};
    CsrGraph g(4, edges);
    MstResult r = mstSequential(g);
    EXPECT_EQ(r.totalWeight, 7u);
    EXPECT_EQ(r.edgesInTree, 2u);
}

TEST(MstAlgo, SpanningTreeSizeOnConnectedGraph)
{
    CsrGraph g = roadNetwork(9, 11, 0.08, 0.05, 200, 3);
    MstResult r = mstSequential(g);
    EXPECT_EQ(r.edgesInTree, g.numVertices() - 1);
}

class MstOracleSweep : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * Kruskal against an independent oracle: Prim's algorithm grown from
 * every vertex not yet in the forest, so a disconnected road network
 * yields the same spanning forest weight and edge count.
 */
TEST_P(MstOracleSweep, KruskalMatchesPrim)
{
    CsrGraph g = roadNetwork(9, 11, 0.2, 0.05, 1000, GetParam());
    MstResult prim;
    std::vector<bool> inTree(g.numVertices(), false);
    using Arc = std::pair<uint32_t, VertexId>; // weight, vertex
    for (VertexId s = 0; s < g.numVertices(); ++s) {
        if (inTree[s])
            continue;
        std::priority_queue<Arc, std::vector<Arc>, std::greater<Arc>> pq;
        pq.push({0, s});
        bool root = true;
        while (!pq.empty()) {
            auto [w, v] = pq.top();
            pq.pop();
            if (inTree[v])
                continue;
            inTree[v] = true;
            if (!root) {
                prim.totalWeight += w;
                ++prim.edgesInTree;
            }
            root = false;
            for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e)
                if (!inTree[g.edgeDst(e)])
                    pq.push({g.edgeWeight(e), g.edgeDst(e)});
        }
    }
    MstResult r = mstSequential(g);
    EXPECT_EQ(r.totalWeight, prim.totalWeight);
    EXPECT_EQ(r.edgesInTree, prim.edgesInTree);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstOracleSweep,
                         ::testing::Values(2, 9, 31));

TEST(MstAccel, HandGraph)
{
    setQuietLogging(true);
    CsrGraph g = triangleWithTail();
    MemorySystem mem;
    auto app = buildSpecMst(g, mem);
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_EQ(app.state->result.totalWeight, 7u);
    EXPECT_EQ(app.state->result.edgesInTree, 3u);
}

class MstAccelSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(MstAccelSweep, MatchesKruskalUnderConfig)
{
    setQuietLogging(true);
    auto [pipelines, lanes] = GetParam();
    CsrGraph g = roadNetwork(7, 9, 0.08, 0.05, 500, 21);
    MstResult ref = mstSequential(g);

    MemorySystem mem;
    auto app = buildSpecMst(g, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = pipelines;
    cfg.ruleLanes = lanes;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(app.state->result.totalWeight, ref.totalWeight);
    EXPECT_EQ(app.state->result.edgesInTree, ref.edgesInTree);
    // Every edge ticket is consumed exactly once.
    EXPECT_EQ(app.state->nextTicket, app.spec.initial.size());
    (void)rr;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MstAccelSweep,
    ::testing::Values(std::make_tuple(1u, 8u), std::make_tuple(2u, 16u),
                      std::make_tuple(4u, 8u)));

TEST(MstAccel, DuplicateWeightsResolveDeterministically)
{
    setQuietLogging(true);
    // All weights equal: tree weight is forced, tie-breaking free.
    std::vector<EdgeTriple> edges;
    for (VertexId v = 0; v + 1 < 12; ++v) {
        edges.push_back({v, v + 1, 3});
        edges.push_back({v + 1, v, 3});
    }
    edges.push_back({0, 11, 3});
    edges.push_back({11, 0, 3});
    CsrGraph g(12, edges);
    MemorySystem mem;
    auto app = buildSpecMst(g, mem);
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_EQ(app.state->result.totalWeight, 11u * 3u);
    EXPECT_EQ(app.state->result.edgesInTree, 11u);
}


TEST(MstAppSpec, AllExecutorsMatchKruskal)
{
    CsrGraph g = uniformGraph(100, 4, 500, 7);
    MstResult ref = mstSequential(g);

    {
        auto st = std::make_shared<MstState>();
        AppSpec app = specMstAppSpec(g, st);
        SequentialExecutor exec(app);
        ExecStats stats = exec.run();
        EXPECT_EQ(st->result.totalWeight, ref.totalWeight);
        EXPECT_EQ(st->result.edgesInTree, ref.edgesInTree);
        EXPECT_EQ(stats.squashed, 0u); // sequential never conflicts
    }
    {
        auto st = std::make_shared<MstState>();
        AppSpec app = specMstAppSpec(g, st);
        ParallelExecutor exec(app, {6});
        exec.run();
        EXPECT_EQ(st->result.totalWeight, ref.totalWeight);
        EXPECT_EQ(st->result.edgesInTree, ref.edgesInTree);
    }
    {
        auto st = std::make_shared<MstState>();
        AppSpec app = specMstAppSpec(g, st);
        ThreadedRuntime exec(app, {4});
        exec.run();
        EXPECT_EQ(st->result.totalWeight, ref.totalWeight);
        EXPECT_EQ(st->result.edgesInTree, ref.edgesInTree);
    }
}

} // namespace
} // namespace apir
