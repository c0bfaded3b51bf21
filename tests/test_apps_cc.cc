/**
 * @file
 * Connected-components tests (the generality extension): reference
 * against hand-built graphs and a union-find oracle, accelerator correctness across
 * configurations, and AppSpec/executor equivalence.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/cc.hh"
#include "core/parallel_executor.hh"
#include "core/seq_executor.hh"
#include "core/threaded_runtime.hh"
#include "graph/generators.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"

namespace apir {
namespace {

CsrGraph
twoTrianglesAndAnIsland()
{
    // Components: {0,1,2}, {3,4,5}, {6}.
    std::vector<EdgeTriple> edges;
    auto add = [&](VertexId a, VertexId b) {
        edges.push_back({a, b, 1});
        edges.push_back({b, a, 1});
    };
    add(0, 1);
    add(1, 2);
    add(2, 0);
    add(3, 4);
    add(4, 5);
    add(5, 3);
    return CsrGraph(7, edges);
}

TEST(CcAlgo, HandGraphComponents)
{
    auto labels = ccSequential(twoTrianglesAndAnIsland());
    EXPECT_EQ(labels[0], 0u);
    EXPECT_EQ(labels[1], 0u);
    EXPECT_EQ(labels[2], 0u);
    EXPECT_EQ(labels[3], 3u);
    EXPECT_EQ(labels[5], 3u);
    EXPECT_EQ(labels[6], 6u);
    EXPECT_EQ(countComponents(labels), 3u);
}

TEST(CcAlgo, ConnectedRoadNetworkHasOneComponent)
{
    CsrGraph g = roadNetwork(10, 12, 0.08, 0.05, 10, 3);
    auto labels = ccSequential(g);
    EXPECT_EQ(countComponents(labels), 1u);
    for (uint32_t l : labels)
        EXPECT_EQ(l, 0u);
}

class CcOracleSweep : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * The reference against an independent oracle: union-find over every
 * arc, each vertex labelled with the least id in its set. The road
 * networks lose 40% of their lattice edges, so they fall apart.
 */
TEST_P(CcOracleSweep, LabelsMatchUnionFind)
{
    CsrGraph g = roadNetwork(8, 9, 0.4, 0.0, 10, GetParam());
    std::vector<uint32_t> parent(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        parent[v] = v;
    auto find = [&](uint32_t x) {
        while (parent[x] != x)
            x = parent[x];
        return x;
    };
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
            // Link the larger root under the smaller: a root is then
            // the least id of its set.
            uint32_t a = find(v), b = find(g.edgeDst(e));
            parent[std::max(a, b)] = std::min(a, b);
        }
    std::vector<uint32_t> oracle(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        oracle[v] = find(v);

    auto labels = ccSequential(g);
    EXPECT_EQ(labels, oracle);
    EXPECT_GT(countComponents(labels), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcOracleSweep,
                         ::testing::Values(2, 9, 31));

class CcAccelSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CcAccelSweep, LabelsMatchSequential)
{
    setQuietLogging(true);
    CsrGraph g = roadNetwork(8, 9, 0.2, 0.05, 10, GetParam());
    auto ref = ccSequential(g);

    MemorySystem mem;
    auto app = buildSpecCc(g, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 1 + GetParam() % 4;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_GT(rr.tasksExecuted, 0u);
    EXPECT_EQ(readLabels(app.img, mem), ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcAccelSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(CcAccel, MultiComponentGraph)
{
    setQuietLogging(true);
    CsrGraph g = twoTrianglesAndAnIsland();
    MemorySystem mem;
    auto app = buildSpecCc(g, mem);
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    auto labels = readLabels(app.img, mem);
    EXPECT_EQ(labels, ccSequential(g));
    EXPECT_EQ(countComponents(labels), 3u);
}

TEST(CcAppSpec, AllExecutorsMatchSequential)
{
    CsrGraph g = roadNetwork(7, 8, 0.15, 0.05, 10, 9);
    auto ref = ccSequential(g);

    auto l1 = std::make_shared<std::vector<uint32_t>>(g.numVertices());
    auto app1 = specCcAppSpec(g, l1);
    SequentialExecutor s(app1);
    s.run();
    EXPECT_EQ(*l1, ref);

    auto l2 = std::make_shared<std::vector<uint32_t>>(g.numVertices());
    auto app2 = specCcAppSpec(g, l2);
    ParallelExecutor p(app2, {5});
    p.run();
    EXPECT_EQ(*l2, ref);

    auto l3 = std::make_shared<std::vector<uint32_t>>(g.numVertices());
    auto app3 = specCcAppSpec(g, l3);
    ThreadedRuntime t(app3, {3});
    t.run();
    EXPECT_EQ(*l3, ref);
}

} // namespace
} // namespace apir
