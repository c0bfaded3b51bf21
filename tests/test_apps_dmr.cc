/**
 * @file
 * DMR benchmark tests: sequential refinement terminates with a
 * quality Delaunay mesh covering the same area, and the SPEC-DMR accelerator refines to completion with a
 * structurally consistent mesh across configurations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/dmr.hh"
#include "core/parallel_executor.hh"
#include "core/seq_executor.hh"
#include "core/threaded_runtime.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"

namespace apir {
namespace {

TEST(DmrAlgo, SequentialTerminatesWithQualityMesh)
{
    RefineParams params;
    Mesh mesh = randomDelaunayMesh(80, 5);
    DmrResult r = dmrSequential(mesh, params);
    EXPECT_EQ(r.remainingBad, 0u);
    EXPECT_GT(r.aliveTriangles, 0u);
    mesh.checkConsistency();
}

TEST(DmrAlgo, RefinementImprovesQuality)
{
    RefineParams params;
    Mesh mesh = randomDelaunayMesh(60, 19);
    auto before =
        findBadTriangles(mesh, params.minAngleRad, params.minArea).size();
    dmrSequential(mesh, params);
    auto after =
        findBadTriangles(mesh, params.minAngleRad, params.minArea).size();
    EXPECT_LE(after, before);
    EXPECT_EQ(after, 0u);
}

/** Total area of the alive triangles. */
double
meshArea(const Mesh &mesh)
{
    double area = 0.0;
    for (TriId t = 0; t < mesh.triangles().size(); ++t) {
        if (!mesh.alive(t))
            continue;
        const Triangle &tri = mesh.triangle(t);
        area += std::fabs(orient2d(mesh.point(tri.v[0]),
                                   mesh.point(tri.v[1]),
                                   mesh.point(tri.v[2]))) / 2.0;
    }
    return area;
}

class DmrOracleSweep : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * Invariants of the sequential refinement that no count of it can
 * show: the result is still a Delaunay triangulation of the same
 * region, with no bad triangle left, and summarizeMesh re-derives
 * the returned result from the mesh alone.
 */
TEST_P(DmrOracleSweep, RefinedMeshIsDelaunayOverTheSameArea)
{
    RefineParams params;
    Mesh mesh = randomDelaunayMesh(80, GetParam());
    double before = meshArea(mesh);
    DmrResult r = dmrSequential(mesh, params);

    mesh.checkConsistency();
    EXPECT_TRUE(mesh.isDelaunay());
    EXPECT_GT(r.refinements, 0u);
    EXPECT_NEAR(meshArea(mesh), before, 1e-9 * before);
    EXPECT_TRUE(
        findBadTriangles(mesh, params.minAngleRad, params.minArea).empty());
    DmrResult again = summarizeMesh(mesh, params, r.refinements);
    EXPECT_EQ(again.refinements, r.refinements);
    EXPECT_EQ(again.aliveTriangles, r.aliveTriangles);
    EXPECT_EQ(again.aliveTriangles, mesh.numAliveTriangles());
    EXPECT_EQ(again.remainingBad, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmrOracleSweep,
                         ::testing::Values(5, 19, 23));

class DmrAccelSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t,
                                                 uint32_t>>
{
};

TEST_P(DmrAccelSweep, RefinesToCompletionUnderConfig)
{
    setQuietLogging(true);
    auto [pipelines, lanes, host_batch] = GetParam();
    RefineParams params;
    Mesh mesh = randomDelaunayMesh(50, 23);

    MemorySystem mem;
    auto app = buildSpecDmr(std::move(mesh), params, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = pipelines;
    cfg.ruleLanes = lanes;
    cfg.hostBatch = host_batch;
    cfg.hostInterval = 64;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();

    DmrResult res =
        summarizeMesh(app.state->mesh, params, app.state->applied);
    EXPECT_EQ(res.remainingBad, 0u);
    app.state->mesh.checkConsistency();
    EXPECT_GT(app.state->applied, 0u);
    (void)rr;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DmrAccelSweep,
    ::testing::Values(std::make_tuple(1u, 8u, 0u),
                      std::make_tuple(2u, 16u, 0u),
                      std::make_tuple(4u, 32u, 0u),
                      std::make_tuple(2u, 16u, 8u))); // host-fed

TEST(DmrAccel, AlreadyGoodMeshDoesNothing)
{
    setQuietLogging(true);
    RefineParams params;
    Mesh mesh = randomDelaunayMesh(40, 3);
    refineMesh(mesh, params); // pre-refine to quality
    uint32_t alive = mesh.numAliveTriangles();

    MemorySystem mem;
    auto app = buildSpecDmr(std::move(mesh), params, mem);
    EXPECT_TRUE(app.spec.initial.empty());
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(app.state->applied, 0u);
    EXPECT_EQ(app.state->mesh.numAliveTriangles(), alive);
    (void)rr;
}

TEST(DmrAccel, ConflictSquashesOccurWithManyPipelines)
{
    setQuietLogging(true);
    RefineParams params;
    Mesh mesh = randomDelaunayMesh(120, 41);

    MemorySystem mem;
    auto app = buildSpecDmr(std::move(mesh), params, mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 4;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    DmrResult res =
        summarizeMesh(app.state->mesh, params, app.state->applied);
    EXPECT_EQ(res.remainingBad, 0u);
    // With many concurrent refinements over one small mesh, some
    // cavity conflicts are essentially inevitable.
    EXPECT_GT(rr.squashed + rr.fallbackFires, 0u);
}


TEST(DmrAppSpec, AllExecutorsRefineToQuality)
{
    RefineParams params;
    for (int mode = 0; mode < 3; ++mode) {
        auto st = std::make_shared<DmrState>();
        st->mesh = randomDelaunayMesh(60, 29);
        st->params = params;
        AppSpec app = specDmrAppSpec(st);
        if (mode == 0) {
            SequentialExecutor exec(app);
            exec.run();
        } else if (mode == 1) {
            ParallelExecutor exec(app, {6});
            exec.run();
        } else {
            ThreadedRuntime exec(app, {4});
            exec.run();
        }
        st->mesh.checkConsistency();
        EXPECT_TRUE(findBadTriangles(st->mesh, params.minAngleRad,
                                     params.minArea)
                        .empty())
            << "executor mode " << mode;
        EXPECT_GT(st->applied, 0u);
    }
}

} // namespace
} // namespace apir
