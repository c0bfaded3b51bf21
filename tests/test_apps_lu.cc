/**
 * @file
 * LU benchmark tests: the sequential factorization fills in sparse
 * inputs and matches an unblocked dense LU, and the COOR-LU accelerator factors correctly across
 * configurations and sparsity levels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "apps/lu.hh"
#include "core/parallel_executor.hh"
#include "core/seq_executor.hh"
#include "core/threaded_runtime.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"

namespace apir {
namespace {

TEST(LuAlgo, FillInHappensOnSparseInputs)
{
    BlockSparseMatrix a = randomBlockSparse(8, 4, 0.25, 7);
    size_t before = a.numBlocks();
    sparseLuSequential(a);
    EXPECT_GT(a.numBlocks(), before); // gemm created fill blocks
}

/** The matrix as a dense row-major array; absent blocks are zero. */
std::vector<double>
densify(const BlockSparseMatrix &a)
{
    const uint32_t bs = a.blockSize();
    const uint32_t n = a.numBlockRows() * bs;
    std::vector<double> d(static_cast<size_t>(n) * n, 0.0);
    for (auto [bi, bj] : a.structure())
        for (uint32_t r = 0; r < bs; ++r)
            for (uint32_t c = 0; c < bs; ++c)
                d[(bi * bs + r) * n + bj * bs + c] = a.block(bi, bj).at(r, c);
    return d;
}

class LuOracleSweep
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, double, uint64_t>>
{
};

/**
 * The blocked right-looking factorization against an independent
 * oracle: unblocked Doolittle LU (no pivoting) of the same matrix made
 * dense. The LU factors of a nonsingular matrix are unique, so the
 * in-place L\U must agree entry by entry, fill-in and zeros included.
 */
TEST_P(LuOracleSweep, BlockedFactorsMatchDenseLu)
{
    auto [nb, bs, density, seed] = GetParam();
    BlockSparseMatrix a = randomBlockSparse(nb, bs, density, seed);
    std::vector<double> oracle = densify(a);
    const uint32_t n = nb * bs;
    for (uint32_t k = 0; k < n; ++k)
        for (uint32_t i = k + 1; i < n; ++i) {
            double l = oracle[i * n + k] / oracle[k * n + k];
            oracle[i * n + k] = l;
            for (uint32_t j = k + 1; j < n; ++j)
                oracle[i * n + j] -= l * oracle[k * n + j];
        }

    LuOpCounts ops = sparseLuSequential(a);
    EXPECT_EQ(ops.factor, nb);
    std::vector<double> got = densify(a);
    double worst = 0.0;
    for (size_t i = 0; i < got.size(); ++i)
        worst = std::max(worst, std::fabs(got[i] - oracle[i]));
    EXPECT_LT(worst, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LuOracleSweep,
    ::testing::Values(std::make_tuple(6u, 8u, 0.3, 5u),
                      std::make_tuple(8u, 4u, 0.25, 7u),
                      std::make_tuple(5u, 4u, 1.0, 3u))); // dense

class LuAccelSweep
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, double, uint32_t>>
{
};

TEST_P(LuAccelSweep, FactorsCorrectlyUnderConfig)
{
    setQuietLogging(true);
    auto [n, bs, density, pipelines] = GetParam();
    BlockSparseMatrix a = randomBlockSparse(n, bs, density, 11);
    BlockSparseMatrix ref = a;
    LuOpCounts ref_ops = sparseLuSequential(ref);

    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = pipelines;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();

    EXPECT_EQ(app.state->ops.factor, ref_ops.factor);
    EXPECT_EQ(app.state->ops.trsm, ref_ops.trsm);
    EXPECT_EQ(app.state->ops.gemm, ref_ops.gemm);
    EXPECT_LT(app.state->a.maxDiff(ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LuAccelSweep,
    ::testing::Values(std::make_tuple(2u, 4u, 0.5, 1u),
                      std::make_tuple(4u, 8u, 0.3, 2u),
                      std::make_tuple(6u, 4u, 0.2, 4u),
                      std::make_tuple(8u, 4u, 0.4, 2u),
                      std::make_tuple(5u, 8u, 1.0, 2u))); // dense

TEST(LuAccel, SingleBlockMatrix)
{
    setQuietLogging(true);
    BlockSparseMatrix a = randomBlockSparse(1, 8, 1.0, 3);
    BlockSparseMatrix ref = a;
    sparseLuSequential(ref);

    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_EQ(app.state->ops.factor, 1u);
    EXPECT_EQ(app.state->ops.total(), 1u);
    EXPECT_LT(app.state->a.maxDiff(ref), 1e-12);
}

TEST(LuAccel, HostFedMatchesPreloaded)
{
    setQuietLogging(true);
    BlockSparseMatrix a = randomBlockSparse(5, 4, 0.4, 13);
    BlockSparseMatrix ref = a;
    sparseLuSequential(ref);

    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    cfg.hostBatch = 1;
    cfg.hostInterval = 128;
    Accelerator accel(app.spec, cfg, mem);
    accel.run();
    EXPECT_LT(app.state->a.maxDiff(ref), 1e-9);
}

TEST(LuAccel, CoordinationNeverSquashes)
{
    setQuietLogging(true);
    BlockSparseMatrix a = randomBlockSparse(6, 4, 0.35, 17);
    MemorySystem mem;
    auto app = buildCoorLu(std::move(a), mem);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    Accelerator accel(app.spec, cfg, mem);
    RunResult rr = accel.run();
    // Coordinative execution admits only runnable tasks: no squashes.
    EXPECT_EQ(rr.squashed, 0u);
}


TEST(LuAppSpec, AllExecutorsMatchSequentialFactors)
{
    BlockSparseMatrix a = randomBlockSparse(5, 8, 0.35, 23);
    BlockSparseMatrix ref = a;
    LuOpCounts ref_ops = sparseLuSequential(ref);

    for (int mode = 0; mode < 3; ++mode) {
        auto st = std::make_shared<LuState>();
        st->a = a;
        AppSpec app = coorLuAppSpec(st);
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
        EXPECT_EQ(st->ops.total(), ref_ops.total())
            << "executor mode " << mode;
        EXPECT_LT(st->a.maxDiff(ref), 1e-9) << "executor mode " << mode;
    }
}

} // namespace
} // namespace apir
