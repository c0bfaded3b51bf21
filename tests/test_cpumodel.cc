/**
 * @file
 * Tests of the CPU-side model: the Xeon roofline timing model
 * (monotonicity, Amdahl behaviour, bandwidth saturation).
 */

#include <gtest/gtest.h>

#include "cpumodel/xeon_model.hh"

namespace apir {
namespace {

WorkCounts
sampleWork()
{
    WorkCounts w;
    w.instructions = 1e8;
    w.flops = 2e8;
    w.randomAccesses = 1e6;
    w.streamedBytes = 1e8;
    w.serialFraction = 0.1;
    w.rounds = 100;
    return w;
}

TEST(XeonModel, MoreCoresNeverSlower)
{
    XeonParams p;
    WorkCounts w = sampleWork();
    double prev = xeonTime(w, p, 1);
    for (uint32_t c : {2u, 4u, 10u, 20u}) {
        double t = xeonTime(w, p, c);
        EXPECT_LE(t, prev * 1.0001);
        prev = t;
    }
}

TEST(XeonModel, AmdahlLimitsScaling)
{
    XeonParams p;
    p.barrierSec = 0.0;
    WorkCounts w = sampleWork();
    w.serialFraction = 0.5;
    double t1 = xeonTime(w, p, 1);
    double t1000 = xeonTime(w, p, 1000);
    EXPECT_GT(t1000, 0.45 * t1); // can never beat the serial half
}

TEST(XeonModel, StreamingSaturatesSocketBandwidth)
{
    XeonParams p;
    p.barrierSec = 0.0;
    WorkCounts w;
    w.streamedBytes = 50e9; // exactly one second at socket bandwidth
    double t10 = xeonTime(w, p, 10);
    double t20 = xeonTime(w, p, 20);
    // Once the socket is saturated, cores stop helping.
    EXPECT_NEAR(t10, t20, 0.15 * t10);
    EXPECT_GE(t10, 0.8); // close to the 1-second bandwidth floor
}

TEST(XeonModel, RandomAccessDominatedByLatencyOverMlp)
{
    XeonParams p;
    p.barrierSec = 0.0;
    WorkCounts w;
    w.randomAccesses = 1e6;
    double t = xeonTime(w, p, 1);
    EXPECT_NEAR(t, 1e6 * p.dramLatencySec / p.mlp, 1e-6);
}

TEST(XeonModel, BarriersChargedPerRound)
{
    XeonParams p;
    WorkCounts w;
    w.rounds = 1000;
    w.instructions = 1;
    double t = xeonTime(w, p, 10);
    EXPECT_GE(t, 1000 * p.barrierSec);
}

TEST(XeonModel, EmptyWorkCostsOnlyBarriers)
{
    // One core runs sequentially, so it pays no barrier; ten cores pay
    // one per round even when there is no work between them.
    XeonParams p;
    WorkCounts w;
    w.rounds = 7;
    EXPECT_DOUBLE_EQ(xeonTime(w, p, 1), 0.0);
    EXPECT_DOUBLE_EQ(xeonTime(w, p, 10), 7 * p.barrierSec);
}

TEST(XeonModel, FlopsPricedSeparately)
{
    XeonParams p;
    WorkCounts w;
    w.flops = p.flopsPerCycle * p.freqHz; // one second of FP work
    EXPECT_NEAR(xeonTime(w, p, 1), 1.0, 1e-9);
}

} // namespace
} // namespace apir
