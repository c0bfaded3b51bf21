/**
 * @file
 * Tests of the parallel sweep runner: the thread pool itself, strict
 * bench-flag parsing (--threads and the unknown-flag rejection), and
 * the central guarantee — a multi-threaded sweep produces stats-json
 * payloads bit-identical to a serial run of the same jobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "support/trace.hh"

namespace apir {
namespace bench {
namespace {

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineOnTheCaller)
{
    ThreadPool pool(1);
    std::set<std::thread::id> ids;
    for (int i = 0; i < 8; ++i)
        pool.submit([&ids] { ids.insert(std::this_thread::get_id()); });
    pool.wait();
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 1);
    pool.submit([&done] { ++done; });
    pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 3);
    pool.wait(); // empty wait is a no-op
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.numThreads(), 1u);
    EXPECT_EQ(pool.numThreads(), ThreadPool::hardwareThreads());
}

TEST(ThreadPool, ThrowingJobRethrowsOnTheSubmittingThread)
{
    // A sweep job that throws on a worker must neither terminate the
    // process (unwinding a worker thread) nor deadlock wait(); the
    // failure lands on the submitting thread, and the rest of the
    // batch still runs.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&done, i] {
            if (i == 5)
                throw std::runtime_error("job 5 failed");
            ++done;
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(done.load(), 15);
    // The pool stays usable and a clean wait() no longer throws.
    pool.submit([&done] { ++done; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, FirstOfSeveralFailuresWins)
{
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i)
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_NO_THROW(pool.wait()); // collected: not rethrown twice
}

TEST(ThreadPool, SingleThreadPoolPropagatesInlineFailure)
{
    ThreadPool pool(1);
    pool.submit([] { throw std::logic_error("inline"); });
    EXPECT_THROW(pool.wait(), std::logic_error);
}

TEST(ParallelForEach, VisitsEveryIndexExactlyOnce)
{
    // Each slot is touched only by its own index: no synchronization
    // needed, and any double-visit shows up as a count != 1.
    std::vector<int> visits(257, 0);
    parallelForEach(visits.size(), 4,
                    [&visits](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i], 1) << "index " << i;
}

TEST(ParallelForEach, SerialFallbackPreservesIndexOrder)
{
    std::vector<size_t> order;
    parallelForEach(5, 1, [&order](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

// --------------------------------------------------------- flag parsing

TEST(SweepOptions, ParsesThreads)
{
    const char *argv[] = {"bench", "--threads", "3", "--scale", "0.5"};
    Options opt = parseOptions(5, const_cast<char **>(argv));
    EXPECT_EQ(opt.threads, 3u);
    EXPECT_DOUBLE_EQ(opt.scale, 0.5);
    Options dflt = parseOptions(1, const_cast<char **>(argv));
    EXPECT_EQ(dflt.threads, 0u); // 0 = hardware concurrency
}

TEST(SweepOptionsDeath, UnknownFlagIsFatal)
{
    // The motivating typo: --stat-json used to silently drop output.
    const char *argv[] = {"bench", "--stat-json", "out.json"};
    EXPECT_EXIT(parseOptions(3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "unknown argument");
}

TEST(SweepOptionsDeath, MissingFlagValueIsFatal)
{
    const char *argv[] = {"bench", "--scale"};
    EXPECT_EXIT(parseOptions(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "requires a value");
}

TEST(SweepOptionsDeath, ZeroThreadsIsFatal)
{
    const char *argv[] = {"bench", "--threads", "0"};
    EXPECT_EXIT(parseOptions(3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "--threads must be >= 1");
}

// ----------------------------------------------------- sweep semantics

/** A small fig9-style sweep serialized the way --stats-json does. */
std::string
sweepJsonString(const Workloads &w, unsigned threads)
{
    std::vector<SweepJob> jobs;
    for (Bench b : {Bench::SpecBfs, Bench::CoorBfs, Bench::SpecSssp}) {
        jobs.push_back({b, defaultAccelConfig(), true, {}});
        AccelConfig wide = defaultAccelConfig();
        wide.pipelinesPerSet = 8;
        jobs.push_back({b, wide, false, {}});
    }
    std::vector<AccelRun> runs = runSweep(jobs, w, threads);
    JsonValue arr = JsonValue::array();
    for (size_t i = 0; i < runs.size(); ++i) {
        JsonValue j = runToJson(runs[i]);
        j.set("benchmark", JsonValue::str(benchName(jobs[i].bench)));
        arr.push(std::move(j));
    }
    std::ostringstream os;
    arr.write(os, 0);
    return os.str();
}

TEST(Sweep, FourThreadStatsJsonIsBitIdenticalToSerial)
{
    setQuietLogging(true);
    Workloads w = makeWorkloads(0.02);
    std::string serial = sweepJsonString(w, 1);
    std::string parallel = sweepJsonString(w, 4);
    EXPECT_EQ(serial, parallel);
    EXPECT_GT(serial.size(), 100u); // a real document, not "[]"
}

TEST(Sweep, ResultsArriveInSubmissionOrder)
{
    setQuietLogging(true);
    Workloads w = makeWorkloads(0.02);
    std::vector<SweepJob> jobs;
    for (uint32_t np : {1u, 2u, 4u}) {
        AccelConfig cfg = defaultAccelConfig();
        cfg.pipelinesPerSet = np;
        jobs.push_back({Bench::SpecBfs, cfg, false, {}});
    }
    std::vector<AccelRun> runs = runSweep(jobs, w, 3);
    ASSERT_EQ(runs.size(), jobs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        AccelRun serial = runAccelerator(jobs[i].bench, w, jobs[i].cfg,
                                         jobs[i].verify);
        EXPECT_EQ(runs[i].rr.cycles, serial.rr.cycles) << "job " << i;
    }
}

TEST(SweepDeath, TraceHooksRequireSerialExecution)
{
    setQuietLogging(true);
    Workloads w = makeWorkloads(0.02);
    std::ostringstream trace;
    ChromeTracer tracer(trace);
    SweepJob job{Bench::SpecBfs, defaultAccelConfig(), false, {}};
    job.cfg.tracer = &tracer;
    EXPECT_EXIT(runSweep({job}, w, 2), ::testing::ExitedWithCode(1),
                "trace hooks");
}

} // namespace
} // namespace bench
} // namespace apir
