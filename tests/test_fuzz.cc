/**
 * @file
 * Property / fuzz tests over randomly generated designs and
 * applications:
 *
 *  - random linear pipelines must conserve tokens (every seeded task
 *    flows through and is accounted for) and never wedge the
 *    simulator, for any template configuration drawn;
 *  - random task-activation DAGs must execute the same task multiset
 *    under the sequential executor, the deterministic parallel
 *    executor, and the threaded runtime;
 *  - random rule-gated applications must deliver exactly one verdict
 *    per task.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "apps/mst.hh"
#include "bdfg/builder.hh"
#include "graph/generators.hh"
#include "core/parallel_executor.hh"
#include "core/seq_executor.hh"
#include "core/threaded_runtime.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace apir {
namespace {

// ----------------------------------------------- random pipeline fuzz

class PipelineFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PipelineFuzz, RandomLinearPipelineConservesTokens)
{
    setQuietLogging(true);
    Rng rng(GetParam());
    MemorySystem mem;
    const uint64_t n_tasks = 8 + rng.below(40);
    const uint64_t region = mem.image().alloc(4096);

    AcceleratorSpec spec;
    spec.name = "fuzz";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 4}};
    PipelineBuilder b("t", 0);
    uint64_t expansion = 1; // tokens per task after all expands
    const int n_ops = 2 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n_ops; ++i) {
        switch (rng.below(4)) {
          case 0:
            b.alu("alu" + std::to_string(i),
                  [](Token &t) { t.words[1] += 1; },
                  1 + static_cast<uint32_t>(rng.below(4)));
            break;
          case 1:
            b.load("ld" + std::to_string(i),
                   [region](const Token &t) {
                       return region + t.words[0] % 512 * kWordBytes;
                   },
                   2);
            break;
          case 2:
            b.storeTiming("st" + std::to_string(i),
                          [region](const Token &t) {
                              return region +
                                     (t.words[0] + 7) % 512 * kWordBytes;
                          });
            break;
          default: {
            uint64_t fan = 1 + rng.below(3);
            if (expansion * fan > 8)
                break; // keep the token count bounded
            expansion *= fan;
            b.expand("ex" + std::to_string(i),
                     [fan](const Token &) {
                         return std::pair<uint64_t, uint64_t>(0, fan);
                     },
                     3);
            break;
          }
        }
    }
    b.sink("done");
    spec.pipelines.push_back(b.build());
    for (uint64_t i = 0; i < n_tasks; ++i)
        spec.seed(0, {i});

    AccelConfig cfg;
    cfg.pipelinesPerSet = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.queueBanks = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.lsuEntries = 2 + static_cast<uint32_t>(rng.below(8));
    cfg.lsuInOrder = rng.chance(0.3);
    cfg.fifoDepth = 1 + static_cast<uint32_t>(rng.below(4));
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();

    // Conservation: every seeded task was popped exactly once, and
    // the machine drained (run() only returns on empty live set).
    EXPECT_EQ(rr.tasksExecuted, n_tasks);
    EXPECT_EQ(rr.tasksActivated, n_tasks);
    EXPECT_LT(rr.cycles, 1'000'000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<uint64_t>(1, 17));

// ------------------------------------------ random activation-DAG fuzz

/**
 * A random app: task (depth d, id) activates a random number of
 * children up to depth D; every execution appends to a per-payload
 * counter. All executors must produce identical counters.
 */
AppSpec
randomDagApp(uint64_t seed,
             std::shared_ptr<std::map<Word, uint64_t>> counts,
             std::shared_ptr<std::mutex> mtx)
{
    AppSpec app;
    app.name = "dagfuzz";
    app.sets = {{"node", TaskSetKind::ForEach, 0, 3}};

    TaskBody body;
    body.pre = [counts, mtx, seed](TaskContext &ctx, const SwTask &t) {
        ctx.atomically([&] {
            std::lock_guard<std::mutex> g(*mtx);
            ++(*counts)[t.data[0]];
        });
        // Deterministic pseudo-random fan-out from the payload.
        Rng local(seed ^ (t.data[0] * 0x9e3779b97f4a7c15ULL));
        uint64_t depth = t.data[1];
        if (depth < 3) {
            uint64_t kids = local.below(3);
            for (uint64_t k = 0; k < kids; ++k) {
                std::array<Word, kMaxPayloadWords> p{};
                p[0] = t.data[0] * 4 + k + 1;
                p[1] = depth + 1;
                ctx.activate(0, p);
            }
        }
        return false;
    };
    body.post = [](TaskContext &, const SwTask &, bool) {};
    app.bodies = {body};
    for (Word i = 0; i < 5; ++i)
        app.seed(0, {i * 1000 + 1, 0});
    return app;
}

class DagFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DagFuzz, ExecutorsProduceIdenticalTaskMultisets)
{
    uint64_t seed = GetParam();
    auto mtx = std::make_shared<std::mutex>();

    auto ref = std::make_shared<std::map<Word, uint64_t>>();
    {
        AppSpec app = randomDagApp(seed, ref, mtx);
        SequentialExecutor exec(app);
        exec.run();
    }
    EXPECT_FALSE(ref->empty());

    auto par = std::make_shared<std::map<Word, uint64_t>>();
    {
        AppSpec app = randomDagApp(seed, par, mtx);
        ParallelExecutor exec(app, {1 + static_cast<uint32_t>(seed % 7)});
        exec.run();
    }
    EXPECT_EQ(*par, *ref);

    auto thr = std::make_shared<std::map<Word, uint64_t>>();
    {
        AppSpec app = randomDagApp(seed, thr, mtx);
        ThreadedRuntime exec(app, {2 + static_cast<uint32_t>(seed % 3)});
        exec.run();
    }
    EXPECT_EQ(*thr, *ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagFuzz,
                         ::testing::Range<uint64_t>(1, 13));

// ----------------------------------------------- rule-delivery fuzz

class RuleFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RuleFuzz, ExactlyOneVerdictPerTask)
{
    setQuietLogging(true);
    Rng rng(GetParam());
    const uint64_t n = 10 + rng.below(30);
    // Random conflict structure: tasks share locations drawn from a
    // small pool, earlier writers squash later ones.
    auto verdicts = std::make_shared<std::vector<int>>(n, 0);

    AppSpec app;
    app.name = "rulefuzz";
    app.sets = {{"w", TaskSetKind::ForEach, 0, 2}};
    RuleSpec rule;
    rule.name = "conflict";
    rule.otherwise = true;
    rule.clauses.push_back(
        {1,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0] && ev.index < p.index;
         },
         false});
    app.rules.push_back(rule);

    TaskBody body;
    body.pre = [](TaskContext &ctx, const SwTask &t) {
        std::array<Word, kMaxPayloadWords> p{};
        p[0] = t.data[0];
        ctx.createRule(0, p);
        return true;
    };
    body.post = [verdicts](TaskContext &ctx, const SwTask &t,
                           bool verdict) {
        ctx.atomically([&] { ++(*verdicts)[t.data[1]]; });
        if (verdict) {
            std::array<Word, kMaxPayloadWords> ev{};
            ev[0] = t.data[0];
            ctx.signalEvent(1, ev);
        }
    };
    app.bodies = {body};
    const uint64_t pool = 1 + rng.below(6);
    for (uint64_t i = 0; i < n; ++i)
        app.seed(0, {rng.below(pool), i});

    ParallelExecutor exec(app, {1 + static_cast<uint32_t>(rng.below(8))});
    ExecStats st = exec.run();
    EXPECT_EQ(st.executed, n);
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ((*verdicts)[i], 1) << "task " << i;
    // Each verdict came from exactly one mechanism.
    EXPECT_EQ(st.ruleReturns + st.otherwiseFires, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleFuzz,
                         ::testing::Range<uint64_t>(1, 13));

// --------------------------------------- speculative-config fuzz

/**
 * Random legal machine tuples — MSHR count, cache lines, up to eight
 * pipelines, queue banks, rule lanes down to one, one to four
 * rendezvous entries, host-fed injection, backoff base, pinning
 * on/off — thrown at the most retry-heavy design (SPEC-MST). The
 * narrow lane files, rendezvous buffers and host intervals are where
 * the per-stage wake edges between stages matter most. Every draw
 * must terminate
 * (run() returning at all proves neither deadlockCycles nor the
 * cycle wall tripped, since both panic), produce the reference tree,
 * and simulate bit-identically with and without fast-forward — the
 * liveness subsystem's backoff and pin timing included.
 */
AccelConfig
randomSpecConfig(Rng &rng)
{
    AccelConfig cfg;
    cfg.mem.cache.mshrs = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.mem.cache.lineBytes = 64;
    cfg.mem.cache.sizeBytes = 64 << rng.below(3); // 1, 2 or 4 lines
    cfg.mem.cache.prefetchNextLine = rng.chance(0.3);
    cfg.pipelinesPerSet = 1 + static_cast<uint32_t>(rng.below(8));
    cfg.queueBanks = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.ruleLanes = 1 + static_cast<uint32_t>(rng.below(16));
    cfg.rendezvousEntries = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.fifoDepth = 1 + static_cast<uint32_t>(rng.below(4));
    if (rng.chance(0.4)) {
        cfg.hostBatch = 1 + static_cast<uint32_t>(rng.below(8));
        cfg.hostInterval = 1 + rng.below(512);
    }
    cfg.specBackoffBase = 1 + rng.below(32);
    // Keep the draw legal: pinOldest requires liveness.
    cfg.specPinOldest = rng.chance(0.7);
    cfg.specLiveness = cfg.specPinOldest || rng.chance(0.7);
    cfg.maxCycles = 20'000'000;
    return cfg;
}

std::string
specMstFingerprint(uint64_t seed, const AccelConfig &base, bool ff)
{
    setQuietLogging(true);
    AccelConfig cfg = base;
    cfg.fastForward = ff;
    CsrGraph g =
        roadNetwork(6, 6, 0.08, 0.05, 500, static_cast<uint32_t>(seed));
    MstResult ref = mstSequential(g);
    MemorySystem mem(cfg.mem);
    auto app = buildSpecMst(g, mem);
    RunResult rr = Accelerator(app.spec, cfg, mem).run();
    EXPECT_EQ(app.state->result.totalWeight, ref.totalWeight);
    EXPECT_EQ(app.state->result.edgesInTree, ref.edgesInTree);

    std::ostringstream os;
    os << rr.cycles << ' ' << rr.tasksExecuted << ' '
       << rr.tasksActivated << ' ' << rr.squashed << ' '
       << rr.fallbackFires << '\n';
    for (const StatGroup &grp : rr.groups) {
        for (const auto &[key, val] : grp.values()) {
            char buf[48];
            std::snprintf(buf, sizeof buf, "%a", val);
            os << grp.name() << '.' << key << '=' << buf << '\n';
        }
    }
    return os.str();
}

class SpecConfigFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SpecConfigFuzz, RandomMachineTerminatesAndFastForwardsExactly)
{
    uint64_t seed = GetParam();
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    AccelConfig cfg = randomSpecConfig(rng);
    std::string on = specMstFingerprint(seed, cfg, true);
    std::string off = specMstFingerprint(seed, cfg, false);
    EXPECT_EQ(on, off) << "spec-config divergence at seed " << seed;
    EXPECT_FALSE(on.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecConfigFuzz,
                         ::testing::Range<uint64_t>(1, 11));

} // namespace
} // namespace apir
