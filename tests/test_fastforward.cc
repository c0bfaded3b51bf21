/**
 * @file
 * Equivalence tests of the event-driven idle-cycle fast-forward: with
 * cfg.fastForward on or off, every run must produce bit-identical
 * results — cycle counts, every statistic in every component group,
 * the firing trace, and the Chrome trace stream — across pipeline
 * shapes (memory-bound, host-fed, rule-gated, expanding, priority
 * queues) and a fuzz sweep of random linear pipelines, plus the
 * same-cycle / next-cycle wake rule of per-stage sleep on hand-built
 * two-stage pipelines. Also covers the deadlockCycles
 * watchdog knob: validation, and the panic firing at the identical
 * simulated cycle in both modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "bdfg/builder.hh"
#include "bench_common.hh"
#include "checkpoint/ckpt.hh"
#include "hw/accelerator.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/trace.hh"

namespace apir {
namespace {

/** Builds the design under test against a fresh memory system. */
using SpecFactory = std::function<AcceleratorSpec(MemorySystem &)>;

/** Hex-float rendering: equal strings iff bit-identical doubles. */
std::string
bits(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Hook run on the freshly built accelerator before run(). */
using Prepare = std::function<void(Accelerator &)>;

/**
 * Run the design once and fingerprint everything observable: the
 * summary scalars and every (component, statistic) pair of the final
 * snapshot. When `traces` is non-null, also run with the Chrome
 * tracer attached and store its stream there.
 */
std::string
runFingerprint(const SpecFactory &make, AccelConfig cfg, bool ff,
               std::string *traces = nullptr,
               const Prepare &prepare = nullptr)
{
    setQuietLogging(true);
    MemorySystem mem(cfg.mem);
    AcceleratorSpec spec = make(mem);
    cfg.fastForward = ff;

    std::ostringstream chrome;
    std::unique_ptr<ChromeTracer> tracer;
    if (traces) {
        tracer = std::make_unique<ChromeTracer>(chrome);
        cfg.tracer = tracer.get();
    }

    Accelerator accel(spec, cfg, mem);
    if (prepare)
        prepare(accel);
    RunResult rr = accel.run();

    std::ostringstream os;
    os << rr.cycles << ' ' << rr.tasksExecuted << ' '
       << rr.tasksActivated << ' ' << rr.squashed << ' '
       << rr.fallbackFires << ' ' << bits(rr.seconds) << ' '
       << bits(rr.utilization) << '\n';
    for (const StatGroup &g : rr.groups) {
        for (const auto &[key, val] : g.values())
            os << g.name() << '.' << key << '=' << bits(val) << '\n';
    }
    if (traces) {
        tracer.reset(); // flush the JSON document
        *traces = chrome.str();
    }
    return os.str();
}

/**
 * Assert that the activity-driven loop (the default) and the plain
 * every-stage, every-cycle loop agree byte-for-byte, traces included.
 */
void
expectEquivalent(const SpecFactory &make, const AccelConfig &cfg)
{
    std::string trace_on, trace_off;
    std::string on = runFingerprint(make, cfg, true, &trace_on);
    std::string off = runFingerprint(make, cfg, false, &trace_off);
    EXPECT_EQ(on, off);
    EXPECT_EQ(trace_on, trace_off);
    EXPECT_FALSE(on.empty());
}

// ------------------------------------------------- hand-built designs

/** Load/double/store over n tasks: the memory-bound workhorse. */
SpecFactory
loadComputeStore(uint64_t n)
{
    return [n](MemorySystem &mem) {
        std::vector<uint64_t> in(n);
        for (uint64_t i = 0; i < n; ++i)
            in[i] = i * 3 + 1;
        uint64_t in_base = mem.image().mapArray(in);
        uint64_t out_base = mem.image().alloc(n);
        AcceleratorSpec spec;
        spec.name = "ffmem";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
        PipelineBuilder b("t", 0);
        b.load("ld",
               [in_base](const Token &t) {
                   return in_base + t.words[0] * kWordBytes;
               },
               1)
         .alu("dbl", [](Token &t) { t.words[1] *= 2; })
         .store("st",
                [out_base](const Token &t) {
                    return out_base + t.words[0] * kWordBytes;
                },
                [](const Token &t) { return t.words[1]; })
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Alu/sink fed by the host in sparse batches: long idle gaps. */
SpecFactory
hostFedTrickle(uint64_t n)
{
    return [n](MemorySystem &) {
        AcceleratorSpec spec;
        spec.name = "fffeed";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
        PipelineBuilder b("t", 0);
        b.alu("nop", [](Token &) {}).sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Rule-gated rendezvous with a starved lane file. */
SpecFactory
ruleGate(uint64_t n)
{
    return [n](MemorySystem &mem) {
        uint64_t out_base = mem.image().alloc(64);
        AcceleratorSpec spec;
        spec.name = "ffgate";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
        RuleSpec rule;
        rule.name = "noop_gate";
        rule.otherwise = true;
        spec.rules.push_back(rule);
        PipelineBuilder b("t", 0);
        b.allocRule("mk", 0,
                    [](const Token &) {
                        return std::array<Word, kMaxPayloadWords>{};
                    })
         .rendezvous("rdv")
         .store("st",
                [out_base](const Token &t) {
                    return out_base + t.words[0] % 8 * kWordBytes;
                },
                [](const Token &) { return Word(1); })
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Expansion fan-out into timing-only stores. */
SpecFactory
expandFan()
{
    return [](MemorySystem &mem) {
        uint64_t region = mem.image().alloc(256);
        AcceleratorSpec spec;
        spec.name = "fffan";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
        PipelineBuilder b("t", 0);
        b.expand("fan",
                 [](const Token &t) {
                     return std::pair<uint64_t, uint64_t>(
                         0, 1 + t.words[0] % 5);
                 },
                 2)
         .storeTiming("st",
                      [region](const Token &t) {
                          return region + t.words[1] % 32 * kWordBytes;
                      })
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < 12; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

/** Priority (heap) task queue feeding a load. */
SpecFactory
priorityQueueLoads(uint64_t n)
{
    return [n](MemorySystem &mem) {
        uint64_t region = mem.image().alloc(1024);
        AcceleratorSpec spec;
        spec.name = "ffheap";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 2, true}};
        PipelineBuilder b("t", 0);
        b.load("ld",
               [region](const Token &t) {
                   return region + t.words[0] % 128 * kWordBytes;
               },
               2)
         .sink("done");
        spec.pipelines.push_back(b.build());
        for (uint64_t i = 0; i < n; ++i)
            spec.seed(0, {(i * 37) % n});
        return spec;
    };
}

TEST(FastForward, MemoryBoundRunIsBitIdentical)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.mem.bandwidthScale = 0.05; // fig10-style starved link
    expectEquivalent(loadComputeStore(48), cfg);
}

TEST(FastForward, PrefetchingCacheIsBitIdentical)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.mem.cache.prefetchNextLine = true;
    cfg.mem.bandwidthScale = 0.25;
    expectEquivalent(loadComputeStore(48), cfg);
}

TEST(FastForward, TinyMshrFileIsBitIdentical)
{
    // Few MSHRs and a slow link: the LSUs spend most cycles retrying
    // into a full miss file, exercising the reject-replay accounting.
    AccelConfig cfg;
    cfg.pipelinesPerSet = 4;
    cfg.lsuEntries = 8;
    cfg.mem.cache.mshrs = 2;
    cfg.mem.bandwidthScale = 0.05;
    expectEquivalent(loadComputeStore(64), cfg);
}

TEST(FastForward, HostFedGapsAreBitIdentical)
{
    AccelConfig cfg;
    cfg.hostBatch = 2;
    cfg.hostInterval = 500; // pipeline drains long before each batch
    expectEquivalent(hostFedTrickle(30), cfg);
}

TEST(FastForward, RuleGateIsBitIdentical)
{
    AccelConfig cfg;
    cfg.ruleLanes = 2; // allocator must stall and recycle lanes
    expectEquivalent(ruleGate(16), cfg);
}

TEST(FastForward, ExpandFanOutIsBitIdentical)
{
    AccelConfig cfg;
    cfg.fifoDepth = 1;
    cfg.mem.bandwidthScale = 0.2;
    expectEquivalent(expandFan(), cfg);
}

TEST(FastForward, PriorityQueueIsBitIdentical)
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    cfg.mem.bandwidthScale = 0.1;
    expectEquivalent(priorityQueueLoads(40), cfg);
}

TEST(FastForward, InOrderLsuIsBitIdentical)
{
    AccelConfig cfg;
    cfg.lsuInOrder = true;
    cfg.mem.bandwidthScale = 0.1;
    expectEquivalent(loadComputeStore(32), cfg);
}

// ------------------------------------------------ per-stage sleep

/**
 * Source -> Alu -> Sink fed one task every 7 cycles, with the actors
 * listed producer-first (each consumer at a higher stage index than
 * its producer) or consumer-first (each at a lower index). A push
 * wakes a higher-index consumer in the same cycle — the every-cycle
 * loop ticks it after the push, and it must count that cycle as a
 * stall — and a lower-index consumer in the next one.
 */
SpecFactory
twoStage(bool consumer_first)
{
    return [consumer_first](MemorySystem &) {
        AcceleratorSpec spec;
        spec.name = consumer_first ? "ffdown" : "ffup";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
        Actor src;
        src.kind = ActorKind::Source;
        src.name = "source";
        src.latency = 1;
        Actor alu;
        alu.kind = ActorKind::Alu;
        alu.name = "alu";
        alu.latency = 3;
        alu.compute = [](Token &t) { t.words[1] += t.words[0]; };
        Actor sink;
        sink.kind = ActorKind::Sink;
        sink.name = "done";
        BdfgGraph g("t", 0);
        ActorId s, a, k;
        if (consumer_first) {
            k = g.addActor(sink);
            a = g.addActor(alu);
            s = g.addActor(src);
        } else {
            s = g.addActor(src);
            a = g.addActor(alu);
            k = g.addActor(sink);
        }
        g.connect(s, a, 1);
        g.connect(a, k, 1);
        g.verify();
        spec.pipelines.push_back(std::move(g));
        for (uint64_t i = 0; i < 24; ++i)
            spec.seed(0, {i});
        return spec;
    };
}

TEST(StageSleep, LowerIndexConsumerWakesNextCycle)
{
    AccelConfig cfg;
    cfg.fifoDepth = 1;
    cfg.hostBatch = 1;
    cfg.hostInterval = 7;
    expectEquivalent(twoStage(true), cfg);
}

TEST(StageSleep, HigherIndexConsumerWakesSameCycle)
{
    AccelConfig cfg;
    cfg.fifoDepth = 1;
    cfg.hostBatch = 1;
    cfg.hostInterval = 7;
    expectEquivalent(twoStage(false), cfg);
}

TEST(StageSleep, StageBoundRunVisitsUnderHalfTheStages)
{
    // The every-cycle loop visits every stage on every executed tick;
    // SPEC-BFS at stock bandwidth keeps most of its stages idle, so
    // they must be asleep most of the time.
    setQuietLogging(true);
    bench::AccelRun run = bench::runAccelerator(
        bench::Bench::SpecBfs, bench::makeWorkloads(0.02, 1),
        bench::defaultAccelConfig());
    const TickPerf &perf = run.rr.tickPerf;
    double stages = 0;
    for (const StatGroup &g : run.rr.groups)
        if (g.name() == "accel")
            stages = g.values().at("stages");
    ASSERT_GT(stages, 0);
    ASSERT_GT(perf.ticks, 0u);
    EXPECT_LT(static_cast<double>(perf.stageVisits) / perf.ticks,
              stages / 2)
        << perf.stageVisits << " visits over " << perf.ticks << " ticks";
}

/**
 * Save a checkpoint at `save` (the hook fires at the top of that
 * cycle), then restore it into a fresh machine: both the saving run
 * and the restored run must fingerprint like the uninterrupted one.
 */
void
expectCheckpointExact(const SpecFactory &make, const AccelConfig &cfg,
                      uint64_t save, const std::string &name)
{
    std::string path = ::testing::TempDir() + name + ".ckpt";
    std::string whole = runFingerprint(make, cfg, true);
    std::string saving = runFingerprint(
        make, cfg, true, nullptr, [&](Accelerator &accel) {
            accel.scheduleCheckpointSave(save, [&accel, &path] {
                ckpt::Writer w;
                accel.ckptSave(w);
                w.finish(path);
            });
        });
    EXPECT_EQ(saving, whole) << name << ": saving perturbed the run";
    std::string restored = runFingerprint(
        make, cfg, true, nullptr, [&](Accelerator &accel) {
            ckpt::Reader r(path);
            accel.ckptRestore(r);
            EXPECT_TRUE(r.atEnd());
        });
    EXPECT_EQ(restored, whole) << name << ": restored run diverged";
}

TEST(StageSleep, CheckpointInsideALongSleepRestoresExactly)
{
    // Host batches every 500 cycles drain in a few dozen: at 1250
    // every stage has slept for hundreds of cycles, and the save hook
    // must settle their lazily charged idle cycles first.
    AccelConfig host;
    host.hostBatch = 2;
    host.hostInterval = 500;
    expectCheckpointExact(hostFedTrickle(30), host, 1250, "sleep_host");

    // A starved link with two MSHRs: load/store units sleep on full
    // miss files, their per-cycle MSHR rejects charged lazily.
    AccelConfig starved;
    starved.pipelinesPerSet = 4;
    starved.lsuEntries = 8;
    starved.mem.cache.mshrs = 2;
    starved.mem.bandwidthScale = 0.05;
    expectCheckpointExact(loadComputeStore(64), starved, 401,
                          "sleep_mshr");
}

// ------------------------------------------------------- fuzz designs

/**
 * The test_fuzz random-pipeline generator, reproduced as a factory so
 * both modes build the identical design, plus a config drawn from the
 * same seed.
 */
SpecFactory
fuzzPipeline(uint64_t seed)
{
    return [seed](MemorySystem &mem) {
        Rng rng(seed);
        const uint64_t n_tasks = 8 + rng.below(40);
        const uint64_t region = mem.image().alloc(4096);
        AcceleratorSpec spec;
        spec.name = "fffuzz";
        spec.sets = {{"t", TaskSetKind::ForEach, 0, 4}};
        PipelineBuilder b("t", 0);
        uint64_t expansion = 1;
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
                b.storeTiming(
                    "st" + std::to_string(i),
                    [region](const Token &t) {
                        return region + (t.words[0] + 7) % 512 * kWordBytes;
                    });
                break;
              default: {
                uint64_t fan = 1 + rng.below(3);
                if (expansion * fan > 8)
                    break;
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
        return spec;
    };
}

AccelConfig
fuzzConfig(uint64_t seed)
{
    Rng rng(~seed * 0x9e3779b97f4a7c15ULL + 1);
    AccelConfig cfg;
    cfg.pipelinesPerSet = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.queueBanks = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.lsuEntries = 2 + static_cast<uint32_t>(rng.below(8));
    cfg.lsuInOrder = rng.chance(0.3);
    cfg.fifoDepth = 1 + static_cast<uint32_t>(rng.below(4));
    cfg.mem.cache.mshrs = 2 + static_cast<uint32_t>(rng.below(6));
    // Mostly memory-starved draws: those runs are dominated by idle
    // cycles, which is where the fast-forward actually engages.
    cfg.mem.bandwidthScale = rng.chance(0.75) ? 0.05 : 1.0;
    if (rng.chance(0.3)) {
        cfg.hostBatch = 1 + static_cast<uint32_t>(rng.below(8));
        cfg.hostInterval = 1 + rng.below(300);
    }
    return cfg;
}

class FastForwardFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FastForwardFuzz, RandomPipelineIsBitIdentical)
{
    uint64_t seed = GetParam();
    expectEquivalent(fuzzPipeline(seed), fuzzConfig(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastForwardFuzz,
                         ::testing::Range<uint64_t>(1, 17));

// ------------------------------------------------- watchdog behaviour

/** Minimal spec used by the watchdog tests. */
AcceleratorSpec
tinySpec(int seeds)
{
    AcceleratorSpec spec;
    spec.name = "wd";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("nop", [](Token &) {}).sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < seeds; ++i)
        spec.seed(0, {Word(i)});
    return spec;
}

TEST(FastForwardDeath, DeadlockCyclesBelowOtherwiseTimeoutIsFatal)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec = tinySpec(1);
    AccelConfig cfg;
    cfg.otherwiseTimeout = 64;
    cfg.deadlockCycles = 64; // must be strictly greater
    EXPECT_EXIT(Accelerator(spec, cfg, mem),
                ::testing::ExitedWithCode(1), "deadlockCycles");
}

TEST(FastForwardDeath, WatchdogPanicsAtTheSameCycleInBothModes)
{
    setQuietLogging(true);
    // Reference: the same one-task pipeline, completing normally. Its
    // final progress cycle is rr.cycles - 1 (run() stops at the tick
    // that drains the tracker).
    uint64_t drained;
    {
        MemorySystem mem;
        AcceleratorSpec spec = tinySpec(1);
        AccelConfig cfg;
        cfg.hostBatch = 1;
        cfg.hostInterval = 1 << 20;
        drained = Accelerator(spec, cfg, mem).run().cycles - 1;
    }

    // Now keep a second task pending behind a host interval far past
    // the watchdog: after the first task drains, nothing can move, and
    // the watchdog must declare deadlock at exactly
    // lastProgress + deadlockCycles + 1 — fast-forwarded or not.
    AccelConfig cfg;
    cfg.hostBatch = 1;
    cfg.hostInterval = 1 << 20;
    cfg.deadlockCycles = 777;
    std::string expect =
        "deadlocked at cycle " + std::to_string(drained + 777 + 1) + " ";
    for (bool ff : {true, false}) {
        cfg.fastForward = ff;
        EXPECT_DEATH(
            {
                setQuietLogging(true);
                MemorySystem mem;
                AcceleratorSpec spec = tinySpec(2);
                Accelerator(spec, cfg, mem).run();
            },
            expect)
            << "fastForward=" << ff;
    }
}

TEST(FastForward, WatchdogCountsSimulatedCyclesNotTicks)
{
    // A host-fed gap much longer than deadlockCycles is fine as long
    // as injections keep arriving before the threshold: the wake-up
    // at each host interval resets nothing by itself, but the batch it
    // injects does. The run must complete without tripping the
    // watchdog in either mode.
    for (bool ff : {true, false}) {
        setQuietLogging(true);
        MemorySystem mem;
        AcceleratorSpec spec = tinySpec(6);
        AccelConfig cfg;
        cfg.hostBatch = 1;
        cfg.hostInterval = 700;
        cfg.deadlockCycles = 1000;
        cfg.fastForward = ff;
        RunResult rr = Accelerator(spec, cfg, mem).run();
        EXPECT_EQ(rr.tasksExecuted, 6u);
        EXPECT_GE(rr.cycles, 5u * 700u);
    }
}

} // namespace
} // namespace apir
