/**
 * @file
 * Unit tests of the hardware templates: registered FIFOs, the
 * multi-bank task queue with wavefront arbitration, the rule engine,
 * the counted order-key set and live-key tracker, the task-index
 * order, and small synthetic accelerators exercising individual stage
 * kinds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <sstream>

#include "bdfg/builder.hh"
#include "checkpoint/ckpt.hh"
#include "hw/accelerator.hh"
#include "hw/fifo.hh"
#include "hw/rendezvous_group.hh"
#include "hw/rule_engine.hh"
#include "hw/task_queue.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace apir {
namespace {

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/**
 * Write a checkpoint file `name` (under the test temp dir) whose one
 * section holds what `fields(writer)` writes; returns its path.
 */
template <typename Fn>
std::string
saveSection(const std::string &name, Fn &&fields)
{
    std::string path = ::testing::TempDir() + name;
    ckpt::Writer w;
    w.begin("state");
    fields(w);
    w.end();
    w.finish(path);
    return path;
}

/** Restore `obj` from a file written by saveSection. */
template <typename T>
void
restoreSection(const std::string &path, T &obj)
{
    ckpt::Reader r(path);
    r.begin("state");
    r(obj);
    r.end();
}

// ------------------------------------------------------------- SimFifo

TEST(SimFifo, RegisteredVisibility)
{
    SimFifo<int> f(2);
    f.push(10, 7);
    EXPECT_FALSE(f.canPop(10)); // not visible in the push cycle
    EXPECT_TRUE(f.canPop(11));
    EXPECT_EQ(f.pop(11), 7);
}

TEST(SimFifo, CapacityAndOrder)
{
    SimFifo<int> f(2);
    f.push(0, 1);
    f.push(0, 2);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop(5), 1);
    EXPECT_EQ(f.pop(5), 2);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.maxOccupancy(), 2u);
}

TEST(SimFifo, ExtraLatencyDelaysVisibility)
{
    SimFifo<int> f(4);
    f.push(10, 1, 5);
    EXPECT_FALSE(f.canPop(14));
    EXPECT_TRUE(f.canPop(15));
    EXPECT_EQ(f.frontVisibleAt(), 15u);
}

TEST(SimFifo, RingWrapAroundPreservesOrderAndTiming)
{
    // Push/pop far more items than the physical ring so head and tail
    // wrap many times; FIFO order and per-item visibility (push cycle
    // + latency) must survive every wrap.
    SimFifo<int> f(3);
    uint64_t cycle = 0;
    int next_push = 0, next_pop = 0;
    for (int round = 0; round < 100; ++round) {
        while (!f.full()) {
            f.push(cycle, next_push, 1 + (next_push % 3));
            ++next_push;
        }
        ++cycle;
        while (f.canPop(cycle)) {
            EXPECT_EQ(f.frontVisibleAt(),
                      static_cast<uint64_t>(cycle));
            EXPECT_EQ(f.pop(cycle), next_pop);
            ++next_pop;
        }
        cycle += 3; // let the longer-latency items mature
        while (f.canPop(cycle)) {
            EXPECT_EQ(f.pop(cycle), next_pop);
            ++next_pop;
        }
        EXPECT_TRUE(f.empty());
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_EQ(f.maxOccupancy(), 3u);
}

TEST(SimFifo, ElasticOverflowPastCapacityKeepsFifoOrder)
{
    // Elastic pushes (squash-retry re-activations) are admitted past
    // nominal capacity into the side overflow; draining must still be
    // strict FIFO across the ring/overflow boundary.
    SimFifo<int> f(2);
    f.push(0, 0);
    f.push(0, 1);
    EXPECT_TRUE(f.full());
    for (int i = 2; i < 10; ++i)
        f.push(0, i, 1, /*elastic=*/true);
    EXPECT_EQ(f.size(), 10u);
    EXPECT_EQ(f.maxOccupancy(), 10u);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(f.canPop(1)) << "item " << i;
        EXPECT_EQ(f.pop(1), i);
    }
    EXPECT_TRUE(f.empty());
    // The FIFO keeps working normally after the overflow drains.
    f.push(5, 42);
    EXPECT_FALSE(f.canPop(5));
    EXPECT_EQ(f.pop(6), 42);
}

TEST(SimFifo, ElasticOverflowTimingIsPerItem)
{
    // Overflowed items keep their own push-cycle + latency visibility:
    // an item parked in the side overflow while older items drain must
    // become poppable exactly when its own latency expires.
    SimFifo<int> f(1);
    f.push(0, 0, 1);
    f.push(0, 1, 1, true); // overflow, visible at 1
    f.push(0, 2, 7, true); // overflow, visible at 7
    EXPECT_EQ(f.pop(1), 0);
    EXPECT_EQ(f.pop(1), 1);
    EXPECT_FALSE(f.canPop(6)); // item 2's latency not yet expired
    EXPECT_EQ(f.frontVisibleAt(), 7u);
    EXPECT_EQ(f.pop(7), 2);
}

TEST(SimFifo, AnyItemVisitsRingAndOverflowInOrder)
{
    SimFifo<int> f(2);
    f.push(0, 10);
    f.push(0, 20);
    f.push(0, 30, 1, true); // side overflow
    std::vector<int> seen;
    bool hit = f.anyItem([&](int v) {
        seen.push_back(v);
        return v == 30;
    });
    EXPECT_TRUE(hit);
    EXPECT_EQ(seen, (std::vector<int>{10, 20, 30}));
    EXPECT_FALSE(f.anyItem([](int v) { return v == 99; }));
}

// ----------------------------------------------------------- TaskQueue

TEST(TaskQueue, AssignsForEachIndicesInPushOrder)
{
    LiveKeyTracker tracker;
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1};
    TaskQueueUnit q(decl, 0, 2, 16, tracker);
    q.push(0, 0, {11}, TaskIndex{});
    q.push(0, 0, {22}, TaskIndex{});
    q.push(0, 0, {33}, TaskIndex{});
    EXPECT_EQ(q.occupancy(), 3u);
    EXPECT_EQ(tracker.size(), 3u);

    // Pops (any bank order) must carry indices 0, 1, 2 in some order,
    // and each bank yields at most one task per cycle.
    std::vector<uint32_t> seen;
    auto a = q.pop(1, 0);
    auto b = q.pop(1, 1);
    ASSERT_TRUE(a && b);
    auto c = q.pop(1, 0);
    EXPECT_FALSE(c); // both banks already granted this cycle
    c = q.pop(2, 0);
    ASSERT_TRUE(c);
    seen = {a->index.c[0], b->index.c[0], c->index.c[0]};
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(TaskQueue, ForAllTasksShareIndexZero)
{
    LiveKeyTracker tracker;
    TaskSetDecl decl{"s", TaskSetKind::ForAll, 1, 1};
    TaskQueueUnit q(decl, 0, 1, 16, tracker);
    TaskIndex parent;
    parent.c = {5, 0, 0, 0};
    q.push(0, 0, {1}, parent);
    q.push(0, 0, {2}, parent);
    auto a = q.pop(1, 0);
    auto b = q.pop(2, 0);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->index, b->index);
    EXPECT_EQ(a->index.c[0], 5u); // inherited prefix
    EXPECT_EQ(a->index.c[1], 0u); // for-all contributes 0
}

TEST(TaskQueue, BackpressureWhenFull)
{
    LiveKeyTracker tracker;
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1};
    TaskQueueUnit q(decl, 0, 2, 2, tracker);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.canPush());
        q.push(0, 0, {Word(i)}, TaskIndex{});
    }
    EXPECT_FALSE(q.canPush());
}

TEST(TaskQueue, OneGrantPerBankPerCycle)
{
    LiveKeyTracker tracker;
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1};
    TaskQueueUnit q(decl, 0, 2, 16, tracker);
    for (int i = 0; i < 4; ++i)
        q.push(0, 0, {Word(i)}, TaskIndex{});
    // Two banks: exactly two grants per cycle no matter how many
    // sources ask.
    EXPECT_TRUE(q.pop(1, 0).has_value());
    EXPECT_TRUE(q.pop(1, 1).has_value());
    EXPECT_FALSE(q.pop(1, 2).has_value());
    EXPECT_FALSE(q.pop(1, 3).has_value());
    EXPECT_TRUE(q.pop(2, 0).has_value());
    EXPECT_TRUE(q.pop(2, 1).has_value());
    EXPECT_EQ(q.occupancy(), 0u);
}

TEST(TaskQueue, RegisteredPushVisibleNextCycle)
{
    LiveKeyTracker tracker;
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1};
    TaskQueueUnit q(decl, 0, 1, 16, tracker);
    q.push(7, 0, {42}, TaskIndex{});
    EXPECT_FALSE(q.pop(7, 0).has_value()); // pushed at 7: not yet
    EXPECT_EQ(q.nextWakeCycle(7), 8u);     // ... visible at 8
    auto t = q.pop(8, 0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->data[0], 42u);
}

TEST(TaskQueue, RotatingPriorityAlternatesBanks)
{
    // Worked example of the wavefront allocator: pushes at cycle 0
    // land in the least-occupied bank, ties to the lowest id, so
    // bank0 = [t0, t2] and bank1 = [t1, t3]. At cycle 1 the rotation
    // starts source s at bank (s + 1) % 2; at cycle 2 it has advanced
    // by one, so the same source starts at the other bank.
    LiveKeyTracker tracker;
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1};
    TaskQueueUnit q(decl, 0, 2, 16, tracker);
    for (int i = 0; i < 4; ++i)
        q.push(0, 0, {Word(i)}, TaskIndex{});

    auto a = q.pop(1, 0); // starts at bank 1: head t1
    auto b = q.pop(1, 1); // starts at bank 0: head t0
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->data[0], 1u);
    EXPECT_EQ(b->data[0], 0u);

    auto c = q.pop(2, 0); // rotation moved on: bank 0, head t2
    auto d = q.pop(2, 1); // bank 1, head t3
    ASSERT_TRUE(c && d);
    EXPECT_EQ(c->data[0], 2u);
    EXPECT_EQ(d->data[0], 3u);
}

TEST(TaskQueue, WakeOnlyForInvisibleTasks)
{
    LiveKeyTracker tracker;
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1};
    TaskQueueUnit q(decl, 0, 2, 16, tracker);
    EXPECT_EQ(q.nextWakeCycle(0), kNeverWake); // empty: nothing pending
    q.push(3, 0, {1}, TaskIndex{});
    EXPECT_EQ(q.nextWakeCycle(3), 4u);
    // Once the task is on offer, an unconsumed task is the sources'
    // problem, not a queue wake-up.
    EXPECT_EQ(q.nextWakeCycle(4), kNeverWake);
}

TEST(TaskQueue, PriorityModeWakeMatchesVisibility)
{
    LiveKeyTracker tracker([](const SwTask &t) { return t.data[0]; });
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1, true};
    TaskQueueUnit q(decl, 0, 1, 16, tracker);
    q.push(5, 0, {9}, TaskIndex{});
    q.push(6, 0, {3}, TaskIndex{});
    EXPECT_EQ(q.nextWakeCycle(5), 6u); // first push lands at 6
    EXPECT_EQ(q.nextWakeCycle(6), 7u); // second push still in flight
    EXPECT_EQ(q.nextWakeCycle(7), kNeverWake);
}

// ---------------------------------------------------------- RuleEngine

RuleSpec
conflictRule()
{
    RuleSpec rule;
    rule.name = "conflict";
    rule.otherwise = true;
    rule.clauses.push_back(
        {9,
         [](const RuleParams &p, const EventData &ev) {
             return ev.words[0] == p.words[0];
         },
         false});
    return rule;
}

TEST(RuleEngine, AllocUntilFullThenFail)
{
    RuleEngine eng(conflictRule(), 2);
    RuleParams p;
    EXPECT_NE(eng.alloc(p), kNoLane);
    EXPECT_NE(eng.alloc(p), kNoLane);
    EXPECT_EQ(eng.alloc(p), kNoLane);
    EXPECT_EQ(eng.allocFails(), 1u);
    EXPECT_EQ(eng.maxLanesInUse(), 2u);
}

TEST(RuleEngine, ClauseFiresOnMatchingEvent)
{
    RuleEngine eng(conflictRule(), 4);
    RuleParams p;
    p.words[0] = 42;
    uint32_t lane = eng.alloc(p);
    EventData ev;
    ev.op = 9;
    ev.words[0] = 42;
    eng.broadcast(ev, kNoLane);
    ASSERT_TRUE(eng.resolved(lane));
    EXPECT_FALSE(eng.verdict(lane)); // action = squash
    EXPECT_EQ(eng.clauseFires(), 1u);
}

TEST(RuleEngine, NonMatchingEventIgnored)
{
    RuleEngine eng(conflictRule(), 4);
    RuleParams p;
    p.words[0] = 42;
    uint32_t lane = eng.alloc(p);
    EventData ev;
    ev.op = 9;
    ev.words[0] = 7; // different location
    eng.broadcast(ev, kNoLane);
    EXPECT_FALSE(eng.resolved(lane));
    ev.op = 8; // different operation
    ev.words[0] = 42;
    eng.broadcast(ev, kNoLane);
    EXPECT_FALSE(eng.resolved(lane));
}

TEST(RuleEngine, SelfEventsExcluded)
{
    RuleEngine eng(conflictRule(), 4);
    RuleParams p;
    p.words[0] = 42;
    uint32_t lane = eng.alloc(p);
    EventData ev;
    ev.op = 9;
    ev.words[0] = 42;
    eng.broadcast(ev, lane); // excluded: the parent's own event
    EXPECT_FALSE(eng.resolved(lane));
}

TEST(RuleEngine, OtherwiseAndRelease)
{
    RuleEngine eng(conflictRule(), 1);
    RuleParams p;
    uint32_t lane = eng.alloc(p);
    eng.fireOtherwise(lane, false);
    EXPECT_TRUE(eng.resolved(lane));
    EXPECT_TRUE(eng.verdict(lane)); // otherwise = true
    eng.release(lane);
    EXPECT_NE(eng.alloc(p), kNoLane); // lane reusable
    EXPECT_EQ(eng.otherwiseFires(), 1u);
}

/**
 * The rotating-priority allocator as it was written before the scan
 * wrapped by compare: `%` per lane. Kept here only as the reference
 * the engine's lane sequence must reproduce.
 */
struct ModuloLaneFile
{
    explicit ModuloLaneFile(uint32_t n) : valid(n, false) {}

    uint32_t
    alloc()
    {
        for (uint32_t i = 0; i < valid.size(); ++i) {
            uint32_t lane = (next + i) % valid.size();
            if (!valid[lane]) {
                valid[lane] = true;
                next = (lane + 1) % valid.size();
                return lane;
            }
        }
        ++fails;
        return kNoLane;
    }

    std::vector<bool> valid;
    uint32_t next = 0;
    uint64_t fails = 0;
};

TEST(RuleEngine, CompareWrapScanMatchesModuloAllocator)
{
    for (uint32_t lanes : {1u, 7u, 32u, 4096u}) {
        SCOPED_TRACE(lanes);
        std::mt19937_64 rng(lanes);
        auto eng = std::make_unique<RuleEngine>(conflictRule(), lanes);
        ModuloLaneFile ref(lanes);
        std::vector<uint32_t> held; // allocated lanes, in no order
        std::vector<bool> resolved(lanes, false);
        const uint32_t steps = 3 * lanes + 300;
        for (uint32_t step = 0; step < steps; ++step) {
            if (step == steps / 2) {
                // Continue the trace on an engine restored mid-flight.
                auto save = [&](ckpt::Writer &w) { w(*eng); };
                std::string path = saveSection("lanes", save);
                std::string saved = fileBytes(path);
                eng = std::make_unique<RuleEngine>(conflictRule(), lanes);
                restoreSection(path, *eng);
                ASSERT_EQ(fileBytes(saveSection("lanes", save)), saved);
            }
            // Fill for the first two thirds (so the file overflows and
            // allocs fail), then drain.
            uint64_t allocPct = step < 2 * steps / 3 ? 90 : 30;
            uint64_t roll = rng() % 100;
            if (held.empty() || roll < allocPct) {
                uint32_t lane = eng->alloc(RuleParams{});
                ASSERT_EQ(lane, ref.alloc()) << "step " << step;
                if (lane != kNoLane) {
                    held.push_back(lane);
                    resolved[lane] = false;
                }
            } else {
                size_t pick = rng() % held.size();
                uint32_t lane = held[pick];
                ASSERT_EQ(eng->resolved(lane), resolved[lane]);
                if (!resolved[lane] && rng() % 2) {
                    eng->fireOtherwise(lane, false);
                    resolved[lane] = true;
                } else {
                    eng->release(lane);
                    ref.valid[lane] = false;
                    held[pick] = held.back();
                    held.pop_back();
                }
            }
            ASSERT_EQ(eng->nextLane(), ref.next) << "step " << step;
            ASSERT_EQ(eng->allocFails(), ref.fails) << "step " << step;
            ASSERT_EQ(eng->lanesInUse(), held.size());
        }
        EXPECT_GT(ref.fails, 0u); // the trace did overflow the file
    }
}

TEST(RuleEngine, RestoredNextLanePastTheLanesIsFatal)
{
    // The scan wraps by compare, so a corrupt file's allocation pointer
    // must be rejected on restore rather than index past the lanes.
    RuleEngine eng(conflictRule(), 4);
    eng.alloc(RuleParams{});
    eng.alloc(RuleParams{});
    std::string path =
        saveSection("next_lane", [&](ckpt::Writer &w) { w(eng); });
    std::string bytes = fileBytes(path);
    // The section ends with nextLane_, inUse_, maxInUse_ (u32 each)
    // and six u64 counters.
    size_t at = bytes.size() - (3 * 4 + 6 * 8);
    uint32_t saved = 0;
    std::memcpy(&saved, bytes.data() + at, sizeof saved);
    ASSERT_EQ(saved, eng.nextLane());
    uint32_t past = eng.numLanes();
    std::memcpy(bytes.data() + at, &past, sizeof past);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    RuleEngine back(conflictRule(), 4);
    ScopedFatalThrows guard;
    try {
        restoreSection(path, back);
        FAIL() << "restore accepted next lane " << past;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("next lane 4 past its 4 lanes"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------------ LiveKeyTracker

TEST(LiveKeyTracker, DefaultOrderIsIndex)
{
    LiveKeyTracker t;
    SwTask a, b;
    a.index.c = {2, 0, 0, 0};
    b.index.c = {1, 0, 0, 0};
    t.insert(t.keyOf(a));
    t.insert(t.keyOf(b));
    EXPECT_EQ(t.min(), t.keyOf(b));
    t.erase(t.keyOf(b));
    EXPECT_EQ(t.min(), t.keyOf(a));
}

TEST(LiveKeyTracker, CustomKeyOverridesIndex)
{
    LiveKeyTracker t([](const SwTask &task) { return task.data[0]; });
    SwTask a, b;
    a.index.c = {1, 0, 0, 0};
    a.data[0] = 9;
    b.index.c = {2, 0, 0, 0};
    b.data[0] = 3;
    t.insert(t.keyOf(a));
    t.insert(t.keyOf(b));
    EXPECT_EQ(t.min(), t.keyOf(b)); // smaller payload key wins
}

// ------------------------------------------------------- CountedKeySet

/** withinOldest exactly as the std::multiset tracker computed it. */
bool
multisetWithinOldest(const std::multiset<HwOrderKey> &ref,
                     const HwOrderKey &k, size_t window)
{
    auto it = ref.begin();
    for (size_t i = 0; i < window && it != ref.end(); ++i, ++it) {
        if (*it == k)
            return true;
        if (k < *it)
            return false;
    }
    return false;
}

void
expectSameAsMultiset(const CountedKeySet &set,
                     const std::multiset<HwOrderKey> &ref,
                     const std::vector<HwOrderKey> &probes)
{
    ASSERT_EQ(set.size(), ref.size());
    ASSERT_EQ(set.empty(), ref.empty());
    if (!ref.empty()) {
        ASSERT_EQ(set.min(), *ref.begin());
    }
    for (const HwOrderKey &k : probes) {
        ASSERT_EQ(set.isMin(k), !ref.empty() && !(*ref.begin() < k));
        for (size_t window = 1; window <= 9; ++window)
            ASSERT_EQ(set.withinOldest(k, window),
                      multisetWithinOldest(ref, k, window))
                << "window " << window << " count " << ref.count(k);
    }
}

TEST(CountedKeySet, MatchesMultisetUnderDuplicateHeavyTraces)
{
    // A small key pool (custom keys 0/7, indices from 0/1/0xffffffff
    // in two positions) so most inserts repeat a live key, as Expand
    // children do.
    std::vector<HwOrderKey> pool;
    for (uint64_t custom : {0ull, 7ull})
        for (uint32_t a : {0u, 1u, 0xffffffffu})
            for (uint32_t b : {0u, 1u, 0xffffffffu})
                pool.push_back({custom, TaskIndex{{a, 0, b, 0}}});
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        CountedKeySet set;
        std::multiset<HwOrderKey> ref;
        for (int step = 0; step < 600; ++step) {
            // Grow for the first half, shrink for the second.
            uint64_t insertPct = step < 300 ? 65 : 35;
            HwOrderKey k = pool[rng() % pool.size()];
            if (ref.empty() || rng() % 100 < insertPct) {
                set.insert(k);
                ref.insert(k);
            } else {
                auto it = ref.find(k);
                ASSERT_EQ(set.erase(k), it != ref.end());
                if (it != ref.end())
                    ref.erase(it);
            }
            std::vector<HwOrderKey> probes = {k, pool[rng() % pool.size()]};
            if (!ref.empty())
                probes.push_back(*std::next(ref.begin(),
                                            rng() % ref.size()));
            expectSameAsMultiset(set, ref, probes);

            if (step % 50 == 49) {
                // Same bytes as the multiset it replaced, and a restore
                // rebuilds the same counts.
                std::string mine = saveSection(
                    "counted_keys", [&](ckpt::Writer &w) { w(set); });
                std::string theirs = saveSection(
                    "multiset_keys", [&](ckpt::Writer &w) { w.seq(ref); });
                ASSERT_EQ(fileBytes(mine), fileBytes(theirs));
                CountedKeySet back;
                back.insert(pool[0]); // a restore replaces old contents
                restoreSection(mine, back);
                expectSameAsMultiset(back, ref, pool);
                for (const HwOrderKey &p : pool) {
                    size_t n = 0;
                    while (back.erase(p))
                        ++n;
                    ASSERT_EQ(n, ref.count(p));
                }
                ASSERT_TRUE(back.empty());
            }
        }
    }
}

TEST(TaskIndex, OrderIsLexicographicOverComponents)
{
    // Every pair of tuples over the edge values: the first difference
    // falls at each of the four positions, with every combination of
    // the values before, at and after it.
    const uint32_t edges[] = {0u, 1u, 0xffffffffu};
    std::vector<TaskIndex> all;
    for (uint32_t a : edges)
        for (uint32_t b : edges)
            for (uint32_t c : edges)
                for (uint32_t d : edges)
                    all.push_back(TaskIndex{{a, b, c, d}});
    for (const TaskIndex &x : all) {
        for (const TaskIndex &y : all) {
            bool less = std::lexicographical_compare(
                x.c.begin(), x.c.end(), y.c.begin(), y.c.end());
            bool greater = std::lexicographical_compare(
                y.c.begin(), y.c.end(), x.c.begin(), x.c.end());
            ASSERT_EQ(x < y, less) << x.toString() << " " << y.toString();
            ASSERT_EQ(x > y, greater);
            ASSERT_EQ(x == y, x.c == y.c);
            ASSERT_EQ((x <=> y) == 0, x.c == y.c);
        }
    }
}

// --------------------------------------- synthetic micro-accelerators

/**
 * Micro design: n tasks each load in[i], double it, store out[i].
 * Exercises Source/Load/Alu/Store/Sink and LSU completion.
 */
TEST(MicroAccel, LoadComputeStore)
{
    setQuietLogging(true);
    MemorySystem mem;
    const uint64_t n = 50;
    std::vector<uint64_t> in(n);
    for (uint64_t i = 0; i < n; ++i)
        in[i] = i * 3 + 1;
    uint64_t in_base = mem.image().mapArray(in);
    uint64_t out_base = mem.image().alloc(n);

    AcceleratorSpec spec;
    spec.name = "double";
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

    AccelConfig cfg;
    cfg.pipelinesPerSet = 2;
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(rr.tasksExecuted, n);
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(mem.readWord(out_base + i * kWordBytes), in[i] * 2);
    EXPECT_GT(rr.utilization, 0.0);
    EXPECT_LE(rr.utilization, 1.0);
}

/** Micro design: expansion fans one task into k children. */
TEST(MicroAccel, ExpandFansOut)
{
    setQuietLogging(true);
    MemorySystem mem;
    uint64_t out_base = mem.image().alloc(64);

    AcceleratorSpec spec;
    spec.name = "fan";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 2}};
    PipelineBuilder b("t", 0);
    b.expand("fan",
             [](const Token &t) {
                 return std::pair<uint64_t, uint64_t>(0, t.words[0]);
             },
             1)
     .store("st",
            [out_base](const Token &t) {
                return out_base + t.words[1] * kWordBytes;
            },
            [](const Token &t) { return t.words[1] + 100; })
     .sink("done");
    spec.pipelines.push_back(b.build());
    spec.seed(0, {8});

    AccelConfig cfg;
    cfg.pipelinesPerSet = 1;
    Accelerator accel(spec, cfg, mem);
    accel.run();
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(mem.readWord(out_base + i * kWordBytes), i + 100);
}

/** Empty expansion ranges must not strand live tokens. */
TEST(MicroAccel, EmptyExpandTerminates)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec;
    spec.name = "empty";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.expand("none",
             [](const Token &) {
                 return std::pair<uint64_t, uint64_t>(5, 5);
             },
             1)
     .sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < 5; ++i)
        spec.seed(0, {Word(i)});

    AccelConfig cfg;
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(rr.tasksExecuted, 5u);
    EXPECT_LT(rr.cycles, 1000u);
}

/** A rule with an always-true event lets all tasks pass quickly. */
TEST(MicroAccel, RendezvousOtherwiseDrains)
{
    setQuietLogging(true);
    MemorySystem mem;
    uint64_t out_base = mem.image().alloc(64);

    AcceleratorSpec spec;
    spec.name = "gate";
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
                return out_base + t.words[0] * kWordBytes;
            },
            [](const Token &) { return Word(1); })
     .sink("done");
    spec.pipelines.push_back(b.build());
    for (uint64_t i = 0; i < 8; ++i)
        spec.seed(0, {i});

    AccelConfig cfg;
    cfg.ruleLanes = 4; // fewer lanes than tasks: allocator must cycle
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(rr.tasksExecuted, 8u);
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(mem.readWord(out_base + i * kWordBytes), 1u);
    (void)rr;
}

/** Host batching: tasks trickle in but all are still executed. */
TEST(MicroAccel, HostBatchedInjection)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec;
    spec.name = "hostfeed";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("nop", [](Token &) {}).sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < 20; ++i)
        spec.seed(0, {Word(i)});

    AccelConfig cfg;
    cfg.hostBatch = 4;
    cfg.hostInterval = 100;
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(rr.tasksExecuted, 20u);
    // 20 tasks at 4/100-cycle batches: at least 400 cycles.
    EXPECT_GE(rr.cycles, 400u);
}


TEST(TaskQueue, PriorityModePopsMinimumKeyFirst)
{
    LiveKeyTracker tracker([](const SwTask &t) { return t.data[0]; });
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1, true};
    TaskQueueUnit q(decl, 0, 2, 16, tracker);
    q.push(0, 0, {30}, TaskIndex{});
    q.push(0, 0, {10}, TaskIndex{});
    q.push(0, 0, {20}, TaskIndex{});
    auto a = q.pop(1, 0);
    auto b = q.pop(2, 0);
    auto c = q.pop(3, 0);
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(a->data[0], 10u);
    EXPECT_EQ(b->data[0], 20u);
    EXPECT_EQ(c->data[0], 30u);
}

TEST(TaskQueue, PriorityModeRespectsVisibilityAndPortLimit)
{
    LiveKeyTracker tracker([](const SwTask &t) { return t.data[0]; });
    TaskSetDecl decl{"s", TaskSetKind::ForEach, 0, 1, true};
    TaskQueueUnit q(decl, 0, 1, 16, tracker);
    q.push(5, 0, {1}, TaskIndex{});
    EXPECT_FALSE(q.pop(5, 0).has_value()); // pushed this cycle
    q.push(5, 0, {2}, TaskIndex{});
    auto a = q.pop(6, 0);
    ASSERT_TRUE(a.has_value());
    // 1 bank -> one grant per cycle.
    EXPECT_FALSE(q.pop(6, 1).has_value());
    EXPECT_TRUE(q.pop(7, 0).has_value());
}

TEST(RendezvousGroupTest, MinTracksInsertErase)
{
    RendezvousGroup grp;
    HwOrderKey a{1, TaskIndex{}};
    HwOrderKey b{2, TaskIndex{}};
    grp.insert(b);
    EXPECT_TRUE(grp.isMin(b));
    grp.insert(a);
    EXPECT_TRUE(grp.isMin(a));
    EXPECT_FALSE(grp.isMin(b));
    grp.erase(a);
    EXPECT_TRUE(grp.isMin(b));
    // Equal keys are all minimal.
    grp.insert(b);
    EXPECT_TRUE(grp.isMin(b));
}

TEST(MicroAccel, StageKindStatsReported)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec;
    spec.name = "kinds";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("nop", [](Token &) {}).sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < 6; ++i)
        spec.seed(0, {Word(i)});
    AccelConfig cfg;
    cfg.pipelinesPerSet = 1;
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();
    const StatGroup *stages = nullptr;
    for (const StatGroup &g : rr.groups)
        if (g.name() == "stages")
            stages = &g;
    ASSERT_NE(stages, nullptr);
    EXPECT_DOUBLE_EQ(stages->get("Alu.tokens"), 6.0);
    EXPECT_DOUBLE_EQ(stages->get("Sink.tokens"), 6.0);
    EXPECT_GT(stages->get("Source.busy"), 0.0);
}


TEST(MicroAccel, CycleTraceRecordsFirings)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec;
    spec.name = "traced";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("bump", [](Token &t) { t.words[0] += 1; }).sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < 3; ++i)
        spec.seed(0, {Word(i)});

    std::ostringstream os;
    {
        ChromeTracer tracer(os);
        AccelConfig cfg;
        cfg.pipelinesPerSet = 1;
        cfg.tracer = &tracer;
        Accelerator accel(spec, cfg, mem);
        accel.run();
    }

    // One track per stage, named by its label; one "X" per firing.
    JsonValue doc = JsonValue::parse(os.str());
    const JsonValue &events = doc.at("traceEvents");
    std::set<std::string> tracks;
    size_t firings = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        const std::string &ph = e.at("ph").asString();
        if (ph == "M")
            tracks.insert(e.at("args").at("name").asString());
        firings += ph == "X";
    }
    EXPECT_TRUE(tracks.count("t/0/bump"));
    EXPECT_TRUE(tracks.count("t/0/source"));
    EXPECT_TRUE(tracks.count("t/0/done"));
    // Three tasks through three stages: at least nine firings.
    EXPECT_GE(firings, 9u);
}

TEST(MicroAccel, TraceWindowFilters)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec;
    spec.name = "windowed";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("nop", [](Token &) {}).sink("done");
    spec.pipelines.push_back(b.build());
    spec.seed(0, {0});

    std::ostringstream os;
    ChromeTracer tracer(os, 1'000'000); // window past the whole run
    AccelConfig cfg;
    cfg.tracer = &tracer;
    Accelerator accel(spec, cfg, mem);
    accel.run();
    EXPECT_EQ(tracer.events(), 0u);
}

TEST(MicroAccel, StatsRegistryRoundTripsThroughJson)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec;
    spec.name = "registry";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("nop", [](Token &) {}).sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < 8; ++i)
        spec.seed(0, {Word(i)});

    AccelConfig cfg;
    cfg.pipelinesPerSet = 1;
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();

    // The registry sees live components and agrees with the
    // snapshot the run result carries.
    const StatRegistry &reg = accel.stats();
    EXPECT_TRUE(reg.has("queue.t", "pushes"));
    EXPECT_TRUE(reg.has("mem", "cache_hits"));
    EXPECT_EQ(reg.value("queue.t", "pops"),
              static_cast<double>(rr.tasksExecuted));
    EXPECT_EQ(reg.value("stages", "Alu.tokens"), 8.0);

    // Serialize to JSON, parse it back, and cross-check every scalar
    // against the StatGroup snapshot.
    JsonValue doc = JsonValue::parse(reg.toJson().dump(true));
    for (const StatGroup &g : rr.groups) {
        if (g.name() == "accel")
            continue; // summary group is assembled outside the registry
        const JsonValue *comp = doc.find(g.name());
        ASSERT_NE(comp, nullptr) << g.name();
        for (const auto &[key, val] : g.values()) {
            // Average expansions ("x.mean") live under object "x" in
            // the JSON form; scalars must match exactly.
            auto dot = key.find('.');
            if (comp->find(key) != nullptr && comp->at(key).isNumber())
                EXPECT_DOUBLE_EQ(comp->at(key).asNumber(), val)
                    << g.name() << "." << key;
            else if (dot != std::string::npos)
                EXPECT_TRUE(comp->has(key.substr(0, dot)));
        }
    }
    // The queue occupancy histogram survives with structure.
    const JsonValue &occ = doc.at("queue.t").at("occupancy");
    EXPECT_GT(occ.at("total").asNumber(), 0.0);
    EXPECT_GT(occ.at("buckets").size(), 0u);
}

TEST(MicroAccel, ChromeTracerRecordsStagesAndQueues)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec;
    spec.name = "chrome";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("bump", [](Token &t) { t.words[0] += 1; }).sink("done");
    spec.pipelines.push_back(b.build());
    for (int i = 0; i < 4; ++i)
        spec.seed(0, {Word(i)});

    std::ostringstream os;
    {
        ChromeTracer tracer(os);
        AccelConfig cfg;
        cfg.pipelinesPerSet = 1;
        cfg.tracer = &tracer;
        Accelerator accel(spec, cfg, mem);
        accel.run();
        EXPECT_GT(tracer.events(), 0u);
    }

    JsonValue doc = JsonValue::parse(os.str());
    const JsonValue &events = doc.at("traceEvents");
    bool saw_stage = false, saw_depth = false;
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        const std::string &ph = e.at("ph").asString();
        saw_stage |= ph == "X" && e.at("name").asString() == "Alu";
        saw_depth |= ph == "C" && e.at("name").asString() == "depth";
    }
    EXPECT_TRUE(saw_stage);
    EXPECT_TRUE(saw_depth);
}

// ----------------------------------------------------- config validation

/** A minimal valid spec for configuration-validation tests. */
AcceleratorSpec
trivialSpec()
{
    AcceleratorSpec spec;
    spec.name = "cfgcheck";
    spec.sets = {{"t", TaskSetKind::ForEach, 0, 1}};
    PipelineBuilder b("t", 0);
    b.alu("nop", [](Token &) {}).sink("done");
    spec.pipelines.push_back(b.build());
    spec.seed(0, {0});
    return spec;
}

TEST(AccelConfigDeath, HostFedWithZeroIntervalIsFatal)
{
    // Regression: hostTick computes cycle % hostInterval, so this
    // configuration used to die with SIGFPE instead of a diagnostic.
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec = trivialSpec();
    AccelConfig cfg;
    cfg.hostBatch = 16;
    cfg.hostInterval = 0;
    EXPECT_EXIT(Accelerator(spec, cfg, mem),
                ::testing::ExitedWithCode(1), "hostInterval");
}

TEST(AccelConfigDeath, ZeroStructuralKnobsAreFatal)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec = trivialSpec();
    auto expect_rejected = [&](auto mutate, const char *msg) {
        AccelConfig cfg;
        mutate(cfg);
        EXPECT_EXIT(Accelerator(spec, cfg, mem),
                    ::testing::ExitedWithCode(1), msg);
    };
    expect_rejected([](AccelConfig &c) { c.pipelinesPerSet = 0; },
                    "pipelinesPerSet");
    expect_rejected([](AccelConfig &c) { c.ruleLanes = 0; },
                    "ruleLanes");
    expect_rejected([](AccelConfig &c) { c.queueBanks = 0; },
                    "queueBanks");
    expect_rejected([](AccelConfig &c) { c.fifoDepth = 0; },
                    "fifoDepth");
    expect_rejected([](AccelConfig &c) { c.lsuEntries = 0; },
                    "lsuEntries");
}

TEST(AccelConfig, HostFedWithPositiveIntervalIsAccepted)
{
    setQuietLogging(true);
    MemorySystem mem;
    AcceleratorSpec spec = trivialSpec();
    AccelConfig cfg;
    cfg.hostBatch = 4;
    cfg.hostInterval = 8;
    Accelerator accel(spec, cfg, mem);
    RunResult rr = accel.run();
    EXPECT_EQ(rr.tasksExecuted, 1u);
}

} // namespace
} // namespace apir
