/**
 * @file
 * Unit and end-to-end tests of the apird subsystem: the wire
 * protocol's strict parser, the canonical request key, the MemoStore
 * caches, the bounded priority queue, the service's fatal-to-error
 * containment, and a live socket round trip with graceful drain.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/canonical.hh"
#include "dse/memo.hh"
#include "server/job_queue.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "server/service.hh"
#include "support/json.hh"
#include "support/trace.hh"

namespace apir {
namespace server {
namespace {

// ---------------------------------------------------------------- wire

TEST(Protocol, ParsesFullSimRequest)
{
    Request r = parseRequest(
        R"({"app":"SPEC-MST","scale":0.25,"seed":7,"priority":"high",)"
        R"("config":"harp_default","set":["accel.ruleLanes=16"],)"
        R"("fast_forward":false,"bandwidth_scale":0.5,"verify":true})");
    EXPECT_EQ(r.op, Request::Op::Sim);
    EXPECT_EQ(r.sim.app, "SPEC-MST");
    EXPECT_DOUBLE_EQ(r.sim.scale, 0.25);
    EXPECT_EQ(r.sim.seed, 7u);
    EXPECT_EQ(r.sim.priority, Priority::High);
    EXPECT_EQ(r.sim.config, "harp_default");
    ASSERT_EQ(r.sim.sets.size(), 1u);
    EXPECT_EQ(r.sim.sets[0], "accel.ruleLanes=16");
    EXPECT_FALSE(r.sim.fastForward);
    EXPECT_DOUBLE_EQ(r.sim.bandwidthScale, 0.5);
    EXPECT_TRUE(r.sim.verify);
}

TEST(Protocol, DefaultsMatchBenchDefaults)
{
    Request r = parseRequest(R"({"app":"SPEC-BFS"})");
    EXPECT_DOUBLE_EQ(r.sim.scale, 1.0);
    EXPECT_EQ(r.sim.seed, 42u);
    EXPECT_EQ(r.sim.priority, Priority::Normal);
    EXPECT_TRUE(r.sim.fastForward);
    EXPECT_FALSE(r.sim.verify);
}

TEST(Protocol, RejectsMalformedRequests)
{
    // Typo containment: every one of these must name the offender,
    // not silently simulate something else.
    EXPECT_THROW(parseRequest("not json"), std::runtime_error);
    EXPECT_THROW(parseRequest("[1,2]"), std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"app":"SPEC-BFS","scal":1})"),
                 std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"app":42})"), std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"app":"SPEC-BFS","scale":0})"),
                 std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"app":"SPEC-BFS","scale":-1})"),
                 std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"app":"SPEC-BFS","seed":1.5})"),
                 std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"app":"SPEC-BFS","seed":-3})"),
                 std::runtime_error);
    EXPECT_THROW(
        parseRequest(R"({"app":"SPEC-BFS","seed":4294967296})"),
        std::runtime_error);
    EXPECT_THROW(
        parseRequest(R"({"app":"SPEC-BFS","priority":"urgent"})"),
        std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"app":"SPEC-BFS","set":"x=1"})"),
                 std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"op":"reboot"})"),
                 std::runtime_error);
    // sim requires app; control ops must not carry one.
    EXPECT_THROW(parseRequest(R"({"scale":1})"), std::runtime_error);
    EXPECT_THROW(parseRequest(R"({"op":"ping","app":"SPEC-BFS"})"),
                 std::runtime_error);
}

TEST(Protocol, SerializeParseRoundTrip)
{
    SimRequest req;
    req.app = "COOR-LU";
    req.scale = 0.125;
    req.seed = 99;
    req.priority = Priority::Low;
    req.config = "stress_tiny_buffers";
    req.sets = {"mem.bandwidthScale=0.5", "accel.queueBanks=2"};
    req.fastForward = false;
    req.bandwidthScale = 2.0;
    req.verify = true;
    req.checkpointSaveCycle = 123456;
    req.checkpointSavePrefix = "/tmp/warm";
    req.checkpointRestorePrefix = "/tmp/cold";

    Request back = parseRequest(serializeRequest(req));
    EXPECT_EQ(back.op, Request::Op::Sim);
    EXPECT_EQ(back.sim.app, req.app);
    EXPECT_DOUBLE_EQ(back.sim.scale, req.scale);
    EXPECT_EQ(back.sim.seed, req.seed);
    EXPECT_EQ(back.sim.priority, req.priority);
    EXPECT_EQ(back.sim.config, req.config);
    EXPECT_EQ(back.sim.sets, req.sets);
    EXPECT_EQ(back.sim.fastForward, req.fastForward);
    EXPECT_DOUBLE_EQ(back.sim.bandwidthScale, req.bandwidthScale);
    EXPECT_EQ(back.sim.verify, req.verify);
    EXPECT_EQ(back.sim.checkpointSaveCycle, req.checkpointSaveCycle);
    EXPECT_EQ(back.sim.checkpointSavePrefix, req.checkpointSavePrefix);
    EXPECT_EQ(back.sim.checkpointRestorePrefix,
              req.checkpointRestorePrefix);
}

TEST(Protocol, ParsesCheckpointDirectives)
{
    Request r = parseRequest(
        R"({"app":"SPEC-BFS","checkpoint_save":"2000:/tmp/warm"})");
    EXPECT_EQ(r.sim.checkpointSaveCycle, 2000u);
    EXPECT_EQ(r.sim.checkpointSavePrefix, "/tmp/warm");
    EXPECT_TRUE(r.sim.hasCheckpoint());

    r = parseRequest(
        R"({"app":"SPEC-BFS","checkpoint_restore":"/tmp/warm"})");
    EXPECT_EQ(r.sim.checkpointRestorePrefix, "/tmp/warm");
    EXPECT_TRUE(r.sim.hasCheckpoint());

    EXPECT_FALSE(parseRequest(R"({"app":"SPEC-BFS"})")
                     .sim.hasCheckpoint());

    // The save directive is strictly "<cycle>:<prefix>"; a prefix
    // with a colon in it stays intact past the first separator.
    r = parseRequest(
        R"({"app":"SPEC-BFS","checkpoint_save":"5:/tmp/a:b"})");
    EXPECT_EQ(r.sim.checkpointSaveCycle, 5u);
    EXPECT_EQ(r.sim.checkpointSavePrefix, "/tmp/a:b");
    EXPECT_FALSE(r.sim.checkpointSaveAuto);

    // "auto" in the cycle position requests the per-run calibrated
    // save point, and survives a serialize/parse round trip.
    r = parseRequest(
        R"({"app":"SPEC-BFS","checkpoint_save":"auto:/tmp/warm"})");
    EXPECT_TRUE(r.sim.checkpointSaveAuto);
    EXPECT_EQ(r.sim.checkpointSaveCycle, 0u);
    EXPECT_EQ(r.sim.checkpointSavePrefix, "/tmp/warm");
    Request again = parseRequest(serializeRequest(r.sim));
    EXPECT_TRUE(again.sim.checkpointSaveAuto);
    EXPECT_EQ(again.sim.checkpointSavePrefix, "/tmp/warm");
}

TEST(Protocol, RejectsMalformedCheckpointDirectives)
{
    const char *bad[] = {
        R"({"app":"SPEC-BFS","checkpoint_save":"no-colon"})",
        R"({"app":"SPEC-BFS","checkpoint_save":":prefix"})",
        R"({"app":"SPEC-BFS","checkpoint_save":"10:"})",
        R"({"app":"SPEC-BFS","checkpoint_save":"1x0:/tmp/p"})",
        R"({"app":"SPEC-BFS","checkpoint_save":""})",
        R"({"app":"SPEC-BFS","checkpoint_save":42})",
        R"({"app":"SPEC-BFS","checkpoint_restore":""})",
        R"({"app":"SPEC-BFS","checkpoint_restore":7})",
    };
    for (const char *c : bad)
        EXPECT_THROW(parseRequest(c), std::runtime_error) << c;
}

// ------------------------------------------------------ canonical key

TEST(CanonicalKey, StableAndKnobSensitive)
{
    AccelConfig a = bench::defaultAccelConfig();
    AccelConfig b = bench::defaultAccelConfig();
    EXPECT_EQ(configCanonicalKey(a), configCanonicalKey(b));

    b.ruleLanes = a.ruleLanes * 2;
    EXPECT_NE(configCanonicalKey(a), configCanonicalKey(b));

    b = bench::defaultAccelConfig();
    b.mem.bandwidthScale *= 0.5;
    EXPECT_NE(configCanonicalKey(a), configCanonicalKey(b));

    // Trace hooks are observability, not machine identity.
    b = bench::defaultAccelConfig();
    std::ostringstream sink;
    ChromeTracer tracer(sink);
    b.tracer = &tracer;
    EXPECT_EQ(configCanonicalKey(a), configCanonicalKey(b));
}

TEST(CanonicalKey, TwoSpellingsOfOneMachineCollide)
{
    SimService svc(APIR_SCENARIO_DIR);
    SimRequest viaSet;
    viaSet.app = "SPEC-BFS";
    viaSet.scale = 0.05;
    viaSet.sets = {"mem.bandwidthScale=0.5"};
    SimRequest viaFlag;
    viaFlag.app = "SPEC-BFS";
    viaFlag.scale = 0.05;
    viaFlag.bandwidthScale = 0.5;
    EXPECT_EQ(svc.requestKey(viaSet), svc.requestKey(viaFlag));

    SimRequest different = viaFlag;
    different.seed = 43;
    EXPECT_NE(svc.requestKey(viaFlag), svc.requestKey(different));
}

TEST(CanonicalKey, WorkloadKeyUsesTheCanonicalDoubleSpelling)
{
    // The workload cache key mirrors the result store's double
    // spelling (canonicalDouble, %.17g): bit-equal scales collide
    // however the request spelled them, and nearly-equal scales that
    // generate different workloads do NOT — a %g-style 6-digit key
    // would conflate them and serve the wrong graph.
    EXPECT_EQ(SimService::workloadKey(1.0, 42),
              SimService::workloadKey(1, 42));
    EXPECT_NE(SimService::workloadKey(0.3, 42),
              SimService::workloadKey(0.30000000000000004, 42));
    EXPECT_NE(SimService::workloadKey(0.1, 42),
              SimService::workloadKey(0.1, 43));

    // One spelling rule across both caches: the workload half of a
    // request's identity appears verbatim inside its result key.
    SimService svc(APIR_SCENARIO_DIR);
    SimRequest req;
    req.app = "SPEC-BFS";
    req.scale = 0.30000000000000004;
    req.seed = 7;
    EXPECT_NE(svc.requestKey(req).find(
                  SimService::workloadKey(req.scale, req.seed)),
              std::string::npos);
}

// ------------------------------------------------------------ memo

TEST(MemoStore, CountsHitsAndMisses)
{
    MemoStore<int, int> memo;
    EXPECT_FALSE(memo.tryGet(1).has_value());
    memo.put(1, 10);
    auto hit = memo.tryGet(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 10);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(MemoStore, GetOrComputeRunsOncePerKey)
{
    MemoStore<int, int> memo;
    std::atomic<int> computations{0};
    std::vector<std::thread> threads;
    std::atomic<int> sum{0};
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            sum += memo.getOrCompute(7, [&] {
                ++computations;
                // Widen the race window: everyone should pile onto
                // this one computation, not start their own.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
                return 21;
            });
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(computations.load(), 1);
    EXPECT_EQ(sum.load(), 8 * 21);
    EXPECT_EQ(memo.hits() + memo.misses(), 8u);
    EXPECT_EQ(memo.misses(), 1u);
}

TEST(MemoStore, FindCountsAHitOnlyForAPresentKey)
{
    MemoStore<int, int> memo;
    EXPECT_FALSE(memo.find(1).has_value()); // absent: counts nothing
    EXPECT_EQ(memo.hits() + memo.misses(), 0u);
    memo.put(1, 10);
    auto found = memo.find(1);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->get(), 10);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.misses(), 0u);

    // An in-flight key is found before it is computed; when its
    // computation fails, the finder's future rethrows the owner's
    // exception, as getOrCompute's waiters do, and the key is gone.
    std::promise<void> release;
    std::thread owner([&] {
        auto f = memo.shareOrCompute(3, [&]() -> int {
            release.get_future().wait();
            throw std::runtime_error("no");
        });
        EXPECT_THROW(f.get(), std::runtime_error);
    });
    std::optional<std::shared_future<int>> waiting;
    while (!(waiting = memo.find(3)))
        std::this_thread::yield();
    EXPECT_EQ(waiting->wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    // A second would-be computer is handed the same future at once,
    // without running its function or waiting.
    auto shared = memo.shareOrCompute(3, []() -> int {
        ADD_FAILURE() << "a present key must not be recomputed";
        return 0;
    });
    EXPECT_EQ(shared.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    release.set_value();
    owner.join();
    try {
        waiting->get();
        ADD_FAILURE() << "the failure must reach the finder";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "no");
    }
    EXPECT_THROW(shared.get(), std::runtime_error);
    EXPECT_FALSE(memo.find(3).has_value());
    // put, find(1), find(3) and the second shareOrCompute hit; the
    // owner missed. Each lookup of a present key counted once.
    EXPECT_EQ(memo.hits(), 3u);
    EXPECT_EQ(memo.misses(), 1u);
}

TEST(MemoStore, FailedComputationIsRetryable)
{
    MemoStore<int, int> memo;
    EXPECT_THROW(memo.getOrCompute(3,
                                   []() -> int {
                                       throw std::runtime_error("no");
                                   }),
                 std::runtime_error);
    // The failure must not be cached: the next caller recomputes.
    EXPECT_EQ(memo.getOrCompute(3, [] { return 9; }), 9);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(LogMsHistogram, ResolvesSubMillisecondSamples)
{
    // 95 replays of 70 us behind 5 simulations of 20 ms: a 25 ms
    // linear bucket would report both quantiles as one bucket.
    LogMsHistogram h;
    EXPECT_EQ(h.quantile(0.5), 0.0);
    for (int i = 0; i < 95; ++i)
        h.sample(0.07);
    for (int i = 0; i < 5; ++i)
        h.sample(20.0);
    EXPECT_NEAR(h.quantile(0.5), 0.07, 0.07 * 0.12);
    EXPECT_NEAR(h.quantile(0.99), 20.0, 20.0 * 0.12);
    EXPECT_LE(h.quantile(1.0), 20.0); // never past the largest sample
    h.sample(0.0); // below 1 us: the first bucket
    EXPECT_GT(h.quantile(0.0), 0.0);
}

// ------------------------------------------------------------ queue

TEST(JobQueue, StrictPriorityThenFifo)
{
    JobQueue<int> q(8);
    EXPECT_TRUE(q.push(Priority::Low, 1));
    EXPECT_TRUE(q.push(Priority::Normal, 2));
    EXPECT_TRUE(q.push(Priority::High, 3));
    EXPECT_TRUE(q.push(Priority::High, 4));
    EXPECT_TRUE(q.push(Priority::Low, 5));
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        order.push_back(*q.pop());
    EXPECT_EQ(order, (std::vector<int>{3, 4, 2, 1, 5}));
}

TEST(JobQueue, BoundedPushRefusesWithoutBlocking)
{
    JobQueue<int> q(2);
    EXPECT_TRUE(q.push(Priority::Normal, 1));
    EXPECT_TRUE(q.push(Priority::High, 2));
    // Capacity is shared across classes: High cannot evict Normal.
    EXPECT_FALSE(q.push(Priority::High, 3));
    EXPECT_EQ(*q.pop(), 2);
    EXPECT_TRUE(q.push(Priority::Low, 4));
}

TEST(JobQueue, CloseDrainsAdmittedWorkThenEnds)
{
    JobQueue<int> q(4);
    EXPECT_TRUE(q.push(Priority::Normal, 1));
    EXPECT_TRUE(q.push(Priority::Normal, 2));
    q.close();
    EXPECT_FALSE(q.push(Priority::High, 3)); // no admission post-close
    EXPECT_EQ(*q.pop(), 1);
    EXPECT_EQ(*q.pop(), 2);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.pop().has_value()); // idempotent
}

TEST(JobQueue, CloseWakesBlockedPop)
{
    JobQueue<int> q(4);
    std::thread popper([&] { EXPECT_FALSE(q.pop().has_value()); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    popper.join();
}

// ---------------------------------------------------------- service

TEST(SimService, BadRequestsBecomeErrorResponsesNotExits)
{
    SimService svc(APIR_SCENARIO_DIR);

    SimRequest unknownApp;
    unknownApp.app = "SPEC-FFT";
    EXPECT_EQ(svc.handle(unknownApp).rfind("{\"status\":\"error\"", 0),
              0u);

    // A typoed knob travels the loader's fatal() path; within the
    // service that must cost one error response, not the process.
    SimRequest badKnob;
    badKnob.app = "SPEC-BFS";
    badKnob.scale = 0.02;
    badKnob.sets = {"accel.warpWidth=32"};
    EXPECT_EQ(svc.handle(badKnob).rfind("{\"status\":\"error\"", 0),
              0u);

    SimRequest badScenario;
    badScenario.app = "SPEC-BFS";
    badScenario.config = "no_such_scenario";
    EXPECT_EQ(
        svc.handle(badScenario).rfind("{\"status\":\"error\"", 0), 0u);
}

TEST(SimService, OversizedKnobIsAnErrorNamingIt)
{
    // Past its table bound a knob is a fatal naming it, not a
    // std::bad_alloc from building the machine.
    SimService svc(APIR_SCENARIO_DIR);
    std::string resp = svc.handle(parseRequest(
        R"({"app":"SPEC-BFS","scale":0.02,)"
        R"("set":["cache.sizeBytes=1099511627776"]})").sim);
    EXPECT_EQ(resp.rfind("{\"status\":\"error\"", 0), 0u);
    EXPECT_NE(resp.find("cache.sizeBytes must be <="), std::string::npos)
        << resp;
}

TEST(SimService, MaxScaleIsAnAdmissionValve)
{
    SimService svc(APIR_SCENARIO_DIR, 0.5);
    SimRequest req;
    req.app = "SPEC-BFS";
    req.scale = 1.0;
    std::string resp = svc.handle(req);
    EXPECT_EQ(resp.rfind("{\"status\":\"error\"", 0), 0u);
    EXPECT_NE(resp.find("max-scale"), std::string::npos);
}

TEST(SimService, CachesAndReplaysIdenticalBytes)
{
    SimService svc(APIR_SCENARIO_DIR);
    SimRequest req;
    req.app = "SPEC-BFS";
    req.scale = 0.02;

    std::string first = svc.handle(req);
    EXPECT_EQ(first.rfind("{\"status\":\"ok\"", 0), 0u);
    std::string second = svc.handle(req);
    EXPECT_EQ(first, second); // replayed, not recomputed

    CacheStats cs = svc.cacheStats();
    EXPECT_EQ(cs.resultHits, 1u);
    EXPECT_EQ(cs.resultMisses, 1u);
    EXPECT_EQ(cs.workloadMisses, 1u);

    // A different app at the same (scale, seed) reuses the workload
    // bundle but not the result.
    SimRequest sssp = req;
    sssp.app = "SPEC-SSSP";
    EXPECT_EQ(svc.handle(sssp).rfind("{\"status\":\"ok\"", 0), 0u);
    cs = svc.cacheStats();
    EXPECT_EQ(cs.workloadHits, 1u);
    EXPECT_EQ(cs.workloadMisses, 1u);
    EXPECT_EQ(cs.resultMisses, 2u);

    // And a fresh service (the --once situation) produces the same
    // bytes from a cold start.
    SimService cold(APIR_SCENARIO_DIR);
    EXPECT_EQ(cold.handle(req), first);
}

TEST(SimService, CheckpointRequestsBypassTheResultStore)
{
    SimService svc(APIR_SCENARIO_DIR);
    std::string prefix = ::testing::TempDir() + "svc_ckpt";

    SimRequest plain;
    plain.app = "COOR-BFS";
    plain.scale = 0.02;
    std::string base = svc.handle(plain);
    EXPECT_EQ(base.rfind("{\"status\":\"ok\"", 0), 0u);

    // A save run must write its file every time (a result-cache hit
    // would skip the side effect), and saving must not perturb the
    // simulation: same bytes as the plain run.
    SimRequest save = plain;
    save.checkpointSaveCycle = 200;
    save.checkpointSavePrefix = prefix;
    CacheStats before = svc.cacheStats();
    EXPECT_EQ(svc.handle(save), base);
    CacheStats after = svc.cacheStats();
    EXPECT_EQ(after.resultHits, before.resultHits);
    EXPECT_EQ(after.resultMisses, before.resultMisses);

    // A restore depends on checkpoint file bytes the request key
    // cannot see, so it computes too — and the restored run is
    // byte-identical to the one that never stopped.
    SimRequest restore = plain;
    restore.checkpointRestorePrefix = prefix;
    before = svc.cacheStats();
    EXPECT_EQ(svc.handle(restore), base);
    after = svc.cacheStats();
    EXPECT_EQ(after.resultHits, before.resultHits);
    EXPECT_EQ(after.resultMisses, before.resultMisses);
}

// ------------------------------------------------------- end to end

namespace e2e {

int
connectTo(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

void
sendLine(int fd, const std::string &line)
{
    std::string out = line + "\n";
    EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
}

std::string
recvLine(int fd)
{
    std::string resp;
    char c;
    while (::recv(fd, &c, 1, 0) == 1) {
        if (c == '\n')
            break;
        resp.push_back(c);
    }
    return resp;
}

std::string
rpc(int fd, const std::string &line)
{
    sendLine(fd, line);
    return recvLine(fd);
}

/** True when a response line is waiting on fd (no blocking). */
bool
readable(int fd)
{
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 0) == 1;
}

/** The daemon's stats object, fetched over fd. */
JsonValue
stats(int fd)
{
    return JsonValue::parse(rpc(fd, R"({"op":"stats"})")).at("stats");
}

/** Poll stats over fd until pred holds; false after a minute. */
template <typename Pred>
bool
waitForStats(int fd, Pred pred)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred(stats(fd)))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

double
cacheLookups(const JsonValue &s)
{
    const JsonValue &rc = s.at("result_cache");
    return rc.at("hits").asNumber() + rc.at("misses").asNumber();
}

/** A miss long enough to be still running while a test looks on. */
constexpr const char *kLongMiss = R"({"app":"SPEC-BFS","scale":1.0})";

/**
 * srv.serve() on its own thread. Leaving the scope drains the server
 * and joins the thread unless join() already did, so a failed ASSERT
 * that returns early is reported and the next test still runs.
 */
class Serving
{
  public:
    explicit Serving(ApirdServer &srv)
        : srv_(srv), thread_([&srv] { srv.serve(); })
    {
    }

    ~Serving()
    {
        if (thread_.joinable()) {
            srv_.requestDrain();
            thread_.join();
        }
    }

    /** Wait for serve() to return after a shutdown op or a drain. */
    void join() { thread_.join(); }

  private:
    ApirdServer &srv_;
    std::thread thread_;
};

} // namespace e2e

TEST(ApirdServer, SocketRoundTripCachingAndDrain)
{
    ApirdOptions opt;
    opt.workers = 1;
    opt.scenarioDir = APIR_SCENARIO_DIR;
    ApirdServer srv(opt);
    uint16_t port = srv.start();
    ASSERT_GT(port, 0);
    e2e::Serving serving(srv);

    int fd = e2e::connectTo(port);
    EXPECT_EQ(e2e::rpc(fd, R"({"op":"ping"})"),
              R"({"status":"ok","event":"pong"})");

    std::string req = R"({"app":"SPEC-BFS","scale":0.02})";
    std::string first = e2e::rpc(fd, req);
    EXPECT_EQ(first.rfind("{\"status\":\"ok\"", 0), 0u);
    EXPECT_EQ(e2e::rpc(fd, req), first); // served from cache, same bytes

    // The daemon's bytes equal a cold, single-process evaluation of
    // the same request — the soak's core invariant, in miniature.
    SimService cold(APIR_SCENARIO_DIR);
    EXPECT_EQ(cold.handle(parseRequest(req).sim), first);

    std::string bad = e2e::rpc(fd, R"({"app":"SPEC-BFS","turbo":1})");
    EXPECT_EQ(bad.rfind("{\"status\":\"error\"", 0), 0u);

    JsonValue stats =
        JsonValue::parse(e2e::rpc(fd, R"({"op":"stats"})"));
    const JsonValue &s = stats.at("stats");
    EXPECT_EQ(s.at("sims_ok").asNumber(), 2.0);
    EXPECT_EQ(s.at("result_cache").at("hits").asNumber(), 1.0);
    EXPECT_EQ(s.at("parse_errors").asNumber(), 1.0);

    // shutdown answers first, then drains; serve() must return and
    // the connection must be closed from the server side.
    EXPECT_EQ(e2e::rpc(fd, R"({"op":"shutdown"})"),
              R"({"status":"ok","event":"draining"})");
    serving.join();
    char c;
    EXPECT_EQ(::recv(fd, &c, 1, 0), 0); // EOF
    ::close(fd);

    // Post-drain metrics survive for the final_stats line.
    JsonValue post = JsonValue::parse(srv.statsJson());
    EXPECT_EQ(post.at("stats").at("sims_ok").asNumber(), 2.0);
}

TEST(ApirdServer, ConcurrentMixedPriorityClientsAllAnswered)
{
    ApirdOptions opt;
    opt.workers = 2;
    opt.queueDepth = 64;
    opt.scenarioDir = APIR_SCENARIO_DIR;
    ApirdServer srv(opt);
    uint16_t port = srv.start();
    e2e::Serving serving(srv);

    // Two apps at one (scale, seed) across three priorities: the
    // result cache sees two keys, the workload cache sees one — so
    // the apps must share a generation — and every client must get a
    // well-formed ok response regardless of interleaving.
    const char *prios[] = {"high", "normal", "low"};
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < 8; ++i)
        clients.emplace_back([&, i] {
            int fd = e2e::connectTo(port);
            std::string req =
                std::string(R"({"app":")") +
                (i % 2 ? "SPEC-BFS" : "SPEC-SSSP") +
                R"(","scale":0.02,"priority":")" + prios[i % 3] +
                "\"}";
            if (e2e::rpc(fd, req).rfind("{\"status\":\"ok\"", 0) == 0)
                ++ok;
            ::close(fd);
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(ok.load(), 8);

    srv.requestDrain();
    serving.join();

    JsonValue post = JsonValue::parse(srv.statsJson());
    const JsonValue &s = post.at("stats");
    EXPECT_EQ(s.at("sims_ok").asNumber(), 8.0);
    // 8 requests over 2 knob tuples: the caches must have soaked up
    // the repeats.
    EXPECT_GE(s.at("result_cache").at("hits").asNumber(), 6.0);
    EXPECT_GE(s.at("workload_cache").at("hits").asNumber(), 1.0);
}

TEST(ApirdServer, HitIsAnsweredWhileTheOnlyWorkerIsBusy)
{
    ApirdOptions opt;
    opt.workers = 1;
    opt.scenarioDir = APIR_SCENARIO_DIR;
    ApirdServer srv(opt);
    uint16_t port = srv.start();
    e2e::Serving serving(srv);

    int a = e2e::connectTo(port);
    int b = e2e::connectTo(port);
    std::string stored = R"({"app":"SPEC-BFS","scale":0.02})";
    std::string first = e2e::rpc(b, stored);
    EXPECT_EQ(first.rfind("{\"status\":\"ok\"", 0), 0u);

    // A's miss occupies the only worker; B's repeat of a stored key
    // must not queue behind it.
    e2e::sendLine(a, e2e::kLongMiss);
    ASSERT_TRUE(e2e::waitForStats(b, [](const JsonValue &s) {
        return s.at("in_flight").asNumber() == 1.0;
    }));
    EXPECT_EQ(e2e::rpc(b, stored), first);
    EXPECT_FALSE(e2e::readable(a)) << "B's hit waited for A's miss";
    std::string longResp = e2e::recvLine(a);
    EXPECT_EQ(longResp.rfind("{\"status\":\"ok\"", 0), 0u);

    JsonValue s = e2e::stats(b);
    EXPECT_EQ(s.at("result_cache").at("hits").asNumber(), 1.0);
    EXPECT_EQ(e2e::cacheLookups(s), 3.0); // three cacheable sims
    EXPECT_EQ(s.at("sims_ok").asNumber(), 3.0);
    ::close(a);
    ::close(b);
}

TEST(ApirdServer, DuplicateOfAnInFlightKeyHoldsNoWorker)
{
    ApirdOptions opt;
    opt.workers = 2;
    opt.scenarioDir = APIR_SCENARIO_DIR;
    ApirdServer srv(opt);
    uint16_t port = srv.start();
    e2e::Serving serving(srv);

    int a = e2e::connectTo(port);
    int b = e2e::connectTo(port);
    int probe = e2e::connectTo(port);
    e2e::sendLine(a, e2e::kLongMiss);
    ASSERT_TRUE(e2e::waitForStats(probe, [](const JsonValue &s) {
        return s.at("in_flight").asNumber() == 1.0;
    }));
    // B repeats A's key while A computes it. Its lookup finds the
    // in-flight entry (the hit); from then on it waits on A's result
    // on its connection thread, holding neither a queue slot nor the
    // idle second worker.
    e2e::sendLine(b, e2e::kLongMiss);
    ASSERT_TRUE(e2e::waitForStats(probe, [](const JsonValue &s) {
        return s.at("result_cache").at("hits").asNumber() == 1.0;
    }));
    JsonValue s = e2e::stats(probe);
    EXPECT_EQ(s.at("in_flight").asNumber(), 1.0);
    EXPECT_EQ(s.at("queue").at("depth").asNumber(), 0.0);
    EXPECT_FALSE(e2e::readable(b)) << "B answered before A's result";

    std::string fromA = e2e::recvLine(a);
    EXPECT_EQ(fromA.rfind("{\"status\":\"ok\"", 0), 0u);
    EXPECT_EQ(e2e::recvLine(b), fromA);
    s = e2e::stats(probe);
    EXPECT_EQ(s.at("result_cache").at("misses").asNumber(), 1.0);
    EXPECT_EQ(e2e::cacheLookups(s), 2.0); // two cacheable sims
    ::close(a);
    ::close(b);
    ::close(probe);
}

TEST(ApirdServer, DispatchedRepeatOfAnInFlightKeyFreesItsWorker)
{
    ApirdOptions opt;
    opt.workers = 2;
    opt.scenarioDir = APIR_SCENARIO_DIR;
    ApirdServer srv(opt);
    uint16_t port = srv.start();
    e2e::Serving serving(srv);

    int x1 = e2e::connectTo(port);
    int x2 = e2e::connectTo(port);
    int a = e2e::connectTo(port);
    int b = e2e::connectTo(port);
    int c = e2e::connectTo(port);
    int probe = e2e::connectTo(port);
    auto inFlight = [](double n) {
        return [n](const JsonValue &s) {
            return s.at("in_flight").asNumber() == n;
        };
    };
    // Both workers busy, so A's and B's requests for one key are
    // both queued: neither was claimed when they arrived.
    e2e::sendLine(x1, R"({"app":"SPEC-BFS","scale":0.5,"seed":1})");
    ASSERT_TRUE(e2e::waitForStats(probe, inFlight(1)));
    e2e::sendLine(x2, R"({"app":"SPEC-BFS","scale":0.5,"seed":2})");
    ASSERT_TRUE(e2e::waitForStats(probe, inFlight(2)));
    std::string key = R"({"app":"SPEC-BFS","scale":1.0,"seed":3})";
    e2e::sendLine(a, key);
    e2e::sendLine(b, key);
    // The dispatcher takes no job until a worker is free, so A's and
    // B's both wait in the queue.
    ASSERT_TRUE(e2e::waitForStats(probe, [](const JsonValue &s) {
        return s.at("queue").at("depth").asNumber() == 2.0;
    }));
    EXPECT_EQ(e2e::stats(probe).at("result_cache").at("hits").asNumber(),
              0.0);

    // A's job claims the key on the first free worker; B's job, on
    // the second, finds it in flight (the hit) and hands the future
    // back. That worker is then free for C's miss, which is answered
    // while B still waits for A's simulation.
    ASSERT_TRUE(e2e::waitForStats(probe, [](const JsonValue &s) {
        return s.at("result_cache").at("hits").asNumber() == 1.0;
    }));
    std::string fromC =
        e2e::rpc(c, R"({"app":"SPEC-BFS","scale":0.02,"seed":4})");
    EXPECT_EQ(fromC.rfind("{\"status\":\"ok\"", 0), 0u);
    EXPECT_FALSE(e2e::readable(b)) << "B's worker waited for A's result";

    std::string fromA = e2e::recvLine(a);
    EXPECT_EQ(fromA.rfind("{\"status\":\"ok\"", 0), 0u);
    EXPECT_EQ(e2e::recvLine(b), fromA);
    for (int fd : {x1, x2})
        EXPECT_EQ(e2e::recvLine(fd).rfind("{\"status\":\"ok\"", 0), 0u);
    JsonValue s = e2e::stats(probe);
    EXPECT_EQ(s.at("result_cache").at("misses").asNumber(), 4.0);
    EXPECT_EQ(e2e::cacheLookups(s), 5.0); // five cacheable sims
    for (int fd : {x1, x2, a, b, c, probe})
        ::close(fd);
}

TEST(ApirdServer, HighAdmittedWhileWorkersBusyBeatsEarlierLow)
{
    ApirdOptions opt;
    opt.workers = 2;
    opt.scenarioDir = APIR_SCENARIO_DIR;
    ApirdServer srv(opt);
    uint16_t port = srv.start();
    e2e::Serving serving(srv);

    int shortBusy = e2e::connectTo(port);
    int longBusy = e2e::connectTo(port);
    int low = e2e::connectTo(port);
    int high = e2e::connectTo(port);
    int probe = e2e::connectTo(port);
    auto inFlight = [](double n) {
        return [n](const JsonValue &s) {
            return s.at("in_flight").asNumber() == n;
        };
    };
    // Both workers busy; the first frees long before the second.
    e2e::sendLine(shortBusy, R"({"app":"SPEC-BFS","scale":1.0,"seed":1})");
    ASSERT_TRUE(e2e::waitForStats(probe, inFlight(1)));
    e2e::sendLine(longBusy, R"({"app":"SPEC-BFS","scale":4.0,"seed":2})");
    ASSERT_TRUE(e2e::waitForStats(probe, inFlight(2)));

    // A Low request, then a High one. Both must wait in the priority
    // queue, where the High one is taken first. (The pause lets a
    // dispatcher that takes a job before it has a worker take the Low
    // one, which then runs first and is not counted in the depth.)
    e2e::sendLine(low, R"({"app":"SPEC-BFS","scale":0.5,"seed":3,)"
                       R"("priority":"low"})");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    e2e::sendLine(high, R"({"app":"SPEC-BFS","scale":0.5,"seed":4,)"
                        R"("priority":"high"})");
    ASSERT_TRUE(e2e::waitForStats(probe, [](const JsonValue &s) {
        return s.at("queue").at("depth").asNumber() == 2.0;
    }));

    // The first free worker runs the High request and only then the
    // Low one, a whole simulation later.
    EXPECT_EQ(e2e::recvLine(high).rfind("{\"status\":\"ok\"", 0), 0u);
    EXPECT_FALSE(e2e::readable(low)) << "the earlier Low request ran first";
    EXPECT_EQ(e2e::recvLine(low).rfind("{\"status\":\"ok\"", 0), 0u);
    for (int fd : {shortBusy, longBusy})
        EXPECT_EQ(e2e::recvLine(fd).rfind("{\"status\":\"ok\"", 0), 0u);
    for (int fd : {shortBusy, longBusy, low, high, probe})
        ::close(fd);
}

} // namespace
} // namespace server
} // namespace apir
