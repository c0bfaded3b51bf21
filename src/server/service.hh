/**
 * @file
 * The simulation service behind apird: turns one SimRequest into one
 * response payload, with the two production caches in front of the
 * simulator —
 *
 *  - a content-addressed workload cache keyed by (seed, scale): road
 *    networks, meshes, and matrices are pure functions of their seed
 *    and scale, so a thousand sweep points share one generation;
 *  - a memoized result store keyed by the canonicalized knob tuple
 *    (app, scale, seed, verify, configCanonicalKey): the same machine
 *    simulating the same workload always produces the same stats
 *    payload, so it is computed once and replayed as bytes.
 *
 * Both are MemoStores (dse/memo.hh — the DSE explorer's memoizer
 * generalized), so concurrent identical requests collapse onto a
 * single computation. Each simulation owns its MemorySystem,
 * Accelerator, and StatRegistry (the sweep-runner isolation rule),
 * making handle() safe to call from any number of worker threads.
 *
 * handle() never throws and never exits: request-scoped fatal()s
 * (unknown scenario knob, malformed --set, failed verification) are
 * converted to {"status":"error"} responses via ScopedFatalThrows.
 *
 * handle() is resolve(), then start(), then answer(). apird calls
 * the steps itself so that only the step that simulates takes a
 * worker: a connection thread resolves the request once and find()s
 * a stored or in-flight result without queueing; a worker start()s
 * the rest.
 */

#ifndef APIR_SERVER_SERVICE_HH
#define APIR_SERVER_SERVICE_HH

#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "bench_common.hh"
#include "dse/memo.hh"
#include "server/protocol.hh"

namespace apir {
namespace server {

/** Workload/result-cache counters for the self-metrics report. */
struct CacheStats
{
    uint64_t workloadHits = 0;
    uint64_t workloadMisses = 0;
    uint64_t resultHits = 0;
    uint64_t resultMisses = 0;
};

/** Stateless-per-request simulation service with shared caches. */
class SimService
{
  public:
    /**
     * `scenarioDir` resolves bare scenario names in requests
     * ("harp_default" -> scenarioDir + "/harp_default.conf");
     * `maxScale` > 0 rejects requests above it (an admission-control
     * valve so one request cannot occupy a worker for hours).
     */
    explicit SimService(std::string scenarioDir = "scenarios",
                        double maxScale = 0.0);

    /**
     * Serve one simulation request; returns the full response line
     * (without trailing newline). Success payloads are
     * {"status":"ok","app":...,"scale":...,"seed":...,"run":{...}}
     * with the run object built by the exact bench::runToJson path,
     * so they are byte-identical to a fresh single-process run.
     */
    std::string handle(const SimRequest &req);

    /**
     * A request resolved once: its app, its machine and its
     * result-store key, or the error that answers it.
     */
    struct Resolved
    {
        SimRequest req;
        bench::Bench bench{};
        AccelConfig cfg;
        std::string key;          //!< result-store key
        std::exception_ptr error; //!< set: the request fails with it

        /** Served from the result store (checkpoints bypass it). */
        bool cacheable() const { return !error && !req.hasCheckpoint(); }
    };

    /**
     * Check and resolve a request, in the error order handle()
     * reports: unknown app, then --max-scale, then the config (its
     * scenario file and --set overrides, parsed once). Never throws.
     */
    Resolved resolve(const SimRequest &req) const;

    /**
     * The result-store entry of a cacheable request, ready or still
     * being computed, counting a hit; nullopt, counting nothing, when
     * no one has started it. Never waits.
     */
    std::optional<std::shared_future<std::string>>
    find(const Resolved &r);

    /**
     * Claim and simulate a resolved request on this thread, unless
     * its key is already stored or being computed: then return that
     * future at once (a hit) without waiting on it. Checkpoint
     * requests always simulate; an unresolved one returns its error.
     * Never throws: failures travel in the future.
     */
    std::shared_future<std::string> start(const Resolved &r);

    /** The response line of a started request: its bytes, or the
     * error response of its failure. Waits until it is computed. */
    static std::string answer(const std::shared_future<std::string> &f);

    /**
     * The canonical identity of a request: what the result store is
     * keyed by. Exposed for tests (two spellings of one machine must
     * collide; any knob change must not).
     */
    std::string requestKey(const SimRequest &req) const;

    /**
     * The workload-cache identity of a (scale, seed) pair, spelled
     * with the same canonicalDouble the result key uses so "scale": 1
     * and "scale": 1.0 — or any two bit-equal doubles — share one
     * generated workload bundle. Exposed for tests, mirroring
     * requestKey.
     */
    static std::string workloadKey(double scale, uint32_t seed);

    CacheStats cacheStats() const;

  private:
    std::string simulate(const Resolved &r);
    AccelConfig configFor(const SimRequest &req) const;
    static std::string keyFor(const SimRequest &req,
                              const AccelConfig &cfg);

    std::string scenarioDir_;
    double maxScale_;
    MemoStore<std::string, std::shared_ptr<const bench::Workloads>>
        workloads_;
    MemoStore<std::string, std::string> results_;
};

} // namespace server
} // namespace apir

#endif // APIR_SERVER_SERVICE_HH
