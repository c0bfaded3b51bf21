#include "server/service.hh"

#include <stdexcept>
#include <utility>

#include "config/canonical.hh"
#include "config/loader.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace apir {
namespace server {

SimService::SimService(std::string scenarioDir, double maxScale)
    : scenarioDir_(std::move(scenarioDir)), maxScale_(maxScale)
{
}

AccelConfig
SimService::configFor(const SimRequest &req) const
{
    AccelConfig cfg;
    if (!req.config.empty() || !req.sets.empty()) {
        std::string path;
        if (!req.config.empty()) {
            // A bare name addresses the server's scenario corpus; a
            // path (anything with a '/') is taken literally, like the
            // benches' --config flag.
            path = req.config;
            if (path.find('/') == std::string::npos)
                path = scenarioDir_ + "/" + path + ".conf";
        }
        cfg = loadScenarioFile(path, bench::defaultAccelConfig(),
                               req.sets)
                  .accel;
    } else {
        cfg = bench::defaultAccelConfig();
    }
    // Compose exactly like defaultAccelConfig(Options): fast_forward
    // can only disable, bandwidth_scale multiplies the base's.
    cfg.fastForward = cfg.fastForward && req.fastForward;
    cfg.mem.bandwidthScale *= req.bandwidthScale;
    return cfg;
}

std::string
SimService::requestKey(const SimRequest &req) const
{
    return keyFor(req, configFor(req));
}

std::string
SimService::keyFor(const SimRequest &req, const AccelConfig &cfg)
{
    // Two requests that describe the same simulation — whatever mix
    // of scenario file and individual overrides got them there — must
    // land on the same key, so the machine half is the canonicalized
    // knob tuple of the *resolved* config, not the request text.
    return "app=" + req.app + "|scale=" + canonicalDouble(req.scale) +
           strprintf("|seed=%u|verify=%d|", req.seed,
                     req.verify ? 1 : 0) +
           configCanonicalKey(cfg);
}

std::string
SimService::workloadKey(double scale, uint32_t seed)
{
    // One spelling rule for doubles across both caches and the
    // canonical key (canonicalDouble): keys collide iff the values
    // are bit-equal, however the request spelled them.
    return "scale=" + canonicalDouble(scale) +
           strprintf("|seed=%u", seed);
}

std::string
SimService::handle(const SimRequest &req)
{
    return answer(start(resolve(req)));
}

SimService::Resolved
SimService::resolve(const SimRequest &req) const
{
    Resolved r;
    r.req = req;
    // Request-scoped failures (unknown scenario knob, bad --set
    // spelling) arrive as fatal(); within this scope they throw
    // instead of exiting, so one bad request costs one error
    // response, not the daemon.
    ScopedFatalThrows guard;
    try {
        auto b = bench::benchFromName(req.app);
        if (!b)
            throw std::runtime_error("unknown app '" + req.app +
                                     "' (expected " +
                                     bench::benchNameList() + ")");
        if (maxScale_ > 0.0 && req.scale > maxScale_)
            throw std::runtime_error(strprintf(
                "scale %g exceeds this server's --max-scale %g",
                req.scale, maxScale_));
        r.bench = *b;
        r.cfg = configFor(req);
        r.key = keyFor(req, r.cfg);
    } catch (...) {
        r.error = std::current_exception();
    }
    return r;
}

std::optional<std::shared_future<std::string>>
SimService::find(const Resolved &r)
{
    return results_.find(r.key);
}

std::shared_future<std::string>
SimService::start(const Resolved &r)
{
    auto run = [&]() -> std::string {
        if (r.error)
            std::rethrow_exception(r.error);
        // A failed verification is a fatal() too: an error response.
        ScopedFatalThrows guard;
        return simulate(r);
    };
    // Checkpoint requests bypass the result store: a save must write
    // its file every time it is asked to (a cache hit would skip the
    // side effect), and a restore's payload depends on checkpoint
    // file bytes the request key cannot see.
    if (r.cacheable())
        return results_.shareOrCompute(r.key, run);
    std::promise<std::string> done;
    try {
        done.set_value(run());
    } catch (...) {
        done.set_exception(std::current_exception());
    }
    return done.get_future().share();
}

std::string
SimService::answer(const std::shared_future<std::string> &f)
{
    try {
        return f.get();
    } catch (const std::exception &e) {
        return errorResponse(e.what());
    }
}

std::string
SimService::simulate(const Resolved &r)
{
    const SimRequest &req = r.req;
    // The workload bundle is app-independent (bench_common generates
    // every figure's inputs from one (scale, seed) pair), so six apps
    // at one scale share a single generation.
    std::shared_ptr<const bench::Workloads> w = workloads_.getOrCompute(
        workloadKey(req.scale, req.seed), [&] {
            return std::make_shared<const bench::Workloads>(
                bench::makeWorkloads(req.scale, req.seed));
        });

    bench::CheckpointOptions ck;
    ck.saveCycle = req.checkpointSaveCycle;
    ck.saveAuto = req.checkpointSaveAuto;
    ck.savePrefix = req.checkpointSavePrefix;
    ck.restorePrefix = req.checkpointRestorePrefix;
    bench::AccelRun run =
        bench::runAccelerator(r.bench, *w, r.cfg, req.verify, ck);

    JsonValue rj = bench::runToJson(run);
    rj.set("benchmark", JsonValue::str(req.app));
    JsonValue doc = JsonValue::object();
    doc.set("status", JsonValue::str("ok"));
    doc.set("app", JsonValue::str(req.app));
    doc.set("scale", JsonValue::number(req.scale));
    doc.set("seed", JsonValue::number(req.seed));
    doc.set("run", std::move(rj));
    // Cached as the serialized line: a replayed response is the same
    // bytes as the freshly computed one, by construction.
    return doc.dump();
}

CacheStats
SimService::cacheStats() const
{
    CacheStats cs;
    cs.workloadHits = workloads_.hits();
    cs.workloadMisses = workloads_.misses();
    cs.resultHits = results_.hits();
    cs.resultMisses = results_.misses();
    return cs;
}

} // namespace server
} // namespace apir
