#include "mem/memsys.hh"

#include <algorithm>

#include "mem/image.hh"
#include "support/logging.hh"
#include "support/stats_registry.hh"
#include "support/trace.hh"

namespace apir {

namespace {

template <auto... Path>
constexpr auto field = &knobField<MemConfig, Path...>;

using M = MemConfig;
using C = CacheConfig;
using Q = QpiConfig;

// Latencies are added to cycle counts, so they stay far below 2^64.
constexpr uint64_t kMaxLatency = 1ull << 32;

} // namespace

const std::vector<Knob<MemConfig>> &
memKnobs()
{
    // section, key, member, min, max, structural
    static const std::vector<Knob<MemConfig>> rows = {
        {"mem", "bandwidthScale", field<&M::bandwidthScale>, kPositive,
         kUnbounded, false},
        {"mem", "clockHz", field<&M::clockHz>, kPositive, kUnbounded,
         false},
        // 16 MiB, 256x the HARP cache: about 200 MB of line state at
        // 8-byte lines, so an oversized cache fails here, not in new[].
        {"cache", "sizeBytes", field<&M::cache, &C::sizeBytes>, 1,
         1 << 24, true},
        {"cache", "lineBytes", field<&M::cache, &C::lineBytes>,
         kWordBytes, 4096, true},
        {"cache", "hitLatency", field<&M::cache, &C::hitLatency>, 0,
         kMaxLatency, false},
        {"cache", "mshrs", field<&M::cache, &C::mshrs>, 1, 4096, true},
        {"cache", "prefetchNextLine",
         field<&M::cache, &C::prefetchNextLine>, 0, 1, false},
        {"qpi", "bytesPerCycle", field<&M::qpi, &Q::bytesPerCycle>,
         kPositive, kUnbounded, false},
        {"qpi", "latency", field<&M::qpi, &Q::latency>, 0, kMaxLatency,
         false},
    };
    return rows;
}

void
validateMemConfig(const MemConfig &cfg)
{
    for (const Knob<MemConfig> &k : memKnobs())
        if (std::string why = k.outOfRange(cfg); !why.empty())
            fatal("invalid MemConfig: ", k.name(), " ", why);
    if (cfg.cache.sizeBytes % cfg.cache.lineBytes != 0 ||
        cfg.cache.sizeBytes < cfg.cache.lineBytes)
        fatal("invalid MemConfig: cache.sizeBytes must be a non-zero "
              "multiple of cache.lineBytes");
}

MemorySystem::MemorySystem(MemConfig cfg) : cfg_(cfg)
{
    validateMemConfig(cfg);
    QpiConfig q = cfg.qpi;
    q.bytesPerCycle *= cfg.bandwidthScale;
    qpi_ = std::make_unique<QpiChannel>(q);
    cache_ = std::make_unique<Cache>(cfg.cache, *qpi_);
}

double
MemorySystem::effectiveBandwidthGBs() const
{
    return qpi_->config().bytesPerCycle * cfg_.clockHz / 1e9;
}

uint64_t
MemorySystem::nextWakeCycle(uint64_t cycle) const
{
    uint64_t wake = cache_->nextMshrFreeCycle(cycle);
    uint64_t link = qpi_->nextFreeCycle();
    if (link > cycle)
        wake = std::min(wake, link);
    return wake;
}

void
MemorySystem::registerStats(StatRegistry &reg,
                            const std::string &component) const
{
    reg.addCounter(component, "reads", reads_);
    reg.addCounter(component, "writes", writes_);
    cache_->registerStats(reg, component);
    qpi_->registerStats(reg, component);
}

void
MemorySystem::attachTracer(ChromeTracer *tracer)
{
    qpi_->attachTracer(tracer);
}

} // namespace apir
