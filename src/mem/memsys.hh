/**
 * @file
 * The problem-independent memory subsystem of Section 5.2: functional
 * image + HARP-like cache + QPI link, bundled behind the interface the
 * simulated load/store units use.
 */

#ifndef APIR_MEM_MEMSYS_HH
#define APIR_MEM_MEMSYS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/image.hh"
#include "mem/qpi.hh"
#include "support/knob.hh"
#include "support/stats.hh"

namespace apir {

class StatRegistry;
class ChromeTracer;

/** Full memory-system configuration. */
struct MemConfig
{
    CacheConfig cache;
    QpiConfig qpi;
    /** Figure 10 knob: scales QPI bandwidth (1.0 = stock HARP). */
    double bandwidthScale = 1.0;
    /**
     * FPGA clock the per-cycle QPI bandwidth is quoted against
     * (effectiveBandwidthGBs = bytesPerCycle * clockHz). Keep in sync
     * with AccelConfig::clockHz when sweeping non-default clocks.
     */
    double clockHz = 200e6;
};

/**
 * The MemConfig knob table (mem.*, cache.*, qpi.*), in canonical-key
 * order: spelling, member, bounds and structural flag of each knob.
 */
const std::vector<Knob<MemConfig>> &memKnobs();

/**
 * Reject memory configurations the model cannot simulate, with a
 * diagnostic naming the offending knob: a value outside its memKnobs()
 * row bounds (a zero clock or zero-bandwidth link, a line narrower
 * than a word, a cache too large to allocate) or a cache size that is
 * not a whole number of lines. Called by the MemorySystem constructor
 * and by validateAccelConfig, so C++-built and file-loaded
 * configurations hit the same checks.
 */
void validateMemConfig(const MemConfig &cfg);

/** Cache + QPI + functional image. */
class MemorySystem
{
  public:
    explicit MemorySystem(MemConfig cfg = MemConfig{});

    MemoryImage &image() { return image_; }
    const MemoryImage &image() const { return image_; }

    /**
     * Timing request: access `addr` (word granularity) at `cycle`.
     * Returns completion cycle, or nullopt on MSHR back-pressure.
     * `privileged` marks the liveness owner's accesses — they pin
     * their cache lines and may use the reserve pin MSHR (see
     * Cache::access and docs/liveness.md).
     */
    std::optional<uint64_t>
    request(uint64_t cycle, uint64_t addr, bool is_write,
            bool privileged = false)
    {
        auto done = cache_->access(cycle, addr, is_write, privileged);
        if (done) {
            if (is_write)
                ++writes_;
            else
                ++reads_;
        }
        return done;
    }

    /** Release the liveness owner's line reservations. */
    void unpinAll() { cache_->unpinAll(); }

    /** Functional access helpers. */
    Word readWord(uint64_t addr) const { return image_.readWord(addr); }
    void writeWord(uint64_t addr, Word v) { image_.writeWord(addr, v); }

    const Cache &cache() const { return *cache_; }
    const QpiChannel &qpi() const { return *qpi_; }

    uint64_t reads() const { return reads_.value(); }
    uint64_t writes() const { return writes_.value(); }

    /** Effective QPI bandwidth in GB/s at the configured clock. */
    double effectiveBandwidthGBs() const;

    /**
     * Earliest cycle > `cycle` at which the memory system can make
     * progress on its own: an outstanding miss completing (freeing an
     * MSHR for a back-pressured load/store unit) or the QPI link
     * becoming free. kNeverWake when nothing is in flight.
     */
    uint64_t nextWakeCycle(uint64_t cycle) const;

    /** Sleeping LSUs waiting on an MSHR: see Cache::onMshrAlloc. */
    WakeEdge &mshrWaiters() { return cache_->onMshrAlloc(); }

    /** Fast-forward accounting: see Cache::chargeMshrRejects. */
    void chargeMshrRejects(uint64_t n) { cache_->chargeMshrRejects(n); }

    /**
     * Register the whole memory system's statistics (its own access
     * counts plus the cache's and QPI link's) under `component`.
     */
    void registerStats(StatRegistry &reg,
                       const std::string &component) const;

    /** Forward QPI busy intervals to `tracer` (may be null). */
    void attachTracer(ChromeTracer *tracer);

    /**
     * Checkpoint field list: the access counters, cache, QPI link and
     * image.
     */
    template <typename Ar>
    void serialize(Ar &ar) { ar(reads_, writes_, *cache_, *qpi_, image_); }

  private:
    MemConfig cfg_;
    MemoryImage image_;
    std::unique_ptr<QpiChannel> qpi_;
    std::unique_ptr<Cache> cache_;
    Counter reads_;
    Counter writes_;
};

} // namespace apir

#endif // APIR_MEM_MEMSYS_HH
