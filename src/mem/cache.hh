/**
 * @file
 * The generic on-FPGA cache HARP provides (Section 5.2 / [14]):
 * 64 KB direct-mapped, 64-byte lines, 14-cycle hit latency, misses
 * served over QPI. Write-back, write-allocate, with a bounded number
 * of outstanding misses (MSHRs); a full MSHR file back-pressures the
 * load/store unit.
 *
 * Timing-only: data values live in MemoryImage. Tags are updated at
 * issue time, but each line tracks the cycle its fill completes over
 * QPI: a demand access that arrives before the data has (e.g. one
 * cycle after a next-line prefetch was issued) rides the in-flight
 * fill instead of hitting on data that is not there yet
 * (miss-under-fill).
 */

#ifndef APIR_MEM_CACHE_HH
#define APIR_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/qpi.hh"
#include "support/stats.hh"
#include "support/wake.hh"

namespace apir {

class StatRegistry;

/** Cache configuration; defaults model the HARP FPGA cache. */
struct CacheConfig
{
    uint64_t sizeBytes = 64 * 1024;
    uint64_t lineBytes = 64;
    uint64_t hitLatency = 14; //!< 70 ns at 200 MHz
    uint32_t mshrs = 32;      //!< max outstanding misses
    /**
     * Fetch line N+1 alongside a demand miss of line N. A
     * problem-independent stand-in for the aggressive data movement
     * handcrafted accelerators use (paper Section 8 future work);
     * swept by ablation_prefetch.
     */
    bool prefetchNextLine = false;
};

/** Direct-mapped write-back cache in front of a QpiChannel. */
class Cache
{
  public:
    Cache(CacheConfig cfg, QpiChannel &qpi);

    /**
     * Access `addr` at `cycle`. Returns the completion cycle, or
     * nullopt when no MSHR is free (caller must retry later).
     *
     * A `privileged` access comes from the liveness subsystem's
     * current owner (the oldest squashed task's retry,
     * docs/liveness.md). It pins the line it touches — non-privileged
     * misses that would evict a pinned line are served as no-allocate
     * bypasses instead — and when the regular MSHR file is full it
     * may fall back to the single reserve pin MSHR, so the owner is
     * delayed by at most one outstanding fill, never starved.
     */
    std::optional<uint64_t> access(uint64_t cycle, uint64_t addr,
                                   bool is_write,
                                   bool privileged = false);

    /**
     * Release every pinned line (the pinning owner committed or
     * ownership moved). Purely a protection change: resident lines
     * stay resident, in-flight fills complete normally.
     */
    void unpinAll();

    /** Currently pinned resident lines (observability / tests). */
    uint64_t pinnedLines() const;

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t writebacks() const { return writebacks_.value(); }
    uint64_t mshrRejects() const { return mshrRejects_.value(); }
    uint64_t prefetches() const { return prefetches_.value(); }
    /** Demand accesses that arrived while their line was in flight. */
    uint64_t missUnderFills() const { return missUnderFills_.value(); }
    /** Lines newly pinned by privileged accesses. */
    uint64_t linePins() const { return linePins_.value(); }
    /** Non-privileged misses served around a pinned victim. */
    uint64_t pinBypasses() const { return pinBypasses_.value(); }
    /** Privileged misses served by the reserve pin MSHR. */
    uint64_t pinSlotFills() const { return pinSlotFills_.value(); }

    const CacheConfig &config() const { return cfg_; }

    /**
     * Earliest cycle > `cycle` at which an outstanding miss completes
     * and frees its MSHR (kNeverWake when none are in flight). A
     * load/store unit rejected for MSHR back-pressure retries every
     * cycle; until this cycle every retry provably fails again, so
     * the fast-forward loop may skip to it.
     */
    uint64_t nextMshrFreeCycle(uint64_t cycle) const;

    /**
     * Account `n` skipped-cycle MSHR rejections at once: the
     * fast-forward loop charges the retries the 1-cycle-at-a-time
     * loop would have issued during a provably-rejected stretch.
     */
    void chargeMshrRejects(uint64_t n) { mshrRejects_ += n; }

    /**
     * One-shot wake edge of sleeping load/store units that hold
     * unissued entries: fires when a miss takes an MSHR (regular or
     * the reserve pin slot), whose fill can turn their rejected
     * access into a hit. MSHR frees are timed (nextMshrFreeCycle), so
     * they need no edge. A waiter re-subscribes each time it sleeps.
     */
    WakeEdge &onMshrAlloc() { return onMshrAlloc_; }

    /** Register this cache's statistics under `component`. */
    void registerStats(StatRegistry &reg,
                       const std::string &component) const;

    /**
     * Checkpoint field list: lines, in-flight MSHRs, the reserve pin
     * slot and all counters.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar.fixed(lines_, "cache lines");
        ar(mshrDone_);
        ar.check(mshrDone_.size() <= cfg_.mshrs, "has ", mshrDone_.size(),
                 " in-flight misses saved, this machine has ", cfg_.mshrs,
                 " MSHRs — restore requires the same structural config");
        ar(pinSlotDone_, hits_, misses_, writebacks_, mshrRejects_,
           prefetches_, missUnderFills_, linePins_, pinBypasses_,
           pinSlotFills_);
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        /** Reserved for the liveness owner; see access(). */
        bool pinned = false;
        uint64_t tag = 0;
        /** Cycle the line's fill completes; data unusable before. */
        uint64_t fillDone = 0;

        template <typename Ar>
        void serialize(Ar &ar) { ar(valid, dirty, pinned, tag, fillDone); }
    };

    void reclaimMshrs(uint64_t cycle);

    CacheConfig cfg_;
    QpiChannel &qpi_;
    uint64_t numLines_;
    std::vector<Line> lines_;
    std::vector<uint64_t> mshrDone_; //!< completion cycles of misses
    /** Reserve pin MSHR: busy while its fill completes after this. */
    uint64_t pinSlotDone_ = 0;
    Counter hits_;
    Counter misses_;
    Counter writebacks_;
    Counter mshrRejects_;
    Counter prefetches_;
    Counter missUnderFills_;
    Counter linePins_;
    Counter pinBypasses_;
    Counter pinSlotFills_;
    WakeEdge onMshrAlloc_;
};

} // namespace apir

#endif // APIR_MEM_CACHE_HH
