#include "mem/cache.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/stats_registry.hh"

namespace apir {

Cache::Cache(CacheConfig cfg, QpiChannel &qpi) : cfg_(cfg), qpi_(qpi)
{
    APIR_ASSERT(cfg.sizeBytes % cfg.lineBytes == 0, "bad cache geometry");
    numLines_ = cfg.sizeBytes / cfg.lineBytes;
    lines_.resize(numLines_);
}

void
Cache::reclaimMshrs(uint64_t cycle)
{
    std::erase_if(mshrDone_, [cycle](uint64_t done) {
        return done <= cycle;
    });
}

std::optional<uint64_t>
Cache::access(uint64_t cycle, uint64_t addr, bool is_write,
              bool privileged)
{
    uint64_t line_addr = addr / cfg_.lineBytes;
    uint64_t set = line_addr % numLines_;
    uint64_t tag = line_addr / numLines_;
    Line &line = lines_[set];

    if (line.valid && line.tag == tag) {
        if (privileged && !line.pinned) {
            line.pinned = true;
            ++linePins_;
        }
        if (cycle >= line.fillDone) {
            ++hits_;
            if (is_write)
                line.dirty = true;
            return cycle + cfg_.hitLatency;
        }
        // Miss-under-fill: the tag matches but the fill (a demand
        // miss or prefetch issued earlier) has not arrived over QPI.
        // Ride the in-flight fill rather than hitting on absent data;
        // no new QPI transfer and no extra MSHR is needed.
        ++missUnderFills_;
        if (is_write)
            line.dirty = true;
        return line.fillDone + cfg_.hitLatency;
    }

    if (!privileged && line.valid && line.pinned) {
        // The victim is reserved for the liveness owner: serve this
        // miss as a no-allocate bypass — a plain QPI transfer holding
        // a regular MSHR for its duration, leaving the pinned line
        // resident (no writeback, no install). The cache is
        // timing-only, so skipping the install costs the requester
        // nothing now and future locality later — exactly the
        // concession the pinning protocol asks of non-oldest tasks.
        reclaimMshrs(cycle);
        if (mshrDone_.size() >= cfg_.mshrs) {
            ++mshrRejects_;
            return std::nullopt;
        }
        ++misses_;
        ++pinBypasses_;
        uint64_t done = qpi_.transfer(cycle, cfg_.lineBytes);
        mshrDone_.push_back(done);
        onMshrAlloc_.raiseOnce();
        return done;
    }

    reclaimMshrs(cycle);
    bool use_pin_slot = false;
    if (mshrDone_.size() >= cfg_.mshrs) {
        // Privileged misses fall back to the reserve pin MSHR, so the
        // owner waits for at most one outstanding fill even when
        // non-owners keep the regular file full.
        if (privileged && pinSlotDone_ <= cycle) {
            use_pin_slot = true;
        } else {
            ++mshrRejects_;
            return std::nullopt;
        }
    }

    ++misses_;
    if (line.valid && line.dirty) {
        // The dirty victim's writeback is a queued QPI transfer: it
        // occupies the link (the fill's service slot starts after
        // it), but the fill still pays the one-way latency only once.
        ++writebacks_;
        qpi_.transfer(cycle, cfg_.lineBytes);
    }
    uint64_t done = qpi_.transfer(cycle, cfg_.lineBytes);
    line.valid = true;
    line.tag = tag;
    line.dirty = is_write;
    line.pinned = privileged;
    line.fillDone = done;
    if (privileged)
        ++linePins_;
    if (use_pin_slot) {
        pinSlotDone_ = done;
        ++pinSlotFills_;
    } else {
        mshrDone_.push_back(done);
    }
    onMshrAlloc_.raiseOnce();

    if (cfg_.prefetchNextLine) {
        // Next-line prefetch: fill line N+1 unless it is already
        // resident or in flight. Consumes link bandwidth but no MSHR
        // (its fill is not awaited by anyone); a later demand access
        // that beats the fill is handled by the miss-under-fill path.
        // When line N+1 maps to the set just filled (only possible
        // with a single-line cache), prefetching would evict the
        // demand line before its consumer ever hits it, turning every
        // access into a miss; the degenerate geometry skips it.
        uint64_t pf_line = line_addr + 1;
        uint64_t pf_set = pf_line % numLines_;
        if (pf_set == set)
            return done;
        uint64_t pf_tag = pf_line / numLines_;
        Line &pf = lines_[pf_set];
        // Never prefetch over a pinned line: the speculative fill is
        // worth strictly less than the liveness owner's reservation.
        if (!pf.pinned && (!pf.valid || pf.tag != pf_tag)) {
            if (pf.valid && pf.dirty) {
                ++writebacks_;
                qpi_.transfer(cycle, cfg_.lineBytes);
            }
            uint64_t pf_done = qpi_.transfer(cycle, cfg_.lineBytes);
            pf.valid = true;
            pf.tag = pf_tag;
            pf.dirty = false;
            pf.fillDone = pf_done;
            ++prefetches_;
        }
    }
    return done;
}

uint64_t
Cache::nextMshrFreeCycle(uint64_t cycle) const
{
    uint64_t wake = kNeverWake;
    for (uint64_t done : mshrDone_) {
        if (done <= cycle)
            return cycle + 1; // a slot is already reclaimable
        wake = std::min(wake, done);
    }
    // The reserve pin MSHR freeing can unblock a rejected privileged
    // access; for non-privileged retries the wake is merely early
    // (they retry, fail again, and the skip resumes).
    if (pinSlotDone_ > cycle)
        wake = std::min(wake, pinSlotDone_);
    return wake;
}

void
Cache::unpinAll()
{
    for (Line &line : lines_)
        line.pinned = false;
}

uint64_t
Cache::pinnedLines() const
{
    uint64_t n = 0;
    for (const Line &line : lines_)
        n += line.pinned ? 1 : 0;
    return n;
}

void
Cache::registerStats(StatRegistry &reg,
                     const std::string &component) const
{
    // Key names keep the historical "mem" group vocabulary so trend
    // files and benches keep working across the registry migration.
    reg.addCounter(component, "cache_hits", hits_);
    reg.addCounter(component, "cache_misses", misses_);
    reg.addCounter(component, "writebacks", writebacks_);
    reg.addCounter(component, "mshr_rejects", mshrRejects_);
    reg.addCounter(component, "prefetches", prefetches_);
    reg.addCounter(component, "miss_under_fills", missUnderFills_);
    reg.addCounter(component, "line_pins", linePins_);
    reg.addCounter(component, "pin_bypasses", pinBypasses_);
    reg.addCounter(component, "pin_slot_fills", pinSlotFills_);
}

} // namespace apir
