/**
 * @file
 * The rule engine template (Section 5.2, Figure 8): a lane allocator,
 * an event bus that broadcasts tasks reaching operations, per-lane
 * ECA evaluation pipelines, and a return buffer the rendezvous reads
 * verdicts from. One engine is instantiated per rule type and shared
 * by all pipelines.
 */

#ifndef APIR_HW_RULE_ENGINE_HH
#define APIR_HW_RULE_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bdfg/token.hh"
#include "core/rule.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/wake.hh"

namespace apir {

class StatRegistry;

/** Hardware model of one rule type's engine. */
class RuleEngine
{
  public:
    RuleEngine(const RuleSpec &spec, uint32_t lanes);

    const RuleSpec &spec() const { return spec_; }
    uint32_t numLanes() const { return static_cast<uint32_t>(lanes_.size()); }

    /**
     * Allocate a lane for a rule instance with the given constructor
     * parameters. Returns the lane id, or kNoLane when the allocator
     * has no free lane (the AllocRule stage stalls).
     */
    uint32_t alloc(const RuleParams &params);

    /**
     * Broadcast an event on the event bus. `exclude_lane` is the lane
     * held by the signaling task itself (a rule never observes its
     * parent's own events); pass kNoLane when the signaler holds no
     * lane in this engine.
     */
    void broadcast(const EventData &ev, uint32_t exclude_lane);

    /** Has the lane's rule placed a verdict in the return buffer? */
    bool resolved(uint32_t lane) const;
    /** The verdict (valid once resolved). */
    bool verdict(uint32_t lane) const;

    /** Fire the otherwise clause for a waiting lane. */
    void fireOtherwise(uint32_t lane, bool fallback);

    /** Release the lane after the rendezvous consumed the verdict. */
    void release(uint32_t lane);

    /**
     * Wake edges. The engine is purely reactive — it never schedules
     * its own wake-up (the otherwise *timeout* lives in the rendezvous
     * stages) — so its readers learn of changes only through these.
     * `onResolve(lane)` fires once when a clause or otherwise fire
     * resolves the lane; the rendezvous holding its waiter subscribes
     * on every tick the waiter is unresolved. `onLaneFreed` (this
     * rule's alloc stages) fires when a release frees a lane in a
     * full lane file: a stalled allocator reads only "is any lane
     * free". An alloc needs no edge: it only takes lanes, and no
     * waiter reads a fresh lane.
     */
    WakeEdge &onResolve(uint32_t lane) { return onResolve_[lane]; }
    WakeEdge &onLaneFreed() { return onLaneFreed_; }

    /**
     * Account `n` skipped-cycle allocation failures at once: an
     * alloc-rule stage stalled on a full lane file retries every
     * cycle, and no lane can free while the whole machine is idle, so
     * the fast-forward loop charges the retries the 1-cycle-at-a-time
     * loop would have made.
     */
    void chargeAllocFails(uint64_t n) { allocFails_ += n; }

    // Statistics.
    uint64_t allocs() const { return allocs_.value(); }
    uint64_t allocFails() const { return allocFails_.value(); }
    uint64_t clauseFires() const { return clauseFires_.value(); }
    uint64_t otherwiseFires() const { return otherwiseFires_.value(); }
    uint64_t fallbackFires() const { return fallbackFires_.value(); }
    uint32_t lanesInUse() const { return inUse_; }
    /** The lane the next alloc scans from (rotating priority). */
    uint32_t nextLane() const { return nextLane_; }
    uint32_t maxLanesInUse() const { return maxInUse_; }

    /** Register this engine's statistics under `component`. */
    void registerStats(StatRegistry &reg,
                       const std::string &component) const;

    /**
     * Checkpoint field list: lane contents and counters. The RuleSpec
     * (clauses, lambdas) is rebuilt from the app spec on restore; only
     * the dynamic lane state travels.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar.fixed(lanes_, "rule-engine lanes");
        ar(nextLane_, inUse_, maxInUse_, allocs_, allocFails_, events_,
           clauseFires_, otherwiseFires_, fallbackFires_);
        ar.check(nextLane_ < lanes_.size(), "has rule-engine next lane ",
                 nextLane_, " past its ", lanes_.size(), " lanes");
    }

  private:
    struct Lane
    {
        bool valid = false;
        bool resolved = false;
        bool verdict = false;
        RuleParams params;

        template <typename Ar>
        void serialize(Ar &ar) { ar(valid, resolved, verdict, params); }
    };

    RuleSpec spec_;
    std::vector<Lane> lanes_;
    uint32_t nextLane_ = 0; //!< rotating allocator pointer
    uint32_t inUse_ = 0;
    uint32_t maxInUse_ = 0;
    Counter allocs_;
    Counter allocFails_;
    Counter events_;
    Counter clauseFires_;
    Counter otherwiseFires_;
    Counter fallbackFires_;
    std::vector<WakeEdge> onResolve_; //!< per lane, one-shot
    WakeEdge onLaneFreed_;
};

} // namespace apir

#endif // APIR_HW_RULE_ENGINE_HH
