#include "hw/rule_engine.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/stats_registry.hh"

namespace apir {

RuleEngine::RuleEngine(const RuleSpec &spec, uint32_t lanes)
    : spec_(spec), lanes_(lanes), onResolve_(lanes)
{
    APIR_ASSERT(lanes >= 1, "rule engine needs at least one lane");
}

uint32_t
RuleEngine::alloc(const RuleParams &params)
{
    // Rotating-priority allocator, like the queue's wavefront scheme:
    // scan from nextLane_, wrapping by compare rather than division.
    const uint32_t n = numLanes();
    uint32_t lane = nextLane_;
    for (uint32_t i = 0; i < n; ++i) {
        if (!lanes_[lane].valid) {
            lanes_[lane].valid = true;
            lanes_[lane].resolved = false;
            lanes_[lane].verdict = false;
            lanes_[lane].params = params;
            nextLane_ = lane + 1 == n ? 0 : lane + 1;
            ++allocs_;
            ++inUse_;
            maxInUse_ = std::max(maxInUse_, inUse_);
            return lane;
        }
        if (++lane == n)
            lane = 0;
    }
    ++allocFails_;
    return kNoLane;
}

void
RuleEngine::broadcast(const EventData &ev, uint32_t exclude_lane)
{
    ++events_;
    for (uint32_t lane = 0; lane < lanes_.size(); ++lane) {
        if (lane == exclude_lane)
            continue;
        Lane &l = lanes_[lane];
        if (!l.valid || l.resolved)
            continue;
        for (const EcaClause &clause : spec_.clauses) {
            if (clause.eventOp != ev.op)
                continue;
            if (clause.condition && !clause.condition(l.params, ev))
                continue;
            l.resolved = true;
            l.verdict = clause.action;
            ++clauseFires_;
            onResolve_[lane].raiseOnce();
            break;
        }
    }
}

bool
RuleEngine::resolved(uint32_t lane) const
{
    APIR_ASSERT(lane < lanes_.size() && lanes_[lane].valid,
                "query of invalid lane");
    return lanes_[lane].resolved;
}

bool
RuleEngine::verdict(uint32_t lane) const
{
    APIR_ASSERT(lane < lanes_.size() && lanes_[lane].resolved,
                "verdict of unresolved lane");
    return lanes_[lane].verdict;
}

void
RuleEngine::fireOtherwise(uint32_t lane, bool fallback)
{
    APIR_ASSERT(lane < lanes_.size() && lanes_[lane].valid,
                "otherwise on invalid lane");
    Lane &l = lanes_[lane];
    if (l.resolved)
        return;
    l.resolved = true;
    l.verdict = spec_.otherwise;
    ++otherwiseFires_;
    if (fallback)
        ++fallbackFires_;
    onResolve_[lane].raiseOnce();
}

void
RuleEngine::release(uint32_t lane)
{
    APIR_ASSERT(lane < lanes_.size() && lanes_[lane].valid,
                "release of invalid lane");
    lanes_[lane].valid = false;
    APIR_ASSERT(inUse_ > 0, "lane accounting underflow");
    if (inUse_-- == lanes_.size())
        onLaneFreed_.raise();
}

void
RuleEngine::registerStats(StatRegistry &reg,
                          const std::string &component) const
{
    reg.addValue(component, "lanes",
                 [this] { return static_cast<double>(lanes_.size()); });
    reg.addCounter(component, "allocs", allocs_);
    reg.addCounter(component, "alloc_fails", allocFails_);
    reg.addCounter(component, "events", events_);
    reg.addCounter(component, "clause_fires", clauseFires_);
    reg.addCounter(component, "otherwise_fires", otherwiseFires_);
    reg.addCounter(component, "fallback_fires", fallbackFires_);
    reg.addValue(component, "max_lanes_in_use", [this] {
        return static_cast<double>(maxInUse_);
    });
}

} // namespace apir
