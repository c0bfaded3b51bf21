/**
 * @file
 * Coordination state shared by the replicas of one rendezvous actor
 * (Figure 8 (4)): the minimum order key among all tokens waiting at
 * this rendezvous across all pipelines is broadcast to the rule
 * lanes to trigger the otherwise clause. Tokens not yet at the
 * rendezvous (still in queues or load units) do not participate, so
 * a straggling cache miss never blocks the machine — the liveness
 * property Section 4.2.1 builds the whole rule design around.
 */

#ifndef APIR_HW_RENDEZVOUS_GROUP_HH
#define APIR_HW_RENDEZVOUS_GROUP_HH

#include "hw/live_keys.hh"
#include "support/wake.hh"

namespace apir {

/** Waiting-token keys of one rendezvous actor, over all replicas. */
class RendezvousGroup
{
  public:
    explicit RendezvousGroup(PoolArena *arena = nullptr)
        : waiting_(arena) {}

    void
    insert(const HwOrderKey &k)
    {
        if (waiting_.empty() || k < waiting_.min())
            onMinChange_.raise();
        waiting_.insert(k);
    }

    void
    erase(const HwOrderKey &k)
    {
        bool waited = waiting_.erase(k);
        APIR_ASSERT(waited, "rendezvous group lost a waiter");
        if (waiting_.empty() || k < waiting_.min())
            onMinChange_.raise();
    }

    /**
     * Wake edge of the replicas: fires when the minimum waiting key
     * changes, the only thing isMin() reads.
     */
    WakeEdge &onMinChange() { return onMinChange_; }

    bool empty() const { return waiting_.empty(); }

    /** True if k is (one of) the minimum waiting keys. */
    bool isMin(const HwOrderKey &k) const { return waiting_.isMin(k); }

    /** Checkpoint field list: the waiting-key multiset. */
    template <typename Ar>
    void serialize(Ar &ar) { ar(waiting_); }

  private:
    CountedKeySet waiting_;
    WakeEdge onMinChange_;
};

} // namespace apir

#endif // APIR_HW_RENDEZVOUS_GROUP_HH
