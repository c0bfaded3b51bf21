/**
 * @file
 * Tracker of the order keys of every live task in the accelerator
 * (queued or in flight as a token). The rendezvous units query its
 * minimum to drive the otherwise trigger; its emptiness is the
 * accelerator's termination condition.
 */

#ifndef APIR_HW_LIVE_KEYS_HH
#define APIR_HW_LIVE_KEYS_HH

#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include "core/task.hh"
#include "support/arena.hh"
#include "support/logging.hh"

namespace apir {

/**
 * Comparable order key: (custom key, well-order index). Designs with
 * a custom orderKey put it in .first and zero the index; designs
 * without put 0 in .first, so lexicographic pair comparison realizes
 * both orders.
 */
using HwOrderKey = std::pair<uint64_t, TaskIndex>;

/**
 * Arena-backed key multiset: every insert/erase is one pooled node,
 * not a malloc/free (the trackers below churn one node per token life
 * event on the simulator's hot path).
 */
using HwOrderKeySet =
    std::multiset<HwOrderKey, std::less<HwOrderKey>,
                  ArenaAllocator<HwOrderKey>>;

/** Multiset of the order keys of all live tasks. */
class LiveKeyTracker
{
  public:
    /**
     * `arena` is the accelerator's shared node pool; components built
     * standalone (unit tests) pass nothing and get a private one.
     */
    explicit LiveKeyTracker(
        std::function<uint64_t(const SwTask &)> custom = nullptr,
        PoolArena *arena = nullptr)
        : custom_(std::move(custom)), arenaRef_(arena),
          keys_(arenaRef_.allocator<HwOrderKey>()) {}

    /** Key of a task under the design's order. */
    HwOrderKey
    keyOf(const SwTask &t) const
    {
        if (custom_)
            return {custom_(t), TaskIndex{}};
        return {0, t.index};
    }

    void insert(const HwOrderKey &k) { keys_.insert(k); }

    void
    erase(const HwOrderKey &k)
    {
        auto it = keys_.find(k);
        APIR_ASSERT(it != keys_.end(), "erase of untracked key");
        keys_.erase(it);
    }

    bool empty() const { return keys_.empty(); }
    size_t size() const { return keys_.size(); }

    HwOrderKey
    min() const
    {
        APIR_ASSERT(!keys_.empty(), "min of empty tracker");
        return *keys_.begin();
    }

    /**
     * Is `k` among the `window` smallest live keys? Multiset
     * semantics: duplicates each occupy a slot. O(window).
     */
    bool
    withinOldest(const HwOrderKey &k, size_t window) const
    {
        auto it = keys_.begin();
        for (size_t i = 0; i < window && it != keys_.end(); ++i, ++it) {
            if (*it == k)
                return true;
            if (k < *it) // sorted: k cannot appear further right
                return false;
        }
        return false;
    }

    /** Checkpoint field list: the live-key multiset. */
    template <typename Ar>
    void serialize(Ar &ar) { ar.seq(keys_); }

  private:
    std::function<uint64_t(const SwTask &)> custom_;
    ArenaRef arenaRef_; //!< declared before keys_ (allocator source)
    HwOrderKeySet keys_;
};

} // namespace apir

#endif // APIR_HW_LIVE_KEYS_HH
