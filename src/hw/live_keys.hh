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
#include <map>
#include <utility>
#include <vector>

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
 * Multiset of order keys stored as (key -> count): one arena tree
 * node per *distinct* key, however many copies are live. Tokens share
 * keys heavily (an Expand's children inherit their parent's key), so
 * most inserts only bump a count and most erases only drop one; a
 * node is allocated or freed only when a key's first copy arrives or
 * its last copy leaves. Every query keeps exact multiset semantics:
 * size() counts copies, and withinOldest() gives each copy a slot.
 */
class CountedKeySet
{
  public:
    /**
     * `arena` is the accelerator's shared node pool; components built
     * standalone (unit tests) pass nothing and get a private one.
     */
    explicit CountedKeySet(PoolArena *arena = nullptr)
        : arenaRef_(arena),
          counts_(arenaRef_.allocator<std::pair<const HwOrderKey,
                                                size_t>>()) {}

    /** Add one copy of `k`. */
    void
    insert(const HwOrderKey &k)
    {
        ++counts_.try_emplace(k, 0).first->second;
        ++size_;
    }

    /** Remove one copy of `k`; false (and no change) if none is live. */
    bool
    erase(const HwOrderKey &k)
    {
        auto it = counts_.find(k);
        if (it == counts_.end())
            return false;
        if (--it->second == 0)
            counts_.erase(it);
        --size_;
        return true;
    }

    bool empty() const { return size_ == 0; }
    /** Live copies, duplicates included. */
    size_t size() const { return size_; }

    HwOrderKey
    min() const
    {
        APIR_ASSERT(size_ != 0, "min of empty key set");
        return counts_.begin()->first;
    }

    /** True if `k` is (one of the copies of) the minimum key. */
    bool
    isMin(const HwOrderKey &k) const
    {
        return size_ != 0 && !(counts_.begin()->first < k);
    }

    /**
     * Is a copy of `k` among the `window` smallest live copies? Each
     * duplicate occupies a slot, so `k` qualifies exactly when it is
     * live and fewer than `window` copies are smaller. O(distinct
     * keys walked), at most `window`.
     */
    bool
    withinOldest(const HwOrderKey &k, size_t window) const
    {
        size_t smaller = 0;
        for (const auto &[key, n] : counts_) {
            if (smaller >= window)
                return false;
            auto c = k <=> key;
            if (c == 0)
                return true;
            if (c < 0) // sorted: k cannot appear further right
                return false;
            smaller += n;
        }
        return false;
    }

    /**
     * Checkpoint field list: the multiset, each key written `count`
     * times in key order, the bytes ar.seq() writes for a
     * std::multiset of the same keys.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        if constexpr (Ar::kRestoring) {
            std::vector<HwOrderKey> keys;
            ar.seq(keys);
            counts_.clear();
            size_ = 0;
            for (const HwOrderKey &k : keys)
                insert(k);
        } else {
            ar.u64(size_);
            for (const auto &[key, n] : counts_)
                for (size_t i = 0; i < n; ++i)
                    ar(key);
        }
    }

  private:
    using Counts =
        std::map<HwOrderKey, size_t, std::less<HwOrderKey>,
                 ArenaAllocator<std::pair<const HwOrderKey, size_t>>>;

    ArenaRef arenaRef_; //!< declared before counts_ (allocator source)
    Counts counts_;
    size_t size_ = 0; //!< sum of the counts
};

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
        : custom_(std::move(custom)), keys_(arena) {}

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
        bool live = keys_.erase(k);
        APIR_ASSERT(live, "erase of untracked key");
    }

    bool empty() const { return keys_.empty(); }
    size_t size() const { return keys_.size(); }
    HwOrderKey min() const { return keys_.min(); }

    /** Is `k` among the `window` smallest live keys? */
    bool
    withinOldest(const HwOrderKey &k, size_t window) const
    {
        return keys_.withinOldest(k, window);
    }

    /** Checkpoint field list: the live-key multiset. */
    template <typename Ar>
    void serialize(Ar &ar) { ar(keys_); }

  private:
    std::function<uint64_t(const SwTask &)> custom_;
    CountedKeySet keys_;
};

} // namespace apir

#endif // APIR_HW_LIVE_KEYS_HH
