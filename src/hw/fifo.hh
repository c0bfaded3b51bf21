/**
 * @file
 * Registered bounded FIFO connecting pipeline stages. An item pushed
 * at cycle N becomes visible at N+1 (or later, for multi-cycle
 * producer latency), modeling the dual-port FIFO interfaces the
 * paper's in-order templates use.
 *
 * Storage is a power-of-two ring buffer (docs/tick-performance.md):
 * push and pop are an index mask and a slot assignment, with no heap
 * traffic in steady state. Elastic pushes — squash-retry
 * re-activations that may never be refused — overflow past nominal
 * capacity into a side deque that stays empty in normal operation, so
 * the liveness semantics of the deque-backed FIFO are unchanged.
 */

#ifndef APIR_HW_FIFO_HH
#define APIR_HW_FIFO_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/wake.hh"

namespace apir {

/** A registered bounded FIFO. */
template <typename T>
class SimFifo
{
  public:
    explicit SimFifo(uint32_t capacity = 2) : capacity_(capacity)
    {
        APIR_ASSERT(capacity >= 1, "FIFO capacity must be >= 1");
    }

    // The side deque fills only behind a full ring, and every pop
    // refills the ring from it, so the ring alone answers these two.
    bool full() const { return tail_ - head_ >= capacity_; }
    bool empty() const { return tail_ == head_; }
    size_t size() const { return (tail_ - head_) + side_.size(); }
    uint32_t capacity() const { return capacity_; }

    /**
     * Wake edges: every push wakes the consumer stage, and a pop that
     * leaves a full FIFO wakes the producer — a producer reads its
     * output only through full().
     */
    WakeEdge &onPush() { return onPush_; }
    WakeEdge &onUnfill() { return onUnfill_; }

    /** True if the head item is visible at `cycle`. */
    bool
    canPop(uint64_t cycle) const
    {
        return tail_ != head_ && ring_[head_ & mask_].visibleAt <= cycle;
    }

    /**
     * Push at `cycle` with the producer's pipeline latency; the item
     * becomes poppable at cycle + latency (latency >= 1). `elastic`
     * admits the item past nominal capacity — used for squash-retry
     * re-activations, which may never be refused (the squashed token
     * must drain or the pipeline deadlocks behind it).
     */
    void
    push(uint64_t cycle, T item, uint32_t latency = 1,
         bool elastic = false)
    {
        APIR_ASSERT(!full() || elastic, "push into a full FIFO");
        APIR_ASSERT(latency >= 1, "zero-latency push");
        // Anything behind a side-deque item must also go to the side
        // deque, or FIFO order breaks.
        if (tail_ - head_ >= capacity_ || !side_.empty()) {
            side_.emplace_back(cycle + latency, std::move(item));
        } else {
            if (tail_ - head_ == ring_.size())
                grow();
            Slot &s = ring_[tail_ & mask_];
            s.visibleAt = cycle + latency;
            s.item = std::move(item);
            ++tail_;
        }
        maxOccupancy_ = std::max<uint64_t>(maxOccupancy_, size());
        onPush_.raise();
    }

    const T &
    front() const
    {
        APIR_ASSERT(tail_ != head_, "front of empty FIFO");
        return ring_[head_ & mask_].item;
    }

    /**
     * Cycle at which the head item becomes poppable. Push cycles are
     * nondecreasing, so this is the earliest visibility in the FIFO —
     * the FIFO's contribution to the fast-forward wake computation.
     */
    uint64_t
    frontVisibleAt() const
    {
        APIR_ASSERT(tail_ != head_, "visibility of empty FIFO");
        return ring_[head_ & mask_].visibleAt;
    }

    T
    pop(uint64_t cycle)
    {
        APIR_ASSERT(canPop(cycle), "pop of unavailable item");
        if (full())
            onUnfill_.raise();
        T item = std::move(ring_[head_ & mask_].item);
        ++head_;
        // Refill from the overflow deque so the ring stays the front
        // of the queue (the side deque only ever holds younger items).
        while (!side_.empty() && tail_ - head_ < capacity_) {
            if (tail_ - head_ == ring_.size())
                grow();
            Slot &s = ring_[tail_ & mask_];
            s.visibleAt = side_.front().first;
            s.item = std::move(side_.front().second);
            side_.pop_front();
            ++tail_;
        }
        return item;
    }

    uint64_t maxOccupancy() const { return maxOccupancy_; }

    /**
     * Visit every queued item in FIFO order until `fn(item)` returns
     * true; returns whether it did. Replaces exposing the container:
     * the liveness unit scans input FIFOs for the pinned owner's token.
     */
    template <typename Fn>
    bool
    anyItem(Fn &&fn) const
    {
        for (uint64_t i = head_; i != tail_; ++i)
            if (fn(ring_[i & mask_].item))
                return true;
        for (const auto &[vis, item] : side_)
            if (fn(item))
                return true;
        return false;
    }

    /**
     * Checkpoint field list: queued items (ring then side deque, FIFO
     * order) with their visibility cycles. Absolute head_/tail_
     * counters are not saved: only their difference is observable, so
     * a restore rebuilds a left-justified ring.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar.expect(capacity_, "FIFO slots");
        uint64_t ringItems = tail_ - head_;
        ar(maxOccupancy_, ringItems);
        ar.check(ringItems <= capacity_, "has ", ringItems,
                 " items in a FIFO of ", capacity_, " slots");
        if constexpr (Ar::kRestoring) {
            ring_.clear();
            head_ = tail_ = mask_ = 0;
            while (ring_.size() < ringItems)
                grow();
            tail_ = ringItems;
        }
        for (uint64_t i = head_; i != tail_; ++i)
            ar(ring_[i & mask_].visibleAt, ring_[i & mask_].item);
        ar.seq(side_);
    }

  private:
    struct Slot
    {
        uint64_t visibleAt = 0;
        T item{};
    };

    /**
     * Double the ring (amortized, and bounded by capacity). Starting
     * tiny keeps deep-capacity FIFOs (task-queue banks default to
     * 2^16 entries) from reserving slots they never fill.
     */
    void
    grow()
    {
        size_t n = ring_.empty() ? kMinRingSlots : ring_.size() * 2;
        std::vector<Slot> next(n);
        size_t used = tail_ - head_;
        for (uint64_t i = 0; i < used; ++i)
            next[i] = std::move(ring_[(head_ + i) & mask_]);
        ring_ = std::move(next);
        head_ = 0;
        tail_ = used;
        mask_ = ring_.size() - 1;
    }

    static constexpr size_t kMinRingSlots = 8;

    uint32_t capacity_;
    std::vector<Slot> ring_; //!< power-of-two slot array
    uint64_t head_ = 0;      //!< monotone pop counter (index = & mask_)
    uint64_t tail_ = 0;      //!< monotone push counter
    uint64_t mask_ = 0;      //!< ring_.size() - 1
    std::deque<std::pair<uint64_t, T>> side_; //!< elastic overflow
    uint64_t maxOccupancy_ = 0;
    WakeEdge onPush_;
    WakeEdge onUnfill_;
};

} // namespace apir

#endif // APIR_HW_FIFO_HH
