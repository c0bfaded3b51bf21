/**
 * @file
 * The multi-bank task queue template (Section 5.2): one queue per
 * active task set, with banked FIFO storage, a wavefront-style
 * rotating allocator between banks and pipeline sources, and index
 * assignment on push (Figure 5's well-order scheme). Equivalent to a
 * software thread pool, realized frugally in hardware.
 */

#ifndef APIR_HW_TASK_QUEUE_HH
#define APIR_HW_TASK_QUEUE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/task.hh"
#include "hw/fifo.hh"
#include "hw/live_keys.hh"
#include "support/arena.hh"
#include "support/stats.hh"

namespace apir {

class StatRegistry;
class LivenessUnit;

/** Banked hardware task queue for one task set. */
class TaskQueueUnit
{
  public:
    /**
     * `liveness` (may be null) applies the squash-retry backoff to
     * retry activations and expedites the pinning owner's retry in
     * heap mode (docs/liveness.md).
     */
    TaskQueueUnit(const TaskSetDecl &decl, TaskSetId id, uint32_t banks,
                  uint32_t bank_capacity, LiveKeyTracker &tracker,
                  LivenessUnit *liveness = nullptr,
                  PoolArena *arena = nullptr);

    const TaskSetDecl &decl() const { return decl_; }
    TaskSetId id() const { return id_; }

    /** True if some bank can accept a push this cycle. */
    bool canPush() const;

    /**
     * Activate a task: assign its index from the parent's (Figure 5),
     * register its order key as live, and store it in the
     * least-occupied bank. Caller must have checked canPush().
     *
     * `retries` > 0 marks a squash-retry activation (retry number
     * `retries` of the same logical task): it registers with the
     * liveness subsystem and its visibility is delayed by the backoff
     * schedule on top of the usual registered-push cycle.
     */
    void push(uint64_t cycle, TaskSetId set_check,
              const std::array<Word, kMaxPayloadWords> &data,
              const TaskIndex &parent, uint32_t retries = 0);

    /**
     * Pop request from pipeline source `source_id`. The wavefront
     * allocator grants at most one pop per bank per cycle, rotating
     * priority with the cycle count for load balance.
     */
    std::optional<SwTask> pop(uint64_t cycle, uint32_t source_id);

    /**
     * Earliest cycle > `cycle` at which a stored task that is not yet
     * poppable becomes visible (registered-push semantics: pushed at
     * N, poppable at N+1). Tasks already visible at `cycle` do not
     * contribute: they were offered to the sources this cycle, and if
     * no source took them only source-side progress (an output FIFO
     * draining) can change that. kNeverWake when nothing is pending.
     */
    uint64_t nextWakeCycle(uint64_t cycle) const;

    /**
     * Did this cycle's one-grant-per-bank arbitration turn away a pop
     * that a fresh cycle would serve? The loser must retry next cycle:
     * the grant frees up with no edge to announce it.
     */
    bool grantLimited(uint64_t cycle) const;

    /**
     * Wake edges. `onOccupied` (the sources) fires when occupancy
     * crosses zero, which flips a blocked source between stall and
     * idle; newly visible tasks reach the sources through the queue's
     * own timer instead. `onSpace` (non-retry Enqueue stages) fires
     * when a pop lets a full queue accept pushes. `onChange` (the
     * queue's calendar slot) fires on every push and pop, either of
     * which can move nextWakeCycle().
     */
    WakeEdge &onOccupied() { return onOccupied_; }
    WakeEdge &onSpace() { return onSpace_; }
    WakeEdge &onChange() { return onChange_; }

    uint64_t pushes() const { return pushes_.value(); }
    uint64_t pops() const { return pops_.value(); }
    size_t occupancy() const;
    uint64_t maxOccupancy() const { return maxOccupancy_; }

    /** Register this queue's statistics under `component`. */
    void registerStats(StatRegistry &reg,
                       const std::string &component) const;

    /**
     * Checkpoint field list: banks, heap maps and counters. The
     * promotion heap is not saved: it is a lazy-deletion cache over
     * parked_ and is rebuilt on restore.
     */
    template <typename Ar>
    void serialize(Ar &ar);

  private:
    /** Priority-mode storage entry. */
    struct HeapItem
    {
        uint64_t visibleAt = 0; //!< push + 1 + any backoff delay
        uint64_t pushedAt = 0;  //!< activation cycle
        SwTask task;
    };

    /**
     * Heap-mode storage key: the order key plus a per-queue push
     * sequence number. The old single multimap delivered equal-key
     * entries in insertion order; the sequence component reproduces
     * that total order exactly across the ready/parked split.
     */
    using HeapKey = std::pair<HwOrderKey, uint64_t>;
    using HeapMap =
        std::map<HeapKey, HeapItem, std::less<HeapKey>,
                 ArenaAllocator<std::pair<const HeapKey, HeapItem>>>;

    /**
     * Move every parked entry whose timed visibility has arrived into
     * the ready map. Queries are cycle-monotone (the run loop never
     * rewinds), so promotion is one-way; logically const because the
     * split is invisible to callers.
     */
    void promoteUpTo(uint64_t cycle) const;

    /** Count a pop and raise its wake edges. */
    void popped(bool was_full);

    bool empty() const;

    /**
     * Is a *parked* entry poppable at `cycle` anyway? Only through the
     * owner expedite: when ownership shifts onto a parked retry (its
     * predecessors committed), it must not serve out a stale backoff.
     * Registered-push semantics still apply: never before pushedAt + 1.
     */
    bool expediteVisible(const HeapKey &key, const HeapItem &item,
                         uint64_t cycle) const;

    TaskSetDecl decl_;
    TaskSetId id_;
    ArenaRef arenaRef_; //!< declared before the heap maps
    std::vector<SimFifo<SwTask>> banks_;
    /**
     * Heap-mode storage, split by visibility so pop is O(log n): the
     * key-ordered ready map holds entries whose timed visibility has
     * arrived (pop takes begin()), the parked map holds the rest —
     * almost all of them backed-off retries — and the promotion queue
     * is a lazy-deletion min-heap over parked visibility times.
     * Mutable: promotion at query time moves entries between the two
     * without changing any observable state.
     */
    mutable HeapMap ready_;
    mutable HeapMap parked_;
    mutable std::priority_queue<std::pair<uint64_t, HeapKey>,
                                std::vector<std::pair<uint64_t, HeapKey>>,
                                std::greater<>>
        promo_;
    uint64_t heapSeq_ = 0; //!< next HeapKey sequence number
    uint64_t heapCapacity_ = 0;
    uint32_t heapPopsThisCycle_ = 0;
    uint64_t heapPopCycle_ = ~0ull;
    LiveKeyTracker &tracker_;
    LivenessUnit *liveness_ = nullptr;
    uint32_t counter_ = 0; //!< for-each activation counter
    std::vector<uint64_t> bankLastPop_;
    Counter pushes_;
    Counter pops_;
    Counter retryOverflows_; //!< retry pushes admitted past capacity
    uint64_t maxOccupancy_ = 0;
    Histogram occHist_;
    WakeEdge onOccupied_;
    WakeEdge onSpace_;
    WakeEdge onChange_;
};

} // namespace apir

#endif // APIR_HW_TASK_QUEUE_HH
