/**
 * @file
 * The liveness subsystem for the speculative squash-retry path
 * (docs/liveness.md). The paper's otherwise fallback guarantees a
 * mis-speculated task is *resolved*, but not that its retry makes
 * progress: under extreme memory serialization (a single-line cache
 * with mshrs = 1) the retry misses again, is squashed again, and the
 * machine churns retries for hundreds of millions of cycles while
 * staying "busy" enough never to trip the deadlock watchdog.
 *
 * Two mechanisms restore monotone progress:
 *
 *  - Exponential fallback backoff: the k-th retry of a task becomes
 *    poppable only backoffBase * 2^(k-1) cycles after activation
 *    (capped), draining retry pressure off the pipelines so the
 *    oldest speculation can commit.
 *
 *  - Oldest-squashed-task pinning: the retry with the minimum order
 *    key among all live retries (the "owner") is exempt from backoff,
 *    its memory accesses are privileged (they may use a dedicated
 *    reserve MSHR when the regular file is full), and the cache lines
 *    it touches are pinned — conflicting non-owner misses bypass the
 *    cache instead of evicting them — until the owner commits or dies.
 *    Commit order is the order-key order, so the owner can always
 *    commit, and each commit strictly shrinks the remaining work:
 *    every legal configuration terminates in cycles proportional to
 *    work, and the deadlock watchdog is demoted from sole progress
 *    guarantor to a checked invariant.
 */

#ifndef APIR_HW_LIVENESS_HH
#define APIR_HW_LIVENESS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "hw/live_keys.hh"
#include "support/stats.hh"
#include "support/wake.hh"

namespace apir {

class StatRegistry;
class MemorySystem;
struct AccelConfig;

/** Per-accelerator liveness engine for the squash-retry path. */
class LivenessUnit
{
  public:
    /**
     * `deadlock_threshold` is the accelerator's resolved watchdog
     * window; backoff delays are capped below it so a backed-off but
     * alive machine can never be mistaken for a deadlocked one.
     * `tracker` is the accelerator's live-key tracker: ownership only
     * engages when the oldest retry is the oldest *live* task
     * overall — a retry with older first-attempt tasks still ahead
     * of it cannot commit yet, and privileging it would let it spin
     * hot and starve the task that can.
     */
    LivenessUnit(const AccelConfig &cfg, uint64_t deadlock_threshold,
                 MemorySystem &mem, const LiveKeyTracker &tracker,
                 PoolArena *arena = nullptr);

    /**
     * A squash-retry activation (retry number `streak` >= 1) with
     * order key `key` entered a task queue. Registers the retry as
     * live, updates ownership, and returns the number of extra cycles
     * the activation must wait beyond normal push visibility.
     * `expeditable` says the queue can cut the wait short when the
     * task becomes the owner (heap banks can; FIFO banks cannot).
     */
    uint64_t onRetryActivated(const HwOrderKey &key, uint32_t streak,
                              bool expeditable);

    /**
     * Mirror of LiveKeyTracker for retry tokens: an expander cloned a
     * retry token (the child is live under the same key), or a retry
     * token died (sink, empty expansion, fully-expanded parent).
     * Keeping the retry multiset synchronized with the tracker is
     * what makes ownership changes — and therefore unpinning — happen
     * exactly when the oldest retry's last token leaves the machine.
     */
    void onRetryTokenSpawned(const HwOrderKey &key);
    void onRetryTokenDead(const HwOrderKey &key);

    /**
     * The live-key tracker changed through a non-retry token (first
     * activation pushed, expander clone, token death). The global
     * minimum may have moved onto or off the oldest retry, so
     * ownership is re-derived; cheap (two key-set minimums).
     */
    void noteLiveSetChanged() { refreshOwner(); }

    /** Is the pinning protocol engaged (some retry owns the cache)? */
    bool pinActive() const { return owner_.has_value(); }

    /** Does `key` match the current owner (oldest live task)? */
    bool
    isOwnerKey(const HwOrderKey &key) const
    {
        return owner_.has_value() && *owner_ == key;
    }

    /**
     * Number of oldest live tasks whose parked retries stay awake.
     * Parking only the owner serializes strictly-ordered commit
     * chains on wake latency (each commit waits out a full pipeline
     * transit before the next retry even pops); keeping a short run
     * of next-to-commit retries warm restores the overlap while the
     * herd stays parked.
     */
    static constexpr size_t kExpediteWindow = 8;

    /**
     * Should a parked retry of `key` ignore its backoff? True while
     * the pinning protocol is engaged and `key` is among the
     * kExpediteWindow oldest live tasks (the owner always is).
     */
    bool
    expedited(const HwOrderKey &key) const
    {
        return owner_.has_value() &&
               tracker_.withinOldest(key, kExpediteWindow);
    }

    /**
     * Backoff schedule. The owner (and streak 0) waits nothing.
     * A non-owner in an expeditable (heap) queue under the pinning
     * protocol is *parked* — held for half the watchdog window, with
     * the owner expedite waking it the cycle it becomes oldest — so
     * retries that provably cannot commit yet generate no pipeline or
     * memory churn at all. Everywhere else (FIFO banks, pinning off)
     * the wait is the exponential backoffBase * 2^(streak-1), capped
     * at 2^14 and at half the watchdog window.
     */
    uint64_t backoffDelay(const HwOrderKey &key, uint32_t streak,
                          bool expeditable) const;

    /**
     * Wake edges. `onOwnerChange` (every stage and queue) fires when
     * ownership moves or pinning engages or ends: the owner test gates
     * elastic pushes, LSU entry and issue ports and cache pins
     * everywhere. `onWindowMove` (priority queues and their sources)
     * fires on any other live-set change while pinned, which can move
     * the expedite window a parked retry's visibility depends on.
     */
    WakeEdge &onOwnerChange() { return onOwnerChange_; }
    WakeEdge &onWindowMove() { return onWindowMove_; }

    uint64_t retryActivations() const { return squashRetries_.value(); }
    uint64_t maxRetryStreak() const { return maxStreak_; }

    /** Register this unit's statistics under `component`. */
    void registerStats(StatRegistry &reg,
                       const std::string &component) const;

    /**
     * Checkpoint field list: retry/owner/counter state. A restore sets
     * fields directly — deliberately NOT via refreshOwner(), whose
     * mem_.unpinAll() side effect would wipe the restored pin set.
     */
    template <typename Ar>
    void serialize(Ar &ar);

  private:
    void refreshOwner();

    bool enabled_;
    bool pinOldest_;
    uint64_t backoffBase_;
    uint64_t backoffCap_;
    uint64_t parkDelay_; //!< expeditable non-owner hold (see above)
    MemorySystem &mem_;
    const LiveKeyTracker &tracker_;
    /** Order keys of all live retry tokens (queued or in flight). */
    CountedKeySet retrying_;
    /** The pinning owner: minimum key in retrying_, when pinning. */
    std::optional<HwOrderKey> owner_;
    Counter squashRetries_;     //!< retry activations (squash count)
    Counter backoffStallCycles_; //!< total backoff delay imposed
    Counter ownerChanges_;       //!< pin-ownership acquisitions
    uint64_t maxStreak_ = 0;     //!< deepest retry streak seen
    WakeEdge onOwnerChange_;
    WakeEdge onWindowMove_;
};

} // namespace apir

#endif // APIR_HW_LIVENESS_HH
