#include "hw/liveness.hh"

#include <algorithm>

#include "checkpoint/ckpt.hh"
#include "hw/config.hh"
#include "mem/memsys.hh"
#include "support/stats_registry.hh"

namespace apir {

LivenessUnit::LivenessUnit(const AccelConfig &cfg,
                           uint64_t deadlock_threshold, MemorySystem &mem,
                           const LiveKeyTracker &tracker, PoolArena *arena)
    : enabled_(cfg.specLiveness), pinOldest_(cfg.specPinOldest),
      backoffBase_(cfg.specBackoffBase), mem_(mem), tracker_(tracker),
      retrying_(arena)
{
    // A backed-off machine is idle but alive; keep the longest
    // possible delay well inside the watchdog window so the watchdog
    // stays a true deadlock assertion.
    backoffCap_ = std::min<uint64_t>(
        1ull << 14, std::max<uint64_t>(1, deadlock_threshold / 2));
    // Parked retries are woken by the owner expedite, not by their
    // timer; the timer is only a backstop, so it can sit right at the
    // edge of the watchdog window.
    parkDelay_ = std::max<uint64_t>(1, deadlock_threshold / 2);
}

uint64_t
LivenessUnit::onRetryActivated(const HwOrderKey &key, uint32_t streak,
                               bool expeditable)
{
    ++squashRetries_;
    maxStreak_ = std::max<uint64_t>(maxStreak_, streak);
    if (!enabled_)
        return 0;
    retrying_.insert(key);
    refreshOwner();
    uint64_t delay = backoffDelay(key, streak, expeditable);
    backoffStallCycles_ += delay;
    return delay;
}

void
LivenessUnit::onRetryTokenSpawned(const HwOrderKey &key)
{
    if (!enabled_)
        return;
    retrying_.insert(key);
    refreshOwner();
}

void
LivenessUnit::onRetryTokenDead(const HwOrderKey &key)
{
    if (!enabled_)
        return;
    bool live = retrying_.erase(key);
    APIR_ASSERT(live, "retry death of untracked key");
    refreshOwner();
}

void
LivenessUnit::refreshOwner()
{
    // While any retry is live, the owner is the oldest live task
    // overall — retried or not. Commit order is key order, so it is
    // the only task whose next attempt can commit; every other task's
    // access is deferrable. That includes a *first* attempt stuck
    // behind retry churn: it starves in a full load/store unit exactly
    // like a squashed one, and privileging anything younger would let
    // it spin hot while the one task that can make progress waits.
    std::optional<HwOrderKey> want;
    if (pinOldest_ && !retrying_.empty() && !tracker_.empty())
        want = tracker_.min();
    if (want == owner_) {
        if (owner_)
            onWindowMove_.raise();
        return;
    }
    // Ownership moved (the old owner committed or died, or an older
    // squash appeared): its line reservations are void.
    mem_.unpinAll();
    owner_ = want;
    if (owner_)
        ++ownerChanges_;
    onOwnerChange_.raise();
}

uint64_t
LivenessUnit::backoffDelay(const HwOrderKey &key, uint32_t streak,
                           bool expeditable) const
{
    if (!enabled_ || streak == 0)
        return 0;
    if (pinOldest_ && isOwnerKey(key))
        return 0; // the oldest squashed task retries immediately
    if (pinOldest_ && expeditable) {
        // Commit order is key order, so a retry that is not the oldest
        // live task cannot commit this attempt; waking it early is pure
        // pipeline and MSHR churn that slows the task that can. Park it:
        // the owner expedite makes it poppable the cycle it becomes
        // oldest, and the timer below is only a watchdog-safe backstop.
        return parkDelay_;
    }
    uint64_t shift = std::min<uint32_t>(streak - 1, 16);
    return std::min(backoffBase_ << shift, backoffCap_);
}

template <typename Ar>
void
LivenessUnit::serialize(Ar &ar)
{
    ar(retrying_, owner_, squashRetries_, backoffStallCycles_, ownerChanges_,
       maxStreak_);
}

template void LivenessUnit::serialize(ckpt::Writer &);
template void LivenessUnit::serialize(ckpt::Reader &);

void
LivenessUnit::registerStats(StatRegistry &reg,
                            const std::string &component) const
{
    reg.addCounter(component, "squash_retries", squashRetries_);
    reg.addCounter(component, "backoff_stall_cycles",
                   backoffStallCycles_);
    reg.addCounter(component, "owner_changes", ownerChanges_);
    reg.addValue(component, "max_retry_streak", [this] {
        return static_cast<double>(maxStreak_);
    });
}

} // namespace apir
