/**
 * @file
 * The wake vocabulary of the activity-driven tick loop
 * (docs/fast-forward.md, docs/tick-performance.md).
 *
 * Every timed component exposes `nextWakeCycle(cycle)` — the earliest
 * cycle strictly after `cycle` at which its state can change without
 * any other component making progress. A wake may be early (the tick
 * finds nothing to do and the component sleeps again) but must never
 * be late; components that only react to others return kNeverWake.
 *
 * A stage whose tick made no progress sleeps in the WakeCalendar until
 * its own wake cycle or until a component it reads raises a WakeEdge.
 * The loop ticks only awake stages; when none is awake the clock jumps
 * to the earliest armed timer (global fast-forward).
 */

#ifndef APIR_SUPPORT_WAKE_HH
#define APIR_SUPPORT_WAKE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace apir {

/**
 * "No self-scheduled wake-up" sentinel: the component's state can
 * only change through another component's progress, never by the
 * passage of cycles alone.
 */
inline constexpr uint64_t kNeverWake = ~0ull;

/**
 * Who ticks when. Slots [0, stages) are stages: each is awake (ticks
 * this cycle or the next) or asleep with an optional timer. Slots
 * [stages, slots) are timer-only components (task queues): an edge
 * marks them dirty so the loop re-asks their wake after the sweep.
 *
 * Timers sit in a timing wheel of kWheel one-cycle buckets covering
 * the next kWheel cycles, with a min-heap for anything further out,
 * so arming and firing cost O(1). Disarming leaves the bucket record
 * behind; a record whose slot no longer holds that cycle is skipped.
 */
class WakeCalendar
{
  public:
    /** Track `stages` stages, all awake, and `timers` dirty timers. */
    void
    reset(size_t stages, size_t timers)
    {
        stages_ = static_cast<uint32_t>(stages);
        timer_.assign(stages + timers, kNeverWake);
        for (auto &b : wheel_)
            b.clear();
        std::fill(std::begin(used_), std::end(used_), 0);
        far_ = Heap();
        cursor_ = 0;
        now_.assign((stages + 63) / 64, 0);
        next_.assign(now_.size(), 0);
        for (uint32_t s = 0; s < stages_; ++s)
            now_[s >> 6] |= bit(s);
        dirty_.clear();
        dirtyFlag_.assign(timers, 1);
        for (size_t t = 0; t < timers; ++t)
            dirty_.push_back(static_cast<uint32_t>(stages + t));
        pos_ = 0;
    }

    /**
     * An edge reached `slot`. A stage above the one ticking now — or
     * any stage, outside the sweep — ticks this cycle, because the
     * cycle-by-cycle loop would tick it after the edge; a stage below
     * it ticks next cycle. The ticking stage itself already saw its
     * own edge. A timer slot turns dirty.
     */
    void
    wake(uint32_t slot)
    {
        if (slot + 1 == pos_)
            return;
        if (slot >= stages_) {
            uint32_t t = slot - stages_;
            if (!dirtyFlag_[t]) {
                dirtyFlag_[t] = 1;
                dirty_.push_back(slot);
            }
            return;
        }
        timer_[slot] = kNeverWake;
        (slot >= pos_ ? now_ : next_)[slot >> 6] |= bit(slot);
    }

    /** `stage` made progress: it ticks again next cycle. */
    void stayAwake(uint32_t stage) { next_[stage >> 6] |= bit(stage); }

    /**
     * Sleep `slot` until `cycle` (kNeverWake: until an edge). `cycle`
     * lies after every cycle fireDue() has handled.
     */
    void
    arm(uint32_t slot, uint64_t cycle)
    {
        if (timer_[slot] == cycle)
            return; // already filed
        timer_[slot] = cycle;
        if (cycle == kNeverWake)
            return;
        if (cycle - cursor_ < kWheel) {
            file(slot, cycle);
            return;
        }
        // Re-arming leaves superseded records behind; drop them before
        // they outnumber the live ones.
        if (far_.size() > 2 * timer_.size() + 64) {
            std::vector<Entry> live;
            for (uint32_t s = 0; s < timer_.size(); ++s)
                if (timer_[s] != kNeverWake && timer_[s] - cursor_ >= kWheel)
                    live.emplace_back(timer_[s], s);
            far_ = Heap(std::greater<>{}, std::move(live));
            return;
        }
        far_.emplace(cycle, slot);
    }

    /** Fire every timer due by `cycle`: disarm it, call `fn(slot)`. */
    template <typename Fn>
    void
    fireDue(uint64_t cycle, Fn &&fn)
    {
        auto fire = [&](uint32_t slot, uint64_t at) {
            if (timer_[slot] != at)
                return; // superseded record
            timer_[slot] = kNeverWake;
            fn(slot); // only wakes slots: never files a record
        };
        uint64_t span = std::min<uint64_t>(cycle + 1 - cursor_, kWheel);
        for (uint64_t t = cursor_; t < cursor_ + span; ++t) {
            size_t b = t & (kWheel - 1);
            if (!(used_[b >> 6] & bit(static_cast<uint32_t>(b))))
                continue;
            used_[b >> 6] &= ~bit(static_cast<uint32_t>(b));
            for (uint32_t slot : wheel_[b])
                fire(slot, t);
            wheel_[b].clear();
        }
        while (!far_.empty() && far_.top().first <= cycle) {
            auto [at, slot] = far_.top();
            far_.pop();
            fire(slot, at);
        }
        cursor_ = cycle + 1;
        // Far timers entering the wheel's window move into it.
        while (!far_.empty() && far_.top().first - cursor_ < kWheel) {
            auto [at, slot] = far_.top();
            far_.pop();
            if (timer_[slot] == at)
                file(slot, at);
        }
    }

    /**
     * Tick this cycle's awake stages in index order, `visit(stage)`
     * each; stages woken above the current one join the same sweep.
     */
    template <typename Fn>
    void
    sweep(Fn &&visit)
    {
        for (size_t w = 0; w < now_.size(); ++w) {
            while (uint64_t bits = now_[w]) {
                uint32_t s = static_cast<uint32_t>(
                    w * 64 + static_cast<size_t>(std::countr_zero(bits)));
                now_[w] = bits & (bits - 1);
                pos_ = s + 1;
                visit(s);
            }
        }
        now_.swap(next_);
        pos_ = 0;
    }

    /** Re-arm every dirty timer slot with `wakeOf(slot)`. */
    template <typename Fn>
    void
    refreshDirty(Fn &&wakeOf)
    {
        for (uint32_t slot : dirty_) {
            dirtyFlag_[slot - stages_] = 0;
            arm(slot, wakeOf(slot));
        }
        dirty_.clear();
    }

    /** Is some stage due to tick next cycle? */
    bool
    anyAwake() const
    {
        return std::any_of(now_.begin(), now_.end(),
                           [](uint64_t w) { return w != 0; });
    }

    /**
     * Earliest armed timer once its owners confirm it. A timer armed
     * cycles ago can be early — a rendezvous fallback timer that
     * progress since pushed back — so each owner of the minimum is
     * re-asked with `wakeOf(slot)` and re-armed until the minimum
     * stands. Timers beyond the wheel are taken as armed.
     */
    template <typename Fn>
    uint64_t
    confirmedMin(Fn &&wakeOf)
    {
        for (;;) {
            uint64_t at = min();
            if (at - cursor_ >= kWheel)
                return at;
            owners_.clear();
            for (uint32_t slot : wheel_[at & (kWheel - 1)])
                if (timer_[slot] == at)
                    owners_.push_back(slot);
            bool moved = false;
            for (uint32_t slot : owners_) {
                uint64_t w = wakeOf(slot);
                if (w != at) {
                    arm(slot, w);
                    moved = true;
                }
            }
            if (!moved)
                return at;
        }
    }

    /** Earliest armed timer, kNeverWake when none is. */
    uint64_t
    min()
    {
        for (uint64_t t = cursor_; t < cursor_ + kWheel; ++t) {
            size_t b = t & (kWheel - 1);
            if (!(used_[b >> 6] & bit(static_cast<uint32_t>(b)))) {
                // Skip the rest of an empty bitmap word at once.
                if (used_[b >> 6] >> (b & 63) == 0)
                    t |= 63;
                continue;
            }
            for (uint32_t slot : wheel_[b])
                if (timer_[slot] == t)
                    return t;
            // Only superseded records: drop them.
            wheel_[b].clear();
            used_[b >> 6] &= ~bit(static_cast<uint32_t>(b));
        }
        while (!far_.empty() &&
               timer_[far_.top().second] != far_.top().first)
            far_.pop();
        return far_.empty() ? kNeverWake : far_.top().first;
    }

  private:
    static constexpr size_t kWheel = 1024; //!< power of two
    using Entry = std::pair<uint64_t, uint32_t>; //!< (cycle, slot)
    using Heap = std::priority_queue<Entry, std::vector<Entry>,
                                     std::greater<>>;

    static uint64_t bit(uint32_t s) { return uint64_t(1) << (s & 63); }

    void
    file(uint32_t slot, uint64_t cycle)
    {
        size_t b = cycle & (kWheel - 1);
        wheel_[b].push_back(slot);
        used_[b >> 6] |= bit(static_cast<uint32_t>(b));
    }

    uint32_t stages_ = 0;
    std::vector<uint64_t> timer_; //!< armed cycle per slot
    std::vector<uint32_t> wheel_[kWheel]; //!< slots by cycle % kWheel
    uint64_t used_[kWheel / 64] = {};     //!< non-empty buckets
    Heap far_;            //!< timers beyond the wheel's window
    uint64_t cursor_ = 0; //!< first cycle fireDue() has not handled
    std::vector<uint64_t> now_;   //!< stages ticking this cycle
    std::vector<uint64_t> next_;  //!< stages ticking next cycle
    std::vector<uint32_t> dirty_; //!< timer slots to re-ask
    std::vector<uint32_t> owners_; //!< confirmedMin scratch, reused
    std::vector<uint8_t> dirtyFlag_;
    uint32_t pos_ = 0; //!< stages >= pos_ still tick this cycle
};

/**
 * One kind of state change of a component, and the calendar slots
 * that read that state. Unsubscribed (unit tests, bare components),
 * raising costs one branch.
 */
class WakeEdge
{
  public:
    void
    subscribe(WakeCalendar &cal, uint32_t slot)
    {
        cal_ = &cal;
        if (std::find(subs_.begin(), subs_.end(), slot) == subs_.end())
            subs_.push_back(slot);
    }

    void
    raise() const
    {
        if (cal_)
            for (uint32_t s : subs_)
                cal_->wake(s);
    }

    /** Raise, then drop every subscriber (one-shot waits). */
    void
    raiseOnce()
    {
        raise();
        subs_.clear();
    }

  private:
    WakeCalendar *cal_ = nullptr;
    std::vector<uint32_t> subs_;
};

} // namespace apir

#endif // APIR_SUPPORT_WAKE_HH
