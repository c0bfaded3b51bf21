#include "hw/task_queue.hh"

#include <algorithm>

#include "checkpoint/ckpt.hh"
#include "hw/liveness.hh"
#include "support/logging.hh"
#include "support/stats_registry.hh"

namespace apir {

TaskQueueUnit::TaskQueueUnit(const TaskSetDecl &decl, TaskSetId id,
                             uint32_t banks, uint32_t bank_capacity,
                             LiveKeyTracker &tracker,
                             LivenessUnit *liveness, PoolArena *arena)
    : decl_(decl), id_(id), arenaRef_(arena),
      ready_(arenaRef_.allocator<std::pair<const HeapKey, HeapItem>>()),
      parked_(arenaRef_.allocator<std::pair<const HeapKey, HeapItem>>()),
      tracker_(tracker), liveness_(liveness),
      occHist_(32, std::max(1.0, static_cast<double>(banks) *
                                     bank_capacity / 32.0))
{
    APIR_ASSERT(banks >= 1, "task queue needs at least one bank");
    banks_.reserve(banks);
    for (uint32_t b = 0; b < banks; ++b)
        banks_.emplace_back(bank_capacity);
    bankLastPop_.assign(banks, ~0ull);
    heapCapacity_ = static_cast<uint64_t>(banks) * bank_capacity;
}

bool
TaskQueueUnit::canPush() const
{
    if (decl_.priority)
        return ready_.size() + parked_.size() < heapCapacity_;
    for (const auto &b : banks_)
        if (!b.full())
            return true;
    return false;
}

void
TaskQueueUnit::push(uint64_t cycle, TaskSetId set_check,
                    const std::array<Word, kMaxPayloadWords> &data,
                    const TaskIndex &parent, uint32_t retries)
{
    APIR_ASSERT(set_check == id_, "push routed to the wrong queue");
    SwTask t;
    t.set = id_;
    t.data = data;
    t.index = childIndex(decl_, parent, counter_);
    t.retries = retries;

    bool was_empty = empty();
    HwOrderKey key = tracker_.keyOf(t);
    tracker_.insert(key);
    // A retry activation registers with the liveness subsystem and
    // pays the backoff schedule on top of registered-push visibility.
    // Heap banks are expeditable: a parked retry becomes poppable the
    // cycle ownership shifts onto it. FIFO banks cannot reorder, so
    // they take the capped exponential schedule instead.
    uint64_t delay = 0;
    if (liveness_) {
        if (retries > 0)
            delay = liveness_->onRetryActivated(key, retries,
                                                decl_.priority);
        else
            liveness_->noteLiveSetChanged();
    }
    // Retry re-activations are admitted past nominal capacity into an
    // elastic overflow (the hardware's memory-backed spill of squashed
    // work): refusing one would wedge the squashed token in the
    // pipeline, holding its rule lane and stalling every token behind
    // it — including the owner whose commit the machine waits on.
    // First activations stay gated by canPush (host backpressure).
    bool elastic = retries > 0;
    if (decl_.priority) {
        size_t heap_size = ready_.size() + parked_.size();
        APIR_ASSERT(elastic || heap_size < heapCapacity_,
                    "push into a full priority queue");
        if (heap_size >= heapCapacity_)
            ++retryOverflows_;
        // New entries always start parked: registered-push semantics
        // make them visible at cycle + 1 at the earliest, and pop
        // queries never run before the pushing cycle ends.
        uint64_t vis = cycle + 1 + delay;
        HeapKey hk{key, heapSeq_++};
        parked_.emplace(hk, HeapItem{vis, cycle, t});
        promo_.emplace(vis, hk);
    } else {
        // Least-occupied bank, ties to the lowest id (the input-side
        // wavefront allocator's effect).
        size_t best = 0;
        for (size_t b = 1; b < banks_.size(); ++b)
            if (banks_[b].size() < banks_[best].size())
                best = b;
        APIR_ASSERT(elastic || !banks_[best].full(),
                    "push into a full task queue");
        if (banks_[best].full())
            ++retryOverflows_;
        // FIFO banks realize the backoff as extra register delay on
        // the pushed entry; head-of-line order is unaffected. The
        // delay is capped at 2^14 (see LivenessUnit), so the narrow
        // cast is exact.
        banks_[best].push(cycle, t, static_cast<uint32_t>(1 + delay),
                          elastic);
    }
    ++pushes_;
    maxOccupancy_ = std::max<uint64_t>(maxOccupancy_, occupancy());
    occHist_.sample(static_cast<double>(occupancy()));
    onChange_.raise();
    if (was_empty)
        onOccupied_.raise();
}

void
TaskQueueUnit::popped(bool was_full)
{
    ++pops_;
    onChange_.raise();
    if (empty())
        onOccupied_.raise();
    if (was_full)
        onSpace_.raise();
}

void
TaskQueueUnit::promoteUpTo(uint64_t cycle) const
{
    while (!promo_.empty() && promo_.top().first <= cycle) {
        HeapKey hk = promo_.top().second;
        promo_.pop();
        auto it = parked_.find(hk);
        if (it == parked_.end())
            continue; // already popped through the owner expedite
        // Node-handle splice: the entry moves maps without touching
        // the arena (the maps share it, so the handle is compatible).
        ready_.insert(parked_.extract(it));
    }
}

bool
TaskQueueUnit::expediteVisible(const HeapKey &key, const HeapItem &item,
                               uint64_t cycle) const
{
    // Owner expedite: when ownership shifts toward a parked retry
    // (its predecessors committed), the near-oldest squashed tasks
    // must not serve out a stale backoff — the whole machine could be
    // waiting on them. The expedite window keeps the next few
    // in-commit-order retries warm so the chain pipelines.
    return liveness_ && item.task.retries > 0 &&
           liveness_->expedited(key.first) && item.pushedAt + 1 <= cycle;
}

std::optional<SwTask>
TaskQueueUnit::pop(uint64_t cycle, uint32_t source_id)
{
    if (decl_.priority) {
        // Heap mode: deliver the minimum-key visible task, at most
        // one grant per bank port per cycle. Visible means promoted
        // to the ready map (timed visibility) or expedite-visible in
        // the parked map; the expedite window is a key-order prefix
        // of the live set, so that scan inspects at most a handful of
        // parked entries instead of the whole backoff herd.
        if (heapPopCycle_ != cycle) {
            heapPopCycle_ = cycle;
            heapPopsThisCycle_ = 0;
        }
        if (heapPopsThisCycle_ >= banks_.size())
            return std::nullopt;
        promoteUpTo(cycle);
        HeapMap *src = nullptr;
        HeapMap::iterator it;
        if (!ready_.empty()) {
            src = &ready_;
            it = ready_.begin();
        }
        if (liveness_) {
            for (auto pit = parked_.begin(); pit != parked_.end();
                 ++pit) {
                if (src && !(pit->first < it->first))
                    break; // the ready candidate is older
                if (!liveness_->expedited(pit->first.first))
                    break; // keys grow: nothing further is expedited
                if (expediteVisible(pit->first, pit->second, cycle)) {
                    src = &parked_;
                    it = pit;
                    break;
                }
            }
        }
        if (!src)
            return std::nullopt;
        SwTask t = it->second.task;
        bool was_full = !canPush();
        src->erase(it);
        ++heapPopsThisCycle_;
        popped(was_full);
        return t;
    }

    // Rotating priority: which bank this source looks at first
    // depends on the cycle, spreading sources across banks.
    uint32_t nbanks = static_cast<uint32_t>(banks_.size());
    uint32_t start = (source_id + static_cast<uint32_t>(cycle)) % nbanks;
    for (uint32_t i = 0; i < nbanks; ++i) {
        uint32_t b = (start + i) % nbanks;
        if (bankLastPop_[b] == cycle)
            continue; // one grant per bank per cycle
        if (!banks_[b].canPop(cycle))
            continue;
        bankLastPop_[b] = cycle;
        bool was_full = !canPush();
        SwTask t = banks_[b].pop(cycle);
        popped(was_full);
        return t;
    }
    return std::nullopt;
}

bool
TaskQueueUnit::grantLimited(uint64_t cycle) const
{
    if (decl_.priority)
        return heapPopCycle_ == cycle &&
               heapPopsThisCycle_ >= banks_.size();
    for (size_t b = 0; b < banks_.size(); ++b)
        if (bankLastPop_[b] == cycle && banks_[b].canPop(cycle))
            return true;
    return false;
}

uint64_t
TaskQueueUnit::nextWakeCycle(uint64_t cycle) const
{
    uint64_t wake = kNeverWake;
    if (decl_.priority) {
        // Ready entries are on offer this cycle and contribute
        // nothing. The promotion queue's (lazily cleaned) top is the
        // earliest timed visibility among parked entries; an expedited
        // entry still in its push register additionally wakes at
        // pushedAt + 1, found by scanning the expedite-window prefix.
        // The top may belong to an entry the expedite already makes
        // poppable — then this wake is early, never late, which the
        // fast-forward contract allows (the extra tick is a no-op).
        promoteUpTo(cycle);
        while (!promo_.empty() &&
               parked_.find(promo_.top().second) == parked_.end())
            promo_.pop();
        if (!promo_.empty())
            wake = promo_.top().first;
        if (liveness_) {
            for (const auto &[hk, item] : parked_) {
                if (!liveness_->expedited(hk.first))
                    break; // keys grow: nothing further is expedited
                if (item.task.retries > 0 && item.pushedAt + 1 > cycle)
                    wake = std::min(wake, item.pushedAt + 1);
            }
        }
        return wake;
    }
    // Bank FIFOs see nondecreasing push cycles, so the head is each
    // bank's earliest visibility; heads at or before `cycle` are
    // already on offer and contribute nothing.
    for (const auto &b : banks_) {
        if (b.empty())
            continue;
        uint64_t v = b.frontVisibleAt();
        if (v > cycle)
            wake = std::min(wake, v);
    }
    return wake;
}

bool
TaskQueueUnit::empty() const
{
    if (decl_.priority)
        return ready_.empty() && parked_.empty();
    return std::all_of(banks_.begin(), banks_.end(),
                       [](const auto &b) { return b.empty(); });
}

size_t
TaskQueueUnit::occupancy() const
{
    if (decl_.priority)
        return ready_.size() + parked_.size();
    size_t n = 0;
    for (const auto &b : banks_)
        n += b.size();
    return n;
}

template <typename Ar>
void
TaskQueueUnit::serialize(Ar &ar)
{
    ar.expect(banks_.size(), "task-queue banks");
    for (auto &b : banks_)
        ar(b);
    auto heapEntry = [&ar](auto &e) {
        ar(e.first, e.second.visibleAt, e.second.pushedAt, e.second.task);
    };
    ar.seq(ready_, heapEntry);
    ar.seq(parked_, heapEntry);
    ar(heapSeq_, heapPopsThisCycle_, heapPopCycle_, counter_);
    ar.fixed(bankLastPop_, "task-queue bank pop slots");
    ar(pushes_, pops_, retryOverflows_, maxOccupancy_, occHist_);
    if constexpr (Ar::kRestoring) {
        // Rebuild the promotion heap from parked_: the live heap may
        // carry lazily-deleted stale entries, but those are skipped at
        // promotion time, so a clean rebuild is behaviorally identical.
        promo_ = {};
        for (const auto &[key, item] : parked_)
            promo_.emplace(item.visibleAt, key);
    }
}

template void TaskQueueUnit::serialize(ckpt::Writer &);
template void TaskQueueUnit::serialize(ckpt::Reader &);

void
TaskQueueUnit::registerStats(StatRegistry &reg,
                             const std::string &component) const
{
    reg.addValue(component, "banks",
                 [this] { return static_cast<double>(banks_.size()); });
    reg.addCounter(component, "pushes", pushes_);
    reg.addCounter(component, "pops", pops_);
    reg.addCounter(component, "retry_overflows", retryOverflows_);
    reg.addValue(component, "max_occupancy", [this] {
        return static_cast<double>(maxOccupancy_);
    });
    reg.addHistogram(component, "occupancy", occHist_);
}

} // namespace apir
