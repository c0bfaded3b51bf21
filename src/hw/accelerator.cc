#include "hw/accelerator.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/str.hh"
#include "support/trace.hh"
#include "support/wake.hh"

namespace apir {

Accelerator::Accelerator(const AcceleratorSpec &spec,
                         const AccelConfig &cfg, MemorySystem &mem)
    : spec_(spec), cfg_(cfg), mem_(mem),
      tracker_(spec.orderKey, &arena_)
{
    spec_.verify();
    validateAccelConfig(cfg_);
    deadlockThreshold_ = cfg_.deadlockCycles
                             ? cfg_.deadlockCycles
                             : cfg_.otherwiseTimeout * 64 + 100000;
    liveness_ = std::make_unique<LivenessUnit>(cfg_, deadlockThreshold_,
                                               mem_, tracker_, &arena_);

    for (const RuleSpec &r : spec_.rules)
        engines_.push_back(std::make_unique<RuleEngine>(r, cfg_.ruleLanes));

    for (size_t s = 0; s < spec_.sets.size(); ++s) {
        queues_.push_back(std::make_unique<TaskQueueUnit>(
            spec_.sets[s], static_cast<TaskSetId>(s), cfg_.queueBanks,
            cfg_.queueBankCapacity, tracker_, liveness_.get(), &arena_));
    }

    ctx_.cfg = &cfg_;
    ctx_.mem = &mem_;
    ctx_.tracker = &tracker_;
    ctx_.liveness = liveness_.get();
    ctx_.engines = &engines_;
    ctx_.queues = &queues_;
    ctx_.serial = &serial_;
    ctx_.customKey = static_cast<bool>(spec_.orderKey);
    ctx_.lastGlobalProgress = &lastProgressCycle_;
    ctx_.calendar = &calendar_;

    buildPipelines();
    registerStats();
    if (cfg_.tracer)
        mem_.attachTracer(cfg_.tracer);
}

void
Accelerator::registerStats()
{
    for (auto &q : queues_)
        q->registerStats(registry_, "queue." + q->decl().name);
    for (auto &e : engines_)
        e->registerStats(registry_, "rule." + e->spec().name);
    mem_.registerStats(registry_, "mem");
    liveness_->registerStats(registry_, "liveness");

    // Busy/stall/idle/token aggregates per primitive-operation kind,
    // the raw material behind the utilization curves of Figure 10.
    // Registered as computed values so dumps always see live counts;
    // each kind's member stages are resolved once here so a snapshot
    // sums index lists instead of string-comparing every stage's kind
    // on every dump.
    std::vector<std::string> kinds;
    std::vector<std::vector<size_t>> members;
    for (size_t i = 0; i < stages_.size(); ++i) {
        std::string kind = actorKindName(stages_[i]->actor().kind);
        auto it = std::find(kinds.begin(), kinds.end(), kind);
        if (it == kinds.end()) {
            kinds.push_back(kind);
            members.emplace_back();
            it = kinds.end() - 1;
        }
        members[static_cast<size_t>(it - kinds.begin())].push_back(i);
    }
    for (size_t k = 0; k < kinds.size(); ++k) {
        auto agg = [this, idx = members[k]](uint64_t StageStats::*field) {
            return [this, idx, field] {
                uint64_t n = 0;
                for (size_t i : idx)
                    n += stages_[i]->stats().*field;
                return static_cast<double>(n);
            };
        };
        registry_.addValue("stages", kinds[k] + ".busy",
                           agg(&StageStats::busy));
        registry_.addValue("stages", kinds[k] + ".stall",
                           agg(&StageStats::stall));
        registry_.addValue("stages", kinds[k] + ".idle",
                           agg(&StageStats::idle));
        registry_.addValue("stages", kinds[k] + ".tokens",
                           agg(&StageStats::tokens));
    }
}

void
Accelerator::buildPipelines()
{
    // Stage slots come first in the wake calendar, then one timer slot
    // per task queue; every component's wake edge lists the slots that
    // read it (docs/fast-forward.md has the table).
    auto queueSlot = [this](size_t q) {
        return static_cast<uint32_t>(stages_.size() + q);
    };
    for (size_t s = 0; s < spec_.pipelines.size(); ++s) {
        const BdfgGraph &g = spec_.pipelines[s];
        // Actor ids are graph-local and small, so the per-graph lookup
        // tables are flat vectors indexed by ActorId, not maps.
        ActorId max_id = 0;
        for (const Actor &a : g.actors())
            max_id = std::max(max_id, a.id);
        // Rendezvous replicas of the same actor share one group: the
        // otherwise minimum is taken "across all pipelines" (Fig. 8).
        std::vector<RendezvousGroup *> groups(max_id + 1, nullptr);
        for (const Actor &a : g.actors()) {
            if (a.kind == ActorKind::Rendezvous) {
                rdvGroups_.push_back(
                    std::make_unique<RendezvousGroup>(&arena_));
                groups[a.id] = rdvGroups_.back().get();
            }
        }
        for (uint32_t p = 0; p < cfg_.pipelinesPerSet; ++p) {
            // One stage per actor for this replica.
            std::vector<Stage *> local(max_id + 1, nullptr);
            std::vector<uint32_t> slot(max_id + 1, 0);
            for (const Actor &a : g.actors()) {
                auto stage = makeStage(a, ctx_, static_cast<TaskSetId>(s),
                                       p, spec_.orderKey, groups[a.id]);
                stage->setTraceLabel(g.name() + "/" + std::to_string(p) +
                                     "/" + a.name);
                local[a.id] = stage.get();
                slot[a.id] = static_cast<uint32_t>(stages_.size());
                stage->setSlot(slot[a.id]);
                stages_.push_back(std::move(stage));
                subscribeStage(a, slot[a.id], s, groups[a.id]);
            }
            // One registered FIFO per edge.
            for (const BdfgEdge &e : g.edges()) {
                uint32_t cap = std::max(e.capacity, cfg_.fifoDepth);
                fifos_.push_back(std::make_unique<SimFifo<Token>>(cap));
                SimFifo<Token> *f = fifos_.back().get();
                local[e.from.actor]->bindOutput(e.from.port, f);
                local[e.to.actor]->bindInput(f);
                f->onPush().subscribe(calendar_, slot[e.to.actor]);
                f->onUnfill().subscribe(calendar_, slot[e.from.actor]);
            }
        }
    }
    for (size_t q = 0; q < queues_.size(); ++q) {
        queues_[q]->onChange().subscribe(calendar_, queueSlot(q));
        liveness_->onOwnerChange().subscribe(calendar_, queueSlot(q));
        if (queues_[q]->decl().priority)
            liveness_->onWindowMove().subscribe(calendar_, queueSlot(q));
    }
    calendar_.reset(stages_.size(), queues_.size());
}

void
Accelerator::subscribeStage(const Actor &a, uint32_t slot, size_t set,
                            RendezvousGroup *group)
{
    liveness_->onOwnerChange().subscribe(calendar_, slot);
    switch (a.kind) {
      case ActorKind::Source:
        queues_[set]->onOccupied().subscribe(calendar_, slot);
        if (queues_[set]->decl().priority)
            liveness_->onWindowMove().subscribe(calendar_, slot);
        break;
      case ActorKind::Enqueue:
        // Retry enqueues bypass the capacity gate.
        if (!a.retryEnqueue)
            queues_[a.enqueueSet]->onSpace().subscribe(calendar_, slot);
        break;
      case ActorKind::AllocRule:
        engines_[a.rule]->onLaneFreed().subscribe(calendar_, slot);
        break;
      case ActorKind::Rendezvous:
        // Lane resolves are watched per waiter, from the stage's tick.
        group->onMinChange().subscribe(calendar_, slot);
        break;
      default:
        break;
    }
}

void
Accelerator::hostTick(uint64_t cycle)
{
    if (hostPos_ >= spec_.initial.size())
        return;
    if (cfg_.hostBatch == 0) {
        // Pre-loaded mode: the host fills the queues as fast as they
        // accept tasks.
        while (hostPos_ < spec_.initial.size()) {
            const SwTask &t = spec_.initial[hostPos_];
            if (!queues_[t.set]->canPush())
                break;
            queues_[t.set]->push(cycle, t.set, t.data, TaskIndex{});
            ++hostPos_;
        }
    } else if (cycle % cfg_.hostInterval == 0) {
        // Incremental host feeding (SPEC-DMR / COOR-LU style).
        for (uint32_t n = 0;
             n < cfg_.hostBatch && hostPos_ < spec_.initial.size(); ++n) {
            const SwTask &t = spec_.initial[hostPos_];
            if (!queues_[t.set]->canPush())
                break;
            queues_[t.set]->push(cycle, t.set, t.data, TaskIndex{});
            ++hostPos_;
        }
    }
}

bool
Accelerator::done() const
{
    return tracker_.empty() && hostPos_ >= spec_.initial.size();
}

RunResult
Accelerator::run()
{
    RunResult res;
    // cycle_ and busyStageCycles_ are members: 0 on a fresh machine,
    // the saved position after ckptRestore (resume, don't rewind).
    if (!restored_)
        lastProgressCycle_ = 0;
    uint64_t cycle = cycle_;
    res.startCycle = cycle;

    // Precomputed tracer track names (no per-cycle allocation).
    std::vector<std::string> queue_tracks;
    if (cfg_.tracer)
        for (auto &q : queues_)
            queue_tracks.push_back("queue." + q->decl().name);

    const size_t nstages = stages_.size();
    calendar_.reset(nstages, queues_.size());
    accounted_.assign(nstages, cycle);

    TickPerf &perf = res.tickPerf;
    // A calendar slot's own wake cycle, asked at the current cycle.
    auto wakeOf = [&](uint32_t slot) {
        ++perf.wakeRecomputes;
        return slot < nstages
                   ? stages_[slot]->nextWakeCycle(cycle)
                   : queues_[slot - nstages]->nextWakeCycle(cycle);
    };
    for (;; ++cycle) {
        ++perf.ticks;
        if (cycle == saveCycle_ && !saveDone_) {
            // Top-of-cycle state: nothing of cycle `cycle` has
            // happened yet, so the restored run replays it in full.
            cycle_ = cycle;
            saveDone_ = true;
            settleStages(cycle);
            saveHook_();
        }
        // Due timers first: a host push below re-dirties a queue slot
        // but must not swallow the visibility it was armed for.
        calendar_.fireDue(cycle, [&](uint32_t slot) {
            if (slot < nstages) {
                calendar_.wake(slot);
            } else {
                // A queued task turned visible: offer it to the sources.
                queues_[slot - nstages]->onOccupied().raise();
                calendar_.wake(slot);
            }
        });
        hostTick(cycle);
        if (cfg_.tracer && cfg_.tracer->active(cycle)) {
            for (size_t i = 0; i < queues_.size(); ++i)
                cfg_.tracer->counterEvent(
                    queue_tracks[i], "depth", cycle,
                    static_cast<double>(queues_[i]->occupancy()));
        }
        uint64_t busy_this_tick = 0;
        calendar_.sweep([&](uint32_t i) {
            Stage &stage = *stages_[i];
            if (cycle > accounted_[i])
                stage.chargeSkipped(cycle - accounted_[i]);
            accounted_[i] = cycle + 1;
            stage.tick(cycle);
            ++perf.stageVisits;
            if (stage.wasBusy())
                ++busy_this_tick;
            // fastForward=false keeps every stage awake: the
            // every-stage, every-cycle equivalence oracle.
            if (!cfg_.fastForward || !stage.canSleep()) {
                calendar_.stayAwake(i);
                return;
            }
            calendar_.arm(i, wakeOf(i));
            if (stage.waitsOnMshr())
                mem_.mshrWaiters().subscribe(calendar_, i);
        });
        busyStageCycles_ += busy_this_tick;
        if (busy_this_tick)
            lastProgressCycle_ = cycle;
        if (cfg_.fastForward)
            calendar_.refreshDirty(wakeOf);
        if (done())
            break;
        if (cycle - lastProgressCycle_ > deadlockThreshold_) {
            // With the liveness subsystem on, forward progress is
            // guaranteed by protocol (backoff + oldest-task pinning);
            // the watchdog is demoted to a checked invariant, so
            // firing here means a protocol bug, not a workload
            // property.
            if (cfg_.specLiveness)
                panic("liveness invariant violated: accelerator '",
                      spec_.name, "' deadlocked at cycle ", cycle,
                      " with ", tracker_.size(),
                      " live tasks despite the squash-retry liveness "
                      "subsystem (spec.liveness) — this is a "
                      "simulator protocol bug");
            panic("accelerator '", spec_.name, "' deadlocked at cycle ",
                  cycle, " with ", tracker_.size(), " live tasks");
        }
        if (cycle >= cfg_.maxCycles)
            fatal("accelerator '", spec_.name, "' exceeded the cycle wall");

        // Global fast-forward, the all-asleep case: no stage ticks
        // next cycle, so until the earliest timer the machine would
        // replay the same no-progress cycle. Jump there; each stage
        // charges its slept cycles when it next ticks (or is settled),
        // and the tracer's queue-depth samples are replayed (occupancy
        // cannot change over the stretch). The watchdog, the cycle
        // wall and host injection bound the jump as arithmetic.
        if (cfg_.fastForward && !calendar_.anyAwake()) {
            ++perf.wakeQueries;
            uint64_t wake =
                std::min({lastProgressCycle_ + deadlockThreshold_ + 1,
                          cfg_.maxCycles, calendar_.confirmedMin(wakeOf)});
            // Host-fed injection fires at multiples of hostInterval.
            // In pre-loaded mode (hostBatch == 0) a stalled host
            // implies a full queue, which only a pop drains — and a
            // pop keeps its source awake.
            if (hostPos_ < spec_.initial.size() && cfg_.hostBatch > 0)
                wake = std::min(wake, (cycle / cfg_.hostInterval + 1) *
                                          cfg_.hostInterval);
            // An armed checkpoint bounds the skip so the save hook
            // fires exactly at its cycle.
            if (!saveDone_ && saveCycle_ > cycle)
                wake = std::min(wake, saveCycle_);
            if (wake > cycle + 1) {
                ++perf.ffSkips;
                perf.skippedCycles += wake - 1 - cycle;
                if (cfg_.tracer) {
                    for (uint64_t sc = cycle + 1; sc < wake; ++sc) {
                        if (!cfg_.tracer->active(sc))
                            continue;
                        for (size_t i = 0; i < queues_.size(); ++i)
                            cfg_.tracer->counterEvent(
                                queue_tracks[i], "depth", sc,
                                static_cast<double>(
                                    queues_[i]->occupancy()));
                    }
                }
                cycle = wake - 1;
            }
        }
    }
    settleStages(cycle + 1);

    perf.arenaAllocs = arena_.allocations();
    perf.arenaBytes = arena_.allocatedBytes();

    if (saveCycle_ != ~0ull && !saveDone_) {
        fatal("checkpoint: accelerator '", spec_.name,
              "' drained at cycle ", cycle,
              " before the scheduled save cycle ", saveCycle_,
              " — pick a save cycle inside the run");
    }

    cycle_ = cycle;
    res.cycles = cycle + 1;
    res.seconds = static_cast<double>(res.cycles) / cfg_.clockHz;
    res.utilization =
        stages_.empty()
            ? 0.0
            : static_cast<double>(busyStageCycles_) /
                  (static_cast<double>(stages_.size()) * res.cycles);

    for (auto &q : queues_) {
        res.tasksExecuted += q->pops();
        res.tasksActivated += q->pushes();
    }
    // All per-component statistics come from the unified registry.
    res.groups = registry_.snapshot();
    for (auto &s : stages_) {
        if (auto *r = dynamic_cast<RendezvousStage *>(s.get()))
            res.fallbackFires += r->fallbackFires();
    }
    for (auto &e : engines_) {
        // Squashes delivered by rules: clause fires with action false
        // plus otherwise fires with value false.
        if (!e->spec().otherwise)
            res.squashed += e->otherwiseFires();
    }
    // Count squash-path tokens by convention: sinks named "squash".
    for (auto &s : stages_) {
        if (s->actor().kind == ActorKind::Sink &&
            s->actor().name.find("squash") != std::string::npos)
            res.squashed += s->stats().tokens;
    }

    StatGroup sum("accel");
    sum.set("cycles", static_cast<double>(res.cycles));
    sum.set("stages", static_cast<double>(stages_.size()));
    sum.set("utilization", res.utilization);
    sum.set("tasks_executed", static_cast<double>(res.tasksExecuted));
    sum.set("tasks_activated", static_cast<double>(res.tasksActivated));
    sum.set("squashed", static_cast<double>(res.squashed));
    sum.set("fallback_fires", static_cast<double>(res.fallbackFires));
    res.groups.push_back(std::move(sum));
    return res;
}

void
Accelerator::settleStages(uint64_t cycle)
{
    for (size_t i = 0; i < stages_.size(); ++i) {
        if (cycle > accounted_[i]) {
            stages_[i]->chargeSkipped(cycle - accounted_[i]);
            accounted_[i] = cycle;
        }
    }
}

void
Accelerator::scheduleCheckpointSave(uint64_t cycle,
                                    std::function<void()> hook)
{
    APIR_ASSERT(hook, "checkpoint save without a hook");
    saveCycle_ = cycle;
    saveHook_ = std::move(hook);
    saveDone_ = false;
}

void
Accelerator::ckptSave(ckpt::Writer &w) const
{
    const_cast<Accelerator *>(this)->serialize(w);
}

void
Accelerator::ckptRestore(ckpt::Reader &r)
{
    if (cfg_.tracer) {
        fatal("checkpoint: cannot restore '", r.path(),
              "' with trace hooks attached — trace events before the "
              "checkpoint cannot be replayed, so the restored trace "
              "would silently omit them; run the tracer on an "
              "uninterrupted run instead");
    }
    serialize(r);
    restored_ = true;
}

template <typename Ar>
void
Accelerator::serialize(Ar &ar)
{
    ar.begin("accel.core");
    ar(cycle_, busyStageCycles_, serial_, hostPos_, lastProgressCycle_);
    ar.end();

    ar.begin("accel.tracker");
    ar(tracker_);
    ar.end();

    // Field-direct restore: LivenessUnit::refreshOwner() would call
    // mem_.unpinAll() and wipe the pinned lines restored below.
    ar.begin("accel.liveness");
    ar(*liveness_);
    ar.end();

    auto components = [&ar](const char *section, auto &parts,
                            const char *what) {
        ar.begin(section);
        ar.expect(parts.size(), what);
        for (auto &p : parts)
            ar(*p);
        ar.end();
    };
    components("accel.engines", engines_, "rule engines");
    components("accel.queues", queues_, "task queues");
    components("accel.fifos", fifos_, "pipeline FIFOs");
    components("accel.rdv", rdvGroups_, "rendezvous groups");
    components("accel.stages", stages_, "stages");

    ar.begin("mem.sys");
    ar(mem_);
    ar.end();
}

} // namespace apir
