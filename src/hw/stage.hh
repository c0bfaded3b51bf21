/**
 * @file
 * Cycle-level models of the primitive-operation templates
 * (Section 5.2). Each BDFG actor is instantiated as one Stage per
 * pipeline replica. In-order operations expose dual-port FIFO
 * interfaces; load/store units and rendezvous complete out of order
 * (the paper's dynamic-dataflow reordering), bounded by their entry
 * counts.
 */

#ifndef APIR_HW_STAGE_HH
#define APIR_HW_STAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bdfg/actor.hh"
#include "checkpoint/ckpt.hh"
#include "hw/config.hh"
#include "hw/fifo.hh"
#include "hw/live_keys.hh"
#include "hw/liveness.hh"
#include "hw/rule_engine.hh"
#include "hw/task_queue.hh"
#include "mem/memsys.hh"

namespace apir {

/** Shared services a stage reaches through its accelerator. */
struct HwContext
{
    const AccelConfig *cfg = nullptr;
    MemorySystem *mem = nullptr;
    LiveKeyTracker *tracker = nullptr;
    /** Squash-retry liveness engine (null in bare-stage tests). */
    LivenessUnit *liveness = nullptr;
    std::vector<std::unique_ptr<RuleEngine>> *engines = nullptr;
    std::vector<std::unique_ptr<TaskQueueUnit>> *queues = nullptr;
    uint64_t *serial = nullptr;
    bool customKey = false;
    /**
     * Cycle of the last accelerator-wide progress (any stage busy).
     * The rendezvous liveness fallback only fires when the whole
     * machine has been wedged past cfg->otherwiseTimeout — while any
     * other stage still moves, the minimum task is presumed to be on
     * its way.
     */
    const uint64_t *lastGlobalProgress = nullptr;
    /** The accelerator's scheduler (null in bare-stage tests). */
    WakeCalendar *calendar = nullptr;
};

/** Busy / stalled / idle cycle counts of one stage. */
struct StageStats
{
    uint64_t busy = 0;
    uint64_t stall = 0;
    uint64_t idle = 0;
    uint64_t tokens = 0; //!< tokens this stage produced or consumed
};

/** Base class of all primitive-operation stages. */
class Stage
{
  public:
    Stage(const Actor &actor, HwContext &ctx);
    virtual ~Stage() = default;

    void bindInput(SimFifo<Token> *f) { in_ = f; }
    void bindOutput(uint16_t port, SimFifo<Token> *f) { out_[port] = f; }
    /** This stage's slot in ctx.calendar. */
    void setSlot(uint32_t slot) { slot_ = slot; }

    /** Advance one cycle; updates busy/stall/idle accounting. */
    void tick(uint64_t cycle);

    const Actor &actor() const { return actor_; }
    const StageStats &stats() const { return st_; }
    bool wasBusy() const { return lastBusy_; }

    /**
     * Did the last tick move a token without firing? Out-of-order
     * units (load/store, rendezvous) and the expander accept a token
     * into internal buffers without counting as busy; such a cycle
     * still changed machine state, so the fast-forward loop must not
     * treat it as skippable.
     */
    bool movedToken() const { return movedToken_; }

    /**
     * May the stage sleep after its last tick? Only if that tick fired
     * nothing, buffered nothing and lost no same-cycle arbitration:
     * then, until a wake edge or its nextWakeCycle(), every tick would
     * replay the same no-progress outcome (docs/fast-forward.md).
     */
    bool
    canSleep() const
    {
        return !fired_ && !movedToken_ && !retryNext_;
    }

    /**
     * Earliest cycle > `cycle` at which this stage could act without
     * any other component making progress (see support/wake.hh). The
     * base contract is input-FIFO visibility: a non-empty input whose
     * head is still in its register delay wakes the stage when it
     * lands. Out-of-order units add their internal completions.
     */
    virtual uint64_t nextWakeCycle(uint64_t cycle) const;

    /**
     * Is the stage asleep on an MSHR: a rejected access that a fill
     * landing in the cache could let through?
     */
    virtual bool waitsOnMshr() const { return false; }

    /**
     * Charge `cycles` slept cycles exactly as the per-cycle loop would
     * have: stall vs idle as the last (no-progress) tick classified
     * it — constant while the stage sleeps, but not after the edge
     * that woke it — plus any deterministic per-cycle retry counters
     * (MSHR rejects, lane-allocation failures).
     */
    void
    chargeSkipped(uint64_t cycles)
    {
        (stalled_ ? st_.stall : st_.idle) += cycles;
        chargeSkippedRetries(cycles);
    }

    /** Label used in cycle traces, e.g. "update/2/ld_level". */
    void setTraceLabel(std::string label) { traceLabel_ = std::move(label); }
    const std::string &traceLabel() const { return traceLabel_; }

    /**
     * Checkpoint field list: base accounting plus kind-specific
     * internal buffers. Bound FIFOs are owned and serialized by the
     * accelerator, not here.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar(st_.busy, st_.stall, st_.idle, st_.tokens, fired_, hasWork_,
           movedToken_, lastBusy_);
        serializeKind(ar);
    }

  protected:
    /**
     * Kind-specific state on top of the base accounting. A template
     * cannot be virtual, so each kind forwards both archives to its
     * own kindFields(Ar &).
     */
    virtual void serializeKind(ckpt::Writer &) {}
    virtual void serializeKind(ckpt::Reader &) {}
    /** Kind-specific behaviour; sets fired_/hasWork_/movedToken_. */
    virtual void doTick(uint64_t cycle) = 0;

    /** Per-cycle retry counters to replay over a skipped stretch. */
    virtual void chargeSkippedRetries(uint64_t) {}

    /** Order key of a token under the design's comparator. */
    HwOrderKey
    tokenKey(const Token &t) const
    {
        if (ctx_.customKey)
            return {t.okey, TaskIndex{}};
        return {0, t.index};
    }

    /**
     * Is `t` the liveness owner's token? The owner — the oldest live
     * task during a retry storm — moves past full FIFOs (elastic
     * push): the whole machine waits on its commit, so its forward
     * path may never be blocked by finite buffering, or a congested
     * replica can trap it indefinitely (docs/liveness.md).
     */
    bool
    ownerToken(const Token &t) const
    {
        return ctx_.liveness && ctx_.liveness->isOwnerKey(tokenKey(t));
    }

    /**
     * Is the owner's token waiting anywhere in this stage's input
     * FIFO? FIFOs are strictly in order, so when the owner is behind
     * a non-owner head the *head* must move for the owner to advance:
     * every token in front of the owner inherits its right to an
     * elastic push, draining the head-run forward until the owner
     * itself reaches the stage (docs/liveness.md).
     */
    bool
    ownerWaiting() const
    {
        if (!ctx_.liveness || !ctx_.liveness->pinActive() || !in_)
            return false;
        return in_->anyItem([&](const Token &tok) {
            return ctx_.liveness->isOwnerKey(tokenKey(tok));
        });
    }

    RuleEngine &engine(RuleId id) { return *(*ctx_.engines)[id]; }
    TaskQueueUnit &queue(TaskSetId id) { return *(*ctx_.queues)[id]; }

    const Actor actor_;
    HwContext &ctx_;
    SimFifo<Token> *in_ = nullptr;
    SimFifo<Token> *out_[2] = {nullptr, nullptr};
    uint32_t slot_ = 0;
    StageStats st_;
    bool fired_ = false;      //!< did useful work this cycle
    bool hasWork_ = false;    //!< had work but could not complete it
    bool movedToken_ = false; //!< buffered a token without firing
    bool lastBusy_ = false;
    bool stalled_ = false;   //!< last tick classified as stall
    bool retryNext_ = false; //!< lost an arbitration that ends next cycle
    std::string traceLabel_;
};

/** Pops tasks from the task queue into the pipeline. */
class SourceStage : public Stage
{
  public:
    SourceStage(const Actor &a, HwContext &ctx, TaskSetId set,
                uint32_t source_id,
                std::function<uint64_t(const SwTask &)> okey);

  protected:
    void doTick(uint64_t cycle) override;

  private:
    TaskSetId set_;
    uint32_t sourceId_;
    std::function<uint64_t(const SwTask &)> okeyFn_;
};

/**
 * Unit-firing in-order stages: Const, Alu, Event, Commit, Switch,
 * Enqueue, Sink. One token in, (up to) one token out per cycle.
 */
class SimpleStage : public Stage
{
  public:
    using Stage::Stage;

  protected:
    void doTick(uint64_t cycle) override;
};

/** Range expansion: one input token fans out to many. */
class ExpandStage : public Stage
{
  public:
    using Stage::Stage;

  protected:
    void doTick(uint64_t cycle) override;
    void serializeKind(ckpt::Writer &w) override { kindFields(w); }
    void serializeKind(ckpt::Reader &r) override { kindFields(r); }

  private:
    template <typename Ar>
    void kindFields(Ar &ar) { ar(active_, current_, pos_, end_); }

    bool active_ = false;
    Token current_;
    uint64_t pos_ = 0;
    uint64_t end_ = 0;
};

/**
 * Load/store unit: bounded outstanding entries against the memory
 * system; completes out of order unless cfg.lsuInOrder (Ablation A).
 */
class MemStage : public Stage
{
  public:
    MemStage(const Actor &a, HwContext &ctx);

    uint64_t nextWakeCycle(uint64_t cycle) const override;
    bool waitsOnMshr() const override { return issueRejects_ > 0; }

  protected:
    void doTick(uint64_t cycle) override;
    void chargeSkippedRetries(uint64_t cycles) override;
    void serializeKind(ckpt::Writer &w) override { kindFields(w); }
    void serializeKind(ckpt::Reader &r) override { kindFields(r); }

  private:
    /**
     * No occupancy bound check: the liveness entry port admits entries
     * past maxEntries_ while a pin is active (see doTick), so
     * over-nominal occupancy is a legal machine state. The structural
     * config key verified at the head of the file already pins
     * lsuEntries itself.
     */
    template <typename Ar>
    void kindFields(Ar &ar) { ar(entries_, issueRejects_); }

    struct Entry
    {
        Token tok;
        uint64_t addr = 0;
        bool issued = false;
        uint64_t done = 0;

        template <typename Ar>
        void serialize(Ar &ar) { ar(tok, addr, issued, done); }
    };

    /** Is this entry's token the liveness owner's (privileged)? */
    bool privileged(const Entry &e) const;

    std::vector<Entry> entries_;
    uint32_t maxEntries_;
    bool isStore_;
    /**
     * Issue attempts rejected by the MSHR wall in the last tick
     * (0..2: the oldest unissued entry, plus at most one privileged
     * entry behind it via the liveness issue port). Replayed per
     * skipped cycle by chargeSkippedRetries.
     */
    uint32_t issueRejects_ = 0;
};

/** Constructs the task's rule in a rule-engine lane. */
class AllocRuleStage : public Stage
{
  public:
    using Stage::Stage;

  protected:
    void doTick(uint64_t cycle) override;
    void chargeSkippedRetries(uint64_t cycles) override;
    void serializeKind(ckpt::Writer &w) override { kindFields(w); }
    void serializeKind(ckpt::Reader &r) override { kindFields(r); }

  private:
    template <typename Ar>
    void kindFields(Ar &ar) { ar(allocFailed_); }

    bool allocFailed_ = false; //!< last tick found no free lane
};

class RendezvousGroup;

/**
 * Rendezvous: buffers tokens until their rule verdict is available
 * (resolved by an ECA clause, or by the otherwise trigger when the
 * token is the minimum waiter at this rendezvous across all pipeline
 * replicas — the shared RendezvousGroup); emits out of order, like
 * the paper's switch actor with return-value reordering.
 */
class RendezvousStage : public Stage
{
  public:
    RendezvousStage(const Actor &a, HwContext &ctx,
                    RendezvousGroup *group);

    uint64_t fallbackFires() const { return fallbacks_; }

    uint64_t nextWakeCycle(uint64_t cycle) const override;

  protected:
    void doTick(uint64_t cycle) override;
    void serializeKind(ckpt::Writer &w) override { kindFields(w); }
    void serializeKind(ckpt::Reader &r) override { kindFields(r); }

  private:
    template <typename Ar>
    void
    kindFields(Ar &ar)
    {
        ar(entries_);
        ar.check(entries_.size() <= maxEntries_, "has ", entries_.size(),
                 " saved entries in rendezvous '", traceLabel(),
                 "', this machine allows ", maxEntries_,
                 " — restore requires the same structural config");
        ar(fallbacks_);
    }

    std::vector<Token> entries_;
    uint32_t maxEntries_;
    RendezvousGroup *group_;
    uint64_t fallbacks_ = 0;
};

/** Factory: build the right Stage subclass for an actor. */
std::unique_ptr<Stage> makeStage(
    const Actor &a, HwContext &ctx, TaskSetId set, uint32_t source_id,
    const std::function<uint64_t(const SwTask &)> &okey,
    RendezvousGroup *group);

} // namespace apir

#endif // APIR_HW_STAGE_HH
