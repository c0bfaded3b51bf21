#include "hw/stage.hh"

#include <algorithm>

#include "hw/rendezvous_group.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace apir {

Stage::Stage(const Actor &actor, HwContext &ctx) : actor_(actor), ctx_(ctx)
{
}

void
Stage::tick(uint64_t cycle)
{
    fired_ = false;
    hasWork_ = false;
    movedToken_ = false;
    retryNext_ = false;
    doTick(cycle);
    stalled_ = !fired_ && (hasWork_ || (in_ && !in_->empty()));
    if (fired_)
        ++st_.busy;
    else if (stalled_)
        ++st_.stall;
    else
        ++st_.idle;
    lastBusy_ = fired_;

    if (fired_ && ctx_.cfg->tracer) {
        ctx_.cfg->tracer->completeEvent(
            traceLabel_.empty() ? actor_.name : traceLabel_,
            actorKindName(actor_.kind), cycle, 1);
    }
}

uint64_t
Stage::nextWakeCycle(uint64_t cycle) const
{
    // A head token still in its register delay lands at a known
    // cycle. A head already visible was offered this cycle; if it was
    // not consumed, only downstream progress can unblock the stage.
    if (in_ && !in_->empty() && !in_->canPop(cycle))
        return in_->frontVisibleAt();
    return kNeverWake;
}

// ---------------------------------------------------------------- Source

SourceStage::SourceStage(const Actor &a, HwContext &ctx, TaskSetId set,
                         uint32_t source_id,
                         std::function<uint64_t(const SwTask &)> okey)
    : Stage(a, ctx), set_(set), sourceId_(source_id),
      okeyFn_(std::move(okey))
{
}

void
SourceStage::doTick(uint64_t cycle)
{
    if (out_[0]->full()) {
        hasWork_ = queue(set_).occupancy() > 0;
        return;
    }
    auto task = queue(set_).pop(cycle, sourceId_);
    if (!task) {
        // Idle: nothing granted this cycle. A grant lost to another
        // source frees up next cycle with no edge to announce it.
        retryNext_ = queue(set_).grantLimited(cycle);
        return;
    }
    Token tok;
    tok.words = task->data;
    tok.index = task->index;
    tok.okey = okeyFn_ ? okeyFn_(*task) : 0;
    tok.serial = (*ctx_.serial)++;
    tok.retries = task->retries;
    out_[0]->push(cycle, tok, actor_.latency);
    fired_ = true;
    ++st_.tokens;
}

// ---------------------------------------------------------------- Simple

void
SimpleStage::doTick(uint64_t cycle)
{
    if (!in_->canPop(cycle))
        return;
    hasWork_ = true;

    switch (actor_.kind) {
      case ActorKind::Sink: {
        Token tok = in_->pop(cycle);
        if (tok.lane != kNoLane) {
            // A squash path can reach a sink with the lane still
            // held (the rendezvous was bypassed); release it.
            RuleEngine &eng = engine(tok.laneRule);
            if (!eng.resolved(tok.lane))
                eng.fireOtherwise(tok.lane, false);
            eng.release(tok.lane);
        }
        ctx_.tracker->erase(tokenKey(tok));
        if (ctx_.liveness) {
            if (tok.retries > 0)
                ctx_.liveness->onRetryTokenDead(tokenKey(tok));
            else
                ctx_.liveness->noteLiveSetChanged();
        }
        fired_ = true;
        ++st_.tokens;
        return;
      }
      case ActorKind::Switch: {
        const Token &peek = in_->front();
        bool p = actor_.pred ? actor_.pred(peek) : peek.pred;
        SimFifo<Token> *dst = p ? out_[0] : out_[1];
        if (dst->full() && !ownerWaiting())
            return;
        Token tok = in_->pop(cycle);
        dst->push(cycle, tok, actor_.latency, dst->full());
        fired_ = true;
        ++st_.tokens;
        return;
      }
      case ActorKind::Enqueue: {
        // Retry Enqueues bypass the capacity gate: a squashed token
        // that cannot re-enter the queue wedges in the pipeline with
        // its rule lane held, deadlocking everything behind it. The
        // queue admits retries into an elastic overflow instead.
        if ((out_[0]->full() && !ownerWaiting()) ||
            (!actor_.retryEnqueue && !queue(actor_.enqueueSet).canPush()))
            return;
        Token tok = in_->pop(cycle);
        // A retry Enqueue re-activates the same logical work with an
        // incremented streak; the queue applies the backoff schedule.
        queue(actor_.enqueueSet)
            .push(cycle, actor_.enqueueSet, actor_.payload(tok),
                  tok.index,
                  actor_.retryEnqueue ? tok.retries + 1 : 0);
        out_[0]->push(cycle, tok, actor_.latency, out_[0]->full());
        fired_ = true;
        ++st_.tokens;
        return;
      }
      case ActorKind::Event: {
        if (out_[0]->full() && !ownerWaiting())
            return;
        Token tok = in_->pop(cycle);
        EventData ev;
        ev.op = actor_.eventOp;
        ev.index = tok.index;
        ev.words = actor_.payload(tok);
        for (size_t e = 0; e < ctx_.engines->size(); ++e) {
            uint32_t exclude =
                (tok.lane != kNoLane && tok.laneRule == e) ? tok.lane
                                                           : kNoLane;
            (*ctx_.engines)[e]->broadcast(ev, exclude);
        }
        out_[0]->push(cycle, tok, actor_.latency, out_[0]->full());
        fired_ = true;
        ++st_.tokens;
        return;
      }
      case ActorKind::Commit: {
        if (out_[0]->full() && !ownerWaiting())
            return;
        Token tok = in_->pop(cycle);
        actor_.sideEffect(tok);
        out_[0]->push(cycle, tok, actor_.latency, out_[0]->full());
        fired_ = true;
        ++st_.tokens;
        return;
      }
      case ActorKind::Const:
      case ActorKind::Alu: {
        if (out_[0]->full() && !ownerWaiting())
            return;
        Token tok = in_->pop(cycle);
        actor_.compute(tok);
        out_[0]->push(cycle, tok, actor_.latency, out_[0]->full());
        fired_ = true;
        ++st_.tokens;
        return;
      }
      default:
        panic("SimpleStage cannot model ", actorKindName(actor_.kind));
    }
}

// ---------------------------------------------------------------- Expand

void
ExpandStage::doTick(uint64_t cycle)
{
    if (!active_ && in_->canPop(cycle)) {
        Token tok = in_->pop(cycle);
        auto [b, e] = actor_.range(tok);
        if (b >= e) {
            // Empty range: the task produces nothing and dies here.
            ctx_.tracker->erase(tokenKey(tok));
            if (ctx_.liveness) {
                if (tok.retries > 0)
                    ctx_.liveness->onRetryTokenDead(tokenKey(tok));
                else
                    ctx_.liveness->noteLiveSetChanged();
            }
            fired_ = true;
            ++st_.tokens;
            return;
        }
        active_ = true;
        movedToken_ = true; // consumed upstream even if out is full
        current_ = tok;
        pos_ = b;
        end_ = e;
    }
    if (!active_)
        return;
    hasWork_ = true;
    if (out_[0]->full() && !ownerToken(current_) && !ownerWaiting())
        return;

    Token child = current_;
    child.words[actor_.expandSlot] = pos_;
    child.serial = (*ctx_.serial)++;
    // The child is a new live token sharing the parent's order key.
    // Children of a retry token are retry tokens themselves: the
    // liveness retry multiset mirrors the tracker so ownership ends
    // exactly when the oldest retry's last token leaves the machine.
    ctx_.tracker->insert(tokenKey(child));
    if (ctx_.liveness) {
        if (child.retries > 0)
            ctx_.liveness->onRetryTokenSpawned(tokenKey(child));
        else
            ctx_.liveness->noteLiveSetChanged();
    }
    out_[0]->push(cycle, child, actor_.latency, out_[0]->full());
    ++pos_;
    fired_ = true;
    ++st_.tokens;
    if (pos_ >= end_) {
        // Parent token is consumed once fully expanded.
        ctx_.tracker->erase(tokenKey(current_));
        if (ctx_.liveness) {
            if (current_.retries > 0)
                ctx_.liveness->onRetryTokenDead(tokenKey(current_));
            else
                ctx_.liveness->noteLiveSetChanged();
        }
        active_ = false;
    }
}

// ------------------------------------------------------------------- Mem

MemStage::MemStage(const Actor &a, HwContext &ctx)
    : Stage(a, ctx), maxEntries_(ctx.cfg->lsuEntries),
      isStore_(a.kind == ActorKind::Store)
{
}

bool
MemStage::privileged(const Entry &e) const
{
    return ctx_.liveness && ctx_.liveness->isOwnerKey(tokenKey(e.tok));
}

void
MemStage::doTick(uint64_t cycle)
{
    issueRejects_ = 0;

    // Accept one new token. The liveness entry port: when the oldest
    // squashed task's token is waiting in this input FIFO, entries are
    // accepted past nominal capacity — otherwise a full LSU of starved
    // non-owner entries would keep the owner's access (and therefore
    // the privileged issue port and the reserve pin MSHR) permanently
    // out of reach, and the whole machine waits on the owner's commit.
    bool entry_port = false;
    if (entries_.size() >= maxEntries_ && ctx_.liveness &&
        ctx_.liveness->pinActive()) {
        entry_port = in_->anyItem([&](const Token &tok) {
            return ctx_.liveness->isOwnerKey(tokenKey(tok));
        });
    }
    if (in_->canPop(cycle) &&
        (entries_.size() < maxEntries_ || entry_port)) {
        Entry e;
        e.tok = in_->pop(cycle);
        e.addr = actor_.addr(e.tok);
        entries_.push_back(std::move(e));
        movedToken_ = true;
    }

    // Issue one request (oldest unissued first).
    Entry *head = nullptr;
    for (Entry &e : entries_) {
        if (!e.issued) {
            head = &e;
            break;
        }
    }
    if (head) {
        auto done =
            ctx_.mem->request(cycle, head->addr, isStore_,
                              privileged(*head));
        if (done) {
            head->issued = true;
            head->done = *done;
            fired_ = true;
        } else {
            ++issueRejects_;
            // The liveness issue port: when the oldest squashed
            // task's access sits behind a rejected head, it may still
            // issue this cycle — without this, a non-owner at the
            // head of the LSU would keep the reserve pin MSHR
            // unreachable and the owner starved.
            if (ctx_.liveness && ctx_.liveness->pinActive()) {
                for (Entry &e : entries_) {
                    if (e.issued || &e == head || !privileged(e))
                        continue;
                    auto d2 =
                        ctx_.mem->request(cycle, e.addr, isStore_, true);
                    if (d2) {
                        e.issued = true;
                        e.done = *d2;
                        fired_ = true;
                    } else {
                        ++issueRejects_;
                    }
                    break; // one privileged attempt per cycle
                }
            }
        }
    }

    // Complete and emit one token: the head when in-order, else the
    // first finished entry (dynamic-dataflow bypassing of blocked
    // tasks, Section 5.2).
    if (!entries_.empty())
        hasWork_ = true;
    size_t limit = ctx_.cfg->lsuInOrder
                       ? std::min<size_t>(1, entries_.size())
                       : entries_.size();
    for (size_t i = 0; i < limit; ++i) {
        Entry &e = entries_[i];
        if (!e.issued || e.done > cycle)
            continue;
        // The owner's finished access emits past a full output FIFO
        // (elastic): a completed owner token trapped behind a frozen
        // FIFO would leave the whole machine waiting on a commit that
        // can never arrive.
        if (out_[0]->full() && !privileged(e))
            continue;
        if (isStore_) {
            if (!actor_.storeTimingOnly)
                ctx_.mem->writeWord(e.addr, actor_.storeValue(e.tok));
        } else {
            e.tok.words[actor_.loadDst] = ctx_.mem->readWord(e.addr);
        }
        out_[0]->push(cycle, e.tok, 1, out_[0]->full());
        entries_.erase(entries_.begin() + static_cast<long>(i));
        fired_ = true;
        ++st_.tokens;
        break;
    }
}

uint64_t
MemStage::nextWakeCycle(uint64_t cycle) const
{
    uint64_t wake = Stage::nextWakeCycle(cycle);
    bool unissued = false;
    for (const Entry &e : entries_) {
        // A completion in the future emits then; one already due is
        // blocked on the output FIFO (or in-order head), which only
        // downstream progress clears.
        if (e.issued && e.done > cycle)
            wake = std::min(wake, e.done);
        unissued |= !e.issued;
    }
    // Unissued entries retry against the memory system every cycle;
    // the retry provably fails until an MSHR frees.
    if (unissued)
        wake = std::min(wake, ctx_.mem->nextWakeCycle(cycle));
    return wake;
}

void
MemStage::chargeSkippedRetries(uint64_t cycles)
{
    // Each skipped cycle would have replayed the same rejected issue
    // attempts (no MSHR can free while the machine is idle — the skip
    // never crosses an outstanding-miss completion, and liveness
    // ownership only changes when some stage fires).
    if (issueRejects_)
        ctx_.mem->chargeMshrRejects(cycles * issueRejects_);
}

// -------------------------------------------------------------- AllocRule

void
AllocRuleStage::doTick(uint64_t cycle)
{
    allocFailed_ = false;
    if (!in_->canPop(cycle))
        return;
    hasWork_ = true;
    const Token &peek = in_->front();
    if (out_[0]->full() && !ownerWaiting())
        return;
    RuleParams params;
    params.index = peek.index;
    params.words = actor_.payload(peek);
    uint32_t lane = engine(actor_.rule).alloc(params);
    if (lane == kNoLane) {
        allocFailed_ = true;
        return; // allocator stall: no free lane
    }
    Token tok = in_->pop(cycle);
    tok.lane = lane;
    tok.laneRule = actor_.rule;
    out_[0]->push(cycle, tok, actor_.latency, out_[0]->full());
    fired_ = true;
    ++st_.tokens;
}

void
AllocRuleStage::chargeSkippedRetries(uint64_t cycles)
{
    // Lanes release only when a rendezvous or sink fires; during a
    // skipped stretch every retry fails identically.
    if (allocFailed_)
        engine(actor_.rule).chargeAllocFails(cycles);
}

// ------------------------------------------------------------- Rendezvous

RendezvousStage::RendezvousStage(const Actor &a, HwContext &ctx,
                                 RendezvousGroup *group)
    : Stage(a, ctx), maxEntries_(ctx.cfg->rendezvousEntries),
      group_(group)
{
    APIR_ASSERT(group_ != nullptr, "rendezvous needs a group");
}

void
RendezvousStage::doTick(uint64_t cycle)
{
    // Accept one waiting token.
    if (in_->canPop(cycle) && entries_.size() < maxEntries_) {
        Token t = in_->pop(cycle);
        group_->insert(tokenKey(t));
        entries_.push_back(std::move(t));
        movedToken_ = true;
    }

    if (entries_.empty())
        return;
    hasWork_ = true;

    // The otherwise trigger (Figure 8 (4)): the minimum task index at
    // this rendezvous across all pipelines is broadcast to the rule
    // lanes; matching waiters resolve with the rule's otherwise value.
    // A waiter still unresolved after that reads its lane: watch it.
    for (Token &t : entries_) {
        if (t.lane == kNoLane)
            continue;
        RuleEngine &eng = engine(t.laneRule);
        if (!eng.resolved(t.lane) && group_->isMin(tokenKey(t)))
            eng.fireOtherwise(t.lane, false);
        if (!eng.resolved(t.lane) && ctx_.calendar)
            eng.onResolve(t.lane).subscribe(*ctx_.calendar, slot_);
    }

    // Safety net: if the whole accelerator has been wedged past
    // otherwiseTimeout (which the group minimum should make
    // impossible), force the locally minimal waiter through.
    if (ctx_.lastGlobalProgress &&
        cycle - *ctx_.lastGlobalProgress > ctx_.cfg->otherwiseTimeout) {
        Token *best = nullptr;
        for (Token &t : entries_) {
            if (t.lane == kNoLane || engine(t.laneRule).resolved(t.lane))
                continue;
            if (!best || tokenKey(t) < tokenKey(*best))
                best = &t;
        }
        if (best) {
            engine(best->laneRule).fireOtherwise(best->lane, true);
            ++fallbacks_;
        }
    }

    // Emit one resolved token, out of order.
    if (out_[0]->full())
        return;
    for (size_t i = 0; i < entries_.size(); ++i) {
        Token &t = entries_[i];
        bool ready;
        bool verdict = true;
        if (t.lane == kNoLane) {
            ready = true; // no rule: pass through affirmatively
        } else {
            RuleEngine &eng = engine(t.laneRule);
            ready = eng.resolved(t.lane);
            if (ready) {
                verdict = eng.verdict(t.lane);
                eng.release(t.lane);
            }
        }
        if (!ready)
            continue;
        Token tok = t;
        tok.pred = verdict;
        tok.lane = kNoLane;
        group_->erase(tokenKey(t));
        entries_.erase(entries_.begin() + static_cast<long>(i));
        out_[0]->push(cycle, tok, 1);
        fired_ = true;
        ++st_.tokens;
        break;
    }
}

uint64_t
RendezvousStage::nextWakeCycle(uint64_t cycle) const
{
    uint64_t wake = Stage::nextWakeCycle(cycle);
    // Unresolved waiters arm the liveness-fallback timer: the stage
    // must tick when the whole machine has been wedged past
    // otherwiseTimeout. Inside that regime the fallback resolves one
    // waiter per cycle, so every cycle is a state change and the
    // stage asks to be ticked on the very next one.
    for (const Token &t : entries_) {
        if (t.lane == kNoLane ||
            (*ctx_.engines)[t.laneRule]->resolved(t.lane))
            continue;
        uint64_t threshold =
            *ctx_.lastGlobalProgress + ctx_.cfg->otherwiseTimeout + 1;
        wake = std::min(wake, std::max(threshold, cycle + 1));
        break;
    }
    return wake;
}

// ---------------------------------------------------------------- factory

std::unique_ptr<Stage>
makeStage(const Actor &a, HwContext &ctx, TaskSetId set, uint32_t source_id,
          const std::function<uint64_t(const SwTask &)> &okey,
          RendezvousGroup *group)
{
    switch (a.kind) {
      case ActorKind::Source:
        return std::make_unique<SourceStage>(a, ctx, set, source_id, okey);
      case ActorKind::Expand:
        return std::make_unique<ExpandStage>(a, ctx);
      case ActorKind::Load:
      case ActorKind::Store:
        return std::make_unique<MemStage>(a, ctx);
      case ActorKind::AllocRule:
        return std::make_unique<AllocRuleStage>(a, ctx);
      case ActorKind::Rendezvous:
        return std::make_unique<RendezvousStage>(a, ctx, group);
      default:
        return std::make_unique<SimpleStage>(a, ctx);
    }
}

} // namespace apir
