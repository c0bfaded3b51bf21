/**
 * @file
 * The generated accelerator (Figure 7): task queues popping tasks
 * into replicated pipelines, a shared rule engine per rule type
 * forwarding or squashing task tokens, and the problem-independent
 * memory system, all advanced cycle by cycle. The host initializes
 * the task queues (optionally feeding them incrementally) and waits
 * for the FPGA to drain.
 */

#ifndef APIR_HW_ACCELERATOR_HH
#define APIR_HW_ACCELERATOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/ckpt.hh"
#include "compile/accel_spec.hh"
#include "hw/config.hh"
#include "hw/rendezvous_group.hh"
#include "hw/stage.hh"
#include "support/arena.hh"
#include "support/stats_registry.hh"
#include "support/wake.hh"

namespace apir {

/**
 * Host-side performance counters of one run()'s tick loop — how much
 * simulator work a run cost, not what the simulated machine did.
 * Deliberately NOT registered in the StatRegistry: stats-json captures
 * the simulated machine and must stay byte-identical across hot-path
 * reworks, while these numbers exist precisely to change. The
 * micro_tick bench reports them per simulated cycle.
 */
struct TickPerf
{
    uint64_t ticks = 0;          //!< executed (non-skipped) cycles
    uint64_t stageVisits = 0;    //!< Stage::tick calls
    uint64_t ffSkips = 0;        //!< fast-forward jumps taken
    uint64_t skippedCycles = 0;  //!< cycles elided by those jumps
    uint64_t wakeQueries = 0;    //!< nextWake consultations
    uint64_t wakeRecomputes = 0; //!< per-component wake evaluations
    uint64_t arenaAllocs = 0;    //!< pool-arena nodes handed out
    uint64_t arenaBytes = 0;     //!< bytes those nodes amount to
};

/** Outcome of one accelerator run. */
struct RunResult
{
    uint64_t cycles = 0;
    /**
     * Cycle the run began at: 0 on a fresh machine, the saved cycle
     * after a checkpoint restore. `cycles - startCycle` is the
     * post-restore region — the part actually simulated under this
     * run's timing knobs, which is what warmup-reuse sweeps (fig10)
     * compare across points.
     */
    uint64_t startCycle = 0;
    double seconds = 0.0;      //!< cycles / clockHz
    double utilization = 0.0;  //!< avg active primitive ops / total ops
    uint64_t tasksExecuted = 0;  //!< queue pops
    uint64_t tasksActivated = 0; //!< queue pushes
    uint64_t squashed = 0;       //!< false verdicts delivered
    uint64_t fallbackFires = 0;  //!< liveness-fallback otherwise fires
    std::vector<StatGroup> groups; //!< per-component statistics
    TickPerf tickPerf;             //!< host-side tick-loop cost
};

/** Cycle-level model of one synthesized accelerator. */
class Accelerator
{
  public:
    /**
     * Build the hardware for `spec` with template parameters `cfg`.
     * The memory system is owned by the caller, which maps the
     * application arrays into mem.image() beforehand and reads
     * results back afterwards.
     */
    Accelerator(const AcceleratorSpec &spec, const AccelConfig &cfg,
                MemorySystem &mem);

    /** Run until all tasks drain. */
    RunResult run();

    /** Total stages instantiated (all replicas). */
    size_t numStages() const { return stages_.size(); }

    /**
     * The live statistics registry every component (queues, rule
     * engines, memory system, stage-kind aggregates) registers into
     * at construction. RunResult::groups is a snapshot of it.
     */
    const StatRegistry &stats() const { return registry_; }

    /**
     * Arm a checkpoint save: at the top of simulated cycle `cycle` —
     * before the host tick and every stage tick of that cycle — `hook`
     * runs once. The hook (installed by the harness) owns the file:
     * it writes the config/meta header sections, calls ckptSave(), and
     * appends the application's host-side state. The fast-forward jump
     * is bounded by the save cycle so the hook always fires exactly
     * there; by the idle-skip byte-identity contract the extra
     * landing changes no statistics. A run that drains or dies before
     * reaching `cycle` is a fatal — a silently skipped save would be
     * mistaken for a complete one.
     */
    void scheduleCheckpointSave(uint64_t cycle,
                                std::function<void()> hook);

    /**
     * Serialize every machine-state section: core loop state, live
     * keys, liveness, rule engines, task queues, pipeline FIFOs,
     * rendezvous groups, stages, and the memory system. The wake
     * calendar is scheduling state (reset at run() start, with every
     * stage awake) and the arena is an allocator — neither carries
     * simulated state.
     */
    void ckptSave(ckpt::Writer &w) const;

    /**
     * Overlay the machine-state sections of a checkpoint onto this
     * freshly built accelerator; the next run() resumes at the saved
     * cycle. Trace hooks are rejected: events before the checkpoint
     * cannot be replayed, so a restored trace would silently lie.
     */
    void ckptRestore(ckpt::Reader &r);

  private:
    /** The machine-state field list behind ckptSave/ckptRestore. */
    template <typename Ar>
    void serialize(Ar &ar);

    void buildPipelines();
    void registerStats();
    void hostTick(uint64_t cycle);
    bool done() const;

    /**
     * Subscribe stage `slot` (actor `a`, task set `set`, rendezvous
     * `group` or null) to the wake edges of what its tick reads.
     */
    void subscribeStage(const Actor &a, uint32_t slot, size_t set,
                        RendezvousGroup *group);

    /**
     * Charge every stage's slept cycles before `cycle`: a sleeper
     * charges lazily when it next ticks, so the counts are settled
     * before anything reads or saves them (checkpoint save hook, the
     * end-of-run snapshot).
     */
    void settleStages(uint64_t cycle);

    const AcceleratorSpec &spec_;
    AccelConfig cfg_;
    MemorySystem &mem_;

    /**
     * Shared node pool for every order-key set and heap map in this
     * accelerator (live keys, retry sets, rendezvous waiters, task
     * heaps). Declared before all of them: they allocate from it at
     * construction and must release into it before it dies.
     */
    PoolArena arena_;
    LiveKeyTracker tracker_;
    /** Squash-retry liveness engine (backoff + oldest-task pinning). */
    std::unique_ptr<LivenessUnit> liveness_;
    std::vector<std::unique_ptr<RuleEngine>> engines_;
    std::vector<std::unique_ptr<TaskQueueUnit>> queues_;
    std::vector<std::unique_ptr<SimFifo<Token>>> fifos_;
    std::vector<std::unique_ptr<RendezvousGroup>> rdvGroups_;
    std::vector<std::unique_ptr<Stage>> stages_;
    uint64_t serial_ = 0;
    WakeCalendar calendar_; //!< who ticks when (stage and queue slots)
    /** Per stage: cycles before this are charged (tick or sleep). */
    std::vector<uint64_t> accounted_;
    HwContext ctx_;
    size_t hostPos_ = 0;
    uint64_t lastProgressCycle_ = 0;
    uint64_t deadlockThreshold_ = 0; //!< resolved cfg.deadlockCycles
    /**
     * Tick-loop state, promoted from run() locals so a checkpoint can
     * capture mid-run and a restored run() can resume where the saved
     * one stopped.
     */
    uint64_t cycle_ = 0;
    uint64_t busyStageCycles_ = 0;
    bool restored_ = false; //!< run() resumes at cycle_ instead of 0
    uint64_t saveCycle_ = ~0ull; //!< armed checkpoint-save cycle
    std::function<void()> saveHook_;
    bool saveDone_ = false;
    StatRegistry registry_;
};

} // namespace apir

#endif // APIR_HW_ACCELERATOR_HH
