/**
 * @file
 * Parameters of the architectural templates (Section 5.2). The paper
 * tunes these per application with a heuristic that fills the FPGA;
 * here they are explicit knobs, swept by the ablation benches.
 */

#ifndef APIR_HW_CONFIG_HH
#define APIR_HW_CONFIG_HH

#include <cstdint>
#include <vector>

#include "mem/memsys.hh"
#include "support/knob.hh"

namespace apir {

class ChromeTracer;

/** Accelerator-wide template parameters. */
struct AccelConfig
{
    /** Pipeline replicas instantiated per task set. */
    uint32_t pipelinesPerSet = 2;
    /** Lanes per rule engine (concurrent rules under inspection). */
    uint32_t ruleLanes = 32;
    /** Banks per multi-bank task queue. */
    uint32_t queueBanks = 4;
    /** Capacity of each bank, in tasks. */
    uint32_t queueBankCapacity = 1u << 16;
    /** Entries in each load/store unit (outstanding accesses). */
    uint32_t lsuEntries = 8;
    /** Ablation A: force in-order completion in the LSUs. */
    bool lsuInOrder = false;
    /** Depth of inter-stage FIFOs. */
    uint32_t fifoDepth = 2;
    /** Tokens buffered at each rendezvous awaiting verdicts. */
    uint32_t rendezvousEntries = 32;
    /**
     * Cycles a rendezvous may sit with waiting tokens but no global
     * progress before the liveness fallback fires the otherwise
     * clause for its locally minimal waiter.
     */
    uint64_t otherwiseTimeout = 64;
    /**
     * Cycles without any stage firing before the deadlock watchdog
     * panics. Measured in simulated cycles, so the verdict is the
     * same with fast-forward on or off. 0 derives the default
     * otherwiseTimeout * 64 + 100000: far past every legitimate stall
     * (QPI misses, host-feed gaps, rendezvous fallback sweeps). When
     * set explicitly it must exceed otherwiseTimeout, or the watchdog
     * would declare deadlock before the rendezvous liveness fallback
     * gets a chance to break the stall.
     */
    uint64_t deadlockCycles = 0;
    /** Hard wall for simulation length; exceeded means a hang. */
    uint64_t maxCycles = 1ull << 36;
    /**
     * Activity-driven scheduling (docs/fast-forward.md): a stage whose
     * tick fires nothing and moves no token sleeps until its own
     * wake-up (FIFO visibility, memory completion, rendezvous
     * fallback) or a wake edge from a component it reads; when every
     * stage sleeps, the clock jumps to the earliest wake-up (bounded
     * by host injection and the watchdog). Every statistic, histogram
     * and trace event is bit-identical to the every-stage,
     * every-cycle loop that false selects — the equivalence oracle;
     * --no-fast-forward in the benches.
     */
    bool fastForward = true;
    /** FPGA clock, for converting cycles to seconds (200 MHz). */
    double clockHz = 200e6;

    /**
     * Liveness subsystem for the speculative squash-retry path
     * (docs/liveness.md): exponential fallback backoff on retry
     * activations plus oldest-squashed-task line pinning, so every
     * legal configuration terminates in cycles proportional to work
     * instead of leaning on the deadlock watchdog. Config-file
     * spelling: spec.liveness.
     */
    bool specLiveness = true;
    /**
     * Backoff base: retry k of a non-oldest squashed task becomes
     * poppable only specBackoffBase * 2^(k-1) cycles after
     * re-activation (capped at 2^14 and at half the watchdog
     * window). Must be >= 1; spec.liveness = false disables the
     * subsystem entirely. Config-file spelling: spec.backoffBase.
     */
    uint64_t specBackoffBase = 4;
    /**
     * Pin the oldest squashed task's cache lines (and grant it the
     * reserve pin MSHR) until it commits or dies, guaranteeing
     * monotone progress under degenerate cache geometries. Requires
     * specLiveness. Config-file spelling: spec.pinOldest.
     */
    bool specPinOldest = true;

    /**
     * Host feeding: if hostBatch > 0, initial tasks are injected in
     * batches of hostBatch every hostInterval cycles (the SPEC-DMR /
     * COOR-LU "tasks sent from host" mode); otherwise all initial
     * tasks are present at cycle 0.
     */
    uint32_t hostBatch = 0;
    uint64_t hostInterval = 256;

    /**
     * Structured tracer: when non-null, stage firings, per-queue
     * depth series, and QPI busy intervals inside the tracer's own
     * cycle window are emitted as Chrome trace_event JSON (open in
     * chrome://tracing or Perfetto). Not owned.
     */
    ChromeTracer *tracer = nullptr;

    MemConfig mem;
};

/**
 * The AccelConfig knob table (accel.*, spec.*), in canonical-key
 * order; the nested MemConfig has its own, memKnobs(). The tracer is
 * not a knob.
 */
const std::vector<Knob<AccelConfig>> &accelKnobs();

/**
 * Reject configurations the model cannot simulate, with a diagnostic
 * naming the offending knob. Each knob must lie within its
 * accelKnobs() row bounds: zero-sized structural knobs would build an
 * accelerator that can only deadlock, and oversized ones would
 * exhaust memory or time before the first cycle. The cross-field
 * rules follow (the watchdog window, pinning needs liveness), and
 * the nested MemConfig is checked by
 * validateMemConfig. This is the one shared validation path: the
 * Accelerator constructor calls it for C++-built configs and the
 * scenario loader calls it for file-loaded ones.
 */
void validateAccelConfig(const AccelConfig &cfg);

} // namespace apir

#endif // APIR_HW_CONFIG_HH
