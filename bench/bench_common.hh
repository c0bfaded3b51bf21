/**
 * @file
 * Shared infrastructure for the paper-reproduction benches: standard
 * workloads (scaled by --scale), the app table and accelerator run
 * helpers for all six benchmarks, and wall-clock measurement utilities.
 */

#ifndef APIR_BENCH_BENCH_COMMON_HH
#define APIR_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/bfs.hh"
#include "config/loader.hh"
#include "apps/dmr.hh"
#include "apps/lu.hh"
#include "apps/mst.hh"
#include "apps/sssp.hh"
#include "checkpoint/ckpt.hh"
#include "cpumodel/xeon_model.hh"
#include "graph/generators.hh"
#include "hw/accelerator.hh"
#include "support/json.hh"
#include "support/str.hh"

namespace apir {
namespace bench {

/**
 * Checkpoint save/restore directives for one accelerator run
 * (docs/checkpointing.md). Prefixes name files PREFIX.<BENCH>.ckpt so
 * a bench that runs several benchmarks per invocation writes one file
 * each. Empty prefixes disable the corresponding direction.
 */
struct CheckpointOptions
{
    uint64_t saveCycle = 0;    //!< cycle at which the save hook fires
    /**
     * --checkpoint-save auto:PREFIX — pick the save cycle per run
     * instead of globally: runAccelerator first runs the simulation
     * cold to learn its drain cycle, then re-runs it saving at 3/4 of
     * that. Costs one extra run per save, but yields a warmup point
     * proportional to each benchmark's own length — the property the
     * fig10 warmup-amortization sweep needs, where a single global
     * cycle is capped by the shortest benchmark.
     */
    bool saveAuto = false;
    std::string savePrefix;    //!< --checkpoint-save CYCLE:PREFIX
    std::string restorePrefix; //!< --checkpoint-restore PREFIX

    bool
    any() const
    {
        return !savePrefix.empty() || !restorePrefix.empty();
    }
};

/** Command-line options common to all benches. */
struct Options
{
    double scale = 1.0;    //!< workload size multiplier
    uint32_t seed = 42;    //!< --seed: workload generator seed
    std::string statsJson; //!< --stats-json: structured-results path
    unsigned threads = 0;  //!< --threads: sweep workers (0 = all cores)
    /**
     * --no-fast-forward: run the accelerator strictly one cycle at a
     * time. The event-driven fast-forward is bit-identical by
     * contract, so this is an escape hatch for validating that claim
     * (CI diffs the two stats outputs) and for debugging the wake
     * computation itself.
     */
    bool fastForward = true;
    /**
     * --bandwidth-scale: QPI bandwidth multiplier applied to the base
     * configuration. Benches that sweep bandwidth themselves (fig10)
     * multiply their sweep points by this base, so values < 1 shift
     * the whole sweep into the memory-bound regime.
     */
    double bandwidthScale = 1.0;
    /**
     * --config: declarative scenario file (see docs/configs.md).
     * Parsed and validated by parseOptions; the loaded machine knobs
     * become the base configuration defaultAccelConfig(opt) returns,
     * and a [workload] scale in the file applies unless --scale was
     * given explicitly on the command line.
     */
    std::string configFile;
    /** --set section.key=value overrides, applied after --config. */
    std::vector<std::string> sets;
    /** The loaded scenario when --config/--set were given. */
    std::optional<Scenario> scenario;
    /** --checkpoint-save / --checkpoint-restore directives. */
    CheckpointOptions ckpt;
};

/**
 * Parse the shared bench flags (--scale, --stats-json, --threads,
 * --no-fast-forward, --bandwidth-scale, --config, --set). Both
 * "--flag value" and "--flag=value" spellings are accepted. Unknown
 * flags are fatal — a typoed flag must not silently drop output —
 * and numeric values are parsed strictly: "--scale 2x" is a parse
 * error, not a silent 2.0.
 */
Options parseOptions(int argc, char **argv);

/** Wall-clock seconds of fn (best of `reps`). */
double timeSeconds(const std::function<void()> &fn, int reps = 3);

/** The standard Figure 9/10 workloads at a given scale. */
struct Workloads
{
    CsrGraph road;            //!< BFS / SSSP / MST input (USA stand-in)
    uint32_t meshPoints = 0;  //!< DMR input size
    uint32_t luBlocks = 0;    //!< LU block rows
    uint32_t luBlockSize = 0;
    double luDensity = 0.0;
    /**
     * RNG seed the generators were (and, for the mesh / LU inputs
     * drawn inside runAccelerator, will be) fed. Workloads are pure
     * functions of (scale, seed) — the property the apird workload
     * cache is built on.
     */
    uint32_t seed = 42;
    /**
     * The scale the generators were fed, recorded so checkpoint
     * metadata can pin the exact (scale, seed) identity a restore must
     * rebuild from.
     */
    double scale = 1.0;
};

Workloads makeWorkloads(double scale, uint32_t seed = 42);

/** One simulated-accelerator run, generically. */
struct AccelRun
{
    double seconds = 0.0; //!< simulated time at 200 MHz
    RunResult rr;
    /** Work executed, for the Xeon timing model (Figure 9). */
    WorkCounts work;
};

/** Benchmark ids in paper order. */
enum class Bench
{
    SpecBfs,
    CoorBfs,
    SpecSssp,
    SpecMst,
    SpecDmr,
    CoorLu,
};

/**
 * The host state an app's commit lambdas mutate, as one generic
 * `[](auto &ar)` field list for both checkpoint archives; empty when
 * all state lives in device memory.
 */
struct HostState
{
    HostState() = default;
    template <typename Fn>
    explicit HostState(Fn fn) : save(fn), restore(fn) {}

    std::function<void(ckpt::Writer &)> save = [](ckpt::Writer &) {};
    std::function<void(ckpt::Reader &)> restore = [](ckpt::Reader &) {};
};

/**
 * One benchmark built on a MemorySystem. It owns the spec and the host
 * state its commit lambdas mutate, so it must outlive the Accelerator
 * that runs it (which keeps the spec by reference).
 */
class App
{
  public:
    virtual ~App() = default;
    virtual const AcceleratorSpec &spec() const = 0;
    virtual HostState hostState() const { return {}; }
    /** Whether the finished run matches the sequential reference. */
    virtual bool verify(const Workloads &w,
                        const MemorySystem &mem) const = 0;
    /** The finished run's work, for the Xeon model (Figure 9). */
    virtual WorkCounts work(const Workloads &w,
                            const MemorySystem &mem) const = 0;
};

/**
 * One row of the app table: what sets a benchmark apart
 * (docs/parallel-runner.md, "Adding a benchmark"). Rows follow
 * kAllBenches order.
 */
struct AppRow
{
    Bench bench;
    const char *name; //!< paper name, also apird's "app" value
    /** Host-fed like the paper's DMR and LU: unset hostBatch -> 16/64. */
    bool hostFed;
    std::unique_ptr<App> (*build)(const Workloads &w, MemorySystem &mem);
    /**
     * Seconds of the native sequential reference Fig. 9 prints, input
     * built outside the timed region.
     */
    double (*sequential)(const Workloads &w);
};

const AppRow &appRow(Bench b);

const char *benchName(Bench b);

/** "SPEC-BFS, COOR-BFS, ... or COOR-LU", for error messages. */
std::string benchNameList();

/**
 * Inverse of benchName ("SPEC-BFS" -> Bench::SpecBfs); nullopt for
 * unrecognized names. The apird wire protocol addresses benchmarks by
 * these paper names.
 */
std::optional<Bench> benchFromName(const std::string &name);

/**
 * Build and run the accelerator for one benchmark on the standard
 * workload, as its app-table row says. When `ck` carries a restore
 * prefix the machine is rebuilt from (bench, scale, seed, cfg), the
 * serialized dynamic state is overlaid, and the run resumes from the
 * saved cycle; when it carries a save prefix the full machine + host
 * state is written to PREFIX.<BENCH>.ckpt at the scheduled cycle.
 */
AccelRun runAccelerator(Bench b, const Workloads &w, AccelConfig cfg,
                        bool verify = false,
                        const CheckpointOptions &ck = {});

/** The checkpoint file a run of benchmark `b` reads or writes. */
std::string checkpointPath(const std::string &prefix, Bench b);

/**
 * Fatal unless `opt` carries no checkpoint directives: benches that
 * never forward opt.ckpt into runAccelerator call this right after
 * parseOptions so --checkpoint-* is rejected instead of silently
 * ignored (the same contract as unknown flags).
 */
void requireNoCheckpoint(const Options &opt, const char *bench);

/** One independent simulation in a sweep. */
struct SweepJob
{
    Bench bench = Bench::SpecBfs;
    AccelConfig cfg;
    bool verify = false;
    CheckpointOptions ckpt;
};

/**
 * Run every job (each an independent runAccelerator call owning its
 * own MemorySystem, Accelerator, and StatRegistry) on up to `threads`
 * workers (0 = hardware concurrency) and return results in submission
 * order. Results are bit-identical to a serial run regardless of the
 * thread count. Jobs may not carry a tracer (cfg.tracer) when
 * threads > 1: it is not synchronized.
 */
std::vector<AccelRun> runSweep(const std::vector<SweepJob> &jobs,
                               const Workloads &w, unsigned threads);

/** Default accelerator configuration used by the benches. */
AccelConfig defaultAccelConfig();

/** Default configuration with the shared bench flags applied. */
AccelConfig defaultAccelConfig(const Options &opt);

/** All six benchmarks in paper order. */
inline constexpr Bench kAllBenches[] = {
    Bench::SpecBfs, Bench::CoorBfs,  Bench::SpecSssp,
    Bench::SpecMst, Bench::SpecDmr,  Bench::CoorLu,
};

/**
 * JSON for one accelerator run: summary scalars plus every
 * per-component statistic group (cache/QPI, queues, rule engines,
 * stage-kind breakdown) under "stats". Benches append identifying
 * labels (benchmark name, knob values) to the returned object.
 */
JsonValue runToJson(const AccelRun &run);

/**
 * Write the standard stats document
 * {"bench": ..., "scale": ..., "runs": [...]} to opt.statsJson.
 * No-op when --stats-json was not given. When `w` is given a
 * "workload" object records the generated input sizes (road vertices
 * and edges, mesh points, LU blocks, seed) so downstream tools can
 * express budgets per unit of input instead of as fixed constants.
 */
void maybeWriteStatsJson(const Options &opt, const std::string &bench,
                         const JsonValue &runs,
                         const Workloads *w = nullptr);

} // namespace bench
} // namespace apir

#endif // APIR_BENCH_BENCH_COMMON_HH
