/**
 * @file
 * The benchmark's own path through one accelerator simulation: the
 * steps bench::runAccelerator performs (workload slice, BDFG build,
 * memory system and accelerator construction, run, verification, CPU
 * model, JSON emit), called one by one so each call sits in its own
 * span. Checkpoints have the benches' layout and checks: the config
 * and workload header sections, the machine sections written by the
 * components' own save/restore methods, and the application's
 * host-side state.
 */

#ifndef PERFBENCH_SIM_HH
#define PERFBENCH_SIM_HH

#include <cstdint>
#include <map>
#include <string>

#include "bench_common.hh"
#include "geometry/mesh.hh"
#include "sparse/block_sparse.hh"
#include "trace.hh"

namespace perfbench {

/** Every input one Fig. 9/10 pass simulates, generated up front. */
struct Inputs
{
    apir::bench::Workloads w; //!< road network and input sizes
    apir::Mesh mesh{0.0, 1.0};          //!< SPEC-DMR input
    apir::BlockSparseMatrix lu{1, 1};   //!< COOR-LU input
};

/** The workload seed number `i` derived from a run's seed. */
uint32_t derivedSeed(uint64_t seed, uint32_t i);

/** Generate the inputs of one pass (graph, geometry, sparse layers). */
Inputs makeInputs(double scale, uint32_t seed, Tracer &t);

/** Wall and CPU time accumulated over possibly disjoint intervals. */
class Stopwatch
{
  public:
    void start();
    void stop();
    double wall() const { return wall_; }
    double cpu() const { return cpu_; }

  private:
    double wall0_ = 0, cpu0_ = 0, wall_ = 0, cpu_ = 0;
};

/** CPU seconds this process has used. */
double processCpuSeconds();

enum class Ckpt { None, Save, Restore };

/** One simulation job. */
struct Job
{
    apir::bench::Bench bench = apir::bench::Bench::SpecBfs;
    apir::AccelConfig cfg;
    bool verify = false;
    /** false: the reference comparison is left out of the timing. */
    bool timeVerify = true;
    /** Fig. 9 columns: run the Xeon model on the run's work counts. */
    bool cpuModel = false;
    Ckpt ckpt = Ckpt::None;
    uint64_t saveCycle = 0; //!< Save: the warmup cycle
    std::string ckptPath;
};

/** Outcome of one job. A Save job stops at its checkpoint. */
struct JobResult
{
    apir::RunResult rr;
    bool verified = true; //!< false: output differs from the reference
    std::string json;     //!< the run's stats document, serialized
    uint64_t ckptBytes = 0;
    /** Restore: the busy stage-cycles the checkpoint carried in. */
    double busyBefore = 0;
};

/**
 * Run one job; `timed` must be running, and is paused around the
 * comparison with the sequential reference unless job.timeVerify.
 */
JobResult runJob(const Job &job, const Inputs &in, Tracer &t,
                 Stopwatch &timed);

/**
 * Simulated per-layer counts summed over runs: the public RunResult,
 * TickPerf and stats groups. Every value is deterministic.
 */
struct SimCounts
{
    std::map<std::string, double> sum;
    /** `busyBefore`: JobResult::busyBefore of a restored run. */
    void add(const apir::RunResult &rr, double busyBefore = 0);
    /** Derived ratios plus raw sums, keyed by metric name. */
    std::map<std::string, double> metrics() const;
    /** The unit of one of metrics()'s names. */
    static const char *unit(const std::string &name);
};

} // namespace perfbench

#endif // PERFBENCH_SIM_HH
