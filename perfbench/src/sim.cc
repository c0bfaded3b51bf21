#include "sim.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>

#include "checkpoint/ckpt.hh"
#include "config/canonical.hh"
#include "support/logging.hh"

namespace perfbench {

using namespace apir;
using bench::Bench;

uint32_t
derivedSeed(uint64_t seed, uint32_t i)
{
    // splitmix64: neighbouring run seeds give unrelated inputs.
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<uint32_t>((z ^ (z >> 31)) >> 32);
}

Inputs
makeInputs(double scale, uint32_t seed, Tracer &t)
{
    Inputs in;
    in.w = traced(t, "graph.gen:makeWorkloads",
                  [&] { return bench::makeWorkloads(scale, seed); });
    // The seeds runAccelerator feeds these generators.
    in.mesh = traced(t, "geometry.gen:randomDelaunayMesh", [&] {
        return randomDelaunayMesh(in.w.meshPoints, in.w.seed);
    });
    in.lu = traced(t, "sparse.gen:randomBlockSparse", [&] {
        return randomBlockSparse(in.w.luBlocks, in.w.luBlockSize,
                                 in.w.luDensity, in.w.seed);
    });
    return in;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

void
Stopwatch::start()
{
    wall0_ = nowSeconds();
    cpu0_ = processCpuSeconds();
}

void
Stopwatch::stop()
{
    wall_ += nowSeconds() - wall0_;
    cpu_ += processCpuSeconds() - cpu0_;
}

namespace {

/** Thrown by the save hook: a warmup run ends at its checkpoint. */
struct WarmupSaved
{
};

/** The application's host-side state a checkpoint must carry. */
struct HostState
{
    std::function<void(ckpt::Writer &)> save = [](ckpt::Writer &) {};
    std::function<void(ckpt::Reader &)> restore = [](ckpt::Reader &) {};
};

/** Sorted by serial so the file does not depend on hash order. */
template <typename V>
void
saveProduced(ckpt::Writer &w,
             const std::unordered_map<uint64_t, std::vector<V>> &m)
{
    std::vector<uint64_t> keys;
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (uint64_t k : keys) {
        w.u64(k);
        w.vecPod(m.at(k));
    }
}

template <typename V>
void
restoreProduced(ckpt::Reader &r,
                std::unordered_map<uint64_t, std::vector<V>> &m)
{
    m.clear();
    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t k = r.u64();
        m[k] = r.vecPod<V>();
    }
}

/** Verification: a span, and paused timing unless it is timed. */
class VerifyScope
{
  public:
    VerifyScope(Tracer &t, const char *name, Stopwatch &timed,
                bool timeIt)
        : timed_(timed), paused_(!timeIt)
    {
        if (paused_)
            timed_.stop();
        span_.emplace(t, name);
    }
    ~VerifyScope()
    {
        span_.reset();
        if (paused_)
            timed_.start();
    }

  private:
    Stopwatch &timed_;
    bool paused_;
    std::optional<Span> span_;
};

/**
 * The header sections bench::wireCheckpoint writes: the machine's
 * structural and canonical config keys, then the workload identity.
 */
void
saveHeader(ckpt::Writer &w, const AccelConfig &cfg, Bench b,
           const bench::Workloads &wl)
{
    w.begin("ckpt.config");
    w.str(configStructuralKey(cfg));
    w.str(configCanonicalKey(cfg));
    w.end();
    w.begin("ckpt.meta");
    w.str(bench::benchName(b));
    w.str(canonicalDouble(wl.scale));
    w.u32(wl.seed);
    w.end();
}

/** Read the header sections and make wireCheckpoint's checks. */
void
checkHeader(ckpt::Reader &r, const std::string &path,
            const AccelConfig &cfg, Bench b, const bench::Workloads &wl)
{
    r.begin("ckpt.config");
    std::string structural = r.str();
    std::string canonical = r.str();
    r.end();
    if (structural != configStructuralKey(cfg))
        fatal("checkpoint: ", path, " was saved on a structurally "
              "different machine");
    // Timing knobs such as the bandwidth scale may differ: a warmup
    // checkpoint serves every point of a bandwidth sweep.
    if (canonical != configCanonicalKey(cfg))
        warn("checkpoint: ", path, " was saved under different "
             "timing knobs");
    r.begin("ckpt.meta");
    std::string name = r.str();
    std::string scale = r.str();
    uint32_t seed = r.u32();
    r.end();
    if (name != bench::benchName(b))
        fatal("checkpoint: ", path, " holds a ", name, " run, not ",
              bench::benchName(b));
    if (scale != canonicalDouble(wl.scale) || seed != wl.seed)
        fatal("checkpoint: ", path, " was saved at workload scale=",
              scale, " seed=", seed, ", not scale=",
              canonicalDouble(wl.scale), " seed=", wl.seed);
}

/** Sum of the stage cycles of one kind ("busy", "stall", "idle"). */
double
stageCycles(const std::vector<StatGroup> &groups, const char *kind)
{
    std::string suffix = std::string(".") + kind;
    double total = 0;
    for (const StatGroup &g : groups) {
        if (g.name() != "stages")
            continue;
        for (const auto &[key, val] : g.values())
            if (key.size() > suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0)
                total += val;
    }
    return total;
}

/** Construct, checkpoint-wire and run one accelerator. */
RunResult
simulate(const Job &job, const bench::Workloads &wl,
         const AcceleratorSpec &spec, const AccelConfig &cfg,
         MemorySystem &mem, const HostState &host, Tracer &t,
         JobResult &out)
{
    auto accel = traced(t, "hw.construct:Accelerator", [&] {
        return std::make_unique<Accelerator>(spec, cfg, mem);
    });
    if (job.ckpt == Ckpt::Restore) {
        Span s(t, "checkpoint.restore:ckpt::Reader");
        ckpt::Reader r(job.ckptPath);
        checkHeader(r, job.ckptPath, cfg, job.bench, wl);
        accel->ckptRestore(r);
        r.begin("host.state");
        host.restore(r);
        r.end();
        if (!r.atEnd())
            fatal("checkpoint ", job.ckptPath, " has trailing data");
        out.busyBefore = stageCycles(accel->stats().snapshot(), "busy");
    } else if (job.ckpt == Ckpt::Save) {
        accel->scheduleCheckpointSave(job.saveCycle, [&] {
            {
                Span s(t, "checkpoint.save:ckpt::Writer");
                ckpt::Writer w;
                saveHeader(w, cfg, job.bench, wl);
                accel->ckptSave(w);
                w.begin("host.state");
                host.save(w);
                w.end();
                w.finish(job.ckptPath);
            }
            out.ckptBytes = std::filesystem::file_size(job.ckptPath);
            throw WarmupSaved{};
        });
    }
    Span s(t, "hw.run:Accelerator::run");
    try {
        return accel->run();
    } catch (const WarmupSaved &) {
        return {};
    }
}

} // namespace

JobResult
runJob(const Job &job, const Inputs &in, Tracer &t, Stopwatch &timed)
{
    setQuietLogging(true);
    JobResult out;
    const bench::Workloads &w = in.w;
    const Bench b = job.bench;
    AccelConfig cfg = job.cfg;
    WorkCounts work;
    auto mem = traced(t, "hw.construct:MemorySystem", [&] {
        return std::make_unique<MemorySystem>(cfg.mem);
    });
    const bool saving = job.ckpt == Ckpt::Save;
    // Only the comparison with the sequential reference is paused;
    // whatever runAccelerator computes for its work counts is timed.
    auto verify = [&](const char *name, const std::function<bool()> &ok) {
        if (!job.verify)
            return;
        VerifyScope v(t, name, timed, job.timeVerify);
        out.verified = ok();
    };

    // Each case mirrors bench::runAccelerator's, including the work
    // counts the Xeon model is fed.
    switch (b) {
      case Bench::SpecBfs:
      case Bench::CoorBfs: {
        BfsAccel app = b == Bench::SpecBfs
            ? traced(t, "apps.build:buildSpecBfs",
                     [&] { return buildSpecBfs(w.road, 0, *mem); })
            : traced(t, "apps.build:buildCoorBfs",
                     [&] { return buildCoorBfs(w.road, 0, *mem); });
        out.rr = simulate(job, w, app.spec, cfg, *mem, {}, t, out);
        if (saving)
            return out;
        std::vector<uint32_t> levels = readLevels(app.img, *mem);
        verify("apps.verify:bfsSequential",
               [&] { return levels == bfsSequential(w.road, 0); });
        uint32_t depth = 0;
        for (uint32_t l : levels)
            if (l != kInfDistance)
                depth = std::max(depth, l);
        double n = w.road.numVertices();
        double m = static_cast<double>(w.road.numEdges());
        work.instructions = 25.0 * (n + m);
        work.randomAccesses = m + n;
        work.streamedBytes = (2.0 * m + 2.0 * n) * 8.0;
        work.serialFraction = 0.02;
        work.rounds = depth;
        break;
      }
      case Bench::SpecSssp: {
        auto app = traced(t, "apps.build:buildSpecSssp",
                          [&] { return buildSpecSssp(w.road, 0, *mem); });
        out.rr = simulate(job, w, app.spec, cfg, *mem, {}, t, out);
        if (saving)
            return out;
        verify("apps.verify:ssspSequential", [&] {
            return readDistances(app.img, *mem) ==
                   ssspSequential(w.road, 0);
        });
        // runAccelerator runs the reference again for the work counts.
        std::vector<uint32_t> dist = ssspSequential(w.road, 0);
        double n = w.road.numVertices();
        double m = static_cast<double>(w.road.numEdges());
        uint32_t maxDist = 0;
        for (uint32_t d : dist)
            if (d != kInfDistance)
                maxDist = std::max(maxDist, d);
        double relax = 2.0 * m;
        work.instructions = 50.0 * relax;
        work.randomAccesses = 2.0 * relax;
        work.streamedBytes = (relax + n + 2.0 * m) * 8.0;
        work.serialFraction = 0.02;
        work.rounds = maxDist >> 8;
        break;
      }
      case Bench::SpecMst: {
        auto app = traced(t, "apps.build:buildSpecMst",
                          [&] { return buildSpecMst(w.road, *mem); });
        MstState *st = app.state.get();
        HostState host;
        host.save = [st](ckpt::Writer &wr) {
            wr.vecPod(st->parent);
            wr.u64(st->nextTicket);
            wr.u64(st->result.totalWeight);
            wr.u64(st->result.edgesInTree);
        };
        host.restore = [st](ckpt::Reader &r) {
            st->parent = r.vecPod<uint32_t>();
            st->nextTicket = r.u64();
            st->result.totalWeight = r.u64();
            st->result.edgesInTree = r.u64();
        };
        out.rr = simulate(job, w, app.spec, cfg, *mem, host, t, out);
        if (saving)
            return out;
        verify("apps.verify:mstSequential", [&] {
            return st->result.totalWeight ==
                   mstSequential(w.road).totalWeight;
        });
        double m = static_cast<double>(app.spec.initial.size());
        work.instructions =
            60.0 * m * std::log2(std::max(2.0, m)) + 60.0 * m;
        work.randomAccesses = 8.0 * m;
        work.streamedBytes = 3.0 * m * 8.0;
        work.serialFraction = 0.30;
        work.rounds = static_cast<uint64_t>(m) / 64;
        break;
      }
      case Bench::SpecDmr: {
        if (cfg.hostBatch == 0) {
            cfg.hostBatch = 16;
            cfg.hostInterval = 64;
        }
        RefineParams params;
        Mesh mesh = in.mesh;
        auto app = traced(t, "apps.build:buildSpecDmr", [&] {
            return buildSpecDmr(std::move(mesh), params, *mem);
        });
        DmrState *st = app.state.get();
        HostState host;
        // Field-wise: Triangle has padding after its bool.
        host.save = [st](ckpt::Writer &wr) {
            wr.vecPod(st->mesh.points());
            wr.u64(st->mesh.triangles().size());
            for (const Triangle &tri : st->mesh.triangles()) {
                for (int k = 0; k < 3; ++k)
                    wr.u32(tri.v[k]);
                for (int k = 0; k < 3; ++k)
                    wr.u32(tri.nbr[k]);
                wr.b(tri.alive);
            }
            wr.u64(st->applied);
            saveProduced(wr, st->produced);
        };
        host.restore = [st](ckpt::Reader &r) {
            auto points = r.vecPod<Point>();
            std::vector<Triangle> tris(r.u64());
            for (Triangle &tri : tris) {
                for (int k = 0; k < 3; ++k)
                    tri.v[k] = r.u32();
                for (int k = 0; k < 3; ++k)
                    tri.nbr[k] = r.u32();
                tri.alive = r.b();
            }
            st->mesh.restoreTopology(std::move(points), std::move(tris));
            st->applied = r.u64();
            restoreProduced(r, st->produced);
        };
        out.rr = simulate(job, w, app.spec, cfg, *mem, host, t, out);
        if (saving)
            return out;
        verify("apps.verify:summarizeMesh", [&] {
            return summarizeMesh(st->mesh, params, st->applied)
                       .remainingBad == 0;
        });
        double refinements = static_cast<double>(st->applied);
        work.instructions = 2000.0 * refinements;
        work.randomAccesses = 40.0 * refinements;
        work.streamedBytes = 500.0 * refinements;
        work.serialFraction = 0.10;
        work.rounds = st->applied / 40 + 1;
        break;
      }
      case Bench::CoorLu: {
        if (cfg.hostBatch == 0) {
            cfg.hostBatch = 16;
            cfg.hostInterval = 64;
        }
        BlockSparseMatrix a = in.lu;
        BlockSparseMatrix ref = in.lu;
        auto app = traced(t, "apps.build:buildCoorLu", [&] {
            return buildCoorLu(std::move(a), *mem);
        });
        LuState *st = app.state.get();
        HostState host;
        host.save = [st](ckpt::Writer &wr) {
            wr.u32(st->a.numBlockRows());
            wr.u32(st->a.blockSize());
            auto coords = st->a.structure();
            wr.u64(coords.size());
            for (auto [i, j] : coords) {
                wr.u32(i);
                wr.u32(j);
                wr.vecPod(st->a.block(i, j).data());
            }
            wr.vecPod(st->trsmLeft);
            wr.vecPod(st->gemmLeft);
            wr.u64(st->ops.factor);
            wr.u64(st->ops.trsm);
            wr.u64(st->ops.gemm);
            saveProduced(wr, st->produced);
        };
        host.restore = [st](ckpt::Reader &r) {
            uint32_t n = r.u32();
            uint32_t bsize = r.u32();
            if (n != st->a.numBlockRows() || bsize != st->a.blockSize())
                fatal("checkpoint: saved LU matrix has ", n,
                      " block rows of ", bsize, ", not ",
                      st->a.numBlockRows(), " of ", st->a.blockSize());
            // Fill-in blocks appear during the run: rebuild the set.
            BlockSparseMatrix fresh(n, bsize);
            uint64_t count = r.u64();
            for (uint64_t k = 0; k < count; ++k) {
                uint32_t i = r.u32();
                uint32_t j = r.u32();
                fresh.block(i, j).data() = r.vecPod<double>();
            }
            st->a = std::move(fresh);
            st->trsmLeft = r.vecPod<uint32_t>();
            st->gemmLeft = r.vecPod<uint32_t>();
            st->ops.factor = r.u64();
            st->ops.trsm = r.u64();
            st->ops.gemm = r.u64();
            restoreProduced(r, st->produced);
        };
        out.rr = simulate(job, w, app.spec, cfg, *mem, host, t, out);
        if (saving)
            return out;
        verify("apps.verify:sparseLuSequential", [&] {
            sparseLuSequential(ref);
            return st->a.maxDiff(ref) <= 1e-9;
        });
        const LuOpCounts &ops = st->ops;
        double bs3 = std::pow(w.luBlockSize, 3.0);
        double bs2 = std::pow(w.luBlockSize, 2.0);
        work.flops = 2.0 * bs3 * static_cast<double>(ops.gemm) +
                     bs3 * static_cast<double>(ops.trsm) +
                     0.67 * bs3 * static_cast<double>(ops.factor);
        work.instructions = 500.0 * static_cast<double>(ops.total());
        work.randomAccesses = 10.0 * static_cast<double>(ops.total());
        work.streamedBytes = 8.0 * bs2 *
                             (3.0 * static_cast<double>(ops.gemm) +
                              2.0 * static_cast<double>(ops.trsm) +
                              static_cast<double>(ops.factor));
        work.serialFraction = 0.05;
        work.rounds = 3ull * w.luBlocks;
        break;
      }
    }

    double xeon1 = 0.0, xeon10 = 0.0;
    if (job.cpuModel) {
        Span s(t, "cpumodel:xeonTime");
        XeonParams xeon;
        xeon1 = xeonTime(work, xeon, 1);
        xeon10 = xeonTime(work, xeon, 10);
    }
    JsonValue doc = traced(t, "support.emit:runToJson", [&] {
        bench::AccelRun run;
        run.seconds = out.rr.seconds;
        run.rr = out.rr;
        run.work = work;
        JsonValue j = bench::runToJson(run);
        j.set("benchmark", JsonValue::str(bench::benchName(b)));
        if (job.cpuModel) {
            j.set("xeon_1c_seconds", JsonValue::number(xeon1));
            j.set("xeon_10c_seconds", JsonValue::number(xeon10));
            j.set("speedup_1c", JsonValue::number(xeon1 / run.seconds));
            j.set("speedup_10c", JsonValue::number(xeon10 / run.seconds));
        }
        return j;
    });
    out.json = traced(t, "support.emit:JsonValue::dump",
                      [&] { return doc.dump(); });
    return out;
}

void
SimCounts::add(const RunResult &rr, double busyBefore)
{
    auto &s = sum;
    s["cycles"] += static_cast<double>(rr.cycles);
    s["sim_cycles"] += static_cast<double>(rr.cycles - rr.startCycle);
    s["ticks"] += static_cast<double>(rr.tickPerf.ticks);
    s["stage_visits"] += static_cast<double>(rr.tickPerf.stageVisits);
    s["skipped_cycles"] += static_cast<double>(rr.tickPerf.skippedCycles);
    s["wake_recomputes"] +=
        static_cast<double>(rr.tickPerf.wakeRecomputes);
    s["arena_allocs"] += static_cast<double>(rr.tickPerf.arenaAllocs);
    s["squashed"] += static_cast<double>(rr.squashed);
    s["tasks_executed"] += static_cast<double>(rr.tasksExecuted);
    for (const StatGroup &g : rr.groups) {
        if (g.name() == "mem") {
            for (const char *k : {"cache_hits", "cache_misses", "qpi_bytes",
                                  "qpi_busy_cycles", "mshr_rejects"})
                s[k] += g.get(k);
        } else if (g.name() == "liveness") {
            s["squash_retries"] += g.get("squash_retries");
        }
    }
    for (const char *kind : {"busy", "stall", "idle"})
        s[std::string("stage_") + kind] += stageCycles(rr.groups, kind);
    // The run's own busy cycles, which its stage visits produced: a
    // restored run's stats also count its warmup.
    s["run_busy"] += stageCycles(rr.groups, "busy") - busyBefore;
}

std::map<std::string, double>
SimCounts::metrics() const
{
    auto get = [&](const char *k) {
        auto it = sum.find(k);
        return it == sum.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double allStage =
        get("stage_busy") + get("stage_stall") + get("stage_idle");
    return {
        {"hw.sim_cycles", get("sim_cycles")},
        {"hw.ticks", get("ticks")},
        {"hw.stage_visits", get("stage_visits")},
        {"hw.visits_per_tick", ratio(get("stage_visits"), get("ticks"))},
        {"hw.useful_visit_ratio",
         ratio(get("run_busy"), get("stage_visits"))},
        {"hw.wake_recomputes", get("wake_recomputes")},
        {"hw.arena_allocs", get("arena_allocs")},
        {"hw.skipped_cycle_ratio",
         ratio(get("skipped_cycles"), get("sim_cycles"))},
        {"mem.cache_hit_ratio",
         ratio(get("cache_hits"), get("cache_hits") + get("cache_misses"))},
        {"mem.qpi_bytes", get("qpi_bytes")},
        {"mem.qpi_busy_frac", ratio(get("qpi_busy_cycles"), get("cycles"))},
        {"mem.mshr_rejects", get("mshr_rejects")},
        {"stages.busy_frac", ratio(get("stage_busy"), allStage)},
        {"stages.stall_frac", ratio(get("stage_stall"), allStage)},
        {"stages.idle_frac", ratio(get("stage_idle"), allStage)},
        {"liveness.squash_retries", get("squash_retries")},
        {"accel.squashed", get("squashed")},
        {"accel.tasks_executed", get("tasks_executed")},
    };
}

const char *
SimCounts::unit(const std::string &name)
{
    auto has = [&](const char *part) {
        return name.find(part) != std::string::npos;
    };
    return has("per_tick")               ? "visits/tick"
           : has("bytes")                ? "B"
           : has("ratio") || has("frac") ? "ratio"
                                         : "count";
}

} // namespace perfbench
