#include "bench_common.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "checkpoint/ckpt.hh"
#include "config/canonical.hh"
#include "config/strict_num.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace apir {
namespace bench {

namespace {

const char kUsage[] =
    "supported flags: --scale <f>  --seed <n>  --stats-json <path>  "
    "--threads <n>  --no-fast-forward  --bandwidth-scale <f>  "
    "--config <file>  --set <section.key=value>  "
    "--checkpoint-save <cycle|auto>:<prefix>  "
    "--checkpoint-restore <prefix>";

/**
 * One command-line flag, normalized so "--flag value" and
 * "--flag=value" are interchangeable for every value-taking flag.
 */
class FlagCursor
{
  public:
    FlagCursor(int argc, char **argv) : argc_(argc), argv_(argv) {}

    bool
    next()
    {
        if (++i_ >= argc_)
            return false;
        std::string arg = argv_[i_];
        inline_.reset();
        name_ = arg;
        if (arg.rfind("--", 0) == 0) {
            size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                name_ = arg.substr(0, eq);
                inline_ = arg.substr(eq + 1);
            }
        }
        return true;
    }

    /** The flag name, with any "=value" suffix stripped. */
    const std::string &name() const { return name_; }

    /** The flag's value; fatal when missing. */
    std::string
    value()
    {
        if (inline_)
            return *inline_;
        if (i_ + 1 >= argc_)
            fatal(name_, " requires a value; ", kUsage);
        return argv_[++i_];
    }

    /** Reject "--flag=value" spellings of valueless flags. */
    void
    noValue() const
    {
        if (inline_)
            fatal(name_, " does not take a value; ", kUsage);
    }

  private:
    int argc_;
    char **argv_;
    int i_ = 0;
    std::string name_;
    std::optional<std::string> inline_;
};

/** Strictly parse a numeric flag value; malformed input is fatal. */
double
doubleFlag(const std::string &flag, const std::string &v)
{
    auto d = parseStrictDouble(v);
    if (!d)
        fatal(flag, ": '", v, "' is not a number (strict parse: "
              "trailing junk such as '2x' is rejected)");
    return *d;
}

uint64_t
unsignedFlag(const std::string &flag, const std::string &v)
{
    auto n = parseStrictU64(v);
    if (!n)
        fatal(flag, ": '", v, "' is not an unsigned integer (strict "
              "parse: trailing junk is rejected)");
    return *n;
}

} // namespace

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool scaleSet = false;
    FlagCursor cur(argc, argv);
    while (cur.next()) {
        const std::string &flag = cur.name();
        if (flag == "--scale") {
            opt.scale = doubleFlag(flag, cur.value());
            if (opt.scale <= 0.0)
                fatal("--scale must be positive");
            scaleSet = true;
        } else if (flag == "--seed") {
            uint64_t n = unsignedFlag(flag, cur.value());
            if (n > 0xffffffffull)
                fatal("--seed must fit in 32 bits");
            opt.seed = static_cast<uint32_t>(n);
        } else if (flag == "--stats-json") {
            opt.statsJson = cur.value();
        } else if (flag == "--checkpoint-save") {
            std::string v = cur.value();
            size_t colon = v.find(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= v.size())
                fatal("--checkpoint-save expects <cycle>:<prefix> or "
                      "auto:<prefix> (e.g. 50000:warm), got '", v, "'");
            std::string cyc = v.substr(0, colon);
            if (cyc == "auto")
                opt.ckpt.saveAuto = true;
            else
                opt.ckpt.saveCycle = unsignedFlag(flag, cyc);
            opt.ckpt.savePrefix = v.substr(colon + 1);
        } else if (flag == "--checkpoint-restore") {
            opt.ckpt.restorePrefix = cur.value();
        } else if (flag == "--threads") {
            uint64_t n = unsignedFlag(flag, cur.value());
            if (n < 1)
                fatal("--threads must be >= 1");
            opt.threads = static_cast<unsigned>(n);
        } else if (flag == "--no-fast-forward") {
            cur.noValue();
            opt.fastForward = false;
        } else if (flag == "--bandwidth-scale") {
            opt.bandwidthScale = doubleFlag(flag, cur.value());
            if (opt.bandwidthScale <= 0.0)
                fatal("--bandwidth-scale must be positive");
        } else if (flag == "--config") {
            opt.configFile = cur.value();
        } else if (flag == "--set") {
            opt.sets.push_back(cur.value());
        } else {
            // A typo like --stat-json must not silently drop output.
            fatal("unknown argument '", flag, "'; ", kUsage);
        }
    }

    if (!opt.configFile.empty() || !opt.sets.empty()) {
        // Load onto the compiled-in bench defaults so a scenario
        // only has to name the knobs it changes; the loader routes
        // the result through validateAccelConfig.
        opt.scenario = loadScenarioFile(opt.configFile,
                                        defaultAccelConfig(),
                                        opt.sets);
        // An explicit --scale beats the file's [workload] scale (CI
        // smoke-sweeps the corpus at tiny scale this way).
        if (opt.scenario->hasScale && !scaleSet)
            opt.scale = opt.scenario->scale;
    }
    return opt;
}

JsonValue
runToJson(const AccelRun &run)
{
    JsonValue j = JsonValue::object();
    j.set("cycles", JsonValue::number(
                        static_cast<double>(run.rr.cycles)));
    j.set("seconds", JsonValue::number(run.seconds));
    j.set("utilization", JsonValue::number(run.rr.utilization));
    j.set("tasks_executed",
          JsonValue::number(static_cast<double>(run.rr.tasksExecuted)));
    j.set("tasks_activated",
          JsonValue::number(static_cast<double>(run.rr.tasksActivated)));
    j.set("squashed",
          JsonValue::number(static_cast<double>(run.rr.squashed)));

    JsonValue stats = JsonValue::object();
    for (const StatGroup &g : run.rr.groups) {
        JsonValue comp = JsonValue::object();
        for (const auto &[key, val] : g.values())
            comp.set(key, JsonValue::number(val));
        stats.set(g.name(), std::move(comp));
    }
    j.set("stats", std::move(stats));
    return j;
}

void
maybeWriteStatsJson(const Options &opt, const std::string &bench,
                    const JsonValue &runs, const Workloads *w)
{
    if (opt.statsJson.empty())
        return;
    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::str(bench));
    doc.set("scale", JsonValue::number(opt.scale));
    if (w) {
        JsonValue wl = JsonValue::object();
        wl.set("road_vertices",
               JsonValue::number(w->road.numVertices()));
        wl.set("road_edges", JsonValue::number(
                                 static_cast<double>(w->road.numEdges())));
        wl.set("mesh_points", JsonValue::number(w->meshPoints));
        wl.set("lu_blocks", JsonValue::number(w->luBlocks));
        wl.set("lu_block_size", JsonValue::number(w->luBlockSize));
        wl.set("seed", JsonValue::number(w->seed));
        doc.set("workload", std::move(wl));
    }
    doc.set("runs", runs);
    std::ofstream os(opt.statsJson);
    if (!os)
        fatal("cannot open ", opt.statsJson, " for writing");
    doc.write(os, 0);
    os << "\n";
}

double
timeSeconds(const std::function<void()> &fn, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

Workloads
makeWorkloads(double scale, uint32_t seed)
{
    Workloads w;
    w.seed = seed;
    w.scale = scale;
    // Sized so working sets exceed the 64 KB device cache by an
    // order of magnitude: the paper's evaluation is memory-bound.
    auto dim = static_cast<uint32_t>(96 * std::sqrt(scale));
    w.road = roadNetwork(dim, dim, 0.08, 0.05, 1000, seed);
    w.meshPoints = static_cast<uint32_t>(1200 * scale);
    w.luBlocks = static_cast<uint32_t>(24 * std::sqrt(scale));
    w.luBlockSize = 16;
    w.luDensity = 0.3;
    return w;
}

namespace {

BlockSparseMatrix
luInput(const Workloads &w)
{
    return randomBlockSparse(w.luBlocks, w.luBlockSize, w.luDensity,
                             w.seed);
}

/** Largest finite entry of a level or distance array. */
uint32_t
maxFinite(const std::vector<uint32_t> &v)
{
    uint32_t best = 0;
    for (uint32_t x : v)
        if (x != kInfDistance)
            best = std::max(best, x);
    return best;
}

/** An App owning one built accelerator struct (spec + state). */
template <typename Accel>
class OwnedApp : public App
{
  public:
    explicit OwnedApp(Accel a) : a_(std::move(a)) {}
    const AcceleratorSpec &spec() const override { return a_.spec; }

  protected:
    Accel a_;
};

/** SPEC-BFS and COOR-BFS: all state lives in the device image. */
struct BfsApp final : OwnedApp<BfsAccel>
{
    using OwnedApp::OwnedApp;

    bool verify(const Workloads &w, const MemorySystem &mem) const override
    {
        return readLevels(a_.img, mem) == bfsSequential(w.road, 0);
    }

    WorkCounts work(const Workloads &w, const MemorySystem &mem) const override
    {
        double n = w.road.numVertices();
        double m = static_cast<double>(w.road.numEdges());
        return {.instructions = 25.0 * (n + m),
                .randomAccesses = m + n,
                .streamedBytes = (2.0 * m + 2.0 * n) * 8.0,
                .serialFraction = 0.02,
                .rounds = maxFinite(readLevels(a_.img, mem))};
    }
};

/** SPEC-SSSP: all state lives in the device image. */
struct SsspApp final : OwnedApp<SsspAccel>
{
    using OwnedApp::OwnedApp;

    bool verify(const Workloads &w, const MemorySystem &mem) const override
    {
        return readDistances(a_.img, mem) == ssspSequential(w.road, 0);
    }

    /**
     * The CPU counterpart's own work: a delta-stepping SSSP, which
     * attempts each edge ~2x with bucket bookkeeping, one round per
     * delta bucket (the competent parallel code on road networks).
     */
    WorkCounts work(const Workloads &w, const MemorySystem &) const override
    {
        double n = w.road.numVertices();
        double m = static_cast<double>(w.road.numEdges());
        double relax = 2.0 * m;
        return {.instructions = 50.0 * relax,
                .randomAccesses = 2.0 * relax,
                .streamedBytes = (relax + n + 2.0 * m) * 8.0,
                .serialFraction = 0.02,
                .rounds = maxFinite(ssspSequential(w.road, 0)) >> 8};
    }
};

/** SPEC-MST: the union-find lives on the host. */
struct MstApp final : OwnedApp<MstAccel>
{
    using OwnedApp::OwnedApp;

    HostState hostState() const override
    {
        MstState *st = a_.state.get();
        return HostState([st]<typename Ar>(Ar &ar) {
            ar.fixed(st->parent, "MST union-find entries");
            for (uint32_t p : st->parent)
                ar.check(p < st->parent.size(), "has MST parent ", p,
                         " outside ", st->parent.size(), " vertices");
            ar(st->nextTicket, st->result.totalWeight,
               st->result.edgesInTree);
        });
    }

    bool verify(const Workloads &w, const MemorySystem &) const override
    {
        return a_.state->result.totalWeight ==
               mstSequential(w.road).totalWeight;
    }

    /** Sorting, priority queues and path-compressed finds ([33]'s
     * optimistic engine); in-order commit sweeps make it 30% serial. */
    WorkCounts work(const Workloads &, const MemorySystem &) const override
    {
        double m = static_cast<double>(a_.spec.initial.size());
        return {.instructions =
                    60.0 * m * std::log2(std::max(2.0, m)) + 60.0 * m,
                .randomAccesses = 8.0 * m,
                .streamedBytes = 3.0 * m * 8.0,
                .serialFraction = 0.30,
                .rounds = static_cast<uint64_t>(m) / 64};
    }
};

/** SPEC-DMR: the mesh lives on the host. */
struct DmrApp final : OwnedApp<DmrAccel>
{
    using OwnedApp::OwnedApp;

    HostState hostState() const override
    {
        DmrState *st = a_.state.get();
        return HostState([st]<typename Ar>(Ar &ar) {
            // The mesh exposes its topology read-only; a restore
            // installs it through restoreTopology().
            std::vector<Point> points = st->mesh.points();
            std::vector<Triangle> tris = st->mesh.triangles();
            ar(points, tris);
            for (const Triangle &t : tris) {
                for (int k = 0; k < 3; ++k) {
                    ar.check(t.v[k] < points.size() &&
                                 (t.nbr[k] < tris.size() ||
                                  t.nbr[k] == kNoTri),
                             "has a SPEC-DMR triangle on vertex ", t.v[k],
                             " next to triangle ", t.nbr[k], ", outside ",
                             points.size(), " points and ", tris.size(),
                             " triangles");
                }
            }
            if constexpr (Ar::kRestoring)
                st->mesh.restoreTopology(std::move(points),
                                         std::move(tris));
            // ar.seq writes hash maps in key order: deterministic bytes.
            ar(st->applied);
            ar.seq(st->produced);
        });
    }

    bool verify(const Workloads &, const MemorySystem &) const override
    {
        const DmrState &st = *a_.state;
        return summarizeMesh(st.mesh, st.params, st.applied)
                   .remainingBad == 0;
    }

    /** Cavity geometry; Galois-style DMR scales well (10% serial). */
    WorkCounts work(const Workloads &, const MemorySystem &) const override
    {
        double refinements = static_cast<double>(a_.state->applied);
        return {.instructions = 2000.0 * refinements,
                .randomAccesses = 40.0 * refinements,
                .streamedBytes = 500.0 * refinements,
                .serialFraction = 0.10,
                .rounds = a_.state->applied / 40 + 1};
    }
};

/** COOR-LU: the matrix is factored in place on the host. */
struct LuApp final : OwnedApp<LuAccel>
{
    using OwnedApp::OwnedApp;

    HostState hostState() const override
    {
        LuState *st = a_.state.get();
        return HostState([st]<typename Ar>(Ar &ar) {
            BlockSparseMatrix &m = st->a;
            uint32_t n = m.numBlockRows();
            ar.expect(n, "LU block rows");
            ar.expect(m.blockSize(), "LU block size");
            auto coords = m.structure(); // row-major (sorted) order
            // Fill-in blocks appear dynamically; a restore rebuilds the
            // block set from scratch rather than patching the
            // generator's.
            if constexpr (Ar::kRestoring)
                m = BlockSparseMatrix(n, m.blockSize());
            ar.seq(coords, [&](auto &c) {
                ar(c.first, c.second);
                ar.check(c.first < n && c.second < n, "has LU block (",
                         c.first, ",", c.second, ") outside the ", n,
                         "x", n, " block grid");
                ar.fixed(m.block(c.first, c.second).data(),
                         "values in an LU block");
            });
            ar.fixed(st->trsmLeft, "LU trsm counters");
            ar.fixed(st->gemmLeft, "LU gemm counters");
            ar(st->ops.factor, st->ops.trsm, st->ops.gemm);
            ar.seq(st->produced);
        });
    }

    /** The reference factors a fresh copy of the same input. */
    bool verify(const Workloads &w, const MemorySystem &) const override
    {
        BlockSparseMatrix ref = luInput(w);
        sparseLuSequential(ref);
        return a_.state->a.maxDiff(ref) <= 1e-9;
    }

    WorkCounts work(const Workloads &w, const MemorySystem &) const override
    {
        const LuOpCounts &ops = a_.state->ops;
        double gemm = static_cast<double>(ops.gemm);
        double trsm = static_cast<double>(ops.trsm);
        double factor = static_cast<double>(ops.factor);
        double bs3 = std::pow(w.luBlockSize, 3.0);
        double bs2 = std::pow(w.luBlockSize, 2.0);
        return {.instructions = 500.0 * static_cast<double>(ops.total()),
                .flops = 2.0 * bs3 * gemm + bs3 * trsm + 0.67 * bs3 * factor,
                .randomAccesses = 10.0 * static_cast<double>(ops.total()),
                .streamedBytes = 8.0 * bs2 * (3.0 * gemm + 2.0 * trsm + factor),
                .serialFraction = 0.05,
                .rounds = 3ull * w.luBlocks};
    }
};

using AppPtr = std::unique_ptr<App>;

const AppRow kAppTable[] = {
    {Bench::SpecBfs, "SPEC-BFS", false,
     [](const Workloads &w, MemorySystem &mem) -> AppPtr {
         return std::make_unique<BfsApp>(buildSpecBfs(w.road, 0, mem));
     },
     [](const Workloads &w) {
         return timeSeconds([&] { bfsSequential(w.road, 0); });
     }},
    {Bench::CoorBfs, "COOR-BFS", false,
     [](const Workloads &w, MemorySystem &mem) -> AppPtr {
         return std::make_unique<BfsApp>(buildCoorBfs(w.road, 0, mem));
     },
     [](const Workloads &w) {
         return timeSeconds([&] { bfsSequential(w.road, 0); });
     }},
    {Bench::SpecSssp, "SPEC-SSSP", false,
     [](const Workloads &w, MemorySystem &mem) -> AppPtr {
         return std::make_unique<SsspApp>(buildSpecSssp(w.road, 0, mem));
     },
     [](const Workloads &w) {
         return timeSeconds([&] { ssspSequential(w.road, 0); });
     }},
    {Bench::SpecMst, "SPEC-MST", false,
     [](const Workloads &w, MemorySystem &mem) -> AppPtr {
         return std::make_unique<MstApp>(buildSpecMst(w.road, mem));
     },
     [](const Workloads &w) {
         return timeSeconds([&] { mstSequential(w.road); });
     }},
    {Bench::SpecDmr, "SPEC-DMR", true,
     [](const Workloads &w, MemorySystem &mem) -> AppPtr {
         return std::make_unique<DmrApp>(buildSpecDmr(
             randomDelaunayMesh(w.meshPoints, w.seed), {}, mem));
     },
     [](const Workloads &w) {
         // One rep: refinement consumes its input.
         Mesh mesh = randomDelaunayMesh(w.meshPoints, w.seed);
         return timeSeconds([&] { refineMesh(mesh, {}); }, 1);
     }},
    {Bench::CoorLu, "COOR-LU", true,
     [](const Workloads &w, MemorySystem &mem) -> AppPtr {
         return std::make_unique<LuApp>(buildCoorLu(luInput(w), mem));
     },
     [](const Workloads &w) {
         // One rep: the factorization is in place.
         BlockSparseMatrix a = luInput(w);
         return timeSeconds([&] { sparseLuSequential(a); }, 1);
     }},
};

static_assert(std::size(kAppTable) == std::size(kAllBenches));

} // namespace

const AppRow &
appRow(Bench b)
{
    return kAppTable[static_cast<size_t>(b)];
}

const char *
benchName(Bench b)
{
    return appRow(b).name;
}

std::optional<Bench>
benchFromName(const std::string &name)
{
    for (const AppRow &row : kAppTable)
        if (name == row.name)
            return row.bench;
    return std::nullopt;
}

std::string
benchNameList()
{
    std::string list = kAppTable[0].name;
    for (size_t i = 1; i < std::size(kAppTable); ++i)
        list += (i + 1 < std::size(kAppTable) ? ", " : " or ") +
                std::string(kAppTable[i].name);
    return list;
}

AccelConfig
defaultAccelConfig()
{
    AccelConfig cfg;
    cfg.pipelinesPerSet = 4;
    cfg.ruleLanes = 32;
    cfg.queueBanks = 4;
    return cfg;
}

AccelConfig
defaultAccelConfig(const Options &opt)
{
    // --config replaces the compiled-in base; the remaining flags
    // compose with whatever base is active (--no-fast-forward can
    // only disable, --bandwidth-scale multiplies the scenario's).
    AccelConfig cfg =
        opt.scenario ? opt.scenario->accel : defaultAccelConfig();
    cfg.fastForward = cfg.fastForward && opt.fastForward;
    cfg.mem.bandwidthScale *= opt.bandwidthScale;
    return cfg;
}

std::string
checkpointPath(const std::string &prefix, Bench b)
{
    return prefix + "." + benchName(b) + ".ckpt";
}

void
requireNoCheckpoint(const Options &opt, const char *bench)
{
    if (opt.ckpt.any())
        fatal(bench, " does not support --checkpoint-save / "
              "--checkpoint-restore (only fig9_speedup and "
              "fig10_bandwidth are checkpoint-aware)");
}

namespace {

/**
 * Attach the checkpoint directives to a freshly built machine: restore
 * immediately (overlaying serialized state on the deterministic
 * rebuild), and/or schedule the save hook. The header sections pin the
 * identity a restore must match: the structural config key (fatal on
 * mismatch — the serialized state would not fit the machine), the full
 * canonical key (warning only, enabling warmup-once-sweep-many runs
 * where timing knobs such as the bandwidth scale differ), and the
 * (benchmark, scale, seed) workload identity (fatal — a different
 * workload makes the state meaningless).
 */
void
wireCheckpoint(Accelerator &accel, const AccelConfig &cfg, Bench b,
               const Workloads &w, const CheckpointOptions &ck,
               const HostState &host)
{
    if (!ck.restorePrefix.empty()) {
        std::string path = checkpointPath(ck.restorePrefix, b);
        ckpt::Reader r(path);
        r.begin("ckpt.config");
        std::string structural = r.str();
        std::string canonical = r.str();
        r.end();
        if (structural != configStructuralKey(cfg))
            fatal("checkpoint: ", path, " was saved on a structurally "
                  "different machine; saved [", structural,
                  "], this run builds [", configStructuralKey(cfg),
                  "] — restore requires identical structural knobs");
        if (canonical != configCanonicalKey(cfg))
            warn("checkpoint: ", path, " was saved under different "
                 "timing knobs; the restored run mixes the two regimes "
                 "(expected for warmup-reuse bandwidth sweeps, wrong "
                 "for byte-identity checks)");
        r.begin("ckpt.meta");
        std::string bench = r.str();
        std::string scale = r.str();
        uint32_t seed = r.u32();
        r.end();
        if (bench != benchName(b))
            fatal("checkpoint: ", path, " holds a ", bench,
                  " run, not ", benchName(b));
        if (scale != canonicalDouble(w.scale) || seed != w.seed)
            fatal("checkpoint: ", path, " was saved at workload scale=",
                  scale, " seed=", seed, "; this run generates scale=",
                  canonicalDouble(w.scale), " seed=", w.seed,
                  " — the rebuilt workload would not match the "
                  "serialized state");
        accel.ckptRestore(r);
        r.begin("host.state");
        host.restore(r);
        r.end();
        if (!r.atEnd())
            fatal("checkpoint: ", path,
                  " has trailing data after the host.state section");
    }
    if (!ck.savePrefix.empty()) {
        std::string path = checkpointPath(ck.savePrefix, b);
        accel.scheduleCheckpointSave(
            ck.saveCycle, [&accel, &cfg, b, &w, &host, path] {
                ckpt::Writer wtr;
                wtr.begin("ckpt.config");
                wtr.str(configStructuralKey(cfg));
                wtr.str(configCanonicalKey(cfg));
                wtr.end();
                wtr.begin("ckpt.meta");
                wtr.str(benchName(b));
                wtr.str(canonicalDouble(w.scale));
                wtr.u32(w.seed);
                wtr.end();
                accel.ckptSave(wtr);
                wtr.begin("host.state");
                host.save(wtr);
                wtr.end();
                wtr.finish(path);
            });
    }
}

} // namespace

AccelRun
runAccelerator(Bench b, const Workloads &w, AccelConfig cfg, bool verify,
               const CheckpointOptions &ck)
{
    if (ck.saveAuto && !ck.savePrefix.empty()) {
        // auto:PREFIX — calibrate the save cycle against this run's
        // own length: run cold (checkpoint-free, identical results by
        // the no-perturb contract), then re-run saving at 3/4 of the
        // measured drain cycle. The second run's results are returned,
        // so a saving invocation still reports the same numbers as a
        // plain one.
        CheckpointOptions calib;
        calib.restorePrefix = ck.restorePrefix;
        AccelRun cold = runAccelerator(b, w, cfg, false, calib);
        CheckpointOptions at = ck;
        at.saveAuto = false;
        at.saveCycle = std::max<uint64_t>(1, cold.rr.cycles / 4 * 3);
        return runAccelerator(b, w, cfg, verify, at);
    }
    setQuietLogging(true);
    const AppRow &row = appRow(b);
    MemorySystem mem(cfg.mem);
    if (row.hostFed && cfg.hostBatch == 0) {
        cfg.hostBatch = 16;
        cfg.hostInterval = 64;
    }
    std::unique_ptr<App> app = row.build(w, mem);
    Accelerator accel(app->spec(), cfg, mem);
    HostState host = app->hostState();
    wireCheckpoint(accel, cfg, b, w, ck, host);
    AccelRun out;
    out.rr = accel.run();
    if (verify && !app->verify(w, mem))
        fatal(row.name, " verification failed");
    out.work = app->work(w, mem);
    out.seconds = out.rr.seconds;
    return out;
}

std::vector<AccelRun>
runSweep(const std::vector<SweepJob> &jobs, const Workloads &w,
         unsigned threads)
{
    if (threads == 0)
        threads = ThreadPool::hardwareThreads();
    if (threads > 1) {
        // The tracer has no locking; a shared one across concurrent
        // runs would interleave noise.
        for (const SweepJob &j : jobs)
            if (j.cfg.tracer)
                fatal("runSweep: jobs with trace hooks require "
                      "--threads 1");
    }
    // Two jobs saving to the same checkpoint file would race (or, run
    // serially, silently clobber each other); the caller must give
    // each saving job a distinct (bench, prefix).
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].ckpt.savePrefix.empty())
            continue;
        std::string pi = checkpointPath(jobs[i].ckpt.savePrefix,
                                        jobs[i].bench);
        for (size_t j = i + 1; j < jobs.size(); ++j) {
            if (jobs[j].ckpt.savePrefix.empty())
                continue;
            if (pi == checkpointPath(jobs[j].ckpt.savePrefix,
                                     jobs[j].bench))
                fatal("runSweep: jobs ", i, " and ", j,
                      " both save checkpoint ", pi);
        }
    }
    setQuietLogging(true);
    std::vector<AccelRun> results(jobs.size());
    parallelForEach(jobs.size(), threads, [&](size_t i) {
        results[i] = runAccelerator(jobs[i].bench, w, jobs[i].cfg,
                                    jobs[i].verify, jobs[i].ckpt);
    });
    return results;
}

} // namespace bench
} // namespace apir
