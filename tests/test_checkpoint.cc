/**
 * @file
 * Checkpoint subsystem tests (docs/checkpointing.md): the binary
 * format's round-trip and rejection paths, and the end-to-end
 * property the subsystem exists for — a run restored from a
 * mid-flight checkpoint produces stats byte-identical to a run that
 * never stopped, across every benchmark, both fast-forward modes and
 * multiple workload seeds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "checkpoint/ckpt.hh"
#include "geometry/point.hh"
#include "support/logging.hh"

namespace apir {
namespace bench {
namespace {

// ------------------------------------------------------------ file helpers

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** A minimal valid checkpoint: one section "a" holding a u32. */
std::string
writeValidFile(const std::string &name)
{
    std::string path = ::testing::TempDir() + name;
    ckpt::Writer w;
    w.begin("a");
    w.u32(0x12345678);
    w.end();
    w.finish(path);
    return path;
}

// ------------------------------------------------------------------ format

TEST(CkptFormat, ScalarStringPodVectorRoundTrip)
{
    std::string path = ::testing::TempDir() + "fmt_roundtrip.ckpt";
    struct Pod
    {
        uint32_t a;
        double b;
    };
    ckpt::Writer w;
    w.begin("alpha");
    w.u8(7);
    w.u32(0xdeadbeef);
    w.u64(uint64_t(1) << 40);
    w.f64(3.25);
    w.b(true);
    w.b(false);
    w.str("hello checkpoint");
    w.end();
    w.begin("beta");
    w.pod(Pod{3, 2.5});
    w.vecPod(std::vector<uint64_t>{1, 2, 3});
    w.end();
    w.finish(path);

    ckpt::Reader r(path);
    r.begin("alpha");
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), uint64_t(1) << 40);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.str(), "hello checkpoint");
    r.end();
    r.begin("beta");
    Pod p = r.pod<Pod>();
    EXPECT_EQ(p.a, 3u);
    EXPECT_EQ(p.b, 2.5);
    EXPECT_EQ(r.vecPod<uint64_t>(), (std::vector<uint64_t>{1, 2, 3}));
    r.end();
    EXPECT_TRUE(r.atEnd());
}

TEST(CkptFormat, StatObjectsRoundTripBitExactly)
{
    // The stats helpers must preserve exact bits (incl. the observed
    // max a Histogram quantile reports for overflow ranks), or a
    // restored run's stats-json would differ in the last ulp.
    std::string path = ::testing::TempDir() + "fmt_stats.ckpt";
    Counter c;
    c += 41;
    Average a;
    a.sample(0.1);
    a.sample(0.3);
    Histogram h(4, 1.0);
    h.sample(0.5);
    h.sample(2.5);
    h.sample(97.25); // overflow; maxSeen must survive the trip

    ckpt::Writer w;
    w.begin("stats");
    w(c, a, h);
    w.end();
    w.finish(path);

    Counter c2;
    Average a2;
    Histogram h2(4, 1.0);
    ckpt::Reader r(path);
    r.begin("stats");
    r(c2, a2, h2);
    r.end();
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(c2.value(), c.value());
    EXPECT_EQ(a2.sum(), a.sum());
    EXPECT_EQ(a2.count(), a.count());
    EXPECT_EQ(a2.rawMin(), a.rawMin());
    EXPECT_EQ(a2.rawMax(), a.rawMax());
    for (size_t i = 0; i < h.buckets(); ++i)
        EXPECT_EQ(h2.bucket(i), h.bucket(i));
    EXPECT_EQ(h2.overflow(), h.overflow());
    EXPECT_EQ(h2.total(), h.total());
    EXPECT_EQ(h2.maxSeen(), h.maxSeen());
    EXPECT_EQ(h2.quantile(1.0), h.quantile(1.0));
}

TEST(CkptFormat, MissingFileIsFatal)
{
    ScopedFatalThrows guard;
    EXPECT_THROW(
        ckpt::Reader r(::testing::TempDir() + "does_not_exist.ckpt"),
        FatalError);
}

TEST(CkptFormat, CorruptMagicIsFatal)
{
    std::string path = writeValidFile("bad_magic.ckpt");
    auto bytes = slurp(path);
    bytes[0] ^= 0xff;
    spit(path, bytes);
    ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::Reader r(path), FatalError);
}

TEST(CkptFormat, VersionSkewIsFatal)
{
    std::string path = writeValidFile("bad_version.ckpt");
    auto bytes = slurp(path);
    // The version word sits right after the 8-byte magic.
    bytes[8] = 0x99;
    spit(path, bytes);
    ScopedFatalThrows guard;
    EXPECT_THROW(ckpt::Reader r(path), FatalError);
}

TEST(CkptFormat, TruncatedFileIsFatal)
{
    std::string path = writeValidFile("truncated.ckpt");
    auto bytes = slurp(path);
    bytes.resize(bytes.size() - 1);
    spit(path, bytes);
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            r.begin("a");
            r.u32();
        },
        FatalError);
}

TEST(CkptFormat, WrongSectionNameIsFatal)
{
    std::string path = writeValidFile("wrong_section.ckpt");
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            r.begin("b");
        },
        FatalError);
}

TEST(CkptFormat, LeftoverSectionPayloadIsFatal)
{
    std::string path = writeValidFile("leftover.ckpt");
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            r.begin("a");
            r.end(); // the u32 payload was never consumed
        },
        FatalError);
}

TEST(CkptFormat, ReadPastSectionEndIsFatal)
{
    std::string path = writeValidFile("overrun.ckpt");
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            r.begin("a");
            r.u64(); // section holds only 4 bytes
        },
        FatalError);
}

TEST(CkptFormat, VectorCountPastPayloadIsFatal)
{
    // 2^61 eight-byte elements wrap n * sizeof(T) to 0, so the reader
    // must bound the count, not the byte total.
    std::string path = ::testing::TempDir() + "huge_vector.ckpt";
    ckpt::Writer w;
    w.begin("a");
    w.u64(uint64_t(1) << 61);
    w.end();
    w.finish(path);
    ScopedFatalThrows guard;
    EXPECT_THROW(
        {
            ckpt::Reader r(path);
            r.begin("a");
            r.vecPod<uint64_t>();
        },
        FatalError);
}

TEST(CkptFormat, BoolByteOtherThanZeroOrOneIsFatal)
{
    // A bool is one byte, 0 or 1; anything else is corruption, not
    // true.
    std::string path = ::testing::TempDir() + "bad_bool.ckpt";
    ckpt::Writer w;
    w.begin("flags");
    w.b(false);
    w.b(true);
    w.u8(2);
    w.u8(0xff);
    w.end();
    w.finish(path);
    ckpt::Reader r(path);
    r.begin("flags");
    EXPECT_FALSE(r.b());
    bool v = false;
    r(v);
    EXPECT_TRUE(v);
    ScopedFatalThrows guard;
    for (int i = 0; i < 2; ++i) {
        try {
            r(v);
            ADD_FAILURE() << "a bool byte other than 0 or 1 was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("section 'flags'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CkptFormat, TrailingBytesAreVisible)
{
    // The Reader exposes trailing garbage via atEnd(); the bench
    // restore path turns that into a fatal (tested below e2e).
    std::string path = writeValidFile("trailing.ckpt");
    auto bytes = slurp(path);
    bytes.push_back(0xab);
    spit(path, bytes);
    ckpt::Reader r(path);
    r.begin("a");
    (void)r.u32();
    r.end();
    EXPECT_FALSE(r.atEnd());
}

// ------------------------------------------------------- end-to-end helper

std::string
statsOf(Bench b, const Workloads &w, const AccelConfig &cfg,
        const CheckpointOptions &ck = {})
{
    AccelRun run = runAccelerator(b, w, cfg, false, ck);
    return runToJson(run).dump();
}

/**
 * The round-trip property for one (bench, config) point: saving must
 * not perturb the run it snapshots, and a restored machine must be
 * indistinguishable from one that never stopped.
 */
void
expectRoundTrip(Bench b, const Workloads &w, const AccelConfig &cfg,
                const std::string &prefix)
{
    AccelRun base = runAccelerator(b, w, cfg);
    std::string baseline = runToJson(base).dump();

    CheckpointOptions save;
    save.saveCycle = std::max<uint64_t>(1, base.rr.cycles / 2);
    save.savePrefix = prefix;
    EXPECT_EQ(statsOf(b, w, cfg, save), baseline)
        << benchName(b) << ": save run diverged";

    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    EXPECT_EQ(statsOf(b, w, cfg, rest), baseline)
        << benchName(b) << ": restored run diverged";

    // Saving the restored machine before it moves must reproduce the
    // file: a field the restore dropped or altered shows up here.
    CheckpointOptions resave = rest;
    resave.saveCycle = save.saveCycle;
    resave.savePrefix = prefix + "_resaved";
    statsOf(b, w, cfg, resave);
    EXPECT_TRUE(slurp(checkpointPath(resave.savePrefix, b)) ==
                slurp(checkpointPath(prefix, b)))
        << benchName(b) << ": re-saved checkpoint differs";
}

// --------------------------------------------------------- e2e round trips

/** gtest parameter name: the bench name without its dash. */
std::string
benchParamName(const ::testing::TestParamInfo<Bench> &info)
{
    std::string n;
    for (const char *p = benchName(info.param); *p; ++p)
        if (*p != '-')
            n += *p;
    return n;
}

class CheckpointRoundTrip : public ::testing::TestWithParam<Bench>
{
};

TEST_P(CheckpointRoundTrip, ByteIdenticalAcrossModesAndSeeds)
{
    Bench b = GetParam();
    int combo = 0;
    for (bool ff : {true, false}) {
        for (uint32_t seed = 1; seed <= 5; ++seed) {
            Workloads w = makeWorkloads(0.02, seed);
            AccelConfig cfg = defaultAccelConfig();
            cfg.fastForward = ff;
            std::string prefix = ::testing::TempDir() + "rt_" +
                                 std::to_string(static_cast<int>(b)) +
                                 "_" + std::to_string(combo++);
            expectRoundTrip(b, w, cfg, prefix);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenches, CheckpointRoundTrip,
                         ::testing::ValuesIn(kAllBenches), benchParamName);

TEST(CheckpointRoundTripExtra, DegenerateMshr1MachineWithElasticLsu)
{
    // Regression: on the single-MSHR machine the liveness entry port
    // pushes LSU occupancy past nominal capacity, and an early
    // restore path wrongly rejected such checkpoints as structural
    // mismatches. Keep the worst machine in the in-process campaign.
    AccelConfig cfg = defaultAccelConfig();
    cfg.mem.cache.sizeBytes = 64;
    cfg.mem.cache.lineBytes = 64;
    cfg.mem.cache.mshrs = 1;
    cfg.mem.cache.prefetchNextLine = false;
    Workloads w = makeWorkloads(0.02, 1);
    for (Bench b : {Bench::SpecBfs, Bench::SpecSssp})
        expectRoundTrip(b, w, cfg,
                        ::testing::TempDir() + "rt_mshr1_" +
                            std::to_string(static_cast<int>(b)));
}

// --------------------------------------------------- committed v2 files

/** The cycle a checkpoint was saved at: accel.core's first field. */
uint64_t
savedCycle(const std::string &path)
{
    ckpt::Reader r(path);
    r.begin("ckpt.config");
    r.str();
    r.str();
    r.end();
    r.begin("ckpt.meta");
    r.str();
    r.str();
    r.u32();
    r.end();
    r.begin("accel.core");
    return r.u64();
}

class CheckpointFixture : public ::testing::TestWithParam<Bench>
{
};

TEST_P(CheckpointFixture, V2FileRestoresAndFreshSaveReproducesIt)
{
    // tests/fixtures/ckpt_v2 holds `fig9_speedup --scale 0.01
    // --checkpoint-save auto:fig9` output. Each restores to the
    // uninterrupted run, and a fresh run saving at the fixture's
    // cycle writes the fixture byte for byte: a layout change that
    // forgets the version bump fails here.
    Bench b = GetParam();
    Workloads w = makeWorkloads(0.01, 42); // fig9's defaults
    AccelConfig cfg = defaultAccelConfig();
    std::string fixture = std::string(APIR_CKPT_FIXTURE_DIR) + "/fig9";
    std::string file = checkpointPath(fixture, b);
    CheckpointOptions rest;
    rest.restorePrefix = fixture;
    EXPECT_EQ(statsOf(b, w, cfg, rest), statsOf(b, w, cfg))
        << benchName(b) << ": restored fixture diverged";
    CheckpointOptions save;
    save.saveCycle = savedCycle(file);
    save.savePrefix = ::testing::TempDir() + "fixture_fresh";
    statsOf(b, w, cfg, save);
    std::vector<uint8_t> original = slurp(file);
    EXPECT_FALSE(original.empty());
    EXPECT_TRUE(slurp(checkpointPath(save.savePrefix, b)) == original)
        << benchName(b) << ": a fresh save differs from the fixture";
}

INSTANTIATE_TEST_SUITE_P(AllBenches, CheckpointFixture,
                         ::testing::ValuesIn(kAllBenches), benchParamName);

// ----------------------------------------------------- e2e rejection paths

TEST(CheckpointRestore, SaveCycleAfterDrainIsFatal)
{
    // A save that never fires must not silently produce no file.
    Workloads w = makeWorkloads(0.02, 1);
    CheckpointOptions save;
    save.saveCycle = 1u << 30;
    save.savePrefix = ::testing::TempDir() + "late_save";
    ScopedFatalThrows guard;
    EXPECT_THROW(
        runAccelerator(Bench::CoorBfs, w, defaultAccelConfig(), false,
                       save),
        FatalError);
}

TEST(CheckpointRestore, MissingCheckpointFileIsFatal)
{
    Workloads w = makeWorkloads(0.02, 1);
    CheckpointOptions rest;
    rest.restorePrefix = ::testing::TempDir() + "no_such_prefix";
    ScopedFatalThrows guard;
    EXPECT_THROW(
        runAccelerator(Bench::CoorBfs, w, defaultAccelConfig(), false,
                       rest),
        FatalError);
}

/** Save one mid-run checkpoint of `b` and return its prefix. */
std::string
savedPrefix(const Workloads &w, const AccelConfig &cfg,
            const std::string &name, Bench b = Bench::CoorBfs)
{
    std::string prefix = ::testing::TempDir() + name;
    AccelRun base = runAccelerator(b, w, cfg);
    CheckpointOptions save;
    save.saveCycle = std::max<uint64_t>(1, base.rr.cycles / 2);
    save.savePrefix = prefix;
    runAccelerator(b, w, cfg, false, save);
    return prefix;
}

TEST(CheckpointRestore, StructuralConfigMismatchIsFatal)
{
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "structural_mismatch");
    cfg.lsuEntries *= 2; // changes the machine's state shape
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(Bench::CoorBfs, w, cfg, false, rest),
                 FatalError);
}

TEST(CheckpointRestore, WorkloadSeedMismatchIsFatal)
{
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(makeWorkloads(0.02, 1), cfg,
                                     "seed_mismatch");
    Workloads other = makeWorkloads(0.02, 2);
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(Bench::CoorBfs, other, cfg, false, rest),
                 FatalError);
}

TEST(CheckpointRestore, BenchmarkMismatchIsFatal)
{
    // A SPEC-SSSP restore must refuse a COOR-BFS checkpoint even
    // though the file exists under the right name for its own bench.
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "bench_mismatch");
    std::string stolen = checkpointPath(prefix, Bench::SpecSssp);
    spit(stolen, slurp(checkpointPath(prefix, Bench::CoorBfs)));
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(Bench::SpecSssp, w, cfg, false, rest),
                 FatalError);
}

TEST(CheckpointRestore, TrailingBytesInFileAreFatal)
{
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "trailing_e2e");
    std::string path = checkpointPath(prefix, Bench::CoorBfs);
    auto bytes = slurp(path);
    bytes.push_back(0x00);
    spit(path, bytes);
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    EXPECT_THROW(runAccelerator(Bench::CoorBfs, w, cfg, false, rest),
                 FatalError);
}

TEST(CheckpointRestore, TimingOnlyKnobsMayDiffer)
{
    // The fig10 warmup workflow: a checkpoint saved at stock
    // bandwidth restores into a machine with a different
    // bandwidthScale (structural key equal, canonical key not). The
    // run must complete; its timing legitimately differs.
    setQuietLogging(true); // the canonical-mismatch warn is expected
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, "timing_only");
    AccelConfig faster = cfg;
    faster.mem.bandwidthScale *= 4.0;
    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    AccelRun run =
        runAccelerator(Bench::CoorBfs, w, faster, false, rest);
    setQuietLogging(false);
    EXPECT_GT(run.rr.cycles, 0u);
    EXPECT_GT(run.rr.tasksExecuted, 0u);
    // The restored run reports where it resumed, so warmup-reuse
    // sweeps can compare post-restore regions (fig10's speedup).
    EXPECT_GT(run.rr.startCycle, 0u);
    EXPECT_LT(run.rr.startCycle, run.rr.cycles);
}

TEST(CheckpointRestore, AutoSaveCalibratesToTheRunAndRoundTrips)
{
    // --checkpoint-save auto:PREFIX: the save cycle is 3/4 of the
    // run's own drain cycle (learned from a cold calibration run).
    // Neither the calibrating save run nor the restored run may
    // perturb the reported results.
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string baseline = statsOf(Bench::SpecBfs, w, cfg);
    std::string prefix = ::testing::TempDir() + "auto_save";

    CheckpointOptions save;
    save.saveAuto = true;
    save.savePrefix = prefix;
    EXPECT_EQ(statsOf(Bench::SpecBfs, w, cfg, save), baseline)
        << "auto-calibrated save run diverged";

    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    AccelRun restored =
        runAccelerator(Bench::SpecBfs, w, cfg, false, rest);
    EXPECT_EQ(runToJson(restored).dump(), baseline)
        << "run restored from an auto checkpoint diverged";
    // The calibrated save point is 3/4 of the drain cycle, so the
    // restored run resumes in the run's final quarter.
    EXPECT_EQ(restored.rr.startCycle,
              std::max<uint64_t>(1, restored.rr.cycles / 4 * 3));
}

// ------------------------------------------- host-state rejection paths

/**
 * Save a mid-run `b` checkpoint, swap its host.state section (the
 * file's last) for one `fill` writes, and require the restore to be a
 * located fatal mentioning `needle`.
 */
void
expectHostStateRejected(Bench b, const std::string &name,
                        const std::function<void(ckpt::Writer &)> &fill,
                        const std::string &needle)
{
    Workloads w = makeWorkloads(0.02, 1);
    AccelConfig cfg = defaultAccelConfig();
    std::string prefix = savedPrefix(w, cfg, name, b);
    std::string path = checkpointPath(prefix, b);
    auto bytes = slurp(path);
    size_t pos = 12; // magic + version word
    for (;;) {
        ASSERT_LT(pos, bytes.size()) << "no host.state section";
        uint32_t nameLen;
        std::memcpy(&nameLen, &bytes[pos], sizeof(nameLen));
        std::string section(reinterpret_cast<const char *>(&bytes[pos + 4]),
                            nameLen);
        if (section == "host.state")
            break;
        uint64_t len;
        std::memcpy(&len, &bytes[pos + 4 + nameLen], sizeof(len));
        pos += 4 + nameLen + 8 + len;
    }
    bytes.resize(pos);
    ckpt::Writer wr;
    wr.begin("host.state");
    fill(wr);
    wr.end();
    wr.finish(path + ".host");
    auto host = slurp(path + ".host");
    bytes.insert(bytes.end(), host.begin() + 12, host.end());
    spit(path, bytes);

    CheckpointOptions rest;
    rest.restorePrefix = prefix;
    ScopedFatalThrows guard;
    try {
        runAccelerator(b, w, cfg, false, rest);
        ADD_FAILURE() << "restore accepted a corrupt host.state";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(CheckpointRestore, DmrTriangleCountPastPayloadIsFatal)
{
    expectHostStateRejected(
        Bench::SpecDmr, "dmr_count",
        [](ckpt::Writer &wr) {
            wr.vecPod(std::vector<Point>(3));
            wr.u64(uint64_t(1) << 40); // triangles, none of them present
        },
        "truncated");
}

TEST(CheckpointRestore, DmrTriangleIndexOutOfRangeIsFatal)
{
    expectHostStateRejected(
        Bench::SpecDmr, "dmr_index",
        [](ckpt::Writer &wr) {
            wr.vecPod(std::vector<Point>(3));
            wr.u64(1);
            for (uint32_t v : {0u, 1u, 7u}) // vertex 7 of 3 points
                wr.u32(v);
            for (int k = 0; k < 3; ++k)
                wr.u32(0xffffffffu); // no neighbor
            wr.b(true);
            wr.u64(0); // refinements applied
            wr.u64(0); // produced map
        },
        "SPEC-DMR triangle");
}

/** LU host.state up to its block list, on the 0.02-scale matrix. */
void
writeLuShape(ckpt::Writer &wr)
{
    Workloads w = makeWorkloads(0.02, 1);
    wr.u32(w.luBlocks);
    wr.u32(w.luBlockSize);
    wr.u64(1); // one stored block
}

TEST(CheckpointRestore, LuBlockCoordinateOutOfRangeIsFatal)
{
    expectHostStateRejected(
        Bench::CoorLu, "lu_coord",
        [](ckpt::Writer &wr) {
            writeLuShape(wr);
            wr.u32(makeWorkloads(0.02, 1).luBlocks); // one row too far
            wr.u32(0);
        },
        "outside the");
}

TEST(CheckpointRestore, LuBlockPayloadLengthMismatchIsFatal)
{
    expectHostStateRejected(
        Bench::CoorLu, "lu_payload",
        [](ckpt::Writer &wr) {
            writeLuShape(wr);
            wr.u32(0);
            wr.u32(0);
            wr.vecPod(std::vector<double>(3, 1.0)); // not bsize^2 values
        },
        "values in an LU block");
}

} // namespace
} // namespace bench
} // namespace apir
