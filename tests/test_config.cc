/**
 * @file
 * The declarative config subsystem: strict scalar parsing, the
 * SESC-style file parser ($(var) substitution, arithmetic, includes,
 * located diagnostics), the scenario loader's mapping onto
 * AccelConfig/MemConfig, the shared validation path, the scenario
 * corpus, and the strict bench command line built on the same
 * helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hh"
#include "config/canonical.hh"
#include "config/conf.hh"
#include "config/loader.hh"
#include "config/strict_num.hh"
#include "support/logging.hh"
#include "support/str.hh"

using namespace apir;
using namespace apir::bench;

namespace fs = std::filesystem;

namespace {

/** Write a temp config file tree for include/location tests. */
class ConfDir
{
  public:
    ConfDir()
    {
        dir_ = fs::path(::testing::TempDir()) /
               ("conf_" + std::to_string(counter_++));
        fs::create_directories(dir_);
    }

    ~ConfDir() { fs::remove_all(dir_); }

    std::string
    write(const std::string &name, const std::string &text)
    {
        fs::path p = dir_ / name;
        fs::create_directories(p.parent_path());
        std::ofstream os(p);
        os << text;
        return p.string();
    }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

/** Field-by-field AccelConfig comparison (trace hooks excluded). */
void
expectConfigEq(const AccelConfig &a, const AccelConfig &b)
{
    EXPECT_EQ(a.pipelinesPerSet, b.pipelinesPerSet);
    EXPECT_EQ(a.ruleLanes, b.ruleLanes);
    EXPECT_EQ(a.queueBanks, b.queueBanks);
    EXPECT_EQ(a.queueBankCapacity, b.queueBankCapacity);
    EXPECT_EQ(a.lsuEntries, b.lsuEntries);
    EXPECT_EQ(a.lsuInOrder, b.lsuInOrder);
    EXPECT_EQ(a.fifoDepth, b.fifoDepth);
    EXPECT_EQ(a.rendezvousEntries, b.rendezvousEntries);
    EXPECT_EQ(a.otherwiseTimeout, b.otherwiseTimeout);
    EXPECT_EQ(a.deadlockCycles, b.deadlockCycles);
    EXPECT_EQ(a.maxCycles, b.maxCycles);
    EXPECT_EQ(a.fastForward, b.fastForward);
    EXPECT_EQ(a.clockHz, b.clockHz);
    EXPECT_EQ(a.hostBatch, b.hostBatch);
    EXPECT_EQ(a.hostInterval, b.hostInterval);
    EXPECT_EQ(a.mem.bandwidthScale, b.mem.bandwidthScale);
    EXPECT_EQ(a.mem.clockHz, b.mem.clockHz);
    EXPECT_EQ(a.mem.cache.sizeBytes, b.mem.cache.sizeBytes);
    EXPECT_EQ(a.mem.cache.lineBytes, b.mem.cache.lineBytes);
    EXPECT_EQ(a.mem.cache.hitLatency, b.mem.cache.hitLatency);
    EXPECT_EQ(a.mem.cache.mshrs, b.mem.cache.mshrs);
    EXPECT_EQ(a.mem.cache.prefetchNextLine,
              b.mem.cache.prefetchNextLine);
    EXPECT_EQ(a.mem.qpi.bytesPerCycle, b.mem.qpi.bytesPerCycle);
    EXPECT_EQ(a.mem.qpi.latency, b.mem.qpi.latency);
}

/** parseOptions over a writable argv copy. */
Options
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parseOptions(static_cast<int>(argv.size()), argv.data());
}

} // namespace

// ------------------------------------------------- strict numbers

TEST(StrictNum, AcceptsPlainNumbers)
{
    EXPECT_EQ(parseStrictDouble("2"), 2.0);
    EXPECT_EQ(parseStrictDouble("2.5"), 2.5);
    EXPECT_EQ(parseStrictDouble("-0.25"), -0.25);
    EXPECT_EQ(parseStrictDouble("200e6"), 200e6);
    EXPECT_EQ(parseStrictInt("-42"), -42);
    EXPECT_EQ(parseStrictU64("68719476736"), 68719476736ull);
    EXPECT_EQ(parseStrictBool("true"), true);
    EXPECT_EQ(parseStrictBool("0"), false);
}

TEST(StrictNum, RejectsTrailingJunkAndFriends)
{
    // The std::atof failure mode this subsystem exists to kill.
    EXPECT_FALSE(parseStrictDouble("2x"));
    EXPECT_FALSE(parseStrictDouble("abc"));
    EXPECT_FALSE(parseStrictDouble(""));
    EXPECT_FALSE(parseStrictDouble(" 2"));
    EXPECT_FALSE(parseStrictDouble("2 "));
    EXPECT_FALSE(parseStrictDouble("inf"));
    EXPECT_FALSE(parseStrictDouble("nan"));
    EXPECT_FALSE(parseStrictDouble("1e999"));
    EXPECT_FALSE(parseStrictInt("2.5"));
    EXPECT_FALSE(parseStrictInt("4k"));
    EXPECT_FALSE(parseStrictU64("-1"));
    EXPECT_FALSE(parseStrictU64("-0"));
    EXPECT_FALSE(parseStrictBool("yes"));
    EXPECT_FALSE(parseStrictBool("True"));
}

TEST(StrictNum, ArithmeticExpressions)
{
    EXPECT_EQ(evalArith("2*8"), 16.0);
    EXPECT_EQ(evalArith("64*1024"), 65536.0);
    EXPECT_EQ(evalArith("(4*4+0.1)/16"), (4.0 * 4.0 + 0.1) / 16.0);
    EXPECT_EQ(evalArith("-3+1"), -2.0);
    EXPECT_EQ(evalArith("10%4"), 2.0);
    EXPECT_EQ(evalArith(" 1 + 2 * 3 "), 7.0);

    std::string err;
    EXPECT_FALSE(evalArith("2x", &err));
    EXPECT_NE(err.find("trailing"), std::string::npos);
    EXPECT_FALSE(evalArith("1/0", &err));
    EXPECT_NE(err.find("division by zero"), std::string::npos);
    EXPECT_FALSE(evalArith("(1+2", &err));
    EXPECT_FALSE(evalArith("", &err));
    EXPECT_FALSE(evalArith("foo+1", &err));
}

// -------------------------------------------------- parser basics

TEST(ConfParse, SectionsKeysAndComments)
{
    ConfFile cf = ConfFile::parseString(
        "# header comment\n"
        "name = 'global-scenario'   # trailing comment\n"
        "\n"
        "[accel]\n"
        "ruleLanes = 32\n"
        "fastForward = true\n"
        "[qpi]\n"
        "bytesPerCycle = 35.0\n");
    EXPECT_EQ(cf.getString("", "name"), "global-scenario");
    EXPECT_EQ(cf.getU32("accel", "ruleLanes"), 32u);
    EXPECT_TRUE(cf.getBool("accel", "fastForward"));
    EXPECT_EQ(cf.getDouble("qpi", "bytesPerCycle"), 35.0);
    EXPECT_FALSE(cf.has("accel", "bytesPerCycle"));
    EXPECT_EQ(cf.sections(),
              (std::vector<std::string>{"", "accel", "qpi"}));
    EXPECT_EQ(cf.keys("accel"),
              (std::vector<std::string>{"ruleLanes", "fastForward"}));
}

TEST(ConfParse, QuotedValuesKeepHashAndSpaces)
{
    ConfFile cf = ConfFile::parseString(
        "a = 'x # not a comment'\n"
        "b = \"two words\"\n");
    EXPECT_EQ(cf.getString("", "a"), "x # not a comment");
    EXPECT_EQ(cf.getString("", "b"), "two words");
}

TEST(ConfParse, LaterAssignmentWins)
{
    ConfFile cf = ConfFile::parseString(
        "[accel]\n"
        "ruleLanes = 8\n"
        "ruleLanes = 16\n");
    EXPECT_EQ(cf.getU32("accel", "ruleLanes"), 16u);
    // Still a single key for the loader's unknown-knob sweep.
    EXPECT_EQ(cf.keys("accel").size(), 1u);
}

TEST(ConfParse, ArithmeticAndSubstitution)
{
    ConfFile cf = ConfFile::parseString(
        "[define]\n"
        "lanes = 32\n"
        "[accel]\n"
        "ruleLanes = $(lanes)\n"
        "rendezvousEntries = $(lanes)*2\n"
        "queueBankCapacity = 64*1024\n");
    EXPECT_EQ(cf.getU32("accel", "ruleLanes"), 32u);
    EXPECT_EQ(cf.getU32("accel", "rendezvousEntries"), 64u);
    EXPECT_EQ(cf.getU32("accel", "queueBankCapacity"), 65536u);
}

TEST(ConfParse, SubstitutionScopeInnermostWins)
{
    ConfFile cf = ConfFile::parseString(
        "width = 1\n"
        "[define]\n"
        "width = 2\n"
        "[a]\n"
        "width = 3\n"
        "fromSection = $(width)\n"
        "[b]\n"
        "fromDefine = $(width)\n");
    // In [a] the section-local key shadows [define] and global.
    EXPECT_EQ(cf.getU32("a", "fromSection"), 3u);
    // In [b] there is no local key; [define] shadows global.
    EXPECT_EQ(cf.getU32("b", "fromDefine"), 2u);
}

// ------------------------------------------------ located errors

TEST(ConfParseDeath, MalformedLineIsLocated)
{
    setQuietLogging(true);
    EXPECT_EXIT(ConfFile::parseString("a = 1\nnot a line\n", "x.conf"),
                ::testing::ExitedWithCode(1), "x.conf:2");
}

TEST(ConfParseDeath, UndefinedVariableIsLocated)
{
    setQuietLogging(true);
    EXPECT_EXIT(ConfFile::parseString("a = $(nope)\n", "x.conf"),
                ::testing::ExitedWithCode(1),
                "x.conf:1.*undefined variable");
}

TEST(ConfParseDeath, BadSectionHeader)
{
    setQuietLogging(true);
    EXPECT_EXIT(ConfFile::parseString("[accel\n", "x.conf"),
                ::testing::ExitedWithCode(1), "x.conf:1");
    EXPECT_EXIT(ConfFile::parseString("[]\n", "x.conf"),
                ::testing::ExitedWithCode(1), "invalid section name");
}

TEST(ConfParseDeath, TypedAccessorsAreStrictAndLocated)
{
    setQuietLogging(true);
    ConfFile cf = ConfFile::parseString(
        "[workload]\n"
        "scale = 2x\n"
        "[accel]\n"
        "ruleLanes = 2.5\n"
        "fastForward = maybe\n",
        "bad.conf");
    EXPECT_EXIT(cf.getDouble("workload", "scale"),
                ::testing::ExitedWithCode(1),
                "bad.conf:2.*'2x'.*workload.scale");
    EXPECT_EXIT(cf.getU32("accel", "ruleLanes"),
                ::testing::ExitedWithCode(1), "bad.conf:4");
    EXPECT_EXIT(cf.getBool("accel", "fastForward"),
                ::testing::ExitedWithCode(1),
                "bad.conf:5.*true/false");
    EXPECT_EXIT(cf.get("accel", "missing"),
                ::testing::ExitedWithCode(1),
                "missing required knob 'accel.missing'");
}

// ------------------------------------------------------ includes

TEST(ConfParse, IncludeResolvesRelativeAndRestoresSection)
{
    ConfDir dir;
    dir.write("sub/base.inc",
              "[mem]\n"
              "bandwidthScale = 0.5\n");
    std::string top = dir.write("top.conf",
                                "[accel]\n"
                                "ruleLanes = 8\n"
                                "include \"sub/base.inc\"\n"
                                "fifoDepth = 4\n");
    ConfFile cf = ConfFile::parseFile(top);
    EXPECT_EQ(cf.getDouble("mem", "bandwidthScale"), 0.5);
    // fifoDepth lands back in [accel], not in the include's [mem].
    EXPECT_EQ(cf.getU32("accel", "fifoDepth"), 4u);
}

TEST(ConfParse, IncludeThenOverrideIdiom)
{
    ConfDir dir;
    dir.write("machine.inc",
              "[mem]\n"
              "bandwidthScale = 1.0\n");
    std::string top = dir.write("starved.conf",
                                "include \"machine.inc\"\n"
                                "[mem]\n"
                                "bandwidthScale = 0.05\n");
    ConfFile cf = ConfFile::parseFile(top);
    EXPECT_EQ(cf.getDouble("mem", "bandwidthScale"), 0.05);
}

TEST(ConfParseDeath, IncludeCycleIsFatal)
{
    setQuietLogging(true);
    ConfDir dir;
    dir.write("a.conf", "include \"b.conf\"\n");
    std::string b = dir.write("b.conf", "include \"a.conf\"\n");
    EXPECT_EXIT(ConfFile::parseFile(b), ::testing::ExitedWithCode(1),
                "include nesting");
}

TEST(ConfParseDeath, MissingIncludeIsFatal)
{
    setQuietLogging(true);
    ConfDir dir;
    std::string top = dir.write("top.conf", "include \"nope.inc\"\n");
    EXPECT_EXIT(ConfFile::parseFile(top), ::testing::ExitedWithCode(1),
                "cannot open config file");
}

// ----------------------------------------------------- overrides

TEST(ConfParse, ApplyOverrideSetsAndReplaces)
{
    ConfFile cf = ConfFile::parseString(
        "[accel]\n"
        "ruleLanes = 8\n");
    cf.applyOverride("accel.ruleLanes=64");
    cf.applyOverride("mem.bandwidthScale=0.25");
    cf.applyOverride("name=tweaked");
    EXPECT_EQ(cf.getU32("accel", "ruleLanes"), 64u);
    EXPECT_EQ(cf.getDouble("mem", "bandwidthScale"), 0.25);
    EXPECT_EQ(cf.getString("", "name"), "tweaked");
}

TEST(ConfParseDeath, MalformedOverridesAreFatal)
{
    setQuietLogging(true);
    ConfFile cf;
    EXPECT_EXIT(cf.applyOverride("no-equals"),
                ::testing::ExitedWithCode(1),
                "expected section.key=value");
    EXPECT_EXIT(cf.applyOverride("a..b=1"),
                ::testing::ExitedWithCode(1), "invalid key");
}

// -------------------------------------------------------- loader

TEST(Loader, EmptyConfigReproducesBase)
{
    Scenario s = loadScenario(ConfFile(), defaultAccelConfig());
    expectConfigEq(s.accel, defaultAccelConfig());
    EXPECT_FALSE(s.hasScale);
}

TEST(Loader, AppliesKnobsOntoBase)
{
    ConfFile cf = ConfFile::parseString(
        "[scenario]\n"
        "name = 'test'\n"
        "description = 'a test scenario'\n"
        "[workload]\n"
        "scale = 0.5\n"
        "[accel]\n"
        "pipelinesPerSet = 8\n"
        "lsuInOrder = true\n"
        "[mem]\n"
        "bandwidthScale = 0.25\n"
        "[cache]\n"
        "prefetchNextLine = true\n"
        "[qpi]\n"
        "latency = 80\n");
    Scenario s = loadScenario(cf, defaultAccelConfig());
    EXPECT_EQ(s.name, "test");
    EXPECT_EQ(s.description, "a test scenario");
    EXPECT_TRUE(s.hasScale);
    EXPECT_EQ(s.scale, 0.5);
    EXPECT_EQ(s.accel.pipelinesPerSet, 8u);
    EXPECT_TRUE(s.accel.lsuInOrder);
    EXPECT_EQ(s.accel.mem.bandwidthScale, 0.25);
    EXPECT_TRUE(s.accel.mem.cache.prefetchNextLine);
    EXPECT_EQ(s.accel.mem.qpi.latency, 80u);
    // Untouched knobs keep the base values.
    EXPECT_EQ(s.accel.ruleLanes, defaultAccelConfig().ruleLanes);
}

TEST(Loader, AccelClockKeepsMemClockInSync)
{
    ConfFile cf = ConfFile::parseString(
        "[accel]\n"
        "clockHz = 400e6\n");
    Scenario s = loadScenario(cf, defaultAccelConfig());
    EXPECT_EQ(s.accel.clockHz, 400e6);
    EXPECT_EQ(s.accel.mem.clockHz, 400e6);

    ConfFile both = ConfFile::parseString(
        "[accel]\n"
        "clockHz = 400e6\n"
        "[mem]\n"
        "clockHz = 200e6\n");
    Scenario s2 = loadScenario(both, defaultAccelConfig());
    EXPECT_EQ(s2.accel.clockHz, 400e6);
    EXPECT_EQ(s2.accel.mem.clockHz, 200e6);
}

TEST(LoaderDeath, UnknownKnobIsLocatedFatal)
{
    setQuietLogging(true);
    ConfFile cf = ConfFile::parseString(
        "[accel]\n"
        "ruleLanez = 8\n",
        "typo.conf");
    EXPECT_EXIT(loadScenario(cf, defaultAccelConfig()),
                ::testing::ExitedWithCode(1),
                "typo.conf:2.*unknown knob 'accel.ruleLanez'");
}

TEST(LoaderDeath, GlobalKnobsAreRejectedTowardDefine)
{
    setQuietLogging(true);
    ConfFile cf =
        ConfFile::parseString("lanes = 32\n", "global.conf");
    EXPECT_EXIT(loadScenario(cf, defaultAccelConfig()),
                ::testing::ExitedWithCode(1),
                "global.conf:1.*\\[define\\]");
}

TEST(LoaderDeath, OutOfRangeKnobsAreLocatedFatal)
{
    setQuietLogging(true);
    auto reject = [](const char *text, const char *msg) {
        ConfFile cf = ConfFile::parseString(text, "range.conf");
        EXPECT_EXIT(loadScenario(cf, defaultAccelConfig()),
                    ::testing::ExitedWithCode(1), msg);
    };
    reject("[accel]\npipelinesPerSet = 0\n",
           "range.conf:2.*pipelinesPerSet");
    reject("[workload]\nscale = -1\n", "range.conf:2.*scale");
    reject("[mem]\nbandwidthScale = 0\n",
           "range.conf:2.*bandwidthScale");
    reject("[qpi]\nbytesPerCycle = 0\n",
           "range.conf:2.*bytesPerCycle");
    reject("[cache]\nmshrs = 0\n", "range.conf:2.*mshrs");
    reject("[accel]\nhostInterval = 0\n",
           "range.conf:2.*hostInterval");
    reject("[accel]\notherwiseTimeout = 0\n",
           "range.conf:2.*otherwiseTimeout");
    reject("[cache]\nlineBytes = 4\n", "range.conf:2.*lineBytes");
    // Oversized structural knobs: past their bounds they would
    // exhaust memory or time building the machine.
    reject("[cache]\nsizeBytes = 1099511627776\n",
           "range.conf:2.*cache.sizeBytes must be <=");
    reject("[accel]\nruleLanes = 4000000000\n",
           "range.conf:2.*accel.ruleLanes must be <=");
    reject("[accel]\npipelinesPerSet = 100000000\n",
           "range.conf:2.*accel.pipelinesPerSet must be <=");
}

TEST(LoaderDeath, CrossFieldChecksUseSharedValidation)
{
    setQuietLogging(true);
    // Individually legal values whose combination is rejected by
    // validateAccelConfig/validateMemConfig — the same path
    // C++-built configs hit at Accelerator construction.
    ConfFile cf = ConfFile::parseString(
        "[accel]\n"
        "otherwiseTimeout = 100\n"
        "deadlockCycles = 50\n");
    EXPECT_EXIT(loadScenario(cf, defaultAccelConfig()),
                ::testing::ExitedWithCode(1),
                "deadlockCycles must exceed otherwiseTimeout");

    ConfFile geo = ConfFile::parseString(
        "[cache]\n"
        "sizeBytes = 96\n"
        "lineBytes = 64\n");
    EXPECT_EXIT(loadScenario(geo, defaultAccelConfig()),
                ::testing::ExitedWithCode(1),
                "cache.sizeBytes must be a non-zero multiple");

    ConfFile wall = ConfFile::parseString(
        "[accel]\n"
        "maxCycles = 1000\n"
        "deadlockCycles = 2000\n");
    EXPECT_EXIT(loadScenario(wall, defaultAccelConfig()),
                ::testing::ExitedWithCode(1),
                "deadlockCycles must not exceed maxCycles");
}

TEST(LoaderDeath, SpecLivenessKnobsAreValidated)
{
    setQuietLogging(true);
    // A zero base would erase the exponential schedule; the loader's
    // range check rejects it at the offending line.
    ConfFile zero = ConfFile::parseString("[spec]\n"
                                          "backoffBase = 0\n",
                                          "spec.conf");
    EXPECT_EXIT(loadScenario(zero, defaultAccelConfig()),
                ::testing::ExitedWithCode(1),
                "spec.conf:2.*backoffBase");

    // Pinning rides the retry tracking of the liveness subsystem:
    // turning liveness off while pinOldest (default-on) stays set is
    // a cross-field contradiction, caught by the shared validation.
    ConfFile pin = ConfFile::parseString("[spec]\n"
                                         "liveness = false\n");
    EXPECT_EXIT(loadScenario(pin, defaultAccelConfig()),
                ::testing::ExitedWithCode(1),
                "spec.pinOldest requires spec.liveness");

    // Watchdog-only mode — both off — is legal.
    ConfFile off = ConfFile::parseString("[spec]\n"
                                         "liveness = false\n"
                                         "pinOldest = false\n");
    Scenario s = loadScenario(off, defaultAccelConfig());
    EXPECT_FALSE(s.accel.specLiveness);
    EXPECT_FALSE(s.accel.specPinOldest);
}

TEST(SpecConfigDeath, CxxBuiltConfigsHitTheSameSpecChecks)
{
    setQuietLogging(true);
    // The C++ construction path (no .conf involved) funnels through
    // validateAccelConfig, so the same contradictions are fatal.
    AccelConfig base;
    base.specBackoffBase = 0;
    EXPECT_EXIT(validateAccelConfig(base),
                ::testing::ExitedWithCode(1),
                "spec.backoffBase must be >= 1");

    AccelConfig pin;
    pin.specLiveness = false;
    pin.specPinOldest = true;
    EXPECT_EXIT(validateAccelConfig(pin),
                ::testing::ExitedWithCode(1),
                "spec.pinOldest requires spec.liveness");
}

// ------------------------------------------------------ knob tables

namespace {

/** Call fn(row, value) for every knob row, with its value in `cfg`. */
template <typename Fn>
void
forEachKnob(const AccelConfig &cfg, Fn fn)
{
    for (const auto &row : accelKnobs())
        row.visit(cfg, [&](auto v) { fn(row, v); });
    for (const auto &row : memKnobs())
        row.visit(cfg.mem, [&](auto v) { fn(row, v); });
}

/** Every knob row's value in `cfg` as text, keyed by its name. */
std::map<std::string, std::string>
knobValues(const AccelConfig &cfg)
{
    std::map<std::string, std::string> out;
    forEachKnob(cfg, [&](const auto &row, auto v) {
        out[row.name()] = strprintf("%.17g", double(v));
    });
    return out;
}

/** A knob row and a legal value for it that differs from `base`. */
struct RowCase
{
    std::string name;
    bool structural;
    std::string value;
};

std::vector<RowCase>
rowCases(const AccelConfig &base)
{
    std::vector<RowCase> out;
    forEachKnob(base, [&](const auto &row, auto v) {
        std::string text;
        if constexpr (std::is_same_v<decltype(v), bool>)
            text = v ? "false" : "true";
        else
            text = strprintf("%.17g", v == 0 ? 1000.0 : 2.0 * v);
        out.push_back({row.name(), row.structural, text});
    });
    return out;
}

} // namespace

TEST(KnobTable, EveryRowIsSettableAndKeyed)
{
    // Knobs a row's new value needs to stay legal, and the knobs that
    // move with it.
    const std::map<std::string, std::vector<std::string>> companions = {
        {"spec.liveness", {"spec.pinOldest=false"}},
    };
    const std::map<std::string, std::string> follower = {
        {"accel.clockHz", "mem.clockHz"},
    };
    const AccelConfig base = defaultAccelConfig();
    const auto before = knobValues(base);
    for (const RowCase &r : rowCases(base)) {
        SCOPED_TRACE(r.name + "=" + r.value);
        std::vector<std::string> sets = {r.name + "=" + r.value};
        std::set<std::string> expected = {r.name};
        if (auto c = companions.find(r.name); c != companions.end())
            for (const std::string &set : c->second) {
                sets.push_back(set);
                expected.insert(set.substr(0, set.find('=')));
            }
        if (auto f = follower.find(r.name); f != follower.end())
            expected.insert(f->second);

        AccelConfig cfg = loadScenarioFile("", base, sets).accel;
        // The row's member took the value, and no other row's did.
        std::set<std::string> changed;
        for (const auto &[name, value] : knobValues(cfg))
            if (value != before.at(name))
                changed.insert(name);
        EXPECT_EQ(changed, expected);
        EXPECT_NE(configCanonicalKey(cfg), configCanonicalKey(base));
        EXPECT_EQ(configStructuralKey(cfg) != configStructuralKey(base),
                  r.structural);
    }
}

TEST(KnobTable, DefaultKeysAreByteStable)
{
    // Checkpoint headers and the apird result store hold these
    // strings: reordering or respelling a row must not change them.
    EXPECT_EQ(configCanonicalKey(defaultAccelConfig()),
              "accel.pipelinesPerSet=4|accel.ruleLanes=32|"
              "accel.queueBanks=4|accel.queueBankCapacity=65536|"
              "accel.lsuEntries=8|accel.lsuInOrder=0|accel.fifoDepth=2|"
              "accel.rendezvousEntries=32|accel.otherwiseTimeout=64|"
              "accel.deadlockCycles=0|accel.maxCycles=68719476736|"
              "accel.fastForward=1|accel.clockHz=200000000|"
              "spec.liveness=1|spec.backoffBase=4|spec.pinOldest=1|"
              "accel.hostBatch=0|accel.hostInterval=256|"
              "mem.bandwidthScale=1|mem.clockHz=200000000|"
              "cache.sizeBytes=65536|cache.lineBytes=64|"
              "cache.hitLatency=14|cache.mshrs=32|"
              "cache.prefetchNextLine=0|qpi.bytesPerCycle=35|"
              "qpi.latency=40");
    EXPECT_EQ(configStructuralKey(defaultAccelConfig()),
              "accel.pipelinesPerSet=4|accel.ruleLanes=32|"
              "accel.queueBanks=4|accel.queueBankCapacity=65536|"
              "accel.lsuEntries=8|accel.fifoDepth=2|"
              "accel.rendezvousEntries=32|cache.sizeBytes=65536|"
              "cache.lineBytes=64|cache.mshrs=32");
}

TEST(KnobTable, DocsListExactlyTheTableRows)
{
    std::ifstream in(std::string(APIR_DOCS_DIR) + "/configs.md");
    ASSERT_TRUE(in.good());
    // "### `[cache]` ..." opens a knob section, any other heading
    // closes it, and "| `sizeBytes` | ..." documents one knob.
    std::set<std::string> documented;
    std::string section, line;
    while (std::getline(in, line)) {
        if (line.rfind("### `[", 0) == 0)
            section = line.substr(6, line.find("]`") - 6);
        else if (line.rfind("#", 0) == 0)
            section.clear();
        else if (!section.empty() && line.rfind("| `", 0) == 0)
            documented.insert(section + "." +
                              line.substr(3, line.find('`', 3) - 3));
    }
    // [scenario] and [workload] describe the run, not the machine;
    // the loader reads them by hand.
    std::erase_if(documented, [](const std::string &k) {
        return k.starts_with("scenario.") || k.starts_with("workload.");
    });
    std::set<std::string> rows;
    for (const auto &[name, value] : knobValues(defaultAccelConfig()))
        rows.insert(name);
    EXPECT_EQ(documented, rows);
}

// ------------------------------------- shared validation hardening

TEST(MemConfigDeath, DegenerateMemConfigsAreNamedFatal)
{
    setQuietLogging(true);
    auto reject = [](auto mutate, const char *msg) {
        MemConfig cfg;
        mutate(cfg);
        EXPECT_EXIT(MemorySystem{cfg}, ::testing::ExitedWithCode(1),
                    msg);
    };
    reject([](MemConfig &c) { c.clockHz = 0.0; }, "mem.clockHz");
    reject([](MemConfig &c) { c.bandwidthScale = 0.0; },
           "mem.bandwidthScale");
    reject([](MemConfig &c) { c.qpi.bytesPerCycle = 0.0; },
           "qpi.bytesPerCycle");
    reject([](MemConfig &c) { c.cache.lineBytes = 4; },
           "cache.lineBytes");
    reject([](MemConfig &c) { c.cache.sizeBytes = 0; },
           "cache.sizeBytes");
    reject([](MemConfig &c) { c.cache.mshrs = 0; }, "cache.mshrs");
}

// ----------------------------------- scenario corpus (data files)

TEST(ScenarioCorpus, EveryScenarioLoadsAndValidates)
{
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(APIR_SCENARIO_DIR))
        if (e.path().extension() == ".conf")
            files.push_back(e.path().string());
    ASSERT_GE(files.size(), 6u) << "scenario corpus went missing";
    for (const std::string &f : files) {
        SCOPED_TRACE(f);
        Scenario s = loadScenarioFile(f, defaultAccelConfig());
        EXPECT_FALSE(s.name.empty());
    }
}

TEST(ScenarioCorpus, HarpDefaultReproducesCompiledDefaults)
{
    // The acceptance-criterion equivalence at the knob level; CI
    // additionally diffs the full fig9 stats-json byte for byte.
    std::string path =
        std::string(APIR_SCENARIO_DIR) + "/harp_default.conf";
    Scenario s = loadScenarioFile(path, defaultAccelConfig());
    expectConfigEq(s.accel, defaultAccelConfig());
    EXPECT_EQ(s.name, "harp-default");
    EXPECT_TRUE(s.hasScale);
    EXPECT_EQ(s.scale, 1.0);
}

TEST(ScenarioCorpus, HarpDefaultRunIsBitIdenticalToCompiledConfig)
{
    // End-to-end miniature of the CI check: one benchmark, loaded
    // config vs compiled config, identical stats JSON.
    std::string path =
        std::string(APIR_SCENARIO_DIR) + "/harp_default.conf";
    Scenario s = loadScenarioFile(path, defaultAccelConfig());
    Workloads w = makeWorkloads(0.05);
    AccelRun a = runAccelerator(Bench::SpecBfs, w, s.accel, false);
    AccelRun b =
        runAccelerator(Bench::SpecBfs, w, defaultAccelConfig(), false);
    EXPECT_EQ(runToJson(a).dump(), runToJson(b).dump());
}

// ------------------------------------------- strict bench cmdline

TEST(ParseOptions, EqualsSpellingMatchesSpaceSpelling)
{
    Options a = parseArgs({"--scale", "0.5", "--threads", "3"});
    Options b = parseArgs({"--scale=0.5", "--threads=3"});
    EXPECT_EQ(a.scale, b.scale);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(b.scale, 0.5);
    EXPECT_EQ(b.threads, 3u);
}

TEST(ParseOptions, SetAloneBuildsScenario)
{
    Options o = parseArgs({"--set", "accel.ruleLanes=64"});
    ASSERT_TRUE(o.scenario.has_value());
    EXPECT_EQ(o.scenario->accel.ruleLanes, 64u);
    AccelConfig cfg = defaultAccelConfig(o);
    EXPECT_EQ(cfg.ruleLanes, 64u);
    // Untouched knobs keep bench defaults.
    EXPECT_EQ(cfg.queueBanks, defaultAccelConfig().queueBanks);
}

TEST(ParseOptions, ExplicitScaleBeatsConfigScale)
{
    ConfDir dir;
    std::string conf = dir.write("s.conf",
                                 "[workload]\n"
                                 "scale = 4.0\n");
    Options fromFile = parseArgs({"--config", conf});
    EXPECT_EQ(fromFile.scale, 4.0);
    // CLI wins in either argument order.
    Options cli1 = parseArgs({"--scale", "0.1", "--config", conf});
    Options cli2 = parseArgs({"--config", conf, "--scale", "0.1"});
    EXPECT_EQ(cli1.scale, 0.1);
    EXPECT_EQ(cli2.scale, 0.1);
}

TEST(ParseOptions, FlagsComposeWithScenario)
{
    ConfDir dir;
    std::string conf = dir.write("s.conf",
                                 "[mem]\n"
                                 "bandwidthScale = 0.5\n");
    Options o =
        parseArgs({"--config", conf, "--bandwidth-scale", "0.5"});
    AccelConfig cfg = defaultAccelConfig(o);
    EXPECT_EQ(cfg.mem.bandwidthScale, 0.25);
}

TEST(ParseOptionsDeath, MalformedNumbersAreParseErrors)
{
    setQuietLogging(true);
    // The historical bug: "--scale 2x" silently ran at 2.0 and
    // "--scale abc" blamed the sign instead of the parse.
    EXPECT_EXIT(parseArgs({"--scale", "2x"}),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(parseArgs({"--scale", "abc"}),
                ::testing::ExitedWithCode(1), "not a number");
    EXPECT_EXIT(parseArgs({"--scale", "-1"}),
                ::testing::ExitedWithCode(1),
                "--scale must be positive");
    EXPECT_EXIT(parseArgs({"--threads", "4x"}),
                ::testing::ExitedWithCode(1),
                "not an unsigned integer");
    EXPECT_EXIT(parseArgs({"--threads", "-2"}),
                ::testing::ExitedWithCode(1),
                "not an unsigned integer");
    EXPECT_EXIT(parseArgs({"--bandwidth-scale", "fast"}),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(ParseOptionsDeath, UnknownAndMalformedFlagsAreFatal)
{
    setQuietLogging(true);
    EXPECT_EXIT(parseArgs({"--stat-json", "x"}),
                ::testing::ExitedWithCode(1), "unknown argument");
    // "--scale=2" used to die as an unknown argument; now the
    // spelling is accepted, so only a truly unknown name is fatal.
    EXPECT_EXIT(parseArgs({"--scal=2"}),
                ::testing::ExitedWithCode(1),
                "unknown argument '--scal'");
    EXPECT_EXIT(parseArgs({"--no-fast-forward=1"}),
                ::testing::ExitedWithCode(1),
                "does not take a value");
    EXPECT_EXIT(parseArgs({"--scale"}), ::testing::ExitedWithCode(1),
                "requires a value");
    EXPECT_EXIT(parseArgs({"--set", "accel.ruleLanes=2x"}),
                ::testing::ExitedWithCode(1),
                "not an unsigned integer");
    EXPECT_EXIT(parseArgs({"--config", "/nonexistent/x.conf"}),
                ::testing::ExitedWithCode(1),
                "cannot open config file");
}
