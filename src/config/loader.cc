#include "config/loader.hh"

#include <functional>
#include <vector>

#include "config/conf.hh"
#include "support/logging.hh"

namespace apir {

namespace {

/** Located out-of-range diagnostic naming the offending knob. */
[[noreturn]] void
rejectKnob(const ConfFile &cf, const std::string &sec,
           const std::string &key, const char *what)
{
    const ConfValue &v = cf.get(sec, key);
    std::string knob = sec.empty() ? key : sec + "." + key;
    fatal(v.loc.str(), ": ", knob, " ", what, " (got '", v.raw, "')");
}

struct Knob
{
    const char *section;
    const char *key;
    std::function<void(Scenario &, const ConfFile &)> apply;
};

/** The full knob registry: every recognized section.key. */
const std::vector<Knob> &
knobTable()
{
    auto u32 = [](uint32_t AccelConfig::*field, uint32_t min) {
        return [field, min](Scenario &s, const ConfFile &cf,
                            const char *sec, const char *key) {
            uint32_t v = cf.getU32(sec, key);
            if (v < min)
                rejectKnob(cf, sec, key,
                           min == 1 ? "must be >= 1" : "is too small");
            s.accel.*field = v;
        };
    };
    auto u64 = [](uint64_t AccelConfig::*field, uint64_t min) {
        return [field, min](Scenario &s, const ConfFile &cf,
                            const char *sec, const char *key) {
            uint64_t v = cf.getU64(sec, key);
            if (v < min)
                rejectKnob(cf, sec, key, "must be >= 1");
            s.accel.*field = v;
        };
    };
    auto boolean = [](bool AccelConfig::*field) {
        return [field](Scenario &s, const ConfFile &cf,
                       const char *sec, const char *key) {
            s.accel.*field = cf.getBool(sec, key);
        };
    };

    // Each entry binds its own section/key so the lambdas above can
    // be reused; the wrapper forwards them.
    auto bind = [](const char *sec, const char *key, auto fn) {
        return Knob{sec, key,
                    [fn, sec, key](Scenario &s, const ConfFile &cf) {
                        fn(s, cf, sec, key);
                    }};
    };

    static const std::vector<Knob> table = {
        // -------------------------------------------- identification
        bind("scenario", "name",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) { s.name = cf.getString(sec, key); }),
        bind("scenario", "description",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 s.description = cf.getString(sec, key);
             }),
        // ------------------------------------------------- workload
        bind("workload", "scale",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 double v = cf.getDouble(sec, key);
                 if (v <= 0.0)
                     rejectKnob(cf, sec, key, "must be positive");
                 s.scale = v;
                 s.hasScale = true;
             }),
        // ---------------------------------------------------- accel
        bind("accel", "pipelinesPerSet",
             u32(&AccelConfig::pipelinesPerSet, 1)),
        bind("accel", "ruleLanes", u32(&AccelConfig::ruleLanes, 1)),
        bind("accel", "queueBanks", u32(&AccelConfig::queueBanks, 1)),
        bind("accel", "queueBankCapacity",
             u32(&AccelConfig::queueBankCapacity, 1)),
        bind("accel", "lsuEntries", u32(&AccelConfig::lsuEntries, 1)),
        bind("accel", "lsuInOrder", boolean(&AccelConfig::lsuInOrder)),
        bind("accel", "fifoDepth", u32(&AccelConfig::fifoDepth, 1)),
        bind("accel", "rendezvousEntries",
             u32(&AccelConfig::rendezvousEntries, 1)),
        bind("accel", "otherwiseTimeout",
             u64(&AccelConfig::otherwiseTimeout, 1)),
        // 0 = derive from otherwiseTimeout; cross-checked against it
        // by validateAccelConfig.
        bind("accel", "deadlockCycles",
             u64(&AccelConfig::deadlockCycles, 0)),
        bind("accel", "maxCycles", u64(&AccelConfig::maxCycles, 1)),
        bind("accel", "fastForward", boolean(&AccelConfig::fastForward)),
        bind("accel", "clockHz",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 double v = cf.getDouble(sec, key);
                 if (v <= 0.0)
                     rejectKnob(cf, sec, key, "must be positive");
                 s.accel.clockHz = v;
                 // The per-cycle QPI bandwidth is quoted against the
                 // FPGA clock; keep the two in sync (the config.hh
                 // contract) unless [mem] overrides it explicitly.
                 if (!cf.has("mem", "clockHz"))
                     s.accel.mem.clockHz = v;
             }),
        // 0 = all initial tasks present at cycle 0 (not host-fed).
        bind("accel", "hostBatch", u32(&AccelConfig::hostBatch, 0)),
        bind("accel", "hostInterval",
             u64(&AccelConfig::hostInterval, 1)),
        // --------------------------------------------------- sample
        // Interval sampling (docs/checkpointing.md); 0 = disabled.
        // window < interval is cross-checked by validateAccelConfig.
        bind("sample", "interval",
             u64(&AccelConfig::sampleInterval, 0)),
        bind("sample", "window", u64(&AccelConfig::sampleWindow, 0)),
        // ----------------------------------------------------- spec
        // The squash-retry liveness subsystem (docs/liveness.md);
        // pinOldest-requires-liveness is cross-checked by
        // validateAccelConfig like every other cross-knob rule.
        bind("spec", "liveness", boolean(&AccelConfig::specLiveness)),
        bind("spec", "backoffBase",
             u64(&AccelConfig::specBackoffBase, 1)),
        bind("spec", "pinOldest",
             boolean(&AccelConfig::specPinOldest)),
        // ------------------------------------------------------ mem
        bind("mem", "bandwidthScale",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 double v = cf.getDouble(sec, key);
                 if (v <= 0.0)
                     rejectKnob(cf, sec, key, "must be positive");
                 s.accel.mem.bandwidthScale = v;
             }),
        bind("mem", "clockHz",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 double v = cf.getDouble(sec, key);
                 if (v <= 0.0)
                     rejectKnob(cf, sec, key, "must be positive");
                 s.accel.mem.clockHz = v;
             }),
        // ---------------------------------------------------- cache
        bind("cache", "sizeBytes",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 uint64_t v = cf.getU64(sec, key);
                 if (v == 0)
                     rejectKnob(cf, sec, key, "must be >= 1");
                 s.accel.mem.cache.sizeBytes = v;
             }),
        bind("cache", "lineBytes",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 uint64_t v = cf.getU64(sec, key);
                 if (v == 0)
                     rejectKnob(cf, sec, key, "must be >= 1");
                 s.accel.mem.cache.lineBytes = v;
             }),
        bind("cache", "hitLatency",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 s.accel.mem.cache.hitLatency = cf.getU64(sec, key);
             }),
        bind("cache", "mshrs",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 uint32_t v = cf.getU32(sec, key);
                 if (v == 0)
                     rejectKnob(cf, sec, key, "must be >= 1");
                 s.accel.mem.cache.mshrs = v;
             }),
        bind("cache", "prefetchNextLine",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 s.accel.mem.cache.prefetchNextLine =
                     cf.getBool(sec, key);
             }),
        // ------------------------------------------------------ qpi
        bind("qpi", "bytesPerCycle",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 double v = cf.getDouble(sec, key);
                 if (v <= 0.0)
                     rejectKnob(cf, sec, key, "must be positive");
                 s.accel.mem.qpi.bytesPerCycle = v;
             }),
        bind("qpi", "latency",
             [](Scenario &s, const ConfFile &cf, const char *sec,
                const char *key) {
                 s.accel.mem.qpi.latency = cf.getU64(sec, key);
             }),
    };
    return table;
}

const Knob *
findKnob(const std::string &section, const std::string &key)
{
    for (const Knob &k : knobTable())
        if (section == k.section && key == k.key)
            return &k;
    return nullptr;
}

/** "path/to/harp_default.conf" -> "harp_default". */
std::string
fileStem(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    size_t start = slash == std::string::npos ? 0 : slash + 1;
    size_t dot = path.find_last_of('.');
    if (dot == std::string::npos || dot <= start)
        dot = path.size();
    return path.substr(start, dot - start);
}

} // namespace

Scenario
loadScenario(const ConfFile &cf, const AccelConfig &base)
{
    Scenario s;
    s.accel = base;
    if (!cf.path().empty())
        s.name = fileStem(cf.path());

    for (const std::string &section : cf.sections()) {
        // [define] holds free $(var) variables, never knobs.
        if (section == "define")
            continue;
        for (const std::string &key : cf.keys(section)) {
            const Knob *k = findKnob(section, key);
            if (!k) {
                const ConfValue &v = cf.get(section, key);
                std::string knob =
                    section.empty() ? key : section + "." + key;
                fatal(v.loc.str(), ": unknown knob '", knob,
                      "' (variables belong in [define]; see "
                      "docs/configs.md for the knob list)");
            }
            k->apply(s, cf);
        }
    }

    // The shared validation path: file-loaded configs hit exactly
    // the checks C++-built configs hit at Accelerator construction.
    validateAccelConfig(s.accel);
    return s;
}

Scenario
loadScenarioFile(const std::string &path, const AccelConfig &base,
                 const std::vector<std::string> &overrides)
{
    ConfFile cf = path.empty() ? ConfFile()
                               : ConfFile::parseFile(path);
    for (const std::string &o : overrides)
        cf.applyOverride(o);
    return loadScenario(cf, base);
}

} // namespace apir
