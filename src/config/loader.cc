#include "config/loader.hh"

#include <type_traits>
#include <vector>

#include "config/conf.hh"
#include "support/logging.hh"

namespace apir {

namespace {

/** Located out-of-range diagnostic naming the offending knob. */
[[noreturn]] void
rejectKnob(const ConfFile &cf, const std::string &sec,
           const std::string &key, const std::string &what)
{
    const ConfValue &v = cf.get(sec, key);
    std::string knob = sec.empty() ? key : sec + "." + key;
    fatal(v.loc.str(), ": ", knob, " ", what, " (got '", v.raw, "')");
}

/** Read a knob's value from `cf` as the type of its member. */
template <typename T>
T
readValue(const ConfFile &cf, const std::string &sec,
          const std::string &key)
{
    if constexpr (std::is_same_v<T, bool>)
        return cf.getBool(sec, key);
    else if constexpr (std::is_same_v<T, uint32_t>)
        return cf.getU32(sec, key);
    else if constexpr (std::is_same_v<T, uint64_t>)
        return cf.getU64(sec, key);
    else
        return cf.getDouble(sec, key);
}

/**
 * Apply section.key from `cf` to `cfg` if a row of `table` names it,
 * with the row's bounds as a located check; false when no row does.
 */
template <typename Cfg>
bool
applyRow(const std::vector<Knob<Cfg>> &table, Cfg &cfg,
         const ConfFile &cf, const std::string &sec,
         const std::string &key)
{
    for (const Knob<Cfg> &k : table) {
        if (sec != k.section || key != k.key)
            continue;
        k.visit(cfg, [&](auto &member) {
            auto v = readValue<std::decay_t<decltype(member)>>(cf, sec, key);
            std::string why = k.outOfRange(static_cast<double>(v));
            if (!why.empty())
                rejectKnob(cf, sec, key, why);
            member = v;
        });
        return true;
    }
    return false;
}

/**
 * The knobs that describe the scenario rather than the machine:
 * [scenario] name/description and [workload] scale. False for any
 * other section.key.
 */
bool
applyScenarioKnob(Scenario &s, const ConfFile &cf, const std::string &sec,
                  const std::string &key)
{
    if (sec == "scenario" && key == "name") {
        s.name = cf.getString(sec, key);
    } else if (sec == "scenario" && key == "description") {
        s.description = cf.getString(sec, key);
    } else if (sec == "workload" && key == "scale") {
        double v = cf.getDouble(sec, key);
        if (v <= 0.0)
            rejectKnob(cf, sec, key, "must be positive");
        s.scale = v;
        s.hasScale = true;
    } else {
        return false;
    }
    return true;
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
            if (applyRow(accelKnobs(), s.accel, cf, section, key) ||
                applyRow(memKnobs(), s.accel.mem, cf, section, key) ||
                applyScenarioKnob(s, cf, section, key))
                continue;
            const ConfValue &v = cf.get(section, key);
            std::string knob = section.empty() ? key : section + "." + key;
            fatal(v.loc.str(), ": unknown knob '", knob,
                  "' (variables belong in [define]; see "
                  "docs/configs.md for the knob list)");
        }
    }
    // The per-cycle QPI bandwidth is quoted against the FPGA clock;
    // keep the two in sync (the config.hh contract) unless [mem]
    // overrides it explicitly.
    if (cf.has("accel", "clockHz") && !cf.has("mem", "clockHz"))
        s.accel.mem.clockHz = s.accel.clockHz;

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
