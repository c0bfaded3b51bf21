/**
 * @file
 * Map a parsed SESC-style config file onto the simulator's knob
 * structs: `AccelConfig` (with its nested `MemConfig`) plus the
 * workload spec. Every machine knob is a row of accelKnobs() or
 * memKnobs(), applied through the strict typed accessor for its
 * member's type and checked against the row's bounds; unknown
 * section/key pairs are located fatal diagnostics (a typoed knob must
 * not silently fall back to the default), and the result is routed
 * through the same `validateAccelConfig` the C++-built configs hit —
 * one shared validation path.
 *
 * Recognized sections: [scenario] (name, description), [workload]
 * (scale), the knob-table sections [accel], [spec], [mem],
 * [cache], [qpi] (docs/configs.md), and [define] (free variables for
 * $(var), never validated as knobs).
 */

#ifndef APIR_CONFIG_LOADER_HH
#define APIR_CONFIG_LOADER_HH

#include <string>
#include <vector>

#include "hw/config.hh"

namespace apir {

class ConfFile;

/** A declarative scenario: machine knobs plus workload spec. */
struct Scenario
{
    std::string name;        //!< [scenario] name (default: file stem)
    std::string description; //!< [scenario] description
    AccelConfig accel;       //!< machine knobs, mem nested

    bool hasScale = false; //!< [workload] scale was specified
    double scale = 1.0;    //!< workload size multiplier
};

/**
 * Apply every knob in `cf` on top of `base`. Unknown knobs,
 * malformed values, and out-of-range values are located fatal
 * diagnostics; the final config is validated by validateAccelConfig.
 */
Scenario loadScenario(const ConfFile &cf, const AccelConfig &base);

/**
 * Parse `path`, apply `overrides` ("section.key=value", the --set
 * flag) on top, and load. An empty `path` starts from an empty
 * config, so overrides alone work too.
 */
Scenario loadScenarioFile(const std::string &path,
                          const AccelConfig &base,
                          const std::vector<std::string> &overrides = {});

} // namespace apir

#endif // APIR_CONFIG_LOADER_HH
