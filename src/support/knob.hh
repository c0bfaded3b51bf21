/**
 * @file
 * Knob descriptor tables. A config struct's table holds one row per
 * config-file knob: its spelling, a typed reference to the struct
 * member it sets, its legal range, and whether it shapes the
 * machine's state. Parsing, validation, the canonical and structural
 * keys, and the docs check all walk the rows, so each fact about a
 * knob is written once (docs/configs.md).
 */

#ifndef APIR_SUPPORT_KNOB_HH
#define APIR_SUPPORT_KNOB_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <variant>

#include "support/str.hh"

namespace apir {

/** Lower bound of a real knob that must be > 0. */
inline constexpr double kPositive =
    std::numeric_limits<double>::denorm_min();

/** Upper bound of a knob whose range is open above. */
inline constexpr double kUnbounded = std::numeric_limits<double>::max();

/**
 * Accessor of the member reached from `cfg` along a member-pointer
 * path: `&knobField<MemConfig, &MemConfig::cache, &CacheConfig::mshrs>`
 * is a `uint32_t &(*)(MemConfig &)`.
 */
template <typename Cfg, auto... Path>
auto &
knobField(Cfg &cfg)
{
    return (cfg .* ... .* Path);
}

/** One row of a config struct's knob table. */
template <typename Cfg>
struct Knob
{
    using Field = std::variant<uint32_t &(*)(Cfg &), uint64_t &(*)(Cfg &),
                               bool &(*)(Cfg &), double &(*)(Cfg &)>;

    const char *section; //!< config-file section, e.g. "cache"
    const char *key;     //!< config-file key, e.g. "sizeBytes"
    Field field;         //!< the member the knob sets
    double min;          //!< inclusive lower bound (kPositive: > 0)
    double max;          //!< inclusive upper bound
    bool structural;     //!< part of configStructuralKey

    /** "section.key": the spelling of diagnostics and keys. */
    std::string name() const { return std::string(section) + "." + key; }

    /** Call fn with a reference to this knob's member of `cfg`. */
    template <typename Fn>
    void
    visit(Cfg &cfg, Fn &&fn) const
    {
        std::visit([&](auto ref) { fn(ref(cfg)); }, field);
    }

    template <typename Fn>
    void
    visit(const Cfg &cfg, Fn &&fn) const
    {
        // An accessor only names the member; this path never writes.
        Cfg &named = const_cast<Cfg &>(cfg);
        std::visit([&](auto ref) { fn(std::as_const(ref(named))); }, field);
    }

    /** Empty when `v` lies in [min, max]; else "must be >= 1"-style. */
    std::string
    outOfRange(double v) const
    {
        if (!(v >= min))
            return min == kPositive ? "must be positive"
                                    : strprintf("must be >= %.17g", min);
        if (v > max)
            return strprintf("must be <= %.17g", max);
        return {};
    }

    /** outOfRange of this knob's value in `cfg`. */
    std::string
    outOfRange(const Cfg &cfg) const
    {
        std::string why;
        visit(cfg,
              [&](auto v) { why = outOfRange(static_cast<double>(v)); });
        return why;
    }
};

} // namespace apir

#endif // APIR_SUPPORT_KNOB_HH
