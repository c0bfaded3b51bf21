#include "config/canonical.hh"

#include <type_traits>

#include "support/str.hh"

namespace apir {

std::string
canonicalDouble(double v)
{
    return strprintf("%.17g", v);
}

namespace {

/**
 * "knob=value|..." over every knob row, structural rows only when
 * `structuralOnly`. The order is the one checkpoint headers and the
 * apird result store hold: the AccelConfig rows, then the MemConfig
 * rows.
 */
std::string
knobKey(const AccelConfig &cfg, bool structuralOnly)
{
    std::string out;
    auto emit = [&](const auto &row, const auto &owner) {
        if (structuralOnly && !row.structural)
            return;
        row.visit(owner, [&](auto v) {
            if (!out.empty())
                out += '|';
            out.append(row.section).append(".").append(row.key) += '=';
            // Doubles get the round-trip spelling, so two configs
            // differing anywhere in a value's bits get distinct keys.
            if constexpr (std::is_same_v<decltype(v), double>)
                out += canonicalDouble(v);
            else
                out += std::to_string(v);
        });
    };
    for (const Knob<AccelConfig> &row : accelKnobs())
        emit(row, cfg);
    for (const Knob<MemConfig> &row : memKnobs())
        emit(row, cfg.mem);
    return out;
}

} // namespace

std::string
configCanonicalKey(const AccelConfig &cfg)
{
    return knobKey(cfg, false);
}

std::string
configStructuralKey(const AccelConfig &cfg)
{
    return knobKey(cfg, true);
}

} // namespace apir
