/**
 * @file
 * Canonical text form of a machine configuration, for memoization
 * keys. Two AccelConfigs produce the same key iff every knob that can
 * influence simulation results is equal, so a key collision is a
 * guaranteed cache hit: the apird result store and any future
 * distributed DSE runner can treat the key as the identity of a
 * simulated machine. Knobs are emitted in a fixed order under their
 * config-file spellings (docs/configs.md), making keys stable across
 * processes and debuggable by eye.
 */

#ifndef APIR_CONFIG_CANONICAL_HH
#define APIR_CONFIG_CANONICAL_HH

#include <string>

#include "hw/config.hh"

namespace apir {

/**
 * Serialize every simulation-affecting knob of `cfg` (accel.*,
 * spec.*, mem.*, cache.*, qpi.*) as "knob=value|..." in a fixed
 * order. The tracer is deliberately excluded: it never changes
 * simulated results, only what gets logged about them.
 */
std::string configCanonicalKey(const AccelConfig &cfg);

/**
 * Serialize only the *structural* knobs — the ones that determine the
 * shape of the machine's state (stage/queue/lane/FIFO/MSHR counts and
 * capacities). A checkpoint may only be restored into a machine with
 * an identical structural key; the remaining, timing-only knobs
 * (bandwidth scale, latencies, clock, fast-forward mode, liveness
 * schedule) may differ, which is exactly what the
 * warmup-once-sweep-many fig10 workflow needs (a canonical-key
 * mismatch on restore is a warning, not an error).
 */
std::string configStructuralKey(const AccelConfig &cfg);

/**
 * The repo-wide canonical spelling of a double (%.17g): exact
 * round-trip, shared by the canonical key, the workload cache key and
 * the JSON writer so equal values always collide.
 */
std::string canonicalDouble(double v);

} // namespace apir

#endif // APIR_CONFIG_CANONICAL_HH
