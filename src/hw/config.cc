#include "hw/config.hh"

#include "support/logging.hh"

namespace apir {

namespace {

template <auto... Path>
constexpr auto field = &knobField<AccelConfig, Path...>;

using A = AccelConfig;

// Delays are shifted and multiplied (the derived watchdog window is
// otherwiseTimeout * 64, a backoff is base << 16), so they stay far
// below 2^64; walls and intervals are only compared.
constexpr uint64_t kMaxDelay = 1ull << 32;
constexpr uint64_t kMaxWall = 1ull << 48;

} // namespace

const std::vector<Knob<AccelConfig>> &
accelKnobs()
{
    // Structural maxima are far above every scenario, sweep and
    // fitPipelinesToDevice result (<= 64 pipelines), and low enough
    // that construction stays within memory and a second.
    // section, key, member, min, max, structural
    static const std::vector<Knob<AccelConfig>> rows = {
        {"accel", "pipelinesPerSet", field<&A::pipelinesPerSet>, 1, 256,
         true},
        {"accel", "ruleLanes", field<&A::ruleLanes>, 1, 4096, true},
        {"accel", "queueBanks", field<&A::queueBanks>, 1, 256, true},
        {"accel", "queueBankCapacity", field<&A::queueBankCapacity>, 1,
         1 << 24, true},
        {"accel", "lsuEntries", field<&A::lsuEntries>, 1, 4096, true},
        {"accel", "lsuInOrder", field<&A::lsuInOrder>, 0, 1, false},
        {"accel", "fifoDepth", field<&A::fifoDepth>, 1, 4096, true},
        {"accel", "rendezvousEntries", field<&A::rendezvousEntries>, 1,
         4096, true},
        {"accel", "otherwiseTimeout", field<&A::otherwiseTimeout>, 1,
         kMaxDelay, false},
        // 0 derives the watchdog window from otherwiseTimeout.
        {"accel", "deadlockCycles", field<&A::deadlockCycles>, 0,
         kMaxWall, false},
        {"accel", "maxCycles", field<&A::maxCycles>, 1, kMaxWall, false},
        {"accel", "fastForward", field<&A::fastForward>, 0, 1, false},
        {"accel", "clockHz", field<&A::clockHz>, kPositive, kUnbounded,
         false},
        {"spec", "liveness", field<&A::specLiveness>, 0, 1, false},
        {"spec", "backoffBase", field<&A::specBackoffBase>, 1, kMaxDelay,
         false},
        {"spec", "pinOldest", field<&A::specPinOldest>, 0, 1, false},
        // 0 = all initial tasks present at cycle 0 (not host-fed).
        {"accel", "hostBatch", field<&A::hostBatch>, 0, UINT32_MAX,
         false},
        // The host feed fires when cycle % hostInterval == 0.
        {"accel", "hostInterval", field<&A::hostInterval>, 1, kMaxWall,
         false},
    };
    return rows;
}

void
validateAccelConfig(const AccelConfig &cfg)
{
    auto require = [](bool ok, const char *what) {
        if (!ok)
            fatal("invalid AccelConfig: ", what);
    };
    for (const Knob<AccelConfig> &k : accelKnobs())
        if (std::string why = k.outOfRange(cfg); !why.empty())
            fatal("invalid AccelConfig: ", k.name(), " ", why);
    require(cfg.deadlockCycles == 0 ||
                cfg.deadlockCycles > cfg.otherwiseTimeout,
            "deadlockCycles must exceed otherwiseTimeout (the "
            "rendezvous liveness fallback must get a chance to fire "
            "before the watchdog declares deadlock)");
    require(cfg.deadlockCycles <= cfg.maxCycles,
            "deadlockCycles must not exceed maxCycles (the watchdog "
            "would never fire before the cycle wall)");
    require(!cfg.specPinOldest || cfg.specLiveness,
            "spec.pinOldest requires spec.liveness (the pinning "
            "protocol rides the squash-retry tracking of the "
            "speculative liveness subsystem; disable both to run "
            "watchdog-only)");
    validateMemConfig(cfg.mem);
}

} // namespace apir
