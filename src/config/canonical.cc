#include "config/canonical.hh"

#include <sstream>

#include "support/str.hh"

namespace apir {

std::string
canonicalDouble(double v)
{
    return strprintf("%.17g", v);
}

namespace {

/**
 * Doubles are keyed with enough digits to round-trip exactly, so two
 * configurations differing anywhere in the value's bits get distinct
 * keys (matching the repo-wide %.17g JSON number convention).
 */
std::string
num(double v)
{
    return canonicalDouble(v);
}

} // namespace

std::string
configCanonicalKey(const AccelConfig &cfg)
{
    std::ostringstream os;
    os << "accel.pipelinesPerSet=" << cfg.pipelinesPerSet
       << "|accel.ruleLanes=" << cfg.ruleLanes
       << "|accel.queueBanks=" << cfg.queueBanks
       << "|accel.queueBankCapacity=" << cfg.queueBankCapacity
       << "|accel.lsuEntries=" << cfg.lsuEntries
       << "|accel.lsuInOrder=" << cfg.lsuInOrder
       << "|accel.fifoDepth=" << cfg.fifoDepth
       << "|accel.rendezvousEntries=" << cfg.rendezvousEntries
       << "|accel.otherwiseTimeout=" << cfg.otherwiseTimeout
       << "|accel.deadlockCycles=" << cfg.deadlockCycles
       << "|accel.maxCycles=" << cfg.maxCycles
       << "|accel.fastForward=" << cfg.fastForward
       << "|accel.clockHz=" << num(cfg.clockHz)
       << "|spec.liveness=" << cfg.specLiveness
       << "|spec.backoffBase=" << cfg.specBackoffBase
       << "|spec.pinOldest=" << cfg.specPinOldest
       << "|accel.hostBatch=" << cfg.hostBatch
       << "|accel.hostInterval=" << cfg.hostInterval
       << "|mem.bandwidthScale=" << num(cfg.mem.bandwidthScale)
       << "|mem.clockHz=" << num(cfg.mem.clockHz)
       << "|cache.sizeBytes=" << cfg.mem.cache.sizeBytes
       << "|cache.lineBytes=" << cfg.mem.cache.lineBytes
       << "|cache.hitLatency=" << cfg.mem.cache.hitLatency
       << "|cache.mshrs=" << cfg.mem.cache.mshrs
       << "|cache.prefetchNextLine=" << cfg.mem.cache.prefetchNextLine
       << "|qpi.bytesPerCycle=" << num(cfg.mem.qpi.bytesPerCycle)
       << "|qpi.latency=" << cfg.mem.qpi.latency
       << "|sample.interval=" << cfg.sampleInterval
       << "|sample.window=" << cfg.sampleWindow;
    return os.str();
}

std::string
configStructuralKey(const AccelConfig &cfg)
{
    std::ostringstream os;
    os << "accel.pipelinesPerSet=" << cfg.pipelinesPerSet
       << "|accel.ruleLanes=" << cfg.ruleLanes
       << "|accel.queueBanks=" << cfg.queueBanks
       << "|accel.queueBankCapacity=" << cfg.queueBankCapacity
       << "|accel.lsuEntries=" << cfg.lsuEntries
       << "|accel.fifoDepth=" << cfg.fifoDepth
       << "|accel.rendezvousEntries=" << cfg.rendezvousEntries
       << "|cache.sizeBytes=" << cfg.mem.cache.sizeBytes
       << "|cache.lineBytes=" << cfg.mem.cache.lineBytes
       << "|cache.mshrs=" << cfg.mem.cache.mshrs;
    return os.str();
}

} // namespace apir
