/**
 * @file
 * The QPI link between the FPGA and host DRAM on HARP, modeled as a
 * fixed-latency channel with finite bandwidth: ~7.0 GB/s and ~200 ns
 * miss latency at the paper's parameters ([14]). Bandwidth is the
 * Figure 10 knob: the bench scales it x1..x8 (and beyond).
 *
 * Service model: each 64-byte line transfer occupies the link for
 * lineBytes / bytesPerCycle cycles; a transfer completes `latency`
 * cycles after its service slot starts. This is a deterministic
 * single-server queue. Completion cycles use ceil semantics: a
 * transfer whose service+latency lands exactly on a cycle boundary
 * completes on that cycle, not one later.
 */

#ifndef APIR_MEM_QPI_HH
#define APIR_MEM_QPI_HH

#include <cmath>
#include <cstdint>
#include <string>

#include "support/stats.hh"

namespace apir {

class ChromeTracer;
class StatRegistry;

/** QPI configuration; defaults model HARP at 200 MHz. */
struct QpiConfig
{
    /**
     * Link bandwidth in bytes per FPGA cycle. 7.0 GB/s at 200 MHz
     * is 35 bytes/cycle.
     */
    double bytesPerCycle = 35.0;
    /** One-way transfer latency in cycles (~200 ns). */
    uint64_t latency = 40;
};

/** Deterministic bandwidth-limited channel. */
class QpiChannel
{
  public:
    explicit QpiChannel(QpiConfig cfg) : cfg_(cfg) {}

    /**
     * Schedule one cache-line transfer issued at `cycle`; returns its
     * completion cycle (first cycle at which the data is usable).
     */
    uint64_t transfer(uint64_t cycle, uint64_t bytes);

    /** Total bytes moved. */
    uint64_t bytesMoved() const { return bytesMoved_.value(); }
    /** Total transfers scheduled. */
    uint64_t transfers() const { return transfers_.value(); }
    /** Cycles during which the link was busy. */
    double busyCycles() const { return busyCycles_; }

    /**
     * First cycle at which the link is free to start a new service
     * slot. Purely informational for the fast-forward wake
     * computation: nothing polls the link, so this only bounds a skip
     * from below (an early wake is harmless, a late one never
     * happens because completions are captured at issue time).
     */
    uint64_t
    nextFreeCycle() const
    {
        return static_cast<uint64_t>(std::ceil(nextFree_));
    }

    const QpiConfig &config() const { return cfg_; }

    /** Register this link's statistics under `component`. */
    void registerStats(StatRegistry &reg,
                       const std::string &component) const;

    /** Emit busy intervals to `tracer` (not owned; may be null). */
    void attachTracer(ChromeTracer *tracer) { tracer_ = tracer; }

    /** Checkpoint field list: link occupancy and counters. */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar(nextFree_, busyCycles_, bytesMoved_, transfers_);
    }

  private:
    QpiConfig cfg_;
    double nextFree_ = 0.0;
    Counter bytesMoved_;
    Counter transfers_;
    double busyCycles_ = 0.0;
    ChromeTracer *tracer_ = nullptr;
};

} // namespace apir

#endif // APIR_MEM_QPI_HH
