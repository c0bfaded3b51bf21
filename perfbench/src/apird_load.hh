/**
 * @file
 * The apird-mix workload: a real apird on loopback driven closed-loop
 * by this process's client connections with a seeded request stream.
 */

#ifndef PERFBENCH_APIRD_LOAD_HH
#define PERFBENCH_APIRD_LOAD_HH

#include <cstdint>
#include <string>

#include "result.hh"
#include "trace.hh"

namespace perfbench {

struct ApirdMixOptions
{
    std::string apird;       //!< daemon binary
    std::string scenarioDir; //!< the daemon's --scenario-dir
    uint64_t seed = 1;
    double seconds = 10;     //!< sizes the request stream
    double scale = 0;        //!< >0: every request at this scale
    bool trace = false;
    int setups = 0;          //!< set-ups per run; 0 = the workload's
    int rounds = 1;          //!< untraced: loads; the fastest counts
};

Result runApirdMix(const ApirdMixOptions &o, Tracer &t);

} // namespace perfbench

#endif // PERFBENCH_APIRD_LOAD_HH
