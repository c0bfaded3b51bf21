/**
 * @file
 * What one benchmark run reports: operations attempted and failed,
 * metrics by name with their unit, the simulated counts that must
 * repeat exactly, and notes (sample counts, failure reasons).
 */

#ifndef PERFBENCH_RESULT_HH
#define PERFBENCH_RESULT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Simulated counts summed over the run's operations. */
    std::map<std::string, double> counts;
    /**
     * A fingerprint of each operation's simulated outputs, by
     * operation name: equal in every process that runs it.
     */
    std::map<std::string, std::string> outputs;
    std::vector<std::string> notes;

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }

    void
    fail(const std::string &why)
    {
        ++failed;
        if (notes.size() < 50)
            notes.push_back("FAILED: " + why);
    }

    /** The run as one JSON line. */
    std::string json() const;
};

double median(std::vector<double> v);

/** FNV-1a hash of `bytes`, as 16 hex digits. */
std::string fingerprint(const std::string &bytes);

/**
 * Nearest-rank q-quantile, reported only when at least ten samples
 * lie beyond it: nullopt otherwise. `beyond` receives that count.
 */
std::optional<double> tailQuantile(std::vector<double> v, double q,
                                   size_t &beyond);

/** Peak resident set (VmHWM) of process `pid`, MiB. */
double peakRssMb(const std::string &pid = "self");

} // namespace perfbench

#endif // PERFBENCH_RESULT_HH
