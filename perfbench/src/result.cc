#include "result.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "support/json.hh"

namespace perfbench {

using apir::JsonValue;

std::string
Result::json() const
{
    JsonValue m = JsonValue::object();
    for (const auto &[name, vu] : metrics) {
        JsonValue one = JsonValue::object();
        one.set("value", JsonValue::number(vu.first));
        one.set("unit", JsonValue::str(vu.second));
        m.set(name, std::move(one));
    }
    JsonValue c = JsonValue::object();
    for (const auto &[name, v] : counts)
        c.set(name, JsonValue::number(v));
    JsonValue o = JsonValue::object();
    for (const auto &[name, f] : outputs)
        o.set(name, JsonValue::str(f));
    JsonValue n = JsonValue::array();
    for (const std::string &s : notes)
        n.push(JsonValue::str(s));
    JsonValue doc = JsonValue::object();
    doc.set("attempted", JsonValue::number(static_cast<double>(attempted)));
    doc.set("failed", JsonValue::number(static_cast<double>(failed)));
    doc.set("metrics", std::move(m));
    doc.set("counts", std::move(c));
    doc.set("outputs", std::move(o));
    doc.set("notes", std::move(n));
    return doc.dump();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
fingerprint(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes)
        h = (h ^ c) * 0x100000001b3ull;
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

std::optional<double>
tailQuantile(std::vector<double> v, double q, size_t &beyond)
{
    beyond = 0;
    if (v.empty())
        return std::nullopt;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    size_t idx = rank == 0 ? 0 : rank - 1;
    beyond = v.size() - 1 - idx;
    if (beyond < 10)
        return std::nullopt;
    return v[idx];
}

double
peakRssMb(const std::string &pid)
{
    // VmHWM, not getrusage: ru_maxrss keeps the high-water mark of the
    // image the process had before exec (here, the Python launcher).
    std::ifstream f("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

} // namespace perfbench
