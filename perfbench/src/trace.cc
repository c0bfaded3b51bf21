#include "trace.hh"

#include <chrono>
#include <cstdio>

#include "support/logging.hh"

namespace perfbench {

double
nowSeconds()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

uint32_t
Tracer::open(const char *name, int64_t req)
{
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back({name, parent, req, nowSeconds(), 0.0});
    uint32_t id = static_cast<uint32_t>(spans_.size());
    open_.push_back(id);
    return id;
}

void
Tracer::close(uint32_t id)
{
    double end = nowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = end;
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::record(const char *name, double start, double end,
               uint32_t parent, int64_t req)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, req, start, end});
}

uint32_t
Tracer::current() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return open_.empty() ? kNoParent : open_.back();
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        apir::fatal("cannot write trace file ", path);
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Rec &r = spans_[i];
        std::fprintf(f,
                     "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %u, "
                     "\"req\": %lld, \"start_us\": %.3f, "
                     "\"end_us\": %.3f}\n",
                     i ? "," : "", i + 1, r.name, r.parent,
                     static_cast<long long>(r.req), r.start * 1e6,
                     r.end * 1e6);
    }
    std::fprintf(f, "]}\n");
    if (std::fclose(f) != 0)
        apir::fatal("cannot write trace file ", path);
}

} // namespace perfbench
