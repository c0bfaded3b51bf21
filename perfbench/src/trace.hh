/**
 * @file
 * In-memory spans for the benchmark's traced runs. A span records one
 * call from the benchmark into a layer of apir: its name
 * ("<layer>:<call>"), start and end, the span that caused it, and the
 * apird request it belongs to. Spans are kept in memory and written
 * as JSON when the run ends; with tracing off every call is a single
 * branch, so the untraced timings carry no recording cost.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since process start. */
double nowSeconds();

class Tracer
{
  public:
    static constexpr uint32_t kNoParent = 0;

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a nested span on the calling (main) thread. */
    uint32_t open(const char *name, int64_t req);
    void close(uint32_t id);

    /**
     * Record a finished span from any thread, under an explicit
     * parent (the client threads of the apird load use this).
     */
    void record(const char *name, double start, double end,
                uint32_t parent, int64_t req);

    /** The innermost open span of the main thread. */
    uint32_t current() const;

    /** Write every span to `path` as {"spans": [...]}. */
    void write(const std::string &path) const;

  private:
    struct Rec
    {
        const char *name;
        uint32_t parent;
        int64_t req;
        double start;
        double end;
    };

    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Rec> spans_;     //!< id = index + 1
    std::vector<uint32_t> open_; //!< main-thread nesting stack
};

/** RAII span; a no-op when the tracer is off. */
class Span
{
  public:
    Span(Tracer &t, const char *name, int64_t req = -1)
        : t_(t), id_(t.enabled() ? t.open(name, req) : 0)
    {
    }
    ~Span()
    {
        if (id_)
            t_.close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
    uint32_t id_;
};

/** Run fn() inside a span and return its result. */
template <typename Fn>
auto
traced(Tracer &t, const char *name, Fn &&fn)
{
    Span s(t, name);
    return fn();
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
