/**
 * @file
 * Lightweight statistics containers used by the simulator and the
 * benchmark harnesses: named scalar counters, running averages, and
 * simple histograms, grouped per component.
 */

#ifndef APIR_SUPPORT_STATS_HH
#define APIR_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace apir {

/** A monotonically growing event counter. */
class Counter
{
  public:
    void operator+=(uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Checkpoint field list (checkpoint/ckpt.hh). */
    template <typename Ar>
    void serialize(Ar &ar) { ar(value_); }

  private:
    uint64_t value_ = 0;
};

/** Running mean/min/max of a sampled quantity. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1;
        if (count_ == 1 || v < min_) min_ = v;
        if (count_ == 1 || v > max_) max_ = v;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    uint64_t count() const { return count_; }
    /** Exact running sum (mean() rounds). */
    double sum() const { return sum_; }
    /** Raw min/max fields, valid regardless of count. */
    double rawMin() const { return min_; }
    double rawMax() const { return max_; }

    void
    reset()
    {
        sum_ = 0.0;
        min_ = max_ = 0.0;
        count_ = 0;
    }

    /** Checkpoint field list: exact bits, so restores print alike. */
    template <typename Ar>
    void serialize(Ar &ar) { ar(sum_, min_, max_, count_); }

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    uint64_t count_ = 0;
};

/** Fixed-width-bucket histogram over [0, buckets*width). */
class Histogram
{
  public:
    Histogram(size_t buckets, double width)
        : width_(width), counts_(buckets, 0) {}

    /**
     * Record one sample. Values past the last bucket's upper edge go
     * to a dedicated overflow counter — folding them into the last
     * bucket would silently misreport the in-range distribution
     * (elastic retry overflow routinely pushes queue occupancy past
     * the nominal bucket range). Every sample lands somewhere:
     * total() == sum of buckets + overflow.
     */
    void
    sample(double v)
    {
        size_t b = v < 0 ? 0 : static_cast<size_t>(v / width_);
        if (b >= counts_.size())
            ++overflow_;
        else
            ++counts_[b];
        if (total_ == 0 || v > maxSeen_)
            maxSeen_ = v;
        ++total_;
    }

    uint64_t bucket(size_t i) const { return counts_.at(i); }
    size_t buckets() const { return counts_.size(); }
    double bucketWidth() const { return width_; }
    uint64_t total() const { return total_; }
    /** Samples at or past buckets() * bucketWidth(). */
    uint64_t overflow() const { return overflow_; }
    /** Largest sample observed (0 for an empty histogram). */
    double maxSeen() const { return total_ ? maxSeen_ : 0.0; }

    /**
     * Approximate q-quantile (q in [0, 1]): linearly interpolated
     * within the bucket containing the ceil(q * total)-th smallest
     * sample (samples are assumed uniform inside a bucket), clamped to
     * the observed maximum so a quantile never exceeds any sample
     * actually recorded — p50 of a single 0.1 sample is 0.1, not the
     * bucket's upper edge. Ranks landing in the overflow bucket report
     * the observed maximum rather than the range ceiling, which would
     * *understate* the tail. An empty histogram returns 0.
     */
    double quantile(double q) const;

    /**
     * Checkpoint field list. maxSeen_ travels too: the quantile of an
     * overflow rank reports it.
     */
    template <typename Ar>
    void
    serialize(Ar &ar)
    {
        ar.fixed(counts_, "histogram buckets");
        ar(overflow_, total_, maxSeen_);
    }

  private:
    double width_;
    std::vector<uint64_t> counts_;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    double maxSeen_ = 0.0;
};

/**
 * A named group of scalar statistics that components register into and
 * harnesses dump. Values are stored as doubles for uniform reporting.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void set(const std::string &key, double v) { values_[key] = v; }
    void add(const std::string &key, double v) { values_[key] += v; }

    double
    get(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? 0.0 : it->second;
    }

    bool has(const std::string &key) const { return values_.count(key) > 0; }
    const std::string &name() const { return name_; }
    const std::map<std::string, double> &values() const { return values_; }

    /** Print "group.key value" lines, gem5 stats-file style. */
    void dump(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, double> values_;
};

} // namespace apir

#endif // APIR_SUPPORT_STATS_HH
