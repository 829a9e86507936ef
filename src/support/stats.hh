/**
 * @file
 * A small gem5-style statistics framework.
 *
 * Components register named statistics — scalar counters, histograms
 * with fixed buckets, and formulas computed from other stats — into a
 * StatGroup, which can render them as an aligned text dump or CSV.
 * Used by the accelerator simulator and the evaluation harness to
 * report runs in a uniform, greppable format.
 */

#ifndef ROBOX_SUPPORT_STATS_HH
#define ROBOX_SUPPORT_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/checkpoint.hh"

namespace robox::stats
{

/** A named scalar counter. */
class Scalar
{
  public:
    Scalar() = default;
    Scalar(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc)) {}

    Scalar &operator+=(double v)
    {
        value_ += v;
        return *this;
    }
    Scalar &operator++()
    {
        value_ += 1.0;
        return *this;
    }
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }
    void reset() { value_ = 0.0; }

  private:
    std::string name_;
    std::string desc_;
    double value_ = 0.0;
};

/** A histogram over fixed, uniform buckets plus underflow/overflow. */
class Histogram
{
  public:
    Histogram() = default;
    /**
     * @param name Statistic name.
     * @param desc One-line description.
     * @param lo Lower edge of the first bucket.
     * @param hi Upper edge of the last bucket.
     * @param buckets Number of uniform buckets.
     */
    Histogram(std::string name, std::string desc, double lo, double hi,
              int buckets);

    void sample(double v, std::uint64_t count = 1);

    /**
     * Fold another histogram with the *identical* bucket configuration
     * (lo, hi, bucket count) into this one; fatal() on a mismatch.
     * Counts, underflow/overflow, sample totals, and min/max combine
     * exactly, so merging a set of histograms yields the same buckets
     * in whatever order the merges run — the property per-worker (or
     * per-robot) histograms rely on when they are combined on drain.
     * The running sum behind mean() is a floating-point accumulation
     * and is only order-independent when the partial sums are exactly
     * representable.
     *
     * Edge cases are defined, not fatal: merging a histogram into
     * itself is a no-op (there is nothing *new* to fold — the natural
     * hazard when a merge loop includes its own destination); merging
     * an empty source is a no-op even when the configurations differ
     * (zero samples carry no bucket information); and merging into an
     * empty default-constructed destination first adopts the source's
     * bucket configuration.
     */
    void merge(const Histogram &other);

    std::uint64_t totalSamples() const { return samples_; }
    double mean() const;
    /**
     * Approximate p-quantile (p in [0, 1]) by walking the cumulative
     * bucket counts and interpolating linearly within the bucket that
     * crosses the target rank. Samples below/above the bucket range
     * resolve to the recorded min()/max(), and the interpolated value
     * is clamped so the result is always within [min(), max()] for a
     * non-empty histogram. Returns 0 when empty.
     */
    double percentile(double p) const;
    double min() const { return min_; }
    double max() const { return max_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::uint64_t bucketCount(int i) const;
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    int numBuckets() const { return static_cast<int>(counts_.size()); }
    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }
    void reset();

    /** Serialize the full sample state (bitwise doubles) so a restored
     *  histogram renders byte-identical JSON. */
    void checkpoint(support::CheckpointWriter &w) const;

    /**
     * Restore state written by checkpoint(). The destination must be
     * constructed with the same bucket configuration; returns false
     * (leaving the histogram unchanged or partially read — callers
     * treat any false as BadLayout and cold-start) on a configuration
     * mismatch or a short payload.
     */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Self, class Ar> static bool visit(Self &h, Ar &ar);

    std::string name_;
    std::string desc_;
    double lo_ = 0.0;
    double hi_ = 1.0;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** A named statistic computed on demand from other statistics. */
class Formula
{
  public:
    Formula() = default;
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : name_(std::move(name)), desc_(std::move(desc)),
          fn_(std::move(fn)) {}

    double value() const { return fn_ ? fn_() : 0.0; }
    const std::string &name() const { return name_; }
    const std::string &description() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::function<double()> fn_;
};

/**
 * A group of statistics dumped together. Registration stores
 * non-owning pointers: the stats must outlive the group (the normal
 * pattern is members of the same object).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void add(Scalar *s) { scalars_.push_back(s); }
    void add(Histogram *h) { histograms_.push_back(h); }
    void add(Formula *f) { formulas_.push_back(f); }

    /** gem5-style aligned text dump: name, value, description. */
    std::string dump() const;

    /** Two-column CSV of scalar and formula values. */
    std::string csv() const;

    /**
     * Machine-readable snapshot of every registered statistic as one
     * JSON object — the uniform metrics schema shared by the
     * evaluation benches and the batch controller's overload report:
     *
     *   {
     *     "group": "<name>",
     *     "scalars": {"<name>": <value>, ...},
     *     "formulas": {"<name>": <value>, ...},
     *     "histograms": {"<name>": {"samples": N, "mean": ..,
     *        "min": .., "max": .., "underflow": U, "overflow": O,
     *        "lo": .., "hi": .., "buckets": [..],
     *        "p50": .., "p90": .., "p99": ..}, ...}
     *   }
     *
     * Entries appear in registration order; doubles render through
     * formatDouble (NaN/Inf as quoted strings), so equal stats produce
     * byte-identical JSON — the determinism gates in CI diff it.
     */
    std::string toJson() const;

    /** Reset every registered scalar and histogram. */
    void resetAll();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<Scalar *> scalars_;
    std::vector<Histogram *> histograms_;
    std::vector<Formula *> formulas_;
};

} // namespace robox::stats

#endif // ROBOX_SUPPORT_STATS_HH
