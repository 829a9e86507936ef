/**
 * @file
 * Shared machinery of the repository benchmark: seeded input
 * generation, wall-clock spans kept in memory, order statistics, the
 * metric set a run reports, and host/build facts.
 *
 * The benchmark drives the library only through its public entry
 * points and times each layer around the calls into it; nothing here
 * reaches inside a solver.
 */
#ifndef ROBOBENCH_COMMON_HH
#define ROBOBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dsl/model_spec.hh"
#include "linalg/matrix.hh"
#include "mpc/problem.hh"

namespace robobench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Deterministic input stream: splitmix64 over a seed. */
class Rng
{
  public:
    /** Independent stream for (seed, a, b): derived, never shared. */
    Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
        : state_(seed ^ (0x9e3779b97f4a7c15ULL * (a + 1)) ^
                 (0xd1b54a32d192ed03ULL * (b + 1)))
    {
        next();
    }
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [-1, 1). */
    double symmetric() { return 2.0 * uniform() - 1.0; }

  private:
    std::uint64_t state_;
};

/** Digest of generated inputs: FNV-1a over their bits, in order. */
class Digest
{
  public:
    void add(double v);
    void add(const robox::Vector &v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Interpolated percentile of a sample (q in [0, 1]); 0 when empty. */
double percentile(std::vector<double> values, double q);
inline double median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}
/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &values);

/**
 * Spans kept in memory: name, start, end and parent, at each call
 * boundary the benchmark times. Recording is a no-op unless enabled,
 * so the untraced run pays one branch per boundary.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; //!< Seconds since the tracer's origin.
        double end = 0.0;
        int parent = -1;    //!< Index of the enclosing span.
    };

    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }
    int open(const char *name);
    void close(int id);
    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per span name: duration minus the part covered by
     *  child spans, summed over every span of that name. */
    std::vector<std::pair<std::string, double>> selfTimes() const;

    /** Write every span through the library's Chrome trace writer. */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool on_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name)
        : t_(t), id_(t.enabled() ? t.open(name) : -1) {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            t_.close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one workload run produces: the gated end-to-end metrics, the
 * per-layer metrics, the workload's own named end-to-end figures
 * (printed, not gated), and the output-check verdicts.
 */
struct Report
{
    std::vector<Metric> endToEnd; //!< Gated; from the untraced pass.
    std::vector<Metric> perLayer; //!< From the traced pass.
    std::vector<Metric> named;    //!< Workload-specific named figures.
    /** Count metrics (repeat exactly for one seed), for the self-test. */
    std::vector<Metric> counts;
    std::vector<std::pair<std::string, bool>> checks;
    /** Extra human-readable lines (check summaries, estimates,
     *  tracing overhead). */
    std::vector<std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t inputDigest = 0;
    /** Robots and design points the workload covers, in a fixed order. */
    std::vector<std::string> coverage;

    void check(const std::string &name, bool ok)
    {
        checks.emplace_back(name, ok);
    }
    bool correct() const;
    /** Add a per-layer count metric (also recorded for the self-test). */
    void count(const std::string &name, double value,
               const std::string &unit = "count");
};

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace (empty = none). */
    std::string tracePath;

    /** Budget of the untraced pass. A traced run gives it a third and
     *  the traced pass the rest; the untraced pass is the baseline of
     *  the tracing-overhead figures. */
    double untracedSeconds() const { return trace ? seconds / 3.0 : seconds; }
};

/** Seconds spent in each setup layer of one model load. */
struct LoadTimes
{
    double parse = 0.0;
    double sema = 0.0;
};

/**
 * DSL source to ModelSpec through dsl::parseChecked and dsl::analyze,
 * each call timed (and spanned). Throws std::runtime_error carrying
 * the diagnostics when the source does not parse.
 */
robox::dsl::ModelSpec loadModel(const std::string &source, Tracer &tracer,
                                LoadTimes &times);

/**
 * Setup timing samples. A run sets up kInitial times before its loop
 * and then once every interval seconds inside it, between steps and
 * outside the measured time, so that setup_s sees the same host
 * conditions as the loop. Each sample is one call of the workload's
 * setup function, fn(LoadTimes &, double &build_seconds).
 */
class SetupSampler
{
  public:
    static constexpr int kInitial = 5;
    static constexpr double kInterval = 0.25;

    template <typename Fn> void sample(Fn &&fn)
    {
        LoadTimes load;
        double build_seconds = 0.0;
        const auto t0 = Clock::now();
        fn(load, build_seconds);
        total.push_back(secondsSince(t0));
        parse.push_back(load.parse);
        sema.push_back(load.sema);
        build.push_back(build_seconds);
        next_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(kInterval));
    }
    /** Sample when the interval has passed. */
    template <typename Fn> void maybeSample(Fn &&fn)
    {
        if (Clock::now() >= next_)
            sample(fn);
    }

    std::vector<double> total, parse, sema, build;

  private:
    Clock::time_point next_{};
};

/** Instructions of the problem's five compiled tapes. */
std::size_t tapeInstructions(const robox::mpc::MpcProblem &problem);

/** Peak resident set size of this process, megabytes. */
double peakRssMb();

/** Worker threads the fleet may use: nproc - 1, at least 1. */
unsigned fleetWorkers();

/** Host and build facts printed with every run. */
std::string hostJson(const RunConfig &config);

/** Render a number with all its digits (finite) or null. */
std::string num(double v);

Report runTrack(const RunConfig &config, Tracer &tracer);
Report runFleet(const RunConfig &config, Tracer &tracer);
Report runDesign(const RunConfig &config, Tracer &tracer);

} // namespace robobench

#endif // ROBOBENCH_COMMON_HH
