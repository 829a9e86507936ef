#include "robobench/common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "dsl/parser.hh"
#include "dsl/sema.hh"
#include "support/trace.hh"

namespace robobench
{

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        h_ ^= (bits >> (8 * i)) & 0xffU;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(const robox::Vector &v)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        add(v[i]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

int
Tracer::open(const char *name)
{
    Span span;
    span.name = name;
    span.start = secondsSince(origin_);
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = secondsSince(origin_);
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimes() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return {self.begin(), self.end()};
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    robox::trace::ChromeTraceWriter writer;
    writer.setProcessName(1, "robobench");
    writer.setThreadName(1, 0, "coordinator");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string args = "{\"id\":" + std::to_string(i) +
                                 ",\"parent\":" +
                                 std::to_string(s.parent) + "}";
        writer.completeEvent(s.name, "robobench", 1, 0, 1e6 * s.start,
                             1e6 * (s.end - s.start), args);
    }
    writer.writeJson(path);
}

bool
Report::correct() const
{
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto &c) { return c.second; });
}

void
Report::count(const std::string &name, double value,
              const std::string &unit)
{
    perLayer.push_back({name, value, unit});
    counts.push_back({name, value, unit});
}

robox::dsl::ModelSpec
loadModel(const std::string &source, Tracer &tracer, LoadTimes &times)
{
    robox::dsl::ParseResult parsed;
    {
        ScopedSpan span(tracer, "dsl.parse");
        const auto t0 = Clock::now();
        parsed = robox::dsl::parseChecked(source);
        times.parse += secondsSince(t0);
    }
    if (!parsed.ok())
        throw std::runtime_error("DSL source rejected: " +
                                 parsed.diagnostics.front().message);
    ScopedSpan span(tracer, "dsl.sema");
    const auto t0 = Clock::now();
    robox::dsl::ModelSpec model = robox::dsl::analyze(parsed.program);
    times.sema += secondsSince(t0);
    return model;
}

std::size_t
tapeInstructions(const robox::mpc::MpcProblem &problem)
{
    return problem.dynamicsTape().instrs().size() +
           problem.runningCostTape().instrs().size() +
           problem.terminalCostTape().instrs().size() +
           problem.runningIneqTape().instrs().size() +
           problem.terminalIneqTape().instrs().size();
}

double
peakRssMb()
{
    // VmHWM is this address space's high-water mark. getrusage's
    // ru_maxrss is not used: Linux carries it across exec, so a child
    // of a larger process would report its parent's peak.
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    std::fclose(status);
    return kib / 1024.0;
}

unsigned
fleetWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 1 ? n - 1 : 1;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

namespace
{

long
cacheBytes(int name)
{
    const long v = sysconf(name);
    return v > 0 ? v : 0;
}

} // namespace

std::string
hostJson(const RunConfig &config)
{
    std::string out = "{\"workload\":\"" + config.workload + "\"";
    out += ",\"seed\":" + std::to_string(config.seed);
    out += ",\"seconds\":" + num(config.seconds);
    out += ",\"trace\":" + std::string(config.trace ? "true" : "false");
    out += ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency());
    out += ",\"fleet_workers\":" + std::to_string(fleetWorkers());
    out += ",\"l1d_bytes\":" +
           std::to_string(cacheBytes(_SC_LEVEL1_DCACHE_SIZE));
    out += ",\"l2_bytes\":" + std::to_string(cacheBytes(_SC_LEVEL2_CACHE_SIZE));
    out += ",\"l3_bytes\":" + std::to_string(cacheBytes(_SC_LEVEL3_CACHE_SIZE));
    out += ",\"build_type\":\"" ROBOBENCH_BUILD_TYPE "\"";
    out += ",\"compiler\":\"" __VERSION__ "\"";
    out += "}";
    return out;
}

} // namespace robobench
