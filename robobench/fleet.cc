/**
 * @file
 * Workload `fleet`: one process closes the loop over back-to-back
 * BatchController::solveAll periods of a 32-robot MobileRobot fleet,
 * with nproc - 1 worker threads and the serving layers on: a
 * zero-impairment link, the sensor gate, the flight recorder, the
 * timeline, and admission with a batch budget of one control period.
 * Each robot's state advances through Plant::step.
 *
 * Counts are taken over the first kCountBatches periods, which every
 * run executes, so they repeat exactly for a seed.
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "mpc/batch.hh"
#include "mpc/simulate.hh"
#include "robobench/common.hh"
#include "robots/robots.hh"

namespace robobench
{
namespace
{

using robox::Vector;
namespace mpc = robox::mpc;

constexpr std::size_t kRobots = 32;
constexpr int kHorizon = 32;
constexpr int kLegPeriods = 20;   //!< Periods between waypoint changes.
constexpr int kCountBatches = 100; //!< Periods every run executes.
constexpr int kWarmupBatches = 3;  //!< Cold start, excluded from timing.
constexpr int kCheckBatches = 8;   //!< Periods replayed on one worker.
constexpr int kTimelineClearPeriods = 64;

struct Setup
{
    robox::dsl::ModelSpec model;
    mpc::MpcOptions options;
    std::unique_ptr<mpc::BatchController> batch;
    std::unique_ptr<mpc::Plant> plant;
};

mpc::MpcOptions
servingOptions(const robox::robots::Benchmark &bench)
{
    mpc::MpcOptions o = bench.options;
    o.horizon = kHorizon;
    o.batchDeadlineSeconds = o.dt;
    // Admission projects with the fleet's worker count on every
    // controller, so the one-worker replay makes the same decisions.
    o.overloadParallelism = static_cast<int>(fleetWorkers());
    o.linkEnabled = true; // no chaos engine attached: zero impairment
    o.sensorRangeMargin = 0.5;
    o.sensorJumpThreshold = 1.0;
    o.sensorFrozenPeriods = 5;
    o.flightRecorderCapacity = 64;
    return o;
}

Setup
setUp(Tracer &tracer, LoadTimes &load, double &build_seconds)
{
    ScopedSpan span(tracer, "setup");
    const robox::robots::Benchmark &bench =
        robox::robots::benchmark("MobileRobot");
    Setup s;
    s.model = loadModel(bench.source, tracer, load);
    s.options = servingOptions(bench);
    ScopedSpan build(tracer, "mpc.solver_build");
    const auto t0 = Clock::now();
    s.batch = std::make_unique<mpc::BatchController>(
        s.model, s.options, kRobots, fleetWorkers());
    s.batch->enableTimeline(true);
    s.plant = std::make_unique<mpc::Plant>(s.model);
    build_seconds += secondsSince(t0);
    return s;
}

/** Seeded fleet inputs: initial states and per-leg waypoints. */
class Inputs
{
  public:
    Inputs(const robox::robots::Benchmark &bench, std::uint64_t seed)
        : bench_(bench), seed_(seed) {}

    Vector initialState(std::size_t robot) const
    {
        Rng rng(seed_, robot, 0);
        Vector x = bench_.initialState;
        for (std::size_t j = 0; j < x.size(); ++j)
            x[j] += 0.2 * rng.symmetric();
        return x;
    }

    Vector waypoint(std::size_t robot, int leg) const
    {
        Rng rng(seed_, robot, 1 + static_cast<std::uint64_t>(leg));
        Vector ref = bench_.reference;
        for (std::size_t j = 0; j < ref.size(); ++j)
            ref[j] += 0.5 * rng.symmetric();
        return ref;
    }

  private:
    const robox::robots::Benchmark &bench_;
    std::uint64_t seed_;
};

/** One solveAll period's measurements. */
struct Period
{
    double wall = 0.0;     //!< solveAll wall time, seconds.
    double solveSum = 0.0; //!< Summed SolveStats::solveSeconds.
    std::uint64_t solves = 0;
    std::uint64_t failures = 0;
};

struct Pass
{
    std::vector<Period> periods;
    std::vector<double> plantSeconds;
    std::vector<double> warmSolveSeconds; //!< Per robot-solve.
    std::vector<double> coldSolveSeconds; //!< The first period's solves.
    std::uint64_t countIterations = 0;    //!< Over kCountBatches.
    std::uint64_t countSolves = 0;
    std::uint64_t countAllocations = 0;   //!< After the warm-up.
    std::uint64_t countDemotions = 0;
    std::uint64_t countRetransmits = 0;
    std::uint64_t countPlanMisses = 0;
    /** Inputs and outputs of the first kCheckBatches periods, up to
     *  the first period in which admission demoted a robot. */
    std::vector<std::vector<Vector>> checkStates, checkRefs, checkU0;
    std::vector<std::vector<mpc::SolveStatus>> checkStatus;
};

bool
notSolved(mpc::SolveStatus s)
{
    return s == mpc::SolveStatus::ServedFromBackup ||
           s == mpc::SolveStatus::Shed || s == mpc::SolveStatus::BadInput;
}

/** Closed loop on a fresh controller until `seconds` of loop time and
 *  at least kCountBatches periods have passed. */
Pass
runLoop(Setup &s, const Inputs &inputs, std::uint64_t seed, double seconds,
        Tracer &tracer, SetupSampler &setups)
{
    Pass pass;
    mpc::BatchController &batch = *s.batch;
    std::vector<Vector> states(kRobots), refs(kRobots);
    for (std::size_t i = 0; i < kRobots; ++i)
        states[i] = inputs.initialState(i);
    const auto start = Clock::now();
    double idle = 0.0; // setup samples, outside the loop's time
    bool checking = true;
    for (int p = 0;; ++p) {
        if (p >= kCountBatches && secondsSince(start) - idle >= seconds)
            break;
        ScopedSpan period(tracer, "period");
        for (std::size_t i = 0; i < kRobots; ++i)
            refs[i] = inputs.waypoint(i, p / kLegPeriods);
        const mpc::BatchReport &rep = batch.report();
        const std::uint64_t iters_before = rep.totalIterations;
        const std::vector<mpc::IpmSolver::Result> *results = nullptr;
        Period rec;
        {
            ScopedSpan span(tracer, "batch.solveAll");
            const auto t0 = Clock::now();
            results = &batch.solveAll(states, refs);
            rec.wall = secondsSince(t0);
        }
        for (std::size_t i = 0; i < kRobots; ++i) {
            if (notSolved(rep.statuses[i]))
                continue;
            const double t = batch.solver(i).lastStats().solveSeconds;
            rec.solveSum += t;
            (p == 0 ? pass.coldSolveSeconds : pass.warmSolveSeconds)
                .push_back(t);
        }
        rec.solves = kRobots;
        rec.failures = rep.lastBatchFailures;
        if (p >= kWarmupBatches)
            pass.periods.push_back(rec);
        if (p < kCountBatches) {
            pass.countIterations += rep.totalIterations - iters_before;
            pass.countSolves += kRobots;
            if (p >= kWarmupBatches)
                pass.countAllocations += rep.lastBatchAllocations;
        }
        const mpc::OverloadReport &o = rep.overload;
        if (p + 1 == kCountBatches) {
            // Sensor-gate demotions (poisoned) are not admission's.
            pass.countDemotions =
                o.degraded + o.servedFromBackup - o.poisoned + o.shed;
            pass.countRetransmits = o.link.retransmits;
            pass.countPlanMisses = o.link.planMisses;
        }
        checking = checking && p < kCheckBatches &&
                   o.lastBatchDegraded + o.lastBatchShed +
                           o.lastBatchServedFromBackup ==
                       o.lastBatchPoisoned;
        if (checking) {
            pass.checkStates.push_back(states);
            pass.checkRefs.push_back(refs);
            pass.checkU0.emplace_back();
            for (const mpc::IpmSolver::Result &r : *results)
                pass.checkU0.back().push_back(r.u0);
            pass.checkStatus.push_back(rep.statuses);
        }
        Rng noise(seed, 500, static_cast<std::uint64_t>(p));
        for (std::size_t i = 0; i < kRobots; ++i) {
            {
                ScopedSpan span(tracer, "plant.step");
                const auto t0 = Clock::now();
                states[i] = s.plant->step(states[i], (*results)[i].u0,
                                          refs[i], s.options.dt);
                pass.plantSeconds.push_back(secondsSince(t0));
            }
            for (std::size_t j = 0; j < states[i].size(); ++j)
                states[i][j] += 1e-3 * noise.symmetric();
        }
        if ((p + 1) % kTimelineClearPeriods == 0)
            batch.clearTimeline();
        const auto t0 = Clock::now();
        setups.maybeSample([&](LoadTimes &load, double &build) {
            setUp(tracer, load, build);
        });
        idle += secondsSince(t0);
    }
    return pass;
}

bool
bitwiseEqual(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/**
 * Replay the recorded periods on an untimed one-worker controller with
 * admission off. The determinism contract says robots admitted at full
 * budget match an unloaded serial solve bitwise; the recording stops
 * at the first admission demotion, after which histories differ.
 */
bool
replayMatches(const Setup &s, const Pass &pass)
{
    mpc::MpcOptions unloaded = s.options;
    unloaded.batchDeadlineSeconds = -1.0;
    mpc::BatchController serial(s.model, unloaded, kRobots, 1);
    serial.enableTimeline(true);
    for (std::size_t p = 0; p < pass.checkStates.size(); ++p) {
        const std::vector<mpc::IpmSolver::Result> &res =
            serial.solveAll(pass.checkStates[p], pass.checkRefs[p]);
        for (std::size_t i = 0; i < kRobots; ++i)
            if (!bitwiseEqual(res[i].u0, pass.checkU0[p][i]) ||
                serial.report().statuses[i] != pass.checkStatus[p][i])
                return false;
    }
    return true;
}

struct Figures
{
    double batchMsP50 = 0.0;
    double batchMsP99 = 0.0;
    double solvesPerSecond = 0.0;
    double solveFailFrac = 0.0;
    std::size_t batches = 0;
};

Figures
figures(const Pass &pass)
{
    Figures f;
    std::vector<double> wall_ms;
    double wall = 0.0, solves = 0.0, failures = 0.0;
    for (const Period &p : pass.periods) {
        wall_ms.push_back(1e3 * p.wall);
        wall += p.wall;
        solves += static_cast<double>(p.solves);
        failures += static_cast<double>(p.failures);
    }
    f.batchMsP50 = median(wall_ms);
    f.batchMsP99 = percentile(wall_ms, 0.99);
    f.solvesPerSecond = solves / wall;
    f.solveFailFrac = failures / solves;
    f.batches = wall_ms.size();
    return f;
}

} // namespace

Report
runFleet(const RunConfig &config, Tracer &tracer)
{
    Report report;
    const robox::robots::Benchmark &bench =
        robox::robots::benchmark("MobileRobot");

    SetupSampler setups;
    for (int i = 0; i < SetupSampler::kInitial; ++i)
        setups.sample([&](LoadTimes &load, double &build) {
            setUp(tracer, load, build);
        });

    const Inputs inputs(bench, config.seed);
    Digest digest;
    report.coverage = {"MobileRobot x32"};
    for (std::size_t i = 0; i < kRobots; ++i) {
        digest.add(inputs.initialState(i));
        for (int leg = 0; leg <= kCountBatches / kLegPeriods; ++leg)
            digest.add(inputs.waypoint(i, leg));
    }
    report.inputDigest = digest.value();

    Tracer off;
    LoadTimes unused_load;
    double unused_build = 0.0;
    const double plain_seconds = config.untracedSeconds();
    Setup plain_setup = setUp(off, unused_load, unused_build);
    const Pass plain = runLoop(plain_setup, inputs, config.seed,
                               plain_seconds, off, setups);
    const Figures f = figures(plain);
    const double peak_rss = peakRssMb(); // before the replay check
    report.check("fleet_one_worker_replay_bitwise",
                 replayMatches(plain_setup, plain));
    report.notes.push_back(
        "one-worker replay compared " +
        std::to_string(plain.checkStates.size()) + " of " +
        std::to_string(kCheckBatches) +
        " periods (it stops at the first admission demotion)");
    for (const Period &p : plain.periods) {
        report.attempted += p.solves;
        report.failed += p.failures;
    }
    report.endToEnd = {
        {"setup_s", median(setups.total), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"step_ms_p50", f.batchMsP50, "ms"},
        {"throughput_per_s", f.solvesPerSecond, "1/s"},
    };
    report.named = {
        {"batch_ms_p50", f.batchMsP50, "ms"},
        {"batch_ms_p99", f.batchMsP99, "ms"},
        {"fleet_solves_per_s", f.solvesPerSecond, "1/s"},
        {"solve_fail_frac", f.solveFailFrac, "fraction"},
        {"batches", static_cast<double>(f.batches), "count"},
        {"workers", static_cast<double>(fleetWorkers()), "count"},
    };

    if (!config.trace)
        return report;

    std::vector<double> problem;
    for (int i = 0; i < SetupSampler::kInitial; ++i) {
        ScopedSpan span(tracer, "sym.problem_build");
        const auto t0 = Clock::now();
        mpc::MpcProblem p(plain_setup.model, plain_setup.options);
        problem.push_back(secondsSince(t0));
    }
    Setup traced_setup = setUp(off, unused_load, unused_build);
    const Pass traced = runLoop(traced_setup, inputs, config.seed,
                                config.seconds - plain_seconds, tracer,
                                setups);
    const Figures g = figures(traced);
    char line[160];
    std::snprintf(line, sizeof line,
                  "tracing overhead (traced - untraced): batch_ms_p50 "
                  "%+.4f ms, fleet_solves_per_s %+.1f",
                  g.batchMsP50 - f.batchMsP50,
                  g.solvesPerSecond - f.solvesPerSecond);
    report.notes.push_back(line);

    report.perLayer.push_back(
        {"dsl.parse_ms", 1e3 * median(setups.parse), "ms"});
    report.perLayer.push_back(
        {"dsl.sema_ms", 1e3 * median(setups.sema), "ms"});
    report.perLayer.push_back(
        {"sym.problem_build_ms", 1e3 * median(problem), "ms"});
    report.perLayer.push_back(
        {"mpc.solver_build_ms", 1e3 * median(setups.build), "ms"});

    report.count("sym.tape_instrs_per_stage",
                 static_cast<double>(tapeInstructions(
                     traced_setup.batch->solver(0).problem())));

    const double workers = static_cast<double>(fleetWorkers());
    std::vector<double> sum_ms, coord_ms, eff;
    for (const Period &p : traced.periods) {
        sum_ms.push_back(1e3 * p.solveSum);
        coord_ms.push_back(1e3 * (p.wall - p.solveSum / workers));
        eff.push_back(p.solveSum / (workers * p.wall));
    }
    report.perLayer.push_back({"batch.solve_ms_sum_p50", median(sum_ms), "ms"});
    report.perLayer.push_back({"batch.coord_ms_p50", median(coord_ms), "ms"});
    report.perLayer.push_back({"batch.parallel_eff", median(eff), "fraction"});
    report.count("batch.iters_per_solve",
                 static_cast<double>(traced.countIterations) /
                     static_cast<double>(traced.countSolves),
                 "iters");
    report.count("batch.allocs_per_batch",
                 static_cast<double>(traced.countAllocations) /
                     (kCountBatches - kWarmupBatches),
                 "allocs");
    report.check("batch_allocations_zero", traced.countAllocations == 0 &&
                                               plain.countAllocations == 0);
    report.count("batch.admission_demotions",
                 static_cast<double>(traced.countDemotions));
    report.count("link.retransmits",
                 static_cast<double>(traced.countRetransmits));
    report.count("link.plans_missed",
                 static_cast<double>(traced.countPlanMisses));

    std::vector<double> warm_ms, cold_ms, plant_us;
    for (double t : traced.warmSolveSeconds)
        warm_ms.push_back(1e3 * t);
    for (double t : traced.coldSolveSeconds)
        cold_ms.push_back(1e3 * t);
    for (double t : traced.plantSeconds)
        plant_us.push_back(1e6 * t);
    report.perLayer.push_back(
        {"mpc.solve_ms_p50.MobileRobot", median(warm_ms), "ms"});
    report.perLayer.push_back(
        {"mpc.cold_ms_p50.MobileRobot", median(cold_ms), "ms"});
    report.perLayer.push_back({"plant.step_us", median(plant_us), "us"});
    return report;
}

} // namespace robobench
