/**
 * @file
 * Workload `track`: one thread closes the loop over the six Table III
 * robots at N = 32 with double tapes. Every episode perturbs the
 * initial state and reference, makes one cold solve after reset(),
 * then runs warm steps with Plant::step between them.
 *
 * The seeded episode set is finite (kEpisodes per robot) and repeats
 * round-robin until the time budget is spent, so every count below is
 * taken over the first full cycle and repeats exactly for a seed.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "mpc/ipm.hh"
#include "mpc/riccati.hh"
#include "mpc/simulate.hh"
#include "robobench/common.hh"
#include "robots/robots.hh"

namespace robobench
{
namespace
{

using robox::Matrix;
using robox::Vector;
namespace mpc = robox::mpc;

constexpr int kHorizon = 32;
constexpr int kEpisodes = 2;   //!< Distinct seeded episodes per robot.
constexpr int kWarmSteps = 30; //!< Warm steps after each cold solve.
/** u0 agreement between a converged Riccati solve and the converged
 *  dense oracle, relative to 1 + |u0|_inf. */
constexpr double kOracleTolerance = 1e-4;

struct Robot
{
    const robox::robots::Benchmark *bench = nullptr;
    robox::dsl::ModelSpec model;
    mpc::MpcOptions options;
    std::unique_ptr<mpc::IpmSolver> solver;
    std::unique_ptr<mpc::Plant> plant;
    /** Indices of the states qw, qx, qy, qz when the model has them. */
    std::vector<std::size_t> quaternion;
};

/** Project an attitude quaternion in the state back to unit length, so
 *  perturbed and noisy states stay physically valid. */
void
normalizeQuaternion(const Robot &r, Vector &x)
{
    double norm = 0.0;
    for (std::size_t i : r.quaternion)
        norm += x[i] * x[i];
    norm = std::sqrt(norm);
    for (std::size_t i : r.quaternion)
        x[i] /= norm;
}

struct Episode
{
    Vector x0;
    Vector ref;
};

/** One control period's measurements. */
struct Sample
{
    int robot = 0;
    bool cold = false;
    double seconds = 0.0;
    mpc::SolveStatus status = mpc::SolveStatus::Unsolved;
    int iterations = 0;
    int lineSearchEvals = 0;
    int recoveryAttempts = 0;
    std::uint64_t flops = 0;
    std::uint64_t allocations = 0;
};

struct Pass
{
    std::vector<Sample> samples;
    std::size_t cycleSamples = 0; //!< Samples in the first full cycle.
    std::vector<double> plantSeconds;
    /** Per robot: replayed cost of the five stage evaluations and of
     *  one Riccati factor+solve, seconds (traced pass only). */
    std::vector<double> stageEvalSeconds;
    std::vector<double> riccatiSeconds;
};

/** The six robots, set up from DSL source. */
std::vector<Robot>
setUp(Tracer &tracer, LoadTimes &load, double &solver_seconds)
{
    ScopedSpan span(tracer, "setup");
    std::vector<Robot> robots;
    for (const robox::robots::Benchmark &bench :
         robox::robots::allBenchmarks()) {
        Robot r;
        r.bench = &bench;
        r.model = loadModel(bench.source, tracer, load);
        r.options = bench.options;
        r.options.horizon = kHorizon;
        for (const char *name : {"qw", "qx", "qy", "qz"})
            for (std::size_t i = 0; i < r.model.stateNames.size(); ++i)
                if (r.model.stateNames[i] == name)
                    r.quaternion.push_back(i);
        if (r.quaternion.size() != 4)
            r.quaternion.clear();
        ScopedSpan build(tracer, "mpc.solver_build");
        const auto t0 = Clock::now();
        r.solver = std::make_unique<mpc::IpmSolver>(r.model, r.options);
        r.plant = std::make_unique<mpc::Plant>(r.model);
        solver_seconds += secondsSince(t0);
        robots.push_back(std::move(r));
    }
    return robots;
}

Episode
makeEpisode(const Robot &r, std::uint64_t seed, int robot, int episode)
{
    Rng rng(seed, static_cast<std::uint64_t>(robot),
            static_cast<std::uint64_t>(episode));
    Episode ep{r.bench->initialState, r.bench->reference};
    for (std::size_t j = 0; j < ep.x0.size(); ++j)
        ep.x0[j] += 0.05 * rng.symmetric() +
                    0.1 * std::abs(ep.x0[j]) * rng.symmetric();
    for (std::size_t j = 0; j < ep.ref.size(); ++j)
        ep.ref[j] += 0.1 * std::max(0.5, std::abs(ep.ref[j])) *
                     rng.symmetric();
    normalizeQuaternion(r, ep.x0);
    return ep;
}

/** Median seconds of one call of fn, over batches of reps calls. */
template <typename Fn>
double
replayCost(int reps, Fn &&fn)
{
    std::vector<double> batches;
    for (int b = 0; b < 7; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i)
            fn();
        batches.push_back(secondsSince(t0) / reps);
    }
    return median(batches);
}

/** Replay the five MpcProblem::eval* calls at the middle stage of the
 *  solver's last planned trajectory. */
double
replayStageEval(const Robot &r, const Vector &ref)
{
    const mpc::MpcProblem &problem = r.solver->problem();
    const std::size_t k = kHorizon / 2;
    const Vector &x = r.solver->stateTrajectory()[k];
    const Vector &u = r.solver->inputTrajectory()[k];
    mpc::StageEval dyn, cost, term, ineq, term_ineq;
    return replayCost(200, [&] {
        problem.evalDynamics(x, u, ref, dyn);
        problem.evalRunningCost(x, u, ref, cost);
        problem.evalTerminalCost(x, ref, term);
        problem.evalRunningIneq(x, u, ref, ineq);
        problem.evalTerminalIneq(x, ref, term_ineq);
    });
}

/** Replay solveRiccati with a workspace on seeded stage QPs of the
 *  robot's nx/nu/N. */
double
replayRiccati(const Robot &r, std::uint64_t seed, int robot)
{
    const std::size_t nx = static_cast<std::size_t>(r.model.nx());
    const std::size_t nu = static_cast<std::size_t>(r.model.nu());
    Rng rng(seed, 7000 + static_cast<std::uint64_t>(robot));
    auto fill = [&](Matrix &m, std::size_t rows, std::size_t cols,
                    double scale) {
        m = Matrix(rows, cols);
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < cols; ++j)
                m(i, j) = scale * rng.symmetric();
    };
    auto fillVec = [&](Vector &v, std::size_t n) {
        v = Vector(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = rng.symmetric();
    };
    std::vector<mpc::StageQp> stages(kHorizon);
    for (mpc::StageQp &s : stages) {
        fill(s.a, nx, nx, 0.05);
        for (std::size_t i = 0; i < nx; ++i)
            s.a(i, i) += 1.0;
        fill(s.b, nx, nu, 0.1);
        fillVec(s.c, nx);
        s.q = Matrix::identity(nx);
        s.r = Matrix::identity(nu);
        s.s = Matrix(nu, nx);
        fillVec(s.qv, nx);
        fillVec(s.rv, nu);
    }
    const Matrix qn = Matrix::identity(nx);
    Vector qnv, dx0;
    fillVec(qnv, nx);
    fillVec(dx0, nx);
    mpc::RiccatiWorkspace ws;
    ws.resize(kHorizon, nx, nu);
    mpc::RiccatiSolution sol;
    return replayCost(20, [&] {
        mpc::solveRiccati(stages, qn, qnv, dx0, 1e-8, ws, sol);
    });
}

class Track
{
  public:
    Track(const RunConfig &config, std::vector<Robot> &robots)
        : config_(config), robots_(robots)
    {
        for (std::size_t r = 0; r < robots_.size(); ++r)
            for (int e = 0; e < kEpisodes; ++e)
                episodes_.push_back(makeEpisode(robots_[r], config.seed,
                                                static_cast<int>(r), e));
    }

    const Episode &episode(std::size_t robot, int e) const
    {
        return episodes_[robot * kEpisodes + static_cast<std::size_t>(e)];
    }

    /**
     * Run rounds (one episode per robot each) until `seconds` of
     * measured time have passed and at least one full cycle ran.
     * With `keep_cold`, the cold solves of the first cycle are kept
     * for checkOracles(). With tracing on, the per-robot replays run
     * once, untimed, after the robot's first episode.
     */
    Pass run(double seconds, Tracer &tracer, bool keep_cold,
             SetupSampler &setups)
    {
        Pass pass;
        if (tracer.enabled()) {
            pass.stageEvalSeconds.assign(robots_.size(), 0.0);
            pass.riccatiSeconds.assign(robots_.size(), 0.0);
        }
        double measured = 0.0;
        for (int round = 0;; ++round) {
            const int e = round % kEpisodes;
            for (std::size_t r = 0; r < robots_.size(); ++r) {
                const auto t0 = Clock::now();
                runEpisode(r, e, pass, tracer, keep_cold && round < kEpisodes);
                measured += secondsSince(t0);
                setups.maybeSample([&](LoadTimes &load, double &build) {
                    setUp(tracer, load, build);
                });
                if (tracer.enabled() && round == 0) {
                    const Episode &ep = episode(r, e);
                    {
                        ScopedSpan span(tracer, "sym.stage_eval");
                        pass.stageEvalSeconds[r] =
                            replayStageEval(robots_[r], ep.ref);
                    }
                    ScopedSpan span(tracer, "mpc.riccati");
                    pass.riccatiSeconds[r] =
                        replayRiccati(robots_[r], config_.seed,
                                      static_cast<int>(r));
                }
            }
            if (round + 1 == kEpisodes)
                pass.cycleSamples = pass.samples.size();
            if (round + 1 >= kEpisodes && measured >= seconds)
                break;
        }
        return pass;
    }

    /**
     * Re-solve every kept cold start with KktSolver::Dense, the oracle,
     * untimed and spread over nproc threads (one solver per job). Both
     * backends run the same iteration, so they must agree on whether it
     * converged; when it did, u0 must agree within kOracleTolerance. An
     * unconverged pair (the iteration cap) is not a solution, so only
     * its status is compared; its u0 gap is reported in a note.
     */
    void checkOracles(Report &report)
    {
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (std::size_t k; (k = next++) < cold_.size();) {
                Cold &c = cold_[k];
                try {
                    mpc::MpcOptions dense = robots_[c.robot].options;
                    dense.kktSolver = mpc::KktSolver::Dense;
                    mpc::IpmSolver oracle(robots_[c.robot].model, dense);
                    const Episode &ep = episode(c.robot, c.episode);
                    const mpc::IpmSolver::Result &res =
                        oracle.solve(ep.x0, ep.ref);
                    c.oracleU0 = res.u0;
                    c.oracleConverged = res.converged;
                } catch (const std::exception &e) {
                    c.error = e.what();
                }
            }
        };
        std::vector<std::thread> pool;
        const unsigned threads =
            std::max(1U, std::thread::hardware_concurrency());
        for (unsigned i = 0; i < threads; ++i)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();

        for (const Cold &c : cold_) {
            bool ok = c.error.empty() && c.u0.size() == c.oracleU0.size() &&
                      c.converged == c.oracleConverged;
            double diff = 0.0;
            for (std::size_t j = 0; ok && j < c.u0.size(); ++j)
                diff = std::max(diff, std::abs(c.u0[j] - c.oracleU0[j]));
            if (ok && c.converged) {
                ok = diff <= kOracleTolerance * (1.0 + c.oracleU0.normInf());
                maxConvergedDiff_ = std::max(maxConvergedDiff_, diff);
                ++converged_;
            } else {
                maxUnconvergedDiff_ = std::max(maxUnconvergedDiff_, diff);
            }
            char name[96];
            std::snprintf(name, sizeof name, "dense_oracle_u0.%s.episode%d",
                          robots_[c.robot].bench->name.c_str(), c.episode);
            report.check(name, ok);
        }
    }

    std::string oracleNote() const
    {
        char line[200];
        std::snprintf(line, sizeof line,
                      "dense oracle: %d cold solves re-solved, %d converged "
                      "(max |du0| %.3g); unconverged max |du0| %.3g",
                      static_cast<int>(cold_.size()), converged_,
                      maxConvergedDiff_,
                      maxUnconvergedDiff_);
        return line;
    }

  private:
    void runEpisode(std::size_t r, int e, Pass &pass, Tracer &tracer,
                    bool keep_cold)
    {
        Robot &robot = robots_[r];
        const Episode &ep = episode(r, e);
        ScopedSpan span(tracer, "episode");
        robot.solver->reset();
        Vector x = ep.x0;
        Rng noise(config_.seed, 100 + r,
                  static_cast<std::uint64_t>(e));
        for (int step = 0; step <= kWarmSteps; ++step) {
            Sample s;
            s.robot = static_cast<int>(r);
            s.cold = step == 0;
            const mpc::IpmSolver::Result *res = nullptr;
            {
                ScopedSpan solve(tracer, s.cold ? "mpc.solve_cold"
                                                : "mpc.solve_warm");
                const auto t0 = Clock::now();
                res = &robot.solver->solve(x, ep.ref);
                s.seconds = secondsSince(t0);
            }
            const mpc::SolveStats &st = robot.solver->lastStats();
            s.status = res->status;
            s.iterations = st.iterations;
            s.lineSearchEvals = st.lineSearchEvals;
            s.recoveryAttempts = st.recoveryAttempts;
            s.flops = st.riccatiFlops;
            s.allocations = st.heapAllocations;
            pass.samples.push_back(s);
            if (s.cold && keep_cold) {
                Cold c;
                c.robot = r;
                c.episode = e;
                c.u0 = res->u0;
                c.converged = res->converged;
                cold_.push_back(std::move(c));
            }
            {
                ScopedSpan plant(tracer, "plant.step");
                const auto t0 = Clock::now();
                x = robot.plant->step(x, res->u0, ep.ref,
                                      robot.options.dt);
                pass.plantSeconds.push_back(secondsSince(t0));
            }
            for (std::size_t j = 0; j < x.size(); ++j)
                x[j] += 1e-3 * noise.symmetric();
            normalizeQuaternion(robot, x);
        }
    }

    /** A kept cold solve and its dense re-solve. */
    struct Cold
    {
        std::size_t robot = 0;
        int episode = 0;
        Vector u0;
        bool converged = false;
        Vector oracleU0;
        bool oracleConverged = false;
        std::string error; //!< Set when the oracle solve threw.
    };

    const RunConfig &config_;
    std::vector<Robot> &robots_;
    std::vector<Episode> episodes_;
    std::vector<Cold> cold_;
    int converged_ = 0;
    double maxConvergedDiff_ = 0.0;
    double maxUnconvergedDiff_ = 0.0;
};

bool
failed(const Sample &s)
{
    return !mpc::statusUsable(s.status);
}

/** The workload's end-to-end figures from one pass. */
struct Figures
{
    double stepMsP50 = 0.0;     //!< Geomean of per-robot warm medians.
    double periodLoadP99 = 0.0; //!< Pooled warm solve / dt.
    double deadlineMissFrac = 0.0;
    double coldSolveMsP50 = 0.0;
    double solveFailFrac = 0.0;
    double periodsPerSecond = 0.0;
    std::size_t warmSamples = 0;
};

Figures
figures(const Pass &pass, const std::vector<Robot> &robots)
{
    Figures f;
    std::vector<std::vector<double>> warm(robots.size()), cold(robots.size());
    std::vector<double> load;
    std::size_t misses = 0, failures = 0;
    double solve_seconds = 0.0;
    for (const Sample &s : pass.samples) {
        const double dt = robots[static_cast<std::size_t>(s.robot)].options.dt;
        (s.cold ? cold : warm)[static_cast<std::size_t>(s.robot)].push_back(
            1e3 * s.seconds);
        if (!s.cold)
            load.push_back(s.seconds / dt);
        misses += s.seconds > dt || failed(s);
        failures += failed(s);
        solve_seconds += s.seconds;
    }
    std::vector<double> warm_medians, cold_medians;
    for (std::size_t r = 0; r < robots.size(); ++r) {
        warm_medians.push_back(median(warm[r]));
        cold_medians.push_back(median(cold[r]));
    }
    const double n = static_cast<double>(pass.samples.size());
    f.stepMsP50 = geomean(warm_medians);
    f.periodLoadP99 = percentile(load, 0.99);
    f.deadlineMissFrac = static_cast<double>(misses) / n;
    f.coldSolveMsP50 = geomean(cold_medians);
    f.solveFailFrac = static_cast<double>(failures) / n;
    f.periodsPerSecond = n / solve_seconds;
    f.warmSamples = load.size();
    return f;
}

void
addNamed(Report &report, const Figures &f)
{
    report.named = {
        {"step_ms_p50", f.stepMsP50, "ms"},
        {"period_load_p99", f.periodLoadP99, "ratio"},
        {"deadline_miss_frac", f.deadlineMissFrac, "fraction"},
        {"cold_solve_ms_p50", f.coldSolveMsP50, "ms"},
        {"solve_fail_frac", f.solveFailFrac, "fraction"},
        {"warm_samples", static_cast<double>(f.warmSamples), "count"},
    };
}

void
addOverhead(Report &report, const Figures &plain, const Figures &traced)
{
    char line[160];
    std::snprintf(line, sizeof line,
                  "tracing overhead (traced - untraced): step_ms_p50 "
                  "%+.4f ms, cold_solve_ms_p50 %+.4f ms, "
                  "period_load_p99 %+.4f",
                  traced.stepMsP50 - plain.stepMsP50,
                  traced.coldSolveMsP50 - plain.coldSolveMsP50,
                  traced.periodLoadP99 - plain.periodLoadP99);
    report.notes.push_back(line);
}

/** Per-layer metrics of the traced pass. */
void
addLayers(Report &report, const Pass &pass, const std::vector<Robot> &robots)
{
    // Counts over the first cycle: they repeat exactly for a seed.
    std::uint64_t warm = 0, cold = 0, warm_iters = 0, cold_iters = 0;
    std::uint64_t cold_ls = 0, recovery = 0, maxiter = 0, flops = 0;
    std::uint64_t iters = 0, warm_allocs = 0;
    for (std::size_t i = 0; i < pass.cycleSamples; ++i) {
        const Sample &s = pass.samples[i];
        if (s.cold) {
            ++cold;
            cold_iters += static_cast<std::uint64_t>(s.iterations);
            cold_ls += static_cast<std::uint64_t>(s.lineSearchEvals);
        } else {
            ++warm;
            warm_iters += static_cast<std::uint64_t>(s.iterations);
            warm_allocs += s.allocations;
        }
        iters += static_cast<std::uint64_t>(s.iterations);
        recovery += static_cast<std::uint64_t>(s.recoveryAttempts);
        maxiter += s.status == mpc::SolveStatus::MaxIterations;
        flops += s.flops;
    }
    const double solves = static_cast<double>(warm + cold);
    std::size_t tape_instrs = 0;
    for (const Robot &r : robots)
        tape_instrs += tapeInstructions(r.solver->problem());
    report.count("sym.tape_instrs_per_stage",
                 static_cast<double>(tape_instrs));
    report.count("mpc.iters_per_warm_step",
                 static_cast<double>(warm_iters) / static_cast<double>(warm),
                 "iters");
    report.count("mpc.iters_per_cold_solve",
                 static_cast<double>(cold_iters) / static_cast<double>(cold),
                 "iters");
    report.count("mpc.line_search_evals_per_iter",
                 static_cast<double>(cold_ls) /
                     static_cast<double>(cold_iters),
                 "evals");
    report.count("mpc.recovery_attempts_per_1k",
                 1e3 * static_cast<double>(recovery) / solves);
    report.count("mpc.maxiter_frac", static_cast<double>(maxiter) / solves,
                 "fraction");
    report.count("mpc.kkt_flops_per_iter",
                 static_cast<double>(flops) / static_cast<double>(iters),
                 "flops");
    report.count("mpc.warm_allocs_per_step",
                 static_cast<double>(warm_allocs) / static_cast<double>(warm),
                 "allocs");
    report.check("warm_step_allocations_zero", warm_allocs == 0);

    // Times, over the whole traced pass.
    std::vector<std::vector<double>> warm_ms(robots.size()),
        cold_ms(robots.size());
    std::vector<double> solve_s(robots.size(), 0.0),
        iters_all(robots.size(), 0.0), solves_all(robots.size(), 0.0);
    for (const Sample &s : pass.samples) {
        const std::size_t r = static_cast<std::size_t>(s.robot);
        (s.cold ? cold_ms : warm_ms)[r].push_back(1e3 * s.seconds);
        solve_s[r] += s.seconds;
        iters_all[r] += s.iterations;
        solves_all[r] += 1.0;
    }
    std::vector<double> stage_us, riccati_us;
    for (std::size_t r = 0; r < robots.size(); ++r) {
        stage_us.push_back(1e6 * pass.stageEvalSeconds[r]);
        riccati_us.push_back(1e6 * pass.riccatiSeconds[r]);
        // Estimate: replayed per-call cost x calls per solve, as a
        // share of the measured solve time. One stage evaluation per
        // stage per iteration; one Riccati factor+solve per iteration
        // (two with the predictor-corrector step).
        const double per_solve_iters = iters_all[r] / solves_all[r];
        const double mean_solve = solve_s[r] / solves_all[r];
        const double kkt_calls =
            robots[r].options.predictorCorrector ? 2.0 : 1.0;
        char line[200];
        std::snprintf(
            line, sizeof line,
            "estimate %-12s stage evals %5.1f%%  riccati %5.1f%% of solve "
            "time (replayed cost x count; %.1f iters/solve)",
            robots[r].bench->name.c_str(),
            100.0 * pass.stageEvalSeconds[r] * kHorizon * per_solve_iters /
                mean_solve,
            100.0 * pass.riccatiSeconds[r] * kkt_calls * per_solve_iters /
                mean_solve,
            per_solve_iters);
        report.notes.push_back(line);
    }
    report.perLayer.push_back(
        {"sym.stage_eval_us", geomean(stage_us), "us"});
    report.perLayer.push_back({"mpc.riccati_us", geomean(riccati_us), "us"});
    for (std::size_t r = 0; r < robots.size(); ++r) {
        const std::string &name = robots[r].bench->name;
        report.perLayer.push_back(
            {"mpc.solve_ms_p50." + name, median(warm_ms[r]), "ms"});
        report.perLayer.push_back(
            {"mpc.cold_ms_p50." + name, median(cold_ms[r]), "ms"});
    }
    std::vector<double> plant_us;
    for (double s : pass.plantSeconds)
        plant_us.push_back(1e6 * s);
    report.perLayer.push_back({"plant.step_us", median(plant_us), "us"});
}

} // namespace

Report
runTrack(const RunConfig &config, Tracer &tracer)
{
    Report report;

    // Setup: DSL source to ready solvers and plants.
    SetupSampler setups;
    std::vector<Robot> robots;
    for (int i = 0; i < SetupSampler::kInitial; ++i)
        setups.sample([&](LoadTimes &load, double &build) {
            robots = setUp(tracer, load, build);
        });
    std::vector<double> problem;
    if (config.trace) {
        // The MpcProblem constructor alone (discretize, differentiate,
        // compile tapes); the solver build above includes one.
        for (int i = 0; i < SetupSampler::kInitial; ++i) {
            double total = 0.0;
            for (const Robot &r : robots) {
                ScopedSpan span(tracer, "sym.problem_build");
                const auto t0 = Clock::now();
                mpc::MpcProblem p(r.model, r.options);
                total += secondsSince(t0);
            }
            problem.push_back(total);
        }
    }

    Track track(config, robots);
    Digest digest;
    for (std::size_t r = 0; r < robots.size(); ++r) {
        report.coverage.push_back(robots[r].bench->name);
        for (int e = 0; e < kEpisodes; ++e) {
            digest.add(track.episode(r, e).x0);
            digest.add(track.episode(r, e).ref);
        }
    }
    report.inputDigest = digest.value();

    // Untraced pass: the end-to-end numbers.
    Tracer off;
    const double plain_seconds = config.untracedSeconds();
    const Pass plain = track.run(plain_seconds, off, true, setups);
    const Figures f = figures(plain, robots);
    report.attempted = plain.samples.size();
    for (const Sample &s : plain.samples)
        report.failed += failed(s);
    report.endToEnd = {
        {"setup_s", median(setups.total), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"}, // before the checks
        {"step_ms_p50", f.stepMsP50, "ms"},
        {"throughput_per_s", f.periodsPerSecond, "1/s"},
    };
    addNamed(report, f);
    {
        ScopedSpan span(tracer, "check.dense_oracle");
        track.checkOracles(report);
    }
    report.notes.push_back(track.oracleNote());

    if (config.trace) {
        const Pass traced =
            track.run(config.seconds - plain_seconds, tracer, false, setups);
        addOverhead(report, f, figures(traced, robots));
        report.perLayer.push_back(
            {"dsl.parse_ms", 1e3 * median(setups.parse), "ms"});
        report.perLayer.push_back(
            {"dsl.sema_ms", 1e3 * median(setups.sema), "ms"});
        report.perLayer.push_back(
            {"sym.problem_build_ms", 1e3 * median(problem), "ms"});
        report.perLayer.push_back(
            {"mpc.solver_build_ms", 1e3 * median(setups.build), "ms"});
        addLayers(report, traced, robots);
    }
    return report;
}

} // namespace robobench
