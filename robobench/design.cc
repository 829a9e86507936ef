/**
 * @file
 * Workload `design`: one thread sweeps accelerator design points at
 * N = 32, the path an architect reruns per point of Figs. 10-12. For
 * each of the six robots and each point (the paper's 256 CUs at
 * 128 Gb/s, fewer CUs, lower bandwidth, interconnect ALUs off) it runs
 * buildSolverIteration -> mapGraph -> emitStreams -> simulate.
 *
 * The simulated statistics are deterministic: every sweep must
 * reproduce the first one exactly. The seed orders the points of each
 * sweep; it never changes the robot and design-point set.
 */
#include <utility>
#include <cstdio>
#include <memory>

#include "accel/simulator.hh"
#include "compiler/binary.hh"
#include "compiler/codegen.hh"
#include "compiler/mapper.hh"
#include "mpc/problem.hh"
#include "robobench/common.hh"
#include "robots/robots.hh"
#include "translator/workload.hh"

namespace robobench
{
namespace
{

namespace mpc = robox::mpc;
namespace accel = robox::accel;
namespace compiler = robox::compiler;

constexpr int kHorizon = 32;

struct DesignPoint
{
    const char *name;
    accel::AcceleratorConfig config;
};

std::vector<DesignPoint>
designPoints()
{
    accel::AcceleratorConfig paper = accel::AcceleratorConfig::paperDefault();
    accel::AcceleratorConfig fewer = paper; // 64 CUs: four 16-CU clusters
    fewer.numCcs = 4;
    accel::AcceleratorConfig slow = paper;
    slow.bandwidthGbps = 32.0;
    accel::AcceleratorConfig plain = paper;
    plain.computeEnabledInterconnect = false;
    return {{"cu256_bw128", paper},
            {"cu64_bw128", fewer},
            {"cu256_bw32", slow},
            {"cu256_bw128_noalu", plain}};
}

struct Robot
{
    const robox::robots::Benchmark *bench = nullptr;
    std::unique_ptr<mpc::MpcProblem> problem;
};

std::vector<Robot>
setUp(Tracer &tracer, LoadTimes &load, double &problem_seconds)
{
    ScopedSpan span(tracer, "setup");
    std::vector<Robot> robots;
    for (const robox::robots::Benchmark &bench :
         robox::robots::allBenchmarks()) {
        Robot r;
        r.bench = &bench;
        const robox::dsl::ModelSpec model =
            loadModel(bench.source, tracer, load);
        mpc::MpcOptions options = bench.options;
        options.horizon = kHorizon;
        ScopedSpan build(tracer, "sym.problem_build");
        const auto t0 = Clock::now();
        r.problem = std::make_unique<mpc::MpcProblem>(model, options);
        problem_seconds += secondsSince(t0);
        robots.push_back(std::move(r));
    }
    return robots;
}

/** The four calls of one design point, each timed. */
struct PointRun
{
    std::size_t robot = 0;
    std::size_t point = 0;
    double build = 0.0, map = 0.0, emit = 0.0, sim = 0.0;
    double total = 0.0;
    std::uint64_t ops = 0;
    std::size_t transfers = 0, crossCc = 0, codeBytes = 0;
    accel::CycleStats stats;
};

PointRun
runPoint(const Robot &robot, const DesignPoint &point, Tracer &tracer,
         compiler::IsaStreams &streams)
{
    PointRun run;
    ScopedSpan span(tracer, "design_point");
    const auto start = Clock::now();
    robox::translator::Workload workload;
    {
        ScopedSpan s(tracer, "translator.build");
        const auto t0 = Clock::now();
        workload = robox::translator::buildSolverIteration(*robot.problem);
        run.build = secondsSince(t0);
    }
    compiler::ProgramMap map;
    {
        ScopedSpan s(tracer, "compiler.map");
        const auto t0 = Clock::now();
        map = compiler::mapGraph(workload.graph, point.config);
        run.map = secondsSince(t0);
    }
    {
        ScopedSpan s(tracer, "compiler.emit");
        const auto t0 = Clock::now();
        streams = compiler::emitStreams(workload, map, point.config);
        run.emit = secondsSince(t0);
    }
    {
        ScopedSpan s(tracer, "accel.simulate");
        const auto t0 = Clock::now();
        run.stats = accel::simulate(workload, map, point.config);
        run.sim = secondsSince(t0);
    }
    run.total = secondsSince(start);
    run.ops = workload.totalOps();
    run.transfers = map.transfers.size();
    run.crossCc = map.crossCcTransfers;
    run.codeBytes = streams.codeBytes();
    return run;
}

bool
sameStats(const accel::CycleStats &a, const accel::CycleStats &b)
{
    return a.computeCycles == b.computeCycles &&
           a.memoryCycles == b.memoryCycles && a.cycles == b.cycles &&
           a.busTransfers == b.busTransfers &&
           a.neighborTransfers == b.neighborTransfers &&
           a.treeTransfers == b.treeTransfers &&
           a.aggregations == b.aggregations &&
           a.externalBytes == b.externalBytes;
}

/** The emitted program survives packing: the image verifies and
 *  unpacks to streams that pack to the same bytes. */
bool
imageRoundTrips(const compiler::IsaStreams &streams)
{
    const std::vector<std::uint8_t> image = compiler::packImage(streams);
    if (compiler::verifyImage(image) != compiler::ImageStatus::Ok)
        return false;
    compiler::IsaStreams back;
    if (compiler::unpackImageChecked(image, back) != compiler::ImageStatus::Ok)
        return false;
    return compiler::packImage(back) == image;
}

/** The seeded visiting order of sweep `s` over `pairs` pairs. */
std::vector<std::size_t>
sweepOrder(std::uint64_t seed, std::uint64_t s, std::size_t pairs)
{
    std::vector<std::size_t> order(pairs);
    for (std::size_t i = 0; i < pairs; ++i)
        order[i] = i;
    Rng rng(seed, 900, s);
    for (std::size_t i = pairs - 1; i > 0; --i)
        std::swap(order[i], order[rng.next() % (i + 1)]);
    return order;
}

struct Pass
{
    std::vector<PointRun> runs;
    std::size_t cycleRuns = 0; //!< Runs in the first sweep.
};

/**
 * Sweep every (robot, point) pair in a seeded order per sweep until
 * `seconds` have passed and at least one sweep ran. The first sweep's
 * programs are checked through the image round trip; every later
 * sweep must reproduce the first sweep's statistics exactly.
 */
Pass
sweep(const std::vector<Robot> &robots, const std::vector<DesignPoint> &points,
      std::uint64_t seed, double seconds, Tracer &tracer, Report &report,
      bool check_images, SetupSampler &setups)
{
    Pass pass;
    const std::size_t pairs = robots.size() * points.size();
    std::vector<accel::CycleStats> first(pairs);
    bool images_ok = true, stats_ok = true;
    compiler::IsaStreams streams;
    double measured = 0.0;
    for (std::uint64_t s = 0;; ++s) {
        for (std::size_t k : sweepOrder(seed, s, pairs)) {
            PointRun run = runPoint(robots[k / points.size()],
                                    points[k % points.size()], tracer,
                                    streams);
            run.robot = k / points.size();
            run.point = k % points.size();
            measured += run.total;
            if (s == 0) {
                first[k] = run.stats;
                if (check_images) {
                    ScopedSpan span(tracer, "check.image");
                    images_ok = images_ok && imageRoundTrips(streams);
                }
            } else {
                stats_ok = stats_ok && sameStats(first[k], run.stats);
            }
            pass.runs.push_back(run);
            setups.maybeSample([&](LoadTimes &load, double &build) {
                setUp(tracer, load, build);
            });
        }
        if (s == 0)
            pass.cycleRuns = pass.runs.size();
        if (measured >= seconds)
            break;
    }
    if (check_images)
        report.check("design_images_verify_and_round_trip", images_ok);
    report.check("design_stats_repeat_exactly", stats_ok);
    return pass;
}

struct Figures
{
    double pointMs = 0.0;         //!< Geomean of per-pair medians.
    double cyclesPerIter = 0.0;   //!< Geomean simulated cycles.
    double pointsPerSecond = 0.0;
};

Figures
figures(const Pass &pass, std::size_t pairs, std::size_t num_points)
{
    Figures f;
    std::vector<std::vector<double>> ms(pairs);
    double total = 0.0;
    for (const PointRun &r : pass.runs) {
        ms[r.robot * num_points + r.point].push_back(1e3 * r.total);
        total += r.total;
    }
    std::vector<double> medians, cycles;
    for (const std::vector<double> &v : ms)
        medians.push_back(median(v));
    for (std::size_t i = 0; i < pass.cycleRuns; ++i)
        cycles.push_back(static_cast<double>(pass.runs[i].stats.cycles));
    f.pointMs = geomean(medians);
    f.cyclesPerIter = geomean(cycles);
    f.pointsPerSecond = static_cast<double>(pass.runs.size()) / total;
    return f;
}

} // namespace

Report
runDesign(const RunConfig &config, Tracer &tracer)
{
    Report report;
    const std::vector<DesignPoint> points = designPoints();

    SetupSampler setups;
    std::vector<Robot> robots;
    for (int i = 0; i < SetupSampler::kInitial; ++i)
        setups.sample([&](LoadTimes &load, double &build) {
            robots = setUp(tracer, load, build);
        });
    const std::size_t pairs = robots.size() * points.size();
    for (const Robot &r : robots)
        for (const DesignPoint &p : points)
            report.coverage.push_back(r.bench->name + "/" + p.name);
    Digest digest; // the sweep order is the only seeded input
    for (std::size_t k : sweepOrder(config.seed, 0, pairs))
        digest.add(static_cast<double>(k));
    report.inputDigest = digest.value();

    Tracer off;
    const double plain_seconds = config.untracedSeconds();
    const Pass plain = sweep(robots, points, config.seed, plain_seconds, off,
                             report, true, setups);
    const Figures f = figures(plain, pairs, points.size());
    report.attempted = plain.runs.size();
    report.endToEnd = {
        {"setup_s", median(setups.total), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"step_ms_p50", f.pointMs, "ms"},
        {"throughput_per_s", f.pointsPerSecond, "1/s"},
    };
    report.named = {
        {"design_point_ms", f.pointMs, "ms"},
        {"accel_cycles_per_iter", f.cyclesPerIter, "cycles"},
        {"design_points", static_cast<double>(plain.runs.size()), "count"},
    };
    if (!config.trace)
        return report;

    const Pass traced = sweep(robots, points, config.seed,
                              config.seconds - plain_seconds, tracer, report,
                              false, setups);
    const Figures g = figures(traced, pairs, points.size());
    char line[160];
    std::snprintf(line, sizeof line,
                  "tracing overhead (traced - untraced): design_point_ms "
                  "%+.4f ms",
                  g.pointMs - f.pointMs);
    report.notes.push_back(line);

    report.perLayer.push_back(
        {"dsl.parse_ms", 1e3 * median(setups.parse), "ms"});
    report.perLayer.push_back(
        {"dsl.sema_ms", 1e3 * median(setups.sema), "ms"});
    report.perLayer.push_back(
        {"sym.problem_build_ms", 1e3 * median(setups.build), "ms"});
    std::size_t tape_instrs = 0;
    for (const Robot &r : robots)
        tape_instrs += tapeInstructions(*r.problem);
    report.count("sym.tape_instrs_per_stage",
                 static_cast<double>(tape_instrs));

    // Per-layer times: geomean over (robot, point) of per-pair medians.
    auto layerMs = [&](double PointRun::*field) {
        std::vector<std::vector<double>> ms(pairs);
        for (const PointRun &r : traced.runs)
            ms[r.robot * points.size() + r.point].push_back(1e3 * (r.*field));
        std::vector<double> medians;
        for (const std::vector<double> &v : ms)
            medians.push_back(median(v));
        return geomean(medians);
    };
    report.perLayer.push_back(
        {"translator.build_ms", layerMs(&PointRun::build), "ms"});
    report.perLayer.push_back({"compiler.map_ms", layerMs(&PointRun::map), "ms"});
    report.perLayer.push_back(
        {"compiler.emit_ms", layerMs(&PointRun::emit), "ms"});
    report.perLayer.push_back({"accel.sim_ms", layerMs(&PointRun::sim), "ms"});
    double ops = 0.0, sim = 0.0;
    for (const PointRun &r : traced.runs) {
        ops += static_cast<double>(r.ops);
        sim += r.sim;
    }
    report.perLayer.push_back(
        {"accel.sim_mops_per_s", ops / sim / 1e6, "Mops/s"});

    // Counts: sums over the first sweep's (robot, point) pairs.
    double mdfg_ops = 0, transfers = 0, cross = 0, code = 0, compute = 0,
           memory = 0, bus = 0, tree = 0, bytes = 0;
    for (std::size_t i = 0; i < traced.cycleRuns; ++i) {
        const PointRun &r = traced.runs[i];
        mdfg_ops += static_cast<double>(r.ops);
        transfers += static_cast<double>(r.transfers);
        cross += static_cast<double>(r.crossCc);
        code += static_cast<double>(r.codeBytes);
        compute += static_cast<double>(r.stats.computeCycles);
        memory += static_cast<double>(r.stats.memoryCycles);
        bus += static_cast<double>(r.stats.busTransfers);
        tree += static_cast<double>(r.stats.treeTransfers);
        bytes += static_cast<double>(r.stats.externalBytes);
    }
    report.count("mdfg.ops", mdfg_ops);
    report.count("compiler.transfers", transfers);
    report.count("compiler.cross_cc_transfers", cross);
    report.count("compiler.code_bytes", code, "bytes");
    report.count("accel.compute_cycles", compute, "cycles");
    report.count("accel.memory_cycles", memory, "cycles");
    report.count("accel.bus_transfers", bus);
    report.count("accel.tree_transfers", tree);
    report.count("accel.external_bytes", bytes, "bytes");
    return report;
}

} // namespace robobench
