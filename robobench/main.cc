/**
 * @file
 * The repository benchmark: one program, three workloads.
 *
 *   robobench --workload track|fleet|design --seed N --seconds S
 *             --trace 0|1 [--trace-out PATH]
 *
 * Prints the run's host/build facts, every named figure with its unit,
 * the output-check verdicts, and as its last line one JSON object with
 * the keys correct, attempted, failed and metrics. With --trace 0 the
 * metrics are the end-to-end set; with --trace 1 they are the
 * per-layer set, measured in a separate traced pass (see README.md).
 * Exits 1 when an output check fails, 2 on bad arguments, 3 when the
 * build is not an optimized, uninstrumented one.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "robobench/common.hh"

namespace
{

using robobench::Metric;
using robobench::num;

/** The per-layer metric set every traced run reports, in order. A
 *  layer that does no work on a workload reports 0. */
const std::vector<Metric> &
layerMetrics()
{
    static const std::vector<Metric> metrics = [] {
        std::vector<Metric> m = {
            {"dsl.parse_ms", 0, "ms"},
            {"dsl.sema_ms", 0, "ms"},
            {"sym.problem_build_ms", 0, "ms"},
            {"sym.tape_instrs_per_stage", 0, "count"},
            {"sym.stage_eval_us", 0, "us"},
            {"mpc.solver_build_ms", 0, "ms"},
            {"mpc.iters_per_warm_step", 0, "iters"},
            {"mpc.iters_per_cold_solve", 0, "iters"},
            {"mpc.line_search_evals_per_iter", 0, "evals"},
            {"mpc.recovery_attempts_per_1k", 0, "count"},
            {"mpc.maxiter_frac", 0, "fraction"},
            {"mpc.kkt_flops_per_iter", 0, "flops"},
            {"mpc.riccati_us", 0, "us"},
            {"mpc.warm_allocs_per_step", 0, "allocs"},
        };
        for (const char *robot : {"MobileRobot", "Manipulator", "AutoVehicle",
                                  "MicroSat", "Quadrotor", "Hexacopter"}) {
            m.push_back({std::string("mpc.solve_ms_p50.") + robot, 0, "ms"});
            m.push_back({std::string("mpc.cold_ms_p50.") + robot, 0, "ms"});
        }
        const std::vector<Metric> rest = {
            {"batch.solve_ms_sum_p50", 0, "ms"},
            {"batch.coord_ms_p50", 0, "ms"},
            {"batch.parallel_eff", 0, "fraction"},
            {"batch.iters_per_solve", 0, "iters"},
            {"batch.allocs_per_batch", 0, "allocs"},
            {"batch.admission_demotions", 0, "count"},
            {"link.retransmits", 0, "count"},
            {"link.plans_missed", 0, "count"},
            {"translator.build_ms", 0, "ms"},
            {"mdfg.ops", 0, "count"},
            {"compiler.map_ms", 0, "ms"},
            {"compiler.emit_ms", 0, "ms"},
            {"compiler.transfers", 0, "count"},
            {"compiler.cross_cc_transfers", 0, "count"},
            {"compiler.code_bytes", 0, "bytes"},
            {"accel.sim_ms", 0, "ms"},
            {"accel.sim_mops_per_s", 0, "Mops/s"},
            {"accel.compute_cycles", 0, "cycles"},
            {"accel.memory_cycles", 0, "cycles"},
            {"accel.bus_transfers", 0, "count"},
            {"accel.tree_transfers", 0, "count"},
            {"accel.external_bytes", 0, "bytes"},
            {"plant.step_us", 0, "us"},
        };
        m.insert(m.end(), rest.begin(), rest.end());
        return m;
    }();
    return metrics;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "robobench: %s\nusage: robobench --workload "
                 "track|fleet|design --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, robobench::RunConfig &config)
{
    bool have[4] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            config.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            config.seed = std::strtoull(value.c_str(), &end, 10);
            have[1] = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            config.seconds = std::strtod(value.c_str(), &end);
            have[2] = *end == '\0' && config.seconds > 0.0;
        } else if (flag == "--trace") {
            have[3] = value == "0" || value == "1";
            config.trace = value == "1";
        } else if (flag == "--trace-out") {
            config.tracePath = value;
        } else {
            return false;
        }
    }
    return have[0] && have[1] && have[2] && have[3];
}

void
printMetrics(const char *label, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-9s %-34s %16.6g %s\n", label, m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (const Metric &m : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

/** Order a workload's per-layer metrics into the fixed set, filling
 *  layers that did no work with 0. Returns false on an unknown name. */
bool
fullLayerSet(const std::vector<Metric> &reported, std::vector<Metric> &out)
{
    out = layerMetrics();
    for (const Metric &m : reported) {
        bool found = false;
        for (Metric &slot : out)
            if (slot.name == m.name && slot.unit == m.unit) {
                slot.value = m.value;
                found = true;
            }
        if (!found) {
            std::fprintf(stderr, "robobench: unknown per-layer metric %s\n",
                         m.name.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    robobench::RunConfig config;
    if (!parseArgs(argc, argv, config))
        return usage("bad arguments");
    if (config.workload != "track" && config.workload != "fleet" &&
        config.workload != "design")
        return usage("unknown workload");

#if !defined(NDEBUG) || defined(ROBOBENCH_SANITIZED) ||                      \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "robobench: refusing to report timings from a "
                         "build without NDEBUG or with sanitizers\n");
    return 3;
#endif

    std::printf("host %s\n", robobench::hostJson(config).c_str());
    robobench::Tracer tracer;
    tracer.enable(config.trace);
    robobench::Report report;
    try {
        if (config.workload == "track")
            report = robobench::runTrack(config, tracer);
        else if (config.workload == "fleet")
            report = robobench::runFleet(config, tracer);
        else
            report = robobench::runDesign(config, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "robobench: %s\n", e.what());
        return 1;
    }
    std::printf("inputs {\"digest\": \"%016llx\", \"coverage\": [",
                static_cast<unsigned long long>(report.inputDigest));
    for (std::size_t i = 0; i < report.coverage.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", report.coverage[i].c_str());
    std::printf("]}\n");
    printMetrics("gated", report.endToEnd);
    printMetrics("workload", report.named);
    for (const std::string &note : report.notes)
        std::printf("note      %s\n", note.c_str());

    std::vector<Metric> layers;
    if (config.trace) {
        if (!fullLayerSet(report.perLayer, layers))
            return 1;
        printMetrics("layer", layers);
        std::printf("counts %s\n", metricsJson(report.counts).c_str());
        for (const auto &[name, seconds] : tracer.selfTimes())
            std::printf("self      %-34s %12.3f ms\n", name.c_str(),
                        1e3 * seconds);
        if (!config.tracePath.empty()) {
            tracer.writeChromeTrace(config.tracePath);
            std::printf("trace     %zu spans written to %s\n",
                        tracer.spans().size(), config.tracePath.c_str());
        }
    }
    for (const auto &[name, ok] : report.checks)
        if (!ok)
            std::printf("check     %-50s FAIL\n", name.c_str());
    std::printf("check     %zu output checks, %s\n", report.checks.size(),
                report.correct() ? "all passed" : "FAILED");

    std::fflush(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                report.correct() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metricsJson(config.trace ? layers : report.endToEnd).c_str());
    return report.correct() ? 0 : 1;
}
