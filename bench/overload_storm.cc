/**
 * @file
 * Overload-storm study: offered load vs the admission ladder's
 * degrade/backup/shed response and its closed-loop tracking cost.
 *
 * A fleet of double-integrator robots runs closed loop under a
 * BatchController with a batch deadline, while a seeded ChaosEngine
 * injects worker stalls, load bursts, and poisoned measurements. The
 * chaos cost hook replaces measured wall time with deterministic
 * virtual time (ChaosSpec::virtualSolveCostSeconds), so every
 * admission decision — and therefore every number below — is a pure
 * function of the spec and the sweep point: two runs emit
 * byte-identical JSON, on any machine, at any thread count (the
 * admission math is pinned via MpcOptions::overloadParallelism).
 *
 * Swept: offered load L = fleet solve demand / batch compute budget.
 * Reported per point: overloaded batches, per-rung service counts
 * (degraded / served-from-backup / shed), sensor-gate rejections, and
 * the tracking-error cost of degradation. No wall-clock quantity is
 * printed — that is what keeps the output diffable.
 *
 * A second sweep exercises the degraded-comms path (mpc/link.hh): the
 * same fleet at a fixed, underloaded compute point, but with the
 * robot<->controller link impaired at increasing loss rates. Drops,
 * delays, duplicates and blackouts are pure splitmix64 functions of
 * (seed, period, robot), so the link sweep is byte-deterministic too.
 * Reported per point: drop/retransmit/plan-miss counters, state
 * extrapolations, staleness demotions, link-down events, and the
 * closed-loop tracking cost of flying on buffered plan tails.
 *
 * A third sweep (behind --upgrade, so the default report keeps its
 * exact bytes) exercises live controller upgrades (mpc/upgrade.hh):
 * the same fleet at a fixed underloaded compute point stages a
 * candidate controller mid-storm and rides the shadow -> canary ->
 * commit rollout, one scenario per failure mode — a benign candidate
 * that commits, a CRC-corrupt image rejected at admission, a retuned
 * candidate rejected for command divergence during shadow, and a slow
 * candidate rolled back from canary by the latency guard. Rollout
 * decisions are pure functions of virtual time and the upgrade seed,
 * so the upgrade sweep is byte-deterministic like the others.
 *
 * Each sweep point is a scenario description over the shared closed-loop
 * driver in bench/fleet_scenario.hh. `--smoke` shrinks the sweep to a
 * ~1 s check; the OverloadStorm.* ctest cases diff its outputs against
 * two-run, cross-thread-count and tests/golden/ byte goldens. Flags
 * take whole positive integers; anything else exits 2 with the usage
 * line. Flags:
 *   --smoke           shrink the sweep for CI
 *   --threads N       worker threads (default 4; output is identical
 *                     at any value — that is the determinism gate)
 *   --metrics PATH    also write the report to PATH
 *   --timeline PATH   write the highest-load storm's fleet timeline
 *                     (Chrome trace-event JSON; see mpc/timeline.hh)
 *   --link-timeline PATH  write the worst-loss link storm's timeline
 *   --upgrade         also run the live-upgrade scenario sweep and
 *                     gate its outcomes (commit / reject / rollback,
 *                     with zero sheds attributable to the rollout)
 *   --upgrade-timeline PATH  write the committing upgrade scenario's
 *                     timeline (upgrade-category markers included)
 *   --kill-resume     kill-and-resume chaos mode: checkpoint each
 *                     storm's controller + world state every
 *                     --checkpoint-every batches (atomic rename,
 *                     support/checkpoint.hh), then at splitmix64-
 *                     scheduled batches destroy the BatchController,
 *                     dump its flight recorder as a postmortem, and
 *                     resume a fresh instance from the latest
 *                     checkpoint. The report must byte-match the
 *                     uninterrupted run, in every sweep — that is
 *                     the crash-safety gate diffed against the golden.
 *   --checkpoint-every N  batches between checkpoints (default 7)
 *   --checkpoint-dir PATH where checkpoint + postmortem files land
 *                     (default ".")
 *
 * The per-point metrics render through stats::StatGroup::toJson(), the
 * same schema the fault campaign and the batch controller's overload
 * report use.
 */

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/binary.hh"
#include "dsl/sema.hh"
#include "fleet_scenario.hh"
#include "mpc/status.hh"
#include "support/checkpoint.hh"
#include "support/trace.hh"

namespace
{

using robox::Vector;
using robox::bench::count;
using robox::bench::CrashPlan;
using robox::bench::kDoubleIntegrator;
using robox::bench::kDoubleIntegratorRetuned;
using robox::bench::pointJson;
using robox::bench::Scenario;
using robox::bench::ScenarioResult;
using robox::mpc::BatchController;
using robox::mpc::LinkReport;
using robox::mpc::MpcOptions;
using robox::mpc::OverloadReport;
using robox::mpc::UpgradeCandidate;
using robox::mpc::UpgradeReport;

constexpr std::size_t kRobots = 12;
constexpr std::size_t kDefaultThreads = 4;
constexpr int kParallelism = 4;        //!< Pinned admission math.
constexpr double kBudgetSeconds = 1e-3; //!< Batch deadline.

/** Virtual per-robot solve cost at which the fleet's demand is `load`
 *  times the batch compute budget. */
double
solveCostAt(double load)
{
    return load * kBudgetSeconds * kParallelism / kRobots;
}

/** One live-upgrade scenario: which candidate is staged against the
 *  incumbent, and with which rollout knobs. */
struct UpgradeScenario
{
    const char *name;         //!< JSON group suffix and gate key.
    const char *source;       //!< Candidate model source.
    bool corruptImage;        //!< Flip a header byte past the CRC seal.
    double modeledCostScale;  //!< Candidate solve-cost multiplier.
    int shadowPeriods;
    int canaryPeriods;
    double canaryFraction;
    double failAbs;           //!< Divergence fail band (absolute).
    double failRel;           //!< Divergence fail band (relative).
};

/** The four rollout outcomes the sweep pins down. */
const UpgradeScenario kUpgradeScenarios[] = {
    // Benign retime of the same controller: must commit.
    {"commit", kDoubleIntegrator, false, 1.0, 2, 3, 0.5, 0.25, 5e-2},
    // One flipped image byte: CRC admission gate, nothing else runs.
    {"reject_image", kDoubleIntegrator, true, 1.0, 2, 3, 0.5, 0.25,
     5e-2},
    // Retuned weights under a strict band: rejected during shadow.
    {"reject_divergence", kDoubleIntegratorRetuned, false, 1.0, 4, 4,
     0.5, 1e-9, 0.0},
    // 4x modeled cost against a 2x budget ratio: canary rollback.
    {"rollback_latency", kDoubleIntegrator, false, 4.0, 1, 8, 0.25,
     0.25, 5e-2},
};
constexpr std::size_t kNumUpgradeScenarios =
    sizeof(kUpgradeScenarios) / sizeof(kUpgradeScenarios[0]);

/** Compute storm: stalls, load bursts and poisoned measurements at
 *  offered load `load`. Robots 0 and 1 are high priority: shed last. */
void
describeStorm(Scenario &s, double load)
{
    s.chaos.stallRate = 0.1;
    s.chaos.stallCostSeconds = 0.5 * kBudgetSeconds;
    s.chaos.stallSpinSeconds = 5e-5; // Real jitter; never in the output.
    s.chaos.burstRate = 0.15;
    s.chaos.burstFactor = 2.0;
    s.chaos.poisonRate = 0.01;
    s.chaos.virtualSolveCostSeconds = solveCostAt(load);
    s.protectedRobots = 2;
}

/** Link storm: compute is underloaded, so every demotion comes from
 *  the link layer — dropped uplinks forcing extrapolation and
 *  staleness demotions, dropped plans forcing the robots onto buffered
 *  tails. */
void
describeLinkStorm(Scenario &s, double loss)
{
    s.options.linkEnabled = true;
    s.chaos.uplinkDropRate = loss;
    s.chaos.downlinkDropRate = loss;
    s.chaos.uplinkDelayRate = 0.5 * loss;
    s.chaos.downlinkDelayRate = 0.5 * loss;
    s.chaos.linkDelayPeriodsMax = 2;
    s.chaos.uplinkDupRate = 0.25 * loss;
    s.chaos.downlinkDupRate = 0.25 * loss;
    s.chaos.linkBlackoutRate = 0.05 * loss;
    s.chaos.linkBlackoutBatches = 4;
}

/** Upgrade storm: compute is underloaded and chaos injection is off,
 *  so every admission decision is attributable to the rollout itself —
 *  the zero-shed gate is exact, not statistical. The candidate is
 *  staged a few batches in and the rollout left to run its course.
 *  Rollout knobs live on the incumbent's options. */
UpgradeCandidate
describeUpgradeStorm(Scenario &s, const UpgradeScenario &u)
{
    s.options.upgradeShadowPeriods = u.shadowPeriods;
    s.options.upgradeCanaryPeriods = u.canaryPeriods;
    s.options.upgradeCanaryFraction = u.canaryFraction;
    s.options.upgradeFailAbs = u.failAbs;
    s.options.upgradeFailRel = u.failRel;
    s.options.upgradeSeed = s.chaos.seed;

    UpgradeCandidate cand = robox::bench::makeCandidate(u.source, s.options);
    if (u.corruptImage)
        cand.image[robox::compiler::kImageHeaderBytes - 1] ^= 0x01;
    cand.modeledCostScale = u.modeledCostScale;
    return cand;
}

std::string
stormPointJson(double load, const ScenarioResult &r)
{
    const OverloadReport &ov = r.report.overload;
    return pointJson(
        "storm",
        {{"offeredLoad", "demand / budget", load},
         {"overloadedBatches", "batches projected over budget",
          count(ov.overloadedBatches)},
         {"degraded", "degraded-budget solves", count(ov.degraded)},
         {"servedFromBackup", "backup-tail serves",
          count(ov.servedFromBackup)},
         {"shed", "robots shed", count(ov.shed)},
         {"badInput", "input rejections", count(ov.badInput)},
         {"poisoned", "sensor-gate demotions", count(ov.poisoned)},
         {"failures", "non-usable solves", count(r.report.failures)},
         {"protectedShed", "sheds of high-priority robots",
          count(r.world.protectedShed)},
         {"projectedSeconds", "last batch projected (virtual) cost",
          ov.projectedSeconds},
         {"admittedSeconds", "last batch admitted (virtual) cost",
          ov.admittedSeconds},
         {"maxTrackingError", "worst post-settle tracking error",
          r.world.maxError},
         {"meanTrackingError", "mean post-settle tracking error",
          r.world.meanError()}});
}

std::string
linkStormPointJson(double loss, const ScenarioResult &r)
{
    const OverloadReport &ov = r.report.overload;
    const LinkReport &ln = ov.link;
    return pointJson(
        "link_storm",
        {{"lossRate", "per-message drop probability", loss},
         {"uplinkDropped", "state uplinks lost", count(ln.uplinkDropped)},
         {"downlinkDropped", "plan downlinks lost",
          count(ln.downlinkDropped)},
         {"retransmits", "backoff plan retransmits",
          count(ln.retransmits)},
         {"planMisses", "periods a robot flew its buffered tail",
          count(ln.planMisses)},
         {"statesExtrapolated", "stale states served via rollout",
          count(ln.statesExtrapolated)},
         {"staleDemotions", "states past the staleness bound",
          count(ln.staleDemotions)},
         {"linkDownEvents", "heartbeat loss events",
          count(ln.linkDownEvents)},
         {"servedFromBackup", "backup-tail serves",
          count(ov.servedFromBackup)},
         {"shed", "robots shed", count(ov.shed)},
         {"maxTrackingError", "worst post-settle tracking error",
          r.world.maxError},
         {"meanTrackingError", "mean post-settle tracking error",
          r.world.meanError()}});
}

/** The group name carries the scenario, so the schema stays pure
 *  StatGroup::toJson() like the other sweeps. */
std::string
upgradeStormPointJson(const char *name, const ScenarioResult &r)
{
    const UpgradeReport &up = r.report.upgrade;
    return pointJson(
        std::string("upgrade_") + name,
        {{"scheduled", "scheduleUpgrade() accepted",
          r.world.scheduled ? 1.0 : 0.0},
         {"phase", "final UpgradePhase value", count(up.phase)},
         {"committed", "candidates committed", count(up.committed)},
         {"rolledBack", "canary rollbacks", count(up.rolledBack)},
         {"rejectedCandidates", "shadow rejections",
          count(up.rejectedCandidates)},
         {"rejectedImages", "images failing the CRC admission gate",
          count(up.rejectedImages)},
         {"shadowSolves", "candidate shadow solves",
          count(up.shadowSolves)},
         {"canaryRobots", "robots that served the candidate",
          count(up.canaryRobots)},
         {"divergenceFails", "solves past the divergence fail band",
          count(up.divergenceFails)},
         {"maxDivergence", "worst command divergence seen",
          up.maxDivergence},
         {"rollbackDivergence", "failures charged to divergence",
          count(up.rollbackDivergence)},
         {"rollbackLatency", "failures charged to the latency guard",
          count(up.rollbackLatency)},
         {"shed", "robots shed (must be 0)",
          count(r.report.overload.shed)},
         {"maxTrackingError", "worst post-settle tracking error",
          r.world.maxError}});
}

/** Comma-separated sweep points, one per line. */
template <class Render>
void
writePoints(std::ostringstream &os, std::size_t n, Render render)
{
    for (std::size_t i = 0; i < n; ++i)
        os << render(i) << (i + 1 < n ? ",\n" : "\n");
}

std::string
reportJson(const std::vector<double> &loads,
           const std::vector<ScenarioResult> &sweep,
           const std::vector<double> &losses,
           const std::vector<ScenarioResult> &link_sweep,
           const std::vector<ScenarioResult> &upgrade_sweep,
           std::uint64_t seed, int batches)
{
    std::ostringstream os;
    os << "{\n\"benchmark\": \"overload_storm\",\n"
       << "\"model\": \"DoubleIntegrator\",\n"
       << "\"robots\": " << kRobots << ",\n"
       << "\"parallelism\": " << kParallelism << ",\n"
       << "\"budget_seconds\": " << kBudgetSeconds << ",\n"
       << "\"seed\": " << seed << ",\n"
       << "\"batches\": " << batches << ",\n"
       << "\"sweep\": [\n";
    writePoints(os, sweep.size(), [&](std::size_t i) {
        return stormPointJson(loads[i], sweep[i]);
    });
    os << "],\n\"link_sweep\": [\n";
    writePoints(os, link_sweep.size(), [&](std::size_t i) {
        return linkStormPointJson(losses[i], link_sweep[i]);
    });
    os << "]";
    // Present only under --upgrade, so the default report's bytes are
    // unchanged from before live upgrades existed.
    if (!upgrade_sweep.empty()) {
        os << ",\n\"upgrade_sweep\": [\n";
        writePoints(os, upgrade_sweep.size(), [&](std::size_t i) {
            return upgradeStormPointJson(kUpgradeScenarios[i].name,
                                         upgrade_sweep[i]);
        });
        os << "]";
    }
    os << "\n}\n";
    return os.str();
}

/** Parse a whole flag value in [1, max]; anything else is refused. */
bool
parseCount(const char *text, long max, long *out)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < 1 || v > max)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool kill_resume = false;
    bool upgrade = false;
    std::size_t threads = kDefaultThreads;
    const char *timeline_path = nullptr;
    const char *metrics_path = nullptr;
    const char *link_timeline_path = nullptr;
    const char *upgrade_timeline_path = nullptr;
    CrashPlan plan;
    auto usage = [] {
        std::fprintf(stderr,
                     "usage: overload_storm [--smoke] [--threads N]"
                     " [--metrics PATH] [--timeline PATH]"
                     " [--link-timeline PATH] [--upgrade]"
                     " [--upgrade-timeline PATH] [--kill-resume]"
                     " [--checkpoint-every N] [--checkpoint-dir"
                     " PATH]\n");
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        long n = 0;
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--kill-resume") == 0) {
            kill_resume = true;
        } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
                   has_value) {
            if (!parseCount(argv[++i], INT_MAX, &n))
                return usage();
            plan.checkpointEvery = static_cast<int>(n);
        } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 &&
                   has_value) {
            plan.dir = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 && has_value) {
            if (!parseCount(argv[++i], LONG_MAX, &n))
                return usage();
            threads = static_cast<std::size_t>(n);
        } else if (std::strcmp(argv[i], "--timeline") == 0 && has_value) {
            timeline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 && has_value) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--link-timeline") == 0 &&
                   has_value) {
            link_timeline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--upgrade") == 0) {
            upgrade = true;
        } else if (std::strcmp(argv[i], "--upgrade-timeline") == 0 &&
                   has_value) {
            upgrade_timeline_path = argv[++i];
            upgrade = true;
        } else {
            return usage();
        }
    }

    robox::dsl::ModelSpec model =
        robox::dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = robox::bench::integratorOptions();
    opt.batchDeadlineSeconds = kBudgetSeconds;
    opt.overloadParallelism = kParallelism;
    // Backup service priced so extreme storms overflow even an
    // all-backup batch and actually exercise the shed rung.
    opt.overloadBackupCostSeconds = 4e-4;
    opt.sensorRangeMargin = 0.5;
    opt.sensorJumpThreshold = 5.0;
    opt.sensorFrozenPeriods = 2;
    // The black box rides along in kill-resume mode so each simulated
    // kill leaves a postmortem. It records, never decides, so the
    // report stays byte-identical to a run without it.
    if (kill_resume)
        opt.flightRecorderCapacity = 32;

    constexpr std::uint64_t kSeed = 20260806;
    const int batches = smoke ? 40 : 120;
    const std::vector<double> loads =
        smoke ? std::vector<double>{0.5, 2.0, 8.0}
              : std::vector<double>{0.5, 1.0, 1.5, 2.0, 4.0, 8.0};
    const std::vector<double> losses =
        smoke ? std::vector<double>{0.0, 0.35}
              : std::vector<double>{0.0, 0.1, 0.25, 0.5};

    const CrashPlan *crash = kill_resume ? &plan : nullptr;

    // Every sweep runs the same underloaded fleet by default; a sweep's
    // description then adds its chaos and what it stages. Each sweep
    // draws its kills on its own nonce channel, so the sweeps are
    // killed at independent batch indices.
    auto fleet = [&](const char *sweep, std::size_t i,
                     std::uint64_t nonce_base, bool timeline) {
        Scenario s;
        s.tag = sweep + std::to_string(i);
        s.crashNonce = nonce_base + i;
        s.options = opt;
        s.chaos.seed = kSeed;
        s.chaos.virtualSolveCostSeconds = solveCostAt(0.5);
        s.robots = kRobots;
        s.threads = threads;
        s.batches = batches;
        s.timeline = timeline;
        return s;
    };

    // The fleet timeline is recorded for the highest-load storm — the
    // one whose ladder activity is worth looking at — and the link
    // timeline for the worst-loss link storm.
    std::vector<ScenarioResult> sweep;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        Scenario s = fleet("storm_", i, 0,
                           timeline_path && i + 1 == loads.size());
        describeStorm(s, loads[i]);
        sweep.push_back(runScenario(model, s, crash));
    }
    std::vector<ScenarioResult> link_sweep;
    for (std::size_t i = 0; i < losses.size(); ++i) {
        Scenario s = fleet("link_storm_", i, 0x100,
                           link_timeline_path && i + 1 == losses.size());
        describeLinkStorm(s, losses[i]);
        link_sweep.push_back(runScenario(model, s, crash));
    }
    // The upgrade sweep: one storm per rollout scenario. Its timeline
    // (upgrade-category markers) is recorded for the committing
    // scenario — the only one that walks the whole shadow -> canary ->
    // commit path.
    std::vector<ScenarioResult> upgrade_sweep;
    for (std::size_t i = 0; upgrade && i < kNumUpgradeScenarios; ++i) {
        Scenario s = fleet("upgrade_storm_", i, 0x200,
                           upgrade_timeline_path && i == 0);
        const UpgradeCandidate cand =
            describeUpgradeStorm(s, kUpgradeScenarios[i]);
        s.upgrade = &cand;
        upgrade_sweep.push_back(runScenario(model, s, crash));
    }
    const std::string report = reportJson(loads, sweep, losses, link_sweep,
                                          upgrade_sweep, kSeed, batches);
    std::fputs(report.c_str(), stdout);
    if (metrics_path)
        robox::trace::writeTextFile(metrics_path, report);
    if (timeline_path)
        sweep.back().timeline.writeChromeJson(timeline_path);
    if (link_timeline_path)
        link_sweep.back().timeline.writeChromeJson(link_timeline_path);
    if (upgrade_timeline_path)
        upgrade_sweep.front().timeline.writeChromeJson(
            upgrade_timeline_path);

    // Sanity gates: a storm study whose underloaded point degrades
    // service, whose overloaded point doesn't, or whose loop blows up
    // would be useless as a regression signal; fail loudly instead.
    auto finite = [](const ScenarioResult &r) {
        return std::isfinite(r.world.maxError) &&
               std::isfinite(r.world.meanError());
    };
    const OverloadReport &calm = sweep.front().report.overload;
    if (calm.degraded != 0 || calm.shed != 0) {
        std::fprintf(stderr, "overload_storm: underloaded point was "
                             "degraded or shed\n");
        return 1;
    }
    const OverloadReport &worst = sweep.back().report.overload;
    if (worst.overloadedBatches == 0 || worst.degraded == 0 ||
        worst.servedFromBackup == 0 || worst.shed == 0) {
        std::fprintf(stderr, "overload_storm: max-load point did not "
                             "exercise every ladder rung\n");
        return 1;
    }
    for (const ScenarioResult &r : sweep) {
        if (!finite(r)) {
            std::fprintf(stderr,
                         "overload_storm: closed loop went non-finite\n");
            return 1;
        }
        if (r.world.protectedShed != 0) {
            std::fprintf(stderr, "overload_storm: a high-priority robot "
                                 "was shed\n");
            return 1;
        }
        if (r.report.overload.poisoned == 0) {
            std::fprintf(stderr, "overload_storm: chaos poisoning never "
                                 "tripped the sensor gate\n");
            return 1;
        }
    }

    // Link-sweep gates: a perfect link must look exactly like the
    // direct path, and the worst-loss point must exercise every
    // degraded-comms mechanism, without the loop going non-finite.
    const LinkReport &clean = link_sweep.front().report.overload.link;
    if (clean.uplinkDropped != 0 || clean.downlinkDropped != 0 ||
        clean.retransmits != 0 || clean.planMisses != 0 ||
        clean.statesExtrapolated != 0 ||
        link_sweep.front().report.overload.servedFromBackup != 0) {
        std::fprintf(stderr, "overload_storm: lossless link point was "
                             "impaired\n");
        return 1;
    }
    const LinkReport &worst_link = link_sweep.back().report.overload.link;
    if (worst_link.uplinkDropped == 0 ||
        worst_link.downlinkDropped == 0 || worst_link.retransmits == 0 ||
        worst_link.planMisses == 0 ||
        worst_link.statesExtrapolated == 0) {
        std::fprintf(stderr, "overload_storm: max-loss point did not "
                             "exercise the degraded-comms path\n");
        return 1;
    }
    for (const ScenarioResult &r : link_sweep) {
        if (!finite(r)) {
            std::fprintf(stderr, "overload_storm: link-storm loop went "
                                 "non-finite\n");
            return 1;
        }
    }
    if (link_sweep.front().world.meanError() >
        link_sweep.back().world.meanError() + 1e-9) {
        std::fprintf(stderr, "overload_storm: loss made tracking "
                             "better than the lossless link\n");
        return 1;
    }

    // Upgrade-sweep gates: each scenario must land on its designed
    // outcome, and none may shed a robot — the rollout machinery
    // promises that no robot misses a command, so a single Shed here
    // is a regression, not noise.
    if (upgrade) {
        for (std::size_t i = 0; i < upgrade_sweep.size(); ++i) {
            const ScenarioResult &r = upgrade_sweep[i];
            if (r.report.overload.shed != 0) {
                std::fprintf(stderr,
                             "overload_storm: upgrade scenario %s shed "
                             "a robot\n",
                             kUpgradeScenarios[i].name);
                return 1;
            }
            if (!finite(r)) {
                std::fprintf(stderr,
                             "overload_storm: upgrade scenario %s went "
                             "non-finite\n",
                             kUpgradeScenarios[i].name);
                return 1;
            }
        }
        const UpgradeReport &commit = upgrade_sweep[0].report.upgrade;
        const UpgradeReport &bad_image = upgrade_sweep[1].report.upgrade;
        const UpgradeReport &diverged = upgrade_sweep[2].report.upgrade;
        const UpgradeReport &slow = upgrade_sweep[3].report.upgrade;
        if (!upgrade_sweep[0].world.scheduled || commit.committed != 1 ||
            commit.canaryRobots == 0 || commit.shadowSolves == 0 ||
            commit.divergenceFails != 0 || commit.version != 2) {
            std::fprintf(stderr, "overload_storm: benign candidate did "
                                 "not commit cleanly\n");
            return 1;
        }
        if (upgrade_sweep[1].world.scheduled ||
            bad_image.rejectedImages != 1 || bad_image.shadowSolves != 0) {
            std::fprintf(stderr, "overload_storm: corrupt image was not "
                                 "stopped at the admission gate\n");
            return 1;
        }
        if (!upgrade_sweep[2].world.scheduled ||
            diverged.rejectedCandidates != 1 ||
            diverged.rollbackDivergence != 1 ||
            diverged.divergenceFails == 0 || diverged.committed != 0) {
            std::fprintf(stderr, "overload_storm: divergent candidate "
                                 "was not rejected in shadow\n");
            return 1;
        }
        if (!upgrade_sweep[3].world.scheduled || slow.rolledBack != 1 ||
            slow.rollbackLatency != 1 || slow.canaryRobots == 0 ||
            slow.committed != 0) {
            std::fprintf(stderr, "overload_storm: slow candidate was "
                                 "not rolled back from canary\n");
            return 1;
        }
    }

    // Kill-resume leaves each storm's last checkpoint on disk. Gate
    // the corrupt-blob path on the real artifact: one flipped payload
    // byte must be rejected (CRC) and leave the fresh controller
    // serving from a clean cold start — never a crash.
    if (kill_resume) {
        // A checkpoint or postmortem that never reached the disk makes
        // a kill cold-start instead of resuming: the gate is void.
        for (const auto *runs : {&sweep, &link_sweep, &upgrade_sweep}) {
            for (const ScenarioResult &r : *runs) {
                if (r.writeFailed) {
                    std::fprintf(stderr, "overload_storm: kill-resume "
                                         "could not write to %s\n",
                                 plan.dir.c_str());
                    return 1;
                }
            }
        }
        const std::string last_ckpt =
            plan.dir + "/storm_" + std::to_string(loads.size() - 1) +
            ".rbcp";
        std::string blob;
        if (!robox::support::readFile(last_ckpt, &blob) ||
            blob.size() <= 20) {
            std::fprintf(stderr, "overload_storm: kill-resume left no "
                                 "checkpoint at %s\n",
                         last_ckpt.c_str());
            return 1;
        }
        blob[blob.size() / 2] =
            static_cast<char>(blob[blob.size() / 2] ^ 0x5a);
        BatchController fresh(model, opt, kRobots, threads);
        robox::support::CheckpointReader r(blob);
        if (fresh.restore(r)) {
            std::fprintf(stderr, "overload_storm: corrupt checkpoint "
                                 "was accepted\n");
            return 1;
        }
        std::vector<Vector> meas(kRobots, Vector{0.0, 0.0});
        std::vector<Vector> refs(kRobots, Vector{1.0});
        const auto &results = fresh.solveAll(meas, refs);
        for (std::size_t i = 0; i < kRobots; ++i) {
            if (!robox::mpc::statusUsable(results[i].status)) {
                std::fprintf(stderr,
                             "overload_storm: cold start after corrupt "
                             "checkpoint did not serve\n");
                return 1;
            }
        }
    }
    return 0;
}
