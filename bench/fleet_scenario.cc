/**
 * @file
 * Implementation of the shared closed-loop fleet scenario.
 */

#include "fleet_scenario.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "compiler/binary.hh"
#include "dsl/sema.hh"
#include "support/checkpoint.hh"
#include "support/hash.hh"
#include "support/stats.hh"

namespace robox::bench
{

using mpc::BatchController;

mpc::MpcOptions
integratorOptions(int horizon, int maxIterations)
{
    mpc::MpcOptions opt;
    opt.horizon = horizon;
    opt.dt = 0.1;
    opt.maxIterations = maxIterations;
    return opt;
}

void
makeFleetInputs(std::size_t robots, double ref_spacing,
                std::vector<Vector> &states, std::vector<Vector> &refs)
{
    states.clear();
    refs.clear();
    for (std::size_t i = 0; i < robots; ++i) {
        double s = static_cast<double>(i);
        states.push_back(Vector{0.1 * s, -0.03 * s});
        refs.push_back(Vector{1.0 + ref_spacing * s});
    }
}

bool
sameBits(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool
sameBits(const std::vector<Vector> &a, const std::vector<Vector> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Vector &x, const Vector &y) {
                          return sameBits(x, y);
                      });
}

FleetWorld::FleetWorld(const dsl::ModelSpec &model, std::size_t robots,
                       double ref_spacing, double dt_)
    : plant(model), dt(dt_), lastU(robots, Vector{0.0})
{
    makeFleetInputs(robots, ref_spacing, truth, refs);
    meas.assign(robots, Vector{0.0, 0.0});
    prevMeas = meas;
}

const std::vector<mpc::IpmSolver::Result> &
FleetWorld::step(BatchController &ctl, mpc::ChaosEngine *chaos)
{
    if (chaos)
        chaos->setBatch(batch);
    for (std::size_t i = 0; i < truth.size(); ++i) {
        meas[i].copyFrom(truth[i]);
        if (chaos)
            chaos->poisonState(batch, i, prevMeas[i], meas[i]);
        prevMeas[i].copyFrom(meas[i]);
    }
    const auto &results = ctl.solveAll(meas, refs);
    const bool linked = ctl.link() != nullptr;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const bool shed = results[i].status == mpc::SolveStatus::Shed;
        if (shed && i < protectedRobots)
            ++protectedShed;
        if (linked || !shed)
            lastU[i].copyFrom(results[i].u0);
        truth[i] = plant.step(truth[i], lastU[i], refs[i], dt);
        if (batch >= settleBatch) {
            double e = std::abs(truth[i][0] - refs[i][0]);
            maxError = std::max(maxError, e);
            errSum += e;
            ++errN;
        }
    }
    ++batch;
    return results;
}

double
FleetWorld::meanError() const
{
    return errN > 0 ? errSum / static_cast<double>(errN) : 0.0;
}

std::string
checkpointFleet(FleetWorld &world, const BatchController &ctl)
{
    support::CheckpointWriter w;
    world.visit(w);
    ctl.checkpoint(w);
    return w.finish();
}

bool
restoreFleet(const std::string &blob, FleetWorld &world,
             BatchController &ctl, const mpc::UpgradeCandidate *candidate)
{
    support::CheckpointReader r(blob);
    return world.visit(r) && ctl.restore(r, candidate) && r.atEnd();
}

mpc::UpgradeCandidate
makeCandidate(const char *source, const mpc::MpcOptions &options)
{
    mpc::UpgradeCandidate cand;
    cand.model = dsl::analyzeSource(source);
    cand.options = options;
    cand.image = compiler::packImage(compiler::IsaStreams());
    return cand;
}

std::string
pointJson(const std::string &group, const std::vector<Row> &rows)
{
    std::vector<stats::Scalar> scalars;
    scalars.reserve(rows.size());
    for (const Row &r : rows) {
        scalars.emplace_back(r.name, r.desc);
        scalars.back().set(r.value);
    }
    stats::StatGroup g(group);
    for (stats::Scalar &s : scalars)
        g.add(&s);
    return g.toJson();
}

namespace
{

/** Deterministic, sorted, deduplicated batch indices at which a
 *  scenario is killed. Every index lands after the first checkpoint
 *  exists, so each kill resumes from a real file (the corrupt /
 *  cold-start path is exercised separately). */
std::vector<std::uint64_t>
crashSchedule(std::uint64_t seed, std::uint64_t nonce, int batches,
              const CrashPlan &plan)
{
    std::vector<std::uint64_t> out;
    const int lo = plan.checkpointEvery + 1;
    const int span = batches - lo;
    if (span <= 0)
        return out;
    for (int k = 0; k < plan.crashes; ++k) {
        std::uint64_t h = support::mix64(seed ^ (nonce << 20) ^
                                         (0xC4A5ull << 40) ^
                                         static_cast<std::uint64_t>(k));
        out.push_back(static_cast<std::uint64_t>(lo) +
                      h % static_cast<std::uint64_t>(span));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace

ScenarioResult
runScenario(const dsl::ModelSpec &model, const Scenario &s,
            const CrashPlan *crash)
{
    mpc::ChaosEngine chaos(s.chaos);

    // The runtime wiring (hooks, priorities, timeline) is not part of
    // a checkpoint: a resumed "process" re-applies it exactly as a
    // restarted serving binary would.
    auto make_batch = [&] {
        auto p = std::make_unique<BatchController>(model, s.options,
                                                   s.robots, s.threads);
        p->setCostHook(chaos.costHook());
        p->setStallHook(chaos.stallHook());
        if (s.options.linkEnabled)
            p->setLinkChaos(&chaos);
        p->enableTimeline(s.timeline);
        for (std::size_t i = 0; i < s.protectedRobots; ++i)
            p->setPriority(i, 1.0);
        return p;
    };
    auto make_world = [&] {
        FleetWorld w(model, s.robots, 0.2, s.options.dt);
        w.settleBatch = static_cast<std::uint64_t>(s.batches / 3);
        w.protectedRobots = s.protectedRobots;
        return w;
    };
    std::unique_ptr<BatchController> batch = make_batch();
    FleetWorld world = make_world();

    const auto batches = static_cast<std::uint64_t>(s.batches);
    const std::string ckpt_path =
        crash ? crash->dir + "/" + s.tag + ".rbcp" : std::string();
    const std::vector<std::uint64_t> kills =
        crash ? crashSchedule(s.chaos.seed, s.crashNonce, s.batches, *crash)
              : std::vector<std::uint64_t>();
    std::size_t next_kill = 0;
    bool write_failed = false;
    auto write = [&](const std::string &path, const std::string &data) {
        if (support::writeFileAtomic(path, data))
            return;
        std::fprintf(stderr, "%s: could not write %s\n", s.tag.c_str(),
                     path.c_str());
        write_failed = true;
    };
    constexpr std::uint64_t kUpgradeBatch = 5; // After the loop settles.

    while (world.batch < batches) {
        if (next_kill < kills.size() && world.batch == kills[next_kill]) {
            ++next_kill;
            // Black box first: the postmortem is the flight recorder
            // recovered from the instance being killed.
            write(crash->dir + "/postmortem_" + s.tag + "_" +
                      std::to_string(next_kill) + ".json",
                  batch->flightRecorder().toJson());
            batch = make_batch(); // The "new process".
            std::string blob;
            if (!support::readFile(ckpt_path, &blob) ||
                !restoreFleet(blob, world, *batch, s.upgrade)) {
                // No checkpoint survived: the scenario replays whole.
                std::fprintf(stderr,
                             "%s: checkpoint unusable, cold-starting\n",
                             s.tag.c_str());
                batch = make_batch();
                world = make_world();
            }
            continue;
        }
        if (s.upgrade && world.batch == kUpgradeBatch)
            world.scheduled = batch->scheduleUpgrade(*s.upgrade) ==
                              mpc::UpgradeScheduleStatus::Scheduled;
        world.step(*batch, &chaos);
        if (crash && world.batch % static_cast<std::uint64_t>(
                                       crash->checkpointEvery) == 0)
            write(ckpt_path, checkpointFleet(world, *batch));
    }

    return {batch->report(),
            s.timeline ? batch->timeline() : mpc::FleetTimeline(), world,
            write_failed};
}

} // namespace robox::bench
