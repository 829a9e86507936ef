/**
 * @file
 * Tests for safe live controller upgrades: CRC-gated candidate
 * admission, zero-effect shadow validation, deterministic canary
 * selection and commit across thread counts, automatic rejection /
 * rollback on divergence, fault-rate regression, and latency budget
 * violations (with no robot missing a command), and checkpoint /
 * restore of an in-flight rollout.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/binary.hh"
#include "dsl/sema.hh"
#include "mpc/batch.hh"
#include "mpc/upgrade.hh"
#include "support/checkpoint.hh"
#include "fleet_scenario.hh"

namespace robox::mpc
{
namespace
{

using bench::integratorOptions;
using bench::kDoubleIntegrator;
using bench::kDoubleIntegratorRetuned;
using bench::makeCandidate;

/** Different state dimension: not live-upgradable. */
const char *kSingleIntegrator = R"(
System SingleIntegrator( param v_max ) {
  state pos;
  input vel;
  pos.dt = vel;
  vel.lower_bound <= -v_max;
  vel.upper_bound <= v_max;
  Task moveTo( reference target, param w_pos, param w_u ) {
    penalty track, effort;
    track.running = pos - target;
    track.weight <= w_pos;
    effort.running = vel;
    effort.weight <= w_u;
  }
}
reference target;
SingleIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

constexpr std::size_t kFleet = 4;

/** Deterministic virtual-time cost model so EWMAs, the virtual clock,
 *  and thus all metrics bytes replay across runs and thread counts. */
MpcOptions
hookedOptions()
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 4;
    return opt;
}

BatchController::CostHook
flatCostHook()
{
    return [](std::size_t, double) { return 1e-5; };
}

/** The shared closed loop over kFleet robots, targets 0.25 apart. */
bench::FleetWorld
fleetWorld(const dsl::ModelSpec &model)
{
    return bench::FleetWorld(model, kFleet, 0.25, integratorOptions(8, 40).dt);
}

/** Every robot served a usable command this batch (the "no missed
 *  commands" acceptance condition for upgrade campaigns). */
void
expectAllServed(const BatchController &batch)
{
    for (std::size_t i = 0; i < kFleet; ++i)
        EXPECT_TRUE(statusUsable(batch.report().statuses[i]));
    EXPECT_EQ(0u, batch.report().overload.shed);
}

// ---------------------------------------------------------------------
// Candidate admission.
// ---------------------------------------------------------------------

TEST(UpgradeSchedule, BadImagesAreRejectedWithIncumbentUntouched)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = integratorOptions(8, 40);

    BatchController batch(model, opt, kFleet, 2);
    BatchController baseline(model, opt, kFleet, 2);
    bench::FleetWorld h = fleetWorld(model), hb = fleetWorld(model);
    h.step(batch);
    hb.step(baseline);

    UpgradeCandidate cand = makeCandidate(kDoubleIntegrator, opt);
    const std::vector<std::uint8_t> good = cand.image;

    // CRC-corrupt payload/header byte.
    cand.image = good;
    cand.image[compiler::kImageHeaderBytes - 1] ^= 0x01;
    EXPECT_EQ(UpgradeScheduleStatus::BadImage,
              batch.scheduleUpgrade(cand));
    // Truncated.
    cand.image.assign(good.begin(), good.end() - 1);
    EXPECT_EQ(UpgradeScheduleStatus::BadImage,
              batch.scheduleUpgrade(cand));
    // Version-skewed (little-endian version word at offset 4).
    cand.image = good;
    cand.image[4] += 1;
    EXPECT_EQ(UpgradeScheduleStatus::BadImage,
              batch.scheduleUpgrade(cand));
    // Empty: an image is required, not optional.
    cand.image.clear();
    EXPECT_EQ(UpgradeScheduleStatus::BadImage,
              batch.scheduleUpgrade(cand));

    EXPECT_EQ(UpgradePhase::Idle, batch.upgradePhase());
    EXPECT_EQ(4u, batch.report().upgrade.scheduled);
    EXPECT_EQ(4u, batch.report().upgrade.rejectedImages);

    // The incumbent serves on, bitwise-identical to a controller that
    // never saw the bad candidates.
    for (int b = 0; b < 4; ++b) {
        h.step(batch);
        hb.step(baseline);
    }
    EXPECT_TRUE(bench::sameBits(hb.truth, h.truth));
    for (std::size_t i = 0; i < kFleet; ++i)
        EXPECT_EQ(1u, batch.servingVersion(i));
}

TEST(UpgradeSchedule, ShapeMismatchRejectedAndBusyWhileInFlight)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = integratorOptions(8, 40);
    BatchController batch(model, opt, kFleet, 2);

    EXPECT_EQ(UpgradeScheduleStatus::Incompatible,
              batch.scheduleUpgrade(
                  makeCandidate(kSingleIntegrator, opt)));
    EXPECT_EQ(UpgradePhase::Idle, batch.upgradePhase());
    EXPECT_EQ(1u, batch.report().upgrade.rejectedIncompatible);

    EXPECT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(
                  makeCandidate(kDoubleIntegrator, opt)));
    EXPECT_EQ(UpgradePhase::Shadow, batch.upgradePhase());
    // One rollout at a time.
    EXPECT_EQ(UpgradeScheduleStatus::Busy,
              batch.scheduleUpgrade(
                  makeCandidate(kDoubleIntegrator, opt)));

    // An operator abort rejects the shadowing candidate and frees the
    // slot for the next attempt.
    batch.abortUpgrade();
    EXPECT_EQ(UpgradePhase::Rejected, batch.upgradePhase());
    EXPECT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(
                  makeCandidate(kDoubleIntegrator, opt)));
}

// ---------------------------------------------------------------------
// Rollout phases.
// ---------------------------------------------------------------------

TEST(UpgradeRollout, ShadowPhaseHasZeroEffectOnCommands)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = hookedOptions();
    opt.upgradeShadowPeriods = 1000; // Stay in shadow for the run.

    // Virtual-time costs: the shadow latency guard must not read wall
    // clock, or a slow (sanitized, loaded) run can reject the retuned
    // candidate before the six periods are up.
    BatchController batch(model, opt, kFleet, 2);
    BatchController baseline(model, opt, kFleet, 2);
    batch.setCostHook(flatCostHook());
    baseline.setCostHook(flatCostHook());
    // Even a *retuned* candidate, solving every robot every period,
    // must not move a single command bit while shadowing.
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(
                  makeCandidate(kDoubleIntegratorRetuned, opt)));

    bench::FleetWorld h = fleetWorld(model), hb = fleetWorld(model);
    for (int b = 0; b < 6; ++b) {
        h.step(batch);
        hb.step(baseline);
        expectAllServed(batch);
    }
    EXPECT_TRUE(bench::sameBits(hb.truth, h.truth));
    EXPECT_EQ(UpgradePhase::Shadow, batch.upgradePhase());
    EXPECT_EQ(6u * kFleet, batch.report().upgrade.shadowSolves);
    // The retuned model computed materially different commands; the
    // divergence bands saw them even though no robot did. (The fail
    // band was left at its defaults wide enough not to trip here.)
    EXPECT_GT(batch.report().upgrade.maxDivergence, 0.0);
}

/** Drive a full campaign to commit; returns final fleet truth. */
std::vector<Vector>
runCommitCampaign(std::size_t threads, std::string *metrics)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = hookedOptions();
    opt.upgradeShadowPeriods = 2;
    opt.upgradeCanaryPeriods = 3;
    opt.upgradeCanaryFraction = 0.5;
    opt.upgradeSeed = 2026;

    BatchController batch(model, opt, kFleet, threads);
    batch.setCostHook(flatCostHook());
    bench::FleetWorld h = fleetWorld(model);
    h.step(batch);
    EXPECT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(
                  makeCandidate(kDoubleIntegrator, opt)));
    for (int b = 1; b < 10; ++b) {
        h.step(batch);
        expectAllServed(batch);
    }
    EXPECT_EQ(UpgradePhase::Committed, batch.upgradePhase());
    EXPECT_EQ(1u, batch.report().upgrade.committed);
    EXPECT_EQ(2u, batch.report().upgrade.version);
    EXPECT_GE(batch.report().upgrade.canaryRobots, 1u);
    for (std::size_t i = 0; i < kFleet; ++i)
        EXPECT_EQ(2u, batch.servingVersion(i));
    // Committed: the double-solve is over.
    EXPECT_FALSE(batch.upgradeActive());
    if (metrics)
        *metrics = batchMetricsJson(batch.report(), false);
    return h.truth;
}

TEST(UpgradeRollout, CommitCampaignIsBitwiseAcrossThreadCounts)
{
    std::string m4, m1;
    auto t4 = runCommitCampaign(4, &m4);
    auto t1 = runCommitCampaign(1, &m1);
    EXPECT_TRUE(bench::sameBits(t4, t1));
    EXPECT_EQ(m4, m1);
}

TEST(UpgradeRollout, DivergentCandidateIsRejectedInShadow)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = integratorOptions(8, 40);
    // Tight fail band: any real command difference trips.
    opt.upgradeFailAbs = 1e-9;
    opt.upgradeFailRel = 0.0;

    BatchController batch(model, opt, kFleet, 2);
    BatchController baseline(model, opt, kFleet, 2);
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(
                  makeCandidate(kDoubleIntegratorRetuned, opt)));

    bench::FleetWorld h = fleetWorld(model), hb = fleetWorld(model);
    for (int b = 0; b < 4; ++b) {
        h.step(batch);
        hb.step(baseline);
        expectAllServed(batch);
    }
    EXPECT_EQ(UpgradePhase::Rejected, batch.upgradePhase());
    EXPECT_EQ(1u, batch.report().upgrade.rejectedCandidates);
    EXPECT_EQ(1u, batch.report().upgrade.rollbackDivergence);
    EXPECT_GT(batch.report().upgrade.divergenceFails, 0u);
    // Never canaried, never served: the fleet is untouched.
    EXPECT_TRUE(bench::sameBits(hb.truth, h.truth));
    for (std::size_t i = 0; i < kFleet; ++i)
        EXPECT_EQ(1u, batch.servingVersion(i));
}

TEST(UpgradeRollout, FaultRateRegressionRejectsCandidate)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = integratorOptions(8, 40);

    // The candidate's own solver options make every one of its solves
    // report Diverged (unusable): a 100% bad-solve rate against the
    // incumbent's ~0% trips the fault-rate guard, not the divergence
    // guard (there are no usable candidate commands to compare).
    MpcOptions broken = opt;
    broken.divergenceThreshold = 1e-12;

    BatchController batch(model, opt, kFleet, 2);
    UpgradeCandidate cand = makeCandidate(kDoubleIntegrator, broken);
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(cand));

    bench::FleetWorld h = fleetWorld(model);
    for (int b = 0; b < 3; ++b) {
        h.step(batch);
        expectAllServed(batch);
    }
    EXPECT_EQ(UpgradePhase::Rejected, batch.upgradePhase());
    EXPECT_EQ(1u, batch.report().upgrade.rollbackFaultRate);
    EXPECT_EQ(0u, batch.report().upgrade.rollbackDivergence);
}

TEST(UpgradeRollout, LatencyRegressionRollsBackCanaryLosslessly)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = hookedOptions();
    // Reach canary before the latency guard (2x the incumbent's cost)
    // can arm (2 periods).
    opt.upgradeShadowPeriods = 1;

    BatchController batch(model, opt, kFleet, 2);
    BatchController baseline(model, opt, kFleet, 2);
    batch.setCostHook(flatCostHook());
    baseline.setCostHook(flatCostHook());

    // Same model, modeled as 4x costlier: commands are identical, so
    // a lossless rollback means the fleet ends bitwise where the
    // no-upgrade baseline does, even though canary robots served from
    // the candidate for a while.
    UpgradeCandidate cand = makeCandidate(kDoubleIntegrator, opt);
    cand.modeledCostScale = 4.0;
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(cand));

    bench::FleetWorld h = fleetWorld(model), hb = fleetWorld(model);
    bool saw_canary = false;
    for (int b = 0; b < 8; ++b) {
        h.step(batch);
        hb.step(baseline);
        expectAllServed(batch);
        saw_canary |= batch.upgradePhase() == UpgradePhase::Canary;
    }
    EXPECT_TRUE(saw_canary);
    EXPECT_EQ(UpgradePhase::RolledBack, batch.upgradePhase());
    EXPECT_EQ(1u, batch.report().upgrade.rolledBack);
    EXPECT_EQ(1u, batch.report().upgrade.rollbackLatency);
    EXPECT_EQ(1u, batch.report().upgrade.version);
    for (std::size_t i = 0; i < kFleet; ++i)
        EXPECT_EQ(1u, batch.servingVersion(i));
    EXPECT_TRUE(bench::sameBits(hb.truth, h.truth));
}

// ---------------------------------------------------------------------
// Checkpoint / restore of an in-flight rollout.
// ---------------------------------------------------------------------

struct CampaignConfig
{
    dsl::ModelSpec model;
    MpcOptions opt;
    UpgradeCandidate cand;

    CampaignConfig()
    {
        model = dsl::analyzeSource(kDoubleIntegrator);
        opt = hookedOptions();
        opt.upgradeShadowPeriods = 3;
        opt.upgradeCanaryPeriods = 6;
        opt.upgradeCanaryFraction = 0.5;
        opt.upgradeSeed = 7;
        cand = makeCandidate(kDoubleIntegrator, opt);
    }
};

TEST(UpgradeCheckpoint, MidCanaryRestoreReplaysBitwiseAcrossThreads)
{
    CampaignConfig cfg;
    const std::uint64_t total = 14, cut = 6; // Batch 6 is mid-canary.

    std::string blob;
    BatchController live(cfg.model, cfg.opt, kFleet, 4);
    live.setCostHook(flatCostHook());
    bench::FleetWorld h = fleetWorld(cfg.model);
    h.step(live);
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              live.scheduleUpgrade(cfg.cand));
    while (h.batch < total) {
        if (h.batch == cut) {
            EXPECT_EQ(UpgradePhase::Canary, live.upgradePhase());
            blob = bench::checkpointFleet(h, live);
        }
        h.step(live);
    }
    EXPECT_EQ(UpgradePhase::Committed, live.upgradePhase());
    const std::string live_metrics = batchMetricsJson(live.report(), false);

    // Restore on a different thread count, re-supplying the candidate.
    BatchController resumed(cfg.model, cfg.opt, kFleet, 1);
    resumed.setCostHook(flatCostHook());
    bench::FleetWorld h2 = fleetWorld(cfg.model);
    ASSERT_TRUE(bench::restoreFleet(blob, h2, resumed, &cfg.cand));
    EXPECT_EQ(UpgradePhase::Canary, resumed.upgradePhase());
    while (h2.batch < total)
        h2.step(resumed);
    EXPECT_TRUE(bench::sameBits(h.truth, h2.truth));
    EXPECT_EQ(live_metrics, batchMetricsJson(resumed.report(), false));
    EXPECT_EQ(UpgradePhase::Committed, resumed.upgradePhase());
}

TEST(UpgradeCheckpoint, LiveRestoreRequiresTheMatchingCandidate)
{
    CampaignConfig cfg;
    BatchController live(cfg.model, cfg.opt, kFleet, 2);
    live.setCostHook(flatCostHook());
    bench::FleetWorld h = fleetWorld(cfg.model);
    h.step(live);
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              live.scheduleUpgrade(cfg.cand));
    for (int b = 0; b < 2; ++b)
        h.step(live);
    ASSERT_EQ(UpgradePhase::Shadow, live.upgradePhase());
    support::CheckpointWriter w;
    live.checkpoint(w);
    const std::string blob = w.finish();

    // No candidate supplied: refused into a clean cold start.
    {
        BatchController fresh(cfg.model, cfg.opt, kFleet, 2);
        support::CheckpointReader r(blob);
        EXPECT_FALSE(fresh.restore(r));
        EXPECT_EQ(0u, fresh.report().batches);
        EXPECT_EQ(UpgradePhase::Idle, fresh.upgradePhase());
    }
    // Wrong image bytes: refused.
    {
        UpgradeCandidate wrong = cfg.cand;
        wrong.image[wrong.image.size() - 1] ^= 0x01;
        BatchController fresh(cfg.model, cfg.opt, kFleet, 2);
        support::CheckpointReader r(blob);
        EXPECT_FALSE(fresh.restore(r, &wrong));
    }
    // Wrong modeled cost scale: refused.
    {
        UpgradeCandidate wrong = cfg.cand;
        wrong.modeledCostScale = 2.0;
        BatchController fresh(cfg.model, cfg.opt, kFleet, 2);
        support::CheckpointReader r(blob);
        EXPECT_FALSE(fresh.restore(r, &wrong));
    }
    // Corrupt byte inside the upgrade section: refused by the format
    // CRC before the payload is even parsed.
    {
        std::string bad = blob;
        bad[bad.size() - 5] ^= 0x10;
        BatchController fresh(cfg.model, cfg.opt, kFleet, 2);
        support::CheckpointReader r(bad);
        EXPECT_FALSE(fresh.restore(r, &cfg.cand));
        // And the rejected controller still serves from cold.
        bench::FleetWorld h2 = fleetWorld(cfg.model);
        h2.step(fresh);
        for (std::size_t i = 0; i < kFleet; ++i)
            EXPECT_TRUE(statusUsable(fresh.report().statuses[i]));
    }
    // The matching candidate still restores after all that.
    {
        BatchController fine(cfg.model, cfg.opt, kFleet, 2);
        fine.setCostHook(flatCostHook());
        support::CheckpointReader r(blob);
        EXPECT_TRUE(fine.restore(r, &cfg.cand));
        EXPECT_EQ(UpgradePhase::Shadow, fine.upgradePhase());
        EXPECT_EQ(batchMetricsJson(live.report(), false),
                  batchMetricsJson(fine.report(), false));
    }
}

TEST(UpgradeCheckpoint, SettledPhasesRestoreWithoutACandidate)
{
    CampaignConfig cfg;
    cfg.opt.upgradeFailAbs = 1e-9;
    cfg.opt.upgradeFailRel = 0.0;
    cfg.cand = makeCandidate(kDoubleIntegratorRetuned, cfg.opt);

    BatchController live(cfg.model, cfg.opt, kFleet, 2);
    live.setCostHook(flatCostHook());
    bench::FleetWorld h = fleetWorld(cfg.model);
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              live.scheduleUpgrade(cfg.cand));
    for (int b = 0; b < 3; ++b)
        h.step(live);
    ASSERT_EQ(UpgradePhase::Rejected, live.upgradePhase());

    // A settled (rejected) rollout holds no candidate solvers, so the
    // checkpoint restores with history intact and no candidate.
    support::CheckpointWriter w;
    live.checkpoint(w);
    BatchController resumed(cfg.model, cfg.opt, kFleet, 1);
    resumed.setCostHook(flatCostHook());
    support::CheckpointReader r(w.finish());
    ASSERT_TRUE(resumed.restore(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(UpgradePhase::Rejected, resumed.upgradePhase());
    EXPECT_EQ(1u, resumed.report().upgrade.rejectedCandidates);
    EXPECT_EQ(batchMetricsJson(live.report(), false),
              batchMetricsJson(resumed.report(), false));
}

} // namespace
} // namespace robox::mpc
