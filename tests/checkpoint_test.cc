/**
 * @file
 * Tests for the crash-safe serving layer: the versioned CRC-protected
 * checkpoint format, bitwise kill-and-resume of core::Controller and
 * BatchController (including across thread counts and under
 * chaos/lossy-link configs), rejection of corrupt / truncated /
 * version-skewed blobs with a clean cold-start fallback (including
 * CRC-valid blobs whose length prefixes claim 2^40 elements), sensor-gate
 * streak continuity across a restore, byte-stability of the
 * flight-recorder postmortem dump, and length/CRC goldens pinning the
 * v1 byte layout.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "dsl/sema.hh"
#include "mpc/batch.hh"
#include "mpc/chaos.hh"
#include "mpc/flight_recorder.hh"
#include "mpc/sensor_gate.hh"
#include "mpc/simulate.hh"
#include "support/checkpoint.hh"
#include "support/crc32.hh"
#include "fleet_scenario.hh"

namespace robox::mpc
{
namespace
{

using bench::integratorOptions;
using bench::kDoubleIntegrator;

// ---------------------------------------------------------------------
// Format layer.
// ---------------------------------------------------------------------

TEST(CheckpointFormat, RoundTripPreservesEveryTypeBitwise)
{
    support::CheckpointWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-7);
    w.i64(-1234567890123ll);
    w.boolean(true);
    w.f64(-0.1);
    const double nan = std::nan("0x5");
    w.f64(nan);
    w.str("postmortem");

    support::CheckpointReader r(w.finish());
    ASSERT_EQ(support::CheckpointStatus::Ok, r.status());
    std::uint8_t u8v = 0;
    std::uint32_t u32v = 0;
    std::uint64_t u64v = 0;
    std::int32_t i32v = 0;
    std::int64_t i64v = 0;
    bool bv = false;
    double d1 = 0.0, d2 = 0.0;
    std::string s;
    ASSERT_TRUE(r.u8(u8v));
    ASSERT_TRUE(r.u32(u32v));
    ASSERT_TRUE(r.u64(u64v));
    ASSERT_TRUE(r.i32(i32v));
    ASSERT_TRUE(r.i64(i64v));
    ASSERT_TRUE(r.boolean(bv));
    ASSERT_TRUE(r.f64(d1));
    ASSERT_TRUE(r.f64(d2));
    ASSERT_TRUE(r.str(s));
    EXPECT_EQ(0xAB, u8v);
    EXPECT_EQ(0xDEADBEEFu, u32v);
    EXPECT_EQ(0x0123456789ABCDEFull, u64v);
    EXPECT_EQ(-7, i32v);
    EXPECT_EQ(-1234567890123ll, i64v);
    EXPECT_TRUE(bv);
    EXPECT_EQ(-0.1, d1);
    // NaN payload bits survive (bitwise, not value, storage).
    EXPECT_EQ(0, std::memcmp(&nan, &d2, sizeof nan));
    EXPECT_EQ("postmortem", s);
    EXPECT_TRUE(r.atEnd());
    EXPECT_FALSE(r.failed());

    // Reading past the end fails and latches, never crashes.
    EXPECT_FALSE(r.u8(u8v));
    EXPECT_TRUE(r.failed());
}

TEST(CheckpointFormat, HeaderRejectsEveryCorruptionClass)
{
    support::CheckpointWriter w;
    w.u64(42);
    w.f64(3.5);
    const std::string good = w.finish();

    {
        support::CheckpointReader r(good);
        EXPECT_EQ(support::CheckpointStatus::Ok, r.status());
    }
    {
        std::string bad = good;
        bad[0] = 'X';
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::BadMagic, r.status());
    }
    {
        std::string bad = good;
        bad[4] = static_cast<char>(support::kCheckpointVersion + 1);
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::BadVersion, r.status());
    }
    {
        std::string bad = good.substr(0, good.size() - 3);
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::Truncated, r.status());
    }
    {
        std::string bad = good.substr(0, 10); // Inside the header.
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::Truncated, r.status());
    }
    {
        std::string bad = good;
        bad[good.size() - 1] ^= 0x01; // Payload bit flip.
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::BadChecksum, r.status());
    }
    {
        support::CheckpointReader r{std::string()};
        EXPECT_EQ(support::CheckpointStatus::Truncated, r.status());
        std::uint64_t v = 0;
        EXPECT_FALSE(r.u64(v)); // Reads refuse on a bad header.
    }
}

TEST(CheckpointFormat, AtomicWriteLandsAndOverwrites)
{
    const std::string path =
        ::testing::TempDir() + "checkpoint_atomic_test.rbcp";
    ASSERT_TRUE(support::writeFileAtomic(path, "first"));
    ASSERT_TRUE(support::writeFileAtomic(path, "second"));
    std::string back;
    ASSERT_TRUE(support::readFile(path, &back));
    EXPECT_EQ("second", back);
    std::remove(path.c_str());
    EXPECT_FALSE(support::readFile(path, &back));
}

// ---------------------------------------------------------------------
// Single-robot controller.
// ---------------------------------------------------------------------

TEST(ControllerCheckpoint, ResumedStepsAreBitwiseIdentical)
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.flightRecorderCapacity = 8;
    core::Controller live(kDoubleIntegrator, opt);
    core::Controller resumed(kDoubleIntegrator, opt);

    Plant plant(live.model());
    Vector truth{0.4, -0.2};
    const Vector ref{1.0};
    const int total = 16, cut = 7;

    std::string blob;
    Vector truth_at_cut;
    for (int k = 0; k < total; ++k) {
        if (k == cut) {
            support::CheckpointWriter w;
            live.checkpoint(w);
            blob = w.finish();
            truth_at_cut = truth;
        }
        auto res = live.step(truth, ref);
        truth = plant.step(truth, res.u0, ref, opt.dt);
        if (k < cut)
            continue;
    }
    const std::string live_box = live.flightRecorder().toJson();

    // "Crash" and resume the second controller at the cut.
    support::CheckpointReader r(blob);
    ASSERT_TRUE(resumed.restore(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(static_cast<std::uint64_t>(cut), resumed.periods());

    Vector truth2 = truth_at_cut;
    for (int k = cut; k < total; ++k) {
        auto res = resumed.step(truth2, ref);
        truth2 = plant.step(truth2, res.u0, ref, opt.dt);
    }
    EXPECT_TRUE(bench::sameBits(truth, truth2));
    EXPECT_EQ(live.periods(), resumed.periods());
    EXPECT_EQ(live.lastStatus(), resumed.lastStatus());
    // Both black boxes saw the same flight: byte-identical postmortems.
    EXPECT_EQ(live_box, resumed.flightRecorder().toJson());
}

TEST(ControllerCheckpoint, BadBlobsAreRejectedIntoCleanColdStart)
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.flightRecorderCapacity = 4;
    core::Controller ctl(kDoubleIntegrator, opt);
    const Vector x{0.3, 0.1};
    const Vector ref{1.0};
    ctl.step(x, ref);
    support::CheckpointWriter w;
    ctl.checkpoint(w);
    const std::string good = w.finish();

    core::Controller fresh(kDoubleIntegrator, opt);
    {
        std::string bad = good;
        bad[bad.size() / 2] ^= 0x40;
        support::CheckpointReader r(bad);
        EXPECT_FALSE(fresh.restore(r));
    }
    {
        std::string bad = good;
        bad[4] = static_cast<char>(support::kCheckpointVersion + 9);
        support::CheckpointReader r(bad);
        EXPECT_FALSE(fresh.restore(r));
    }
    {
        support::CheckpointReader r(good.substr(0, good.size() / 2));
        EXPECT_FALSE(fresh.restore(r));
    }
    {
        // Structurally valid blob with a foreign layout.
        support::CheckpointWriter other;
        other.u64(7);
        support::CheckpointReader r(other.finish());
        EXPECT_FALSE(fresh.restore(r));
    }
    // After every rejection the controller serves from a cold start.
    EXPECT_EQ(0u, fresh.periods());
    auto res = fresh.step(x, ref);
    EXPECT_TRUE(statusUsable(res.status));
    EXPECT_FALSE(res.degraded);
}

TEST(ControllerCheckpoint, GateStreaksContinueWithoutResetOrDoubleCount)
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.sensorJumpThreshold = 5.0;
    opt.sensorFrozenPeriods = 2;

    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    SensorGate live(model, opt);
    const Vector frozen{0.25, -0.125};

    // Baseline, then one repeat: the streak stands one short of the
    // frozen verdict at the cut.
    EXPECT_EQ(SensorVerdict::Ok, live.check(frozen));
    EXPECT_EQ(SensorVerdict::Ok, live.check(frozen));

    support::CheckpointWriter w;
    live.checkpoint(w);
    SensorGate resumed(model, opt);
    support::CheckpointReader r(w.finish());
    ASSERT_TRUE(resumed.restore(r));

    // The streak must continue (trip on the very next repeat), not
    // restart from zero...
    EXPECT_EQ(SensorVerdict::Frozen, resumed.check(frozen));
    EXPECT_EQ(SensorVerdict::Frozen, live.check(frozen));
    EXPECT_EQ(live.rejected(), resumed.rejected());

    // ...and the jump re-home streak must survive a restore the same
    // way: two of the kJumpRehomePeriods rejections happen before the
    // cut, the re-home lands on schedule after it.
    ASSERT_EQ(3, SensorGate::kJumpRehomePeriods);
    const Vector teleported{40.0, 0.0};
    EXPECT_EQ(SensorVerdict::Jump, live.check(teleported));
    EXPECT_EQ(SensorVerdict::Jump, live.check(teleported));
    support::CheckpointWriter w2;
    live.checkpoint(w2);
    SensorGate resumed2(model, opt);
    support::CheckpointReader r2(w2.finish());
    ASSERT_TRUE(resumed2.restore(r2));
    EXPECT_EQ(live.check(teleported), resumed2.check(teleported));
    // Baseline re-homed: the new location is now plausible.
    EXPECT_EQ(SensorVerdict::Ok, live.check(teleported));
    EXPECT_EQ(SensorVerdict::Ok, resumed2.check(teleported));
    EXPECT_EQ(live.rejected(), resumed2.rejected());
}

/** A length prefix claiming 2^40 elements: far more than any payload
 *  holds, so a restore must refuse it before sizing anything by it. */
constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 40;

TEST(ControllerCheckpoint, HugeLengthPrefixesColdStartCleanly)
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.flightRecorderCapacity = 4;
    core::Controller donor(kDoubleIntegrator, opt);
    const Vector x{0.3, 0.1};
    const Vector ref{1.0};
    donor.step(x, ref);

    // CRC-valid payloads that are well-formed up to one resizing site
    // and carry kHugeCount there: the backup-plan tail, the sensor-gate
    // baseline, and a flight record's state vector.
    const BackupPlan no_plan(donor.model());
    const SensorGate no_gate(donor.model(), opt);
    auto blob = [&](int site) {
        support::CheckpointWriter w;
        w.u64(donor.periods());
        w.u32(static_cast<std::uint32_t>(donor.lastStatus()));
        donor.solver().checkpoint(w);
        if (site > 0)
            no_plan.checkpoint(w);
        if (site > 1) {
            no_gate.checkpoint(w);
            w.u64(4); // Recorder capacity.
            w.u64(1); // Records pushed.
            w.u64(1); // Records retained.
            w.u64(0);
            w.i32(-1);
            w.u32(0);
            w.i32(-1);
            w.i32(-1);
            w.i32(-1);
            w.boolean(false);
        }
        w.u64(kHugeCount);
        return w.finish();
    };
    for (int site = 0; site < 3; ++site) {
        SCOPED_TRACE(site);
        core::Controller fresh(kDoubleIntegrator, opt);
        support::CheckpointReader r(blob(site));
        bool restored = true;
        EXPECT_NO_THROW(restored = fresh.restore(r));
        EXPECT_FALSE(restored);
        EXPECT_EQ(0u, fresh.periods());
        EXPECT_TRUE(fresh.flightRecorder().empty());
        EXPECT_TRUE(statusUsable(fresh.step(x, ref).status));
    }
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

TEST(FlightRecorderCheckpoint, PostmortemDumpIsByteStable)
{
    FlightRecorder rec;
    rec.configure(3);
    for (int i = 0; i < 5; ++i) {
        FlightRecord fr;
        fr.period = static_cast<std::uint64_t>(i);
        fr.robot = i % 2;
        fr.status = i == 4 ? SolveStatus::NumericFailure
                           : SolveStatus::Converged;
        fr.rung = i % 3;
        fr.degraded = i == 4;
        fr.state = Vector{0.125 * i, -0.0625 * i};
        fr.command = Vector{0.5 - 0.1 * i};
        rec.push(fr);
    }
    EXPECT_EQ(3, rec.size());
    EXPECT_EQ(5u, rec.totalRecorded());
    EXPECT_EQ(2u, rec.dropped());
    EXPECT_EQ(2u, rec.record(0).period); // Oldest retained.

    const std::string dump = rec.toJson();
    EXPECT_EQ(dump, rec.toJson()); // Rendering is pure.

    FlightRecorder back;
    back.configure(3);
    support::CheckpointWriter w;
    rec.checkpoint(w);
    support::CheckpointReader r(w.finish());
    ASSERT_TRUE(back.restore(r));
    EXPECT_EQ(dump, back.toJson()); // The black box survived intact.

    // A differently-sized ring refuses the payload instead of
    // truncating it silently.
    FlightRecorder wrong;
    wrong.configure(2);
    support::CheckpointReader r2(w.finish());
    EXPECT_FALSE(wrong.restore(r2));
    EXPECT_TRUE(wrong.empty());
}

// ---------------------------------------------------------------------
// Fleet controller.
// ---------------------------------------------------------------------

constexpr std::size_t kFleet = 4;

/** The shared closed loop over kFleet robots, targets 0.25 apart. */
bench::FleetWorld
fleetWorld(const dsl::ModelSpec &model, double dt)
{
    return bench::FleetWorld(model, kFleet, 0.25, dt);
}

/**
 * Run `total` closed-loop batches on `threads` workers, checkpointing
 * world and controller at `cut`; returns the final metrics and truth.
 * With `resume`, the run first restores that checkpoint and carries on
 * from its batch instead.
 */
std::pair<std::string, std::vector<Vector>>
runFleet(const MpcOptions &opt, std::size_t threads, const ChaosSpec *spec,
         int total, int cut, std::string *blob, const std::string *resume)
{
    const dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    BatchController batch(model, opt, kFleet, threads);
    std::optional<ChaosEngine> chaos;
    if (spec) {
        chaos.emplace(*spec);
        batch.setCostHook(chaos->costHook());
        if (chaos->linkImpaired())
            batch.setLinkChaos(&*chaos);
        batch.setPriority(0, 1.0);
    }
    bench::FleetWorld world = fleetWorld(model, opt.dt);
    if (resume) {
        EXPECT_TRUE(bench::restoreFleet(*resume, world, batch));
    }
    while (world.batch < static_cast<std::uint64_t>(total)) {
        if (!resume && world.batch == static_cast<std::uint64_t>(cut))
            *blob = bench::checkpointFleet(world, batch);
        world.step(batch, chaos ? &*chaos : nullptr);
    }
    return {batchMetricsJson(batch.report(), false), world.truth};
}

/** A run checkpointed at `cut` on 4 workers and one resumed from that
 *  checkpoint on 1 must end bitwise equal: the worker-pool size is
 *  explicitly not part of the resumable state. */
void
expectResumesBitwise(const MpcOptions &opt, const ChaosSpec *spec,
                     int total, int cut)
{
    std::string blob;
    const auto live = runFleet(opt, 4, spec, total, cut, &blob, nullptr);
    const auto resumed = runFleet(opt, 1, spec, total, cut, nullptr, &blob);
    EXPECT_TRUE(bench::sameBits(live.second, resumed.second));
    EXPECT_EQ(live.first, resumed.first);
}

TEST(BatchCheckpoint, PlainFleetResumesBitwiseAcrossThreadCounts)
{
    expectResumesBitwise(integratorOptions(8, 40), nullptr, 12, 5);
}

TEST(BatchCheckpoint, ChaosStormResumesBitwise)
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 2;
    opt.overloadBackupCostSeconds = 4e-4;
    opt.sensorRangeMargin = 0.5;
    opt.sensorJumpThreshold = 5.0;
    opt.sensorFrozenPeriods = 2;
    opt.flightRecorderCapacity = 16;

    ChaosSpec spec;
    spec.seed = 99;
    spec.stallRate = 0.2;
    spec.stallCostSeconds = 5e-4;
    spec.burstRate = 0.2;
    spec.burstFactor = 3.0;
    spec.poisonRate = 0.05;
    spec.virtualSolveCostSeconds = 2e-3; // Overloaded: ladder engages.
    expectResumesBitwise(opt, &spec, 14, 6);
}

TEST(BatchCheckpoint, LossyLinkResumesBitwise)
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.linkEnabled = true;
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 2;
    opt.flightRecorderCapacity = 16;

    ChaosSpec spec;
    spec.seed = 7;
    spec.uplinkDropRate = 0.3;
    spec.downlinkDropRate = 0.3;
    spec.uplinkDelayRate = 0.15;
    spec.downlinkDelayRate = 0.15;
    spec.linkDelayPeriodsMax = 2;
    spec.uplinkDupRate = 0.1;
    spec.downlinkDupRate = 0.1;
    spec.linkBlackoutRate = 0.05;
    spec.linkBlackoutBatches = 3;
    spec.virtualSolveCostSeconds = 2e-4;
    // The link-protocol counters (retransmits, plan misses, seq state)
    // ride in the metrics snapshot: equal bytes mean the protocol
    // state machine resumed mid-flight, not restarted.
    expectResumesBitwise(opt, &spec, 14, 6);
}

// ---------------------------------------------------------------------
// Format goldens: the v1 byte layout, pinned by length and CRC-32.
// ---------------------------------------------------------------------

// The CRC goldens hash bitwise solver doubles, which are reproducible
// across optimization levels on x86-64 (SSE2, no FMA contraction) but
// not across ISAs, and the wall-clock mask below compares host doubles
// with little-endian payload bytes; the lengths hold everywhere.
#if defined(__x86_64__)
constexpr bool kPinCrc = true;
#else
constexpr bool kPinCrc = false;
#endif

std::uint32_t
payloadCrc(const std::string &payload)
{
    return support::crc32(
        reinterpret_cast<const std::uint8_t *>(payload.data()),
        payload.size());
}

TEST(ControllerCheckpoint, FormatGoldenLengthAndCrc)
{
    MpcOptions opt = integratorOptions(8, 40);
    opt.flightRecorderCapacity = 4;
    opt.sensorJumpThreshold = 5.0;
    core::Controller ctl(kDoubleIntegrator, opt);
    Plant plant(ctl.model());
    Vector truth{0.4, -0.2};
    const Vector ref{1.0};
    for (int k = 0; k < 6; ++k) {
        auto res = ctl.step(truth, ref);
        truth = plant.step(truth, res.u0, ref, opt.dt);
    }
    support::CheckpointWriter w;
    ctl.checkpoint(w);
    const std::string blob = w.finish();
    EXPECT_EQ(1332u, blob.size());
    if (kPinCrc) {
        EXPECT_EQ(0xfb888eccu, payloadCrc(blob.substr(20)));
    }
}

/**
 * Zero the wall-clock fields of a BatchController payload in place:
 * the last/total batch seconds, throughput, utilization, and the
 * batch-latency histogram's buckets, tails and moments. Everything
 * else is a pure function of the seeded inputs. Offsets follow the v1
 * layout for kFleet robots and an empty exception message; every
 * masked double is checked against the live report first, so a
 * layout drift fails here instead of masking the wrong bytes.
 */
void
maskBatchWallClock(std::string &payload, const BatchReport &rp)
{
    auto mask = [&](std::size_t off, double want) {
        ASSERT_LE(off + 8, payload.size());
        EXPECT_EQ(0, std::memcmp(payload.data() + off, &want, 8))
            << "layout drift at payload offset " << off;
        std::memset(payload.data() + off, 0, 8);
    };
    ASSERT_TRUE(rp.lastExceptionMessage.empty());
    const std::size_t kReport = 8 + 1 + 5 * 8; // robots, link, counters
    mask(kReport, rp.lastBatchSeconds);
    mask(kReport + 8, rp.totalBatchSeconds);
    mask(kReport + 16, rp.robotsPerSecond);
    // Then allocations, statuses, failure/exception counters, the
    // exception robot and (empty) message, numeric counters and two
    // SelfCheckStats.
    const std::size_t kOverload =
        kReport + 3 * 8 + 8 + 4 * kFleet + 4 * 8 + 8 + 8 + 9 * 8 +
        2 * 8 * 8;
    const OverloadReport &ov = rp.overload;
    mask(kOverload + 24, ov.utilization);
    const std::size_t kLatency = kOverload + 32 + 11 * 8;
    const stats::Histogram &h = ov.batchLatency;
    // Buckets, underflow and overflow, then samples (kept: it counts
    // batches), then sum, min and max.
    const std::size_t counts = kLatency + 24;
    const std::size_t samples = counts + 8 * (h.numBuckets() + 2);
    ASSERT_LE(samples + 32, payload.size());
    const std::uint64_t n = h.totalSamples();
    EXPECT_EQ(0, std::memcmp(payload.data() + samples, &n, 8));
    std::memset(payload.data() + counts, 0, samples - counts);
    std::memset(payload.data() + samples + 8, 0, 8); // sum
    mask(samples + 16, h.min());
    mask(samples + 24, h.max());
}

TEST(BatchCheckpoint, FormatGoldenLengthAndCrc)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = integratorOptions(8, 40);
    opt.linkEnabled = true;
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 4;
    opt.flightRecorderCapacity = 8;
    opt.upgradeShadowPeriods = 2;
    opt.upgradeCanaryPeriods = 6;
    opt.upgradeCanaryFraction = 0.5;
    opt.upgradeSeed = 7;

    ChaosSpec spec;
    spec.seed = 11;
    spec.uplinkDropRate = 0.25;
    spec.downlinkDropRate = 0.25;
    spec.uplinkDelayRate = 0.2;
    spec.downlinkDelayRate = 0.2;
    spec.linkDelayPeriodsMax = 2;
    spec.uplinkDupRate = 0.1;
    spec.downlinkDupRate = 0.1;
    spec.virtualSolveCostSeconds = 2e-4;
    ChaosEngine chaos(spec);

    const UpgradeCandidate cand = bench::makeCandidate(kDoubleIntegrator, opt);

    BatchController batch(model, opt, kFleet, 2);
    batch.setCostHook(chaos.costHook());
    batch.setLinkChaos(&chaos);
    batch.enableTimeline(true);
    bench::FleetWorld world = fleetWorld(model, opt.dt);
    world.step(batch, &chaos);
    ASSERT_EQ(UpgradeScheduleStatus::Scheduled,
              batch.scheduleUpgrade(cand));
    while (world.batch < 5)
        world.step(batch, &chaos);
    ASSERT_EQ(UpgradePhase::Canary, batch.upgradePhase());

    support::CheckpointWriter w;
    batch.checkpoint(w);
    const std::string blob = w.finish();
    EXPECT_EQ(14953u, blob.size());
    if (kPinCrc) {
        std::string payload = blob.substr(20);
        maskBatchWallClock(payload, batch.report());
        EXPECT_EQ(0xda593371u, payloadCrc(payload));
    }
}

TEST(BatchCheckpoint, MismatchedOrCorruptBlobsColdStartCleanly)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = integratorOptions(8, 40);
    opt.flightRecorderCapacity = 8;

    BatchController donor(model, opt, kFleet, 2);
    bench::FleetWorld world = fleetWorld(model, opt.dt);
    for (int b = 0; b < 3; ++b)
        world.step(donor);
    support::CheckpointWriter w;
    donor.checkpoint(w);
    const std::string good = w.finish();

    // Fleet-size skew.
    {
        BatchController smaller(model, opt, kFleet - 1, 2);
        support::CheckpointReader r(good);
        EXPECT_FALSE(smaller.restore(r));
        EXPECT_EQ(0u, smaller.report().batches);
    }
    // Link-config skew.
    {
        MpcOptions link_opt = opt;
        link_opt.linkEnabled = true;
        BatchController linked(model, link_opt, kFleet, 2);
        support::CheckpointReader r(good);
        EXPECT_FALSE(linked.restore(r));
    }
    // Corrupt payload byte.
    BatchController fresh(model, opt, kFleet, 2);
    {
        std::string bad = good;
        bad[bad.size() - 9] ^= 0x20;
        support::CheckpointReader r(bad);
        EXPECT_FALSE(fresh.restore(r));
    }
    // The rejected controller is a clean cold start: report zeroed,
    // recorder empty, and the next batch serves every robot.
    EXPECT_EQ(0u, fresh.report().batches);
    EXPECT_TRUE(fresh.flightRecorder().empty());
    fleetWorld(model, opt.dt).step(fresh);
    for (std::size_t i = 0; i < kFleet; ++i)
        EXPECT_TRUE(statusUsable(fresh.report().statuses[i]));

    // And the good blob still restores after all that.
    support::CheckpointReader r(good);
    BatchController fine(model, opt, kFleet, 1);
    EXPECT_TRUE(fine.restore(r));
    EXPECT_EQ(donor.report().batches, fine.report().batches);
    EXPECT_EQ(batchMetricsJson(donor.report(), false),
              batchMetricsJson(fine.report(), false));
}

TEST(BatchCheckpoint, HugeLengthPrefixesColdStartCleanly)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = integratorOptions(8, 40);
    opt.linkEnabled = true;
    opt.flightRecorderCapacity = 8;
    BatchController donor(model, opt, kFleet, 1);
    donor.enableTimeline(true);
    bench::FleetWorld world = fleetWorld(model, opt.dt);
    for (int b = 0; b < 3; ++b)
        world.step(donor);
    support::CheckpointWriter full;
    donor.checkpoint(full);
    const std::string payload = full.finish().substr(20);

    // The payload ends [link][timeline on][timeline][recorder][upgrade
    // flag]; the sections' own sizes locate the link and the timeline.
    auto size_of = [](const auto &part) {
        support::CheckpointWriter w;
        part.checkpoint(w);
        return w.payloadSize();
    };
    const std::size_t timeline_at = payload.size() - 1 -
                                    size_of(donor.flightRecorder()) -
                                    size_of(donor.timeline());
    const std::size_t link_at = timeline_at - 1 - size_of(*donor.link());
    ASSERT_EQ(1, payload[timeline_at - 1]);

    // CRC-valid payloads cut at one resizing site, then kHugeCount:
    // robot 0's uplink and downlink queues (after the link's robot
    // count and period), the timeline spans, and its markers.
    auto blob = [&](std::size_t keep,
                    std::initializer_list<std::uint64_t> words) {
        support::CheckpointWriter w;
        for (std::size_t i = 0; i < keep; ++i)
            w.u8(static_cast<std::uint8_t>(payload[i]));
        for (std::uint64_t v : words)
            w.u64(v);
        w.u64(kHugeCount);
        return w.finish();
    };
    const std::string blobs[] = {
        blob(link_at, {kFleet, 3}),
        blob(link_at, {kFleet, 3, 0}),
        blob(timeline_at, {}),
        blob(timeline_at, {0}),
    };
    for (const std::string &bad : blobs) {
        SCOPED_TRACE(&bad - blobs);
        BatchController fresh(model, opt, kFleet, 1);
        fresh.enableTimeline(true);
        support::CheckpointReader r(bad);
        bool restored = true;
        EXPECT_NO_THROW(restored = fresh.restore(r));
        EXPECT_FALSE(restored);
        EXPECT_EQ(0u, fresh.report().batches);
        EXPECT_TRUE(fresh.flightRecorder().empty());
        EXPECT_TRUE(fresh.timeline().empty());
        fleetWorld(model, opt.dt).step(fresh);
        for (std::size_t i = 0; i < kFleet; ++i)
            EXPECT_TRUE(statusUsable(fresh.report().statuses[i]));
    }
}

} // namespace
} // namespace robox::mpc
