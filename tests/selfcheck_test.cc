/**
 * @file
 * Tests for self-checking accelerator execution: parity detection at
 * first use, the escalating recovery ladder (re-execute, reload,
 * CPU fallback), cycle-simulator watchdogs and the hard cycle cap,
 * and the solver-level AccelFault routing through SolverHealth and
 * BatchController.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "accel/faults.hh"
#include "accel/functional.hh"
#include "accel/selfcheck.hh"
#include "accel/simulator.hh"
#include "accel/trace.hh"
#include "compiler/binary.hh"
#include "compiler/mapper.hh"
#include "dsl/sema.hh"
#include "fixed/fixed.hh"
#include "fixed/fixed_math.hh"
#include "fixed/selfcheck.hh"
#include "mpc/batch.hh"
#include "mpc/failsafe.hh"
#include "mpc/ipm.hh"
#include "mpc/status.hh"
#include "robots/robots.hh"
#include "translator/workload.hh"
#include "fleet_scenario.hh"

namespace robox
{
namespace
{

using accel::AcceleratorConfig;
using accel::FaultCampaign;
using accel::FaultInjector;
using accel::FunctionalResult;
using accel::SelfCheckedResult;
using accel::SelfCheckPolicy;

mpc::MpcProblem
makeProblem(const std::string &name, int horizon)
{
    const robots::Benchmark &bench = robots::benchmark(name);
    dsl::ModelSpec model = robots::analyzeBenchmark(bench);
    mpc::MpcOptions opt = bench.options;
    opt.horizon = horizon;
    return mpc::MpcProblem(model, opt);
}

std::vector<Fixed>
tapeInputs(const sym::Tape &tape)
{
    std::vector<Fixed> inputs;
    for (int i = 0; i < tape.numVars(); ++i)
        inputs.push_back(Fixed::fromDouble(0.05 * (i + 1) - 0.3));
    return inputs;
}

using bench::kDoubleIntegrator;

mpc::MpcOptions
selfCheckOptions()
{
    mpc::MpcOptions opt = bench::integratorOptions();
    opt.fixedPointTapes = true;
    opt.crossCheckFixedPoint = true;
    opt.accelSelfCheck = true;
    return opt;
}

// ---------------------------------------------------------------------
// Detection layer: parity in the functional simulator.
// ---------------------------------------------------------------------

TEST(SelfCheck, ZeroFaultRunIsBitwiseIdenticalWithDetectorsOn)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 4);
    const sym::Tape &tape = prob.dynamicsTape();
    const std::vector<Fixed> inputs = tapeInputs(tape);
    const FixedMath &fm = FixedMath::instance();
    const AcceleratorConfig cfg;

    const FunctionalResult plain =
        accel::executeTapeMapped(tape, inputs, fm, cfg);
    SelfCheckPolicy policy;
    const FunctionalResult checked = accel::executeTapeMapped(
        tape, inputs, fm, cfg, nullptr, &policy);

    ASSERT_EQ(checked.outputs.size(), plain.outputs.size());
    for (std::size_t i = 0; i < plain.outputs.size(); ++i)
        EXPECT_EQ(checked.outputs[i].raw(), plain.outputs[i].raw());
    EXPECT_GT(checked.health.selfCheck.parityChecks, 0u);
    EXPECT_EQ(checked.health.selfCheck.parityErrors, 0u);
    EXPECT_EQ(checked.health.selfCheck.watchdogTrips, 0u);
    EXPECT_TRUE(checked.faultReports.empty());
    EXPECT_FALSE(checked.deadlock);

    // The harness on a clean run: one attempt, no rung climbed, and
    // the exact same outputs again.
    SelfCheckedResult harness = accel::executeTapeSelfChecked(
        tape, inputs, fm, cfg, policy);
    EXPECT_EQ(harness.rung, AccelRecoveryRung::None);
    EXPECT_EQ(harness.attempts, 1u);
    EXPECT_TRUE(harness.trusted);
    for (std::size_t i = 0; i < plain.outputs.size(); ++i)
        EXPECT_EQ(harness.run.outputs[i].raw(), plain.outputs[i].raw());
}

TEST(SelfCheck, ParityDetectsAnUpsetAtFirstUse)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 4);
    const sym::Tape &tape = prob.dynamicsTape();
    const std::vector<Fixed> inputs = tapeInputs(tape);

    // One strike on the first qualifying scratchpad preload: slot 0 is
    // a tape variable, so it is read and the parity check must fire.
    FaultCampaign campaign;
    campaign.seed = 1;
    campaign.upsetRate = 1.0;
    campaign.maxFaults = 1;
    campaign.siteMask =
        static_cast<std::uint32_t>(FaultSite::Scratchpad);
    FaultInjector inj(campaign);
    SelfCheckPolicy policy;
    const FunctionalResult run = accel::executeTapeMapped(
        tape, inputs, FixedMath::instance(), AcceleratorConfig(), &inj,
        &policy);

    EXPECT_EQ(run.health.faultsInjected, 1u);
    ASSERT_FALSE(run.faultReports.empty());
    EXPECT_EQ(run.faultReports[0].detector, FaultDetector::Parity);
    EXPECT_GE(run.health.selfCheck.parityErrors, 1u);
    // Detection does not correct: the reports mark the run tainted so
    // the ladder re-executes, but this single run's health still
    // carries the strike.
    EXPECT_EQ(run.faultReports[0].rung, AccelRecoveryRung::None);
}

TEST(SelfCheck, NoSilentOutputCorruptionAcrossSeededCampaigns)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 4);
    const sym::Tape &tape = prob.dynamicsTape();
    const std::vector<Fixed> inputs = tapeInputs(tape);
    const FixedMath &fm = FixedMath::instance();
    const std::vector<Fixed> clean = tape.evalFixed(inputs, fm);

    // The acceptance bar for the detection layer: an upset may land in
    // a word that is never read again (harmless, undetectable by a
    // read-side check), but any upset that reaches an output must have
    // tripped a detector on the way.
    int corrupted_runs = 0;
    int detected_runs = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        FaultCampaign campaign;
        campaign.seed = seed;
        campaign.upsetRate = 1.0;
        campaign.maxFaults = 1;
        FaultInjector inj(campaign);
        SelfCheckPolicy policy;
        const FunctionalResult run = accel::executeTapeMapped(
            tape, inputs, fm, AcceleratorConfig(), &inj, &policy);
        ASSERT_EQ(run.health.faultsInjected, 1u) << "seed " << seed;

        bool corrupted = run.deadlock;
        if (!run.deadlock) {
            ASSERT_EQ(run.outputs.size(), clean.size());
            for (std::size_t i = 0; i < clean.size(); ++i)
                corrupted = corrupted ||
                            run.outputs[i].raw() != clean[i].raw();
        }
        if (corrupted) {
            ++corrupted_runs;
            EXPECT_FALSE(run.faultReports.empty())
                << "seed " << seed << ": corrupt output, no detection";
        }
        if (!run.faultReports.empty())
            ++detected_runs;
    }
    // The campaign parameters guarantee an early strike, so most seeds
    // must corrupt-and-detect; an all-clean sweep means the injector
    // was wired out of the datapath.
    EXPECT_GT(corrupted_runs, 0);
    EXPECT_GE(detected_runs, corrupted_runs);
}

// ---------------------------------------------------------------------
// The recovery ladder.
// ---------------------------------------------------------------------

TEST(SelfCheck, TransientUpsetRecoversOnReexecutionRung)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 4);
    const sym::Tape &tape = prob.dynamicsTape();
    const std::vector<Fixed> inputs = tapeInputs(tape);
    const FixedMath &fm = FixedMath::instance();
    const std::vector<Fixed> clean = tape.evalFixed(inputs, fm);

    // Exactly one strike ever: the first attempt is corrupted, the
    // re-execution re-rolls the campaign with an exhausted budget and
    // comes back clean.
    FaultCampaign campaign;
    campaign.seed = 7;
    campaign.upsetRate = 1.0;
    campaign.maxFaults = 1;
    FaultInjector inj(campaign);
    SelfCheckPolicy policy;
    const SelfCheckedResult r = accel::executeTapeSelfChecked(
        tape, inputs, fm, AcceleratorConfig(), policy, &inj);

    EXPECT_EQ(r.rung, AccelRecoveryRung::Reexecute);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_TRUE(r.trusted);
    EXPECT_TRUE(r.fallbackOutputs.empty());
    const SelfCheckStats &sc = r.run.health.selfCheck;
    EXPECT_EQ(sc.reexecutions, 1u);
    EXPECT_EQ(sc.reloads, 0u);
    EXPECT_EQ(sc.cpuFallbacks, 0u);
    EXPECT_GE(sc.parityErrors, 1u);
    // Every detection is stamped with the rung that resolved it.
    ASSERT_FALSE(r.run.faultReports.empty());
    for (const AccelFaultReport &rep : r.run.faultReports)
        EXPECT_EQ(rep.rung, AccelRecoveryRung::Reexecute);
    // The accepted outputs are the clean ones.
    ASSERT_EQ(r.run.outputs.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i)
        EXPECT_EQ(r.run.outputs[i].raw(), clean[i].raw());
}

TEST(SelfCheck, PersistentFaultsTerminateOnCpuFallback)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 4);
    const sym::Tape &tape = prob.dynamicsTape();
    const std::vector<Fixed> inputs = tapeInputs(tape);
    const FixedMath &fm = FixedMath::instance();

    // Unlimited rate-1.0 strikes: every attempt on every rung is
    // corrupted, so the ladder must climb to its terminal rung instead
    // of retrying forever.
    FaultCampaign campaign;
    campaign.seed = 3;
    campaign.upsetRate = 1.0;
    FaultInjector inj(campaign);
    SelfCheckPolicy policy;
    const SelfCheckedResult r = accel::executeTapeSelfChecked(
        tape, inputs, fm, AcceleratorConfig(), policy, &inj);

    EXPECT_EQ(r.rung, AccelRecoveryRung::CpuFallback);
    // 1 initial + 2 re-executions + 1 post-reload attempt.
    EXPECT_EQ(r.attempts, 4u);
    EXPECT_TRUE(r.trusted);
    const SelfCheckStats &sc = r.run.health.selfCheck;
    EXPECT_EQ(sc.reexecutions, 2u);
    EXPECT_EQ(sc.reloads, 1u);
    EXPECT_EQ(sc.cpuFallbacks, 1u);

    // The fallback serves the double-precision evaluation.
    std::vector<double> dinputs;
    for (const Fixed &v : inputs)
        dinputs.push_back(v.toDouble());
    const std::vector<double> golden = tape.eval(dinputs);
    ASSERT_EQ(r.fallbackOutputs.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i)
        EXPECT_DOUBLE_EQ(r.fallbackOutputs[i], golden[i]);

    // With the fallback disabled the ladder is exhausted and the
    // result is explicitly untrusted — never silently wrong.
    FaultInjector inj2(campaign);
    SelfCheckPolicy no_fallback = policy;
    no_fallback.cpuFallback = false;
    const SelfCheckedResult worst = accel::executeTapeSelfChecked(
        tape, inputs, fm, AcceleratorConfig(), no_fallback, &inj2);
    EXPECT_FALSE(worst.trusted);
    EXPECT_TRUE(worst.fallbackOutputs.empty());
}

TEST(SelfCheck, ReloadRungVerifiesTheProgramImage)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 4);
    const sym::Tape &tape = prob.dynamicsTape();
    const std::vector<Fixed> inputs = tapeInputs(tape);
    const FixedMath &fm = FixedMath::instance();

    // A minimal valid image: empty streams still carry the checksummed
    // header, which is all the reload rung re-verifies.
    compiler::IsaStreams streams;
    const std::vector<std::uint8_t> image = compiler::packImage(streams);
    ASSERT_EQ(compiler::verifyImage(image), compiler::ImageStatus::Ok);

    FaultCampaign campaign;
    campaign.seed = 3;
    campaign.upsetRate = 1.0;
    SelfCheckPolicy policy;

    FaultInjector inj(campaign);
    const SelfCheckedResult ok = accel::executeTapeSelfChecked(
        tape, inputs, fm, AcceleratorConfig(), policy, &inj, &image);
    EXPECT_EQ(ok.rung, AccelRecoveryRung::CpuFallback);
    EXPECT_EQ(ok.run.health.selfCheck.checksumChecks, 1u);
    EXPECT_EQ(ok.run.health.selfCheck.checksumErrors, 0u);

    // A corrupted image fails the reload rung without burning a
    // re-execution attempt, and the checksum detection is counted.
    std::vector<std::uint8_t> bad = image;
    bad[compiler::kImageHeaderBytes - 1] ^= 0x40;
    FaultInjector inj2(campaign);
    const SelfCheckedResult corrupt = accel::executeTapeSelfChecked(
        tape, inputs, fm, AcceleratorConfig(), policy, &inj2, &bad);
    EXPECT_EQ(corrupt.rung, AccelRecoveryRung::CpuFallback);
    EXPECT_EQ(corrupt.run.health.selfCheck.checksumChecks, 1u);
    EXPECT_EQ(corrupt.run.health.selfCheck.checksumErrors, 1u);
    EXPECT_EQ(corrupt.attempts, ok.attempts - 1);
    EXPECT_TRUE(corrupt.trusted);
}

// ---------------------------------------------------------------------
// Cycle-simulator watchdogs and the hard cycle cap.
// ---------------------------------------------------------------------

TEST(SelfCheck, WatchdogBudgetZeroChangesNothing)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 8);
    translator::Workload wl = translator::buildSolverIteration(prob, 8);
    AcceleratorConfig cfg;
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);

    const accel::CycleStats base = accel::simulate(wl, map, cfg);
    EXPECT_EQ(base.watchdogTrips(), 0u);
    EXPECT_FALSE(base.cycleLimitHit);

    // Arming the watchdog is observation only: timing is unchanged.
    AcceleratorConfig armed = cfg;
    armed.watchdogBudgetCycles = 1;
    const accel::CycleStats watched = accel::simulate(wl, map, armed);
    EXPECT_EQ(watched.cycles, base.cycles);
    EXPECT_EQ(watched.computeCycles, base.computeCycles);
}

TEST(SelfCheck, TightWatchdogBudgetTripsOnCongestedInterconnect)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 8);
    AcceleratorConfig cfg;
    cfg.watchdogBudgetCycles = 1;
    translator::Workload wl = translator::buildSolverIteration(prob, 8);
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);

    accel::Trace trace;
    const accel::CycleStats stats =
        accel::simulate(wl, map, cfg, &trace);
    EXPECT_GT(stats.watchdogTrips(), 0u);

    // Each trip leaves an accel-category instant marker in the trace.
    bool found = false;
    for (const accel::TraceMarker &m : trace.markers())
        found = found || m.name.rfind("watchdog:", 0) == 0;
    EXPECT_TRUE(found);
}

TEST(SelfCheck, HardCycleCapBreaksRunawaySimulations)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 8);
    AcceleratorConfig cfg;
    translator::Workload wl = translator::buildSolverIteration(prob, 8);
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);
    const accel::CycleStats full = accel::simulate(wl, map, cfg);
    ASSERT_GT(full.cycles, 100u);

    AcceleratorConfig capped = cfg;
    capped.maxSimCycles = 100;
    accel::Trace trace;
    const accel::CycleStats cut =
        accel::simulate(wl, map, capped, &trace);
    EXPECT_TRUE(cut.cycleLimitHit);
    EXPECT_LT(cut.cycles, full.cycles);

    bool found = false;
    for (const accel::TraceMarker &m : trace.markers())
        found = found || m.name == "cycle-limit";
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Solver integration: the ladder inside the fixed-point tape path.
// ---------------------------------------------------------------------

TEST(SelfCheck, SolverWithSelfCheckAndNoFaultsMatchesBaselineBitwise)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::MpcOptions base = selfCheckOptions();
    base.accelSelfCheck = false;
    mpc::IpmSolver plain(model, base);
    mpc::IpmSolver checked(model, selfCheckOptions());

    auto a = plain.solve(Vector{0.1, -0.05}, Vector{1.0});
    auto b = checked.solve(Vector{0.1, -0.05}, Vector{1.0});
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(a.u0.size(), b.u0.size());
    for (std::size_t i = 0; i < a.u0.size(); ++i)
        EXPECT_EQ(a.u0[i], b.u0[i]);
    EXPECT_EQ(checked.lastStats().numeric.selfCheck.parityErrors, 0u);
    EXPECT_EQ(checked.lastStats().numeric.selfCheck.cpuFallbacks, 0u);
}

TEST(SelfCheck, SolverRecoversTransientUpsetsSilently)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::IpmSolver solver(model, selfCheckOptions());

    // Two strikes total on environment word 0 (bit 21 = +-16.0 in
    // Q14.17): each is caught by parity and retried; the retry budget
    // outlasts the fault budget, so the solve is never condemned.
    FaultCampaign campaign;
    campaign.seed = 5;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    campaign.maxFaults = 2;
    FaultInjector injector(campaign);
    solver.setTapeFaultHook(injector.tapeHook());

    auto result = solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_EQ(result.status, mpc::SolveStatus::Converged);
    const SelfCheckStats &sc = solver.lastStats().numeric.selfCheck;
    EXPECT_EQ(sc.parityErrors, 2u);
    EXPECT_GE(sc.reexecutions, 1u);
    EXPECT_EQ(sc.cpuFallbacks, 0u);
    EXPECT_EQ(solver.lastStats().numeric.toleranceBreaches, 0u);
    EXPECT_FALSE(solver.problem().accelFaultDetected());
    // The recovered solve saw no corruption downstream of detection.
    EXPECT_EQ(solver.lastStats().numeric.faultsInjected, 2u);
}

TEST(SelfCheck, PersistentUpsetsSurfaceAsAccelFault)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::IpmSolver solver(model, selfCheckOptions());

    FaultCampaign campaign;
    campaign.seed = 9;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    FaultInjector injector(campaign);
    solver.setTapeFaultHook(injector.tapeHook());

    auto result = solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_EQ(result.status, mpc::SolveStatus::AccelFault);
    EXPECT_FALSE(mpc::statusUsable(result.status));
    const SelfCheckStats &sc = solver.lastStats().numeric.selfCheck;
    EXPECT_GT(sc.cpuFallbacks, 0u);
    EXPECT_GT(sc.reexecutions, 0u);
    EXPECT_GT(sc.reloads, 0u);
    EXPECT_TRUE(solver.problem().accelFaultDetected());
    ASSERT_FALSE(solver.problem().accelFaultReports().empty());
    // Every report resolved to a terminal rung — nothing dangles.
    for (const AccelFaultReport &rep :
         solver.problem().accelFaultReports())
        EXPECT_NE(rep.rung, AccelRecoveryRung::None);
    // The condemned command is still finite and box-feasible.
    for (std::size_t i = 0; i < result.u0.size(); ++i) {
        EXPECT_TRUE(std::isfinite(result.u0[i]));
        EXPECT_GE(result.u0[i], -1.0 - 1e-9);
        EXPECT_LE(result.u0[i], 1.0 + 1e-9);
    }

    // Detaching the hook restores clean solves and clears the verdict.
    solver.setTapeFaultHook(nullptr);
    auto recovered = solver.solve(Vector{0.02, 0.0}, Vector{1.0});
    EXPECT_EQ(recovered.status, mpc::SolveStatus::Converged);
    EXPECT_FALSE(solver.problem().accelFaultDetected());
}

TEST(SelfCheck, SolverLadderReexecutesTwiceAndReloadsOncePerFallback)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::IpmSolver solver(model, selfCheckOptions());

    // Rate-1.0 strikes with no fault budget: every attempt on every
    // rung is corrupted, so each detection exhausts the ladder. The
    // runTape ladder must then take exactly the steps the standalone
    // executeTapeSelfChecked path takes: 1 initial attempt, 2
    // re-executions, 1 reload with one more attempt, then the CPU
    // fallback.
    FaultCampaign campaign;
    campaign.seed = 9;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    FaultInjector injector(campaign);
    solver.setTapeFaultHook(injector.tapeHook());

    auto result = solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_EQ(result.status, mpc::SolveStatus::AccelFault);
    const SelfCheckStats &sc = solver.lastStats().numeric.selfCheck;
    ASSERT_GT(sc.cpuFallbacks, 0u);
    EXPECT_EQ(sc.reexecutions, 2u * sc.cpuFallbacks);
    EXPECT_EQ(sc.reloads, sc.cpuFallbacks);
    EXPECT_EQ(sc.checksumChecks, sc.cpuFallbacks);
    EXPECT_EQ(sc.parityErrors, 4u * sc.cpuFallbacks);

    // One report per detection, stamped with the rung that answered
    // it, in ladder order.
    const std::vector<AccelFaultReport> &reports =
        solver.problem().accelFaultReports();
    ASSERT_FALSE(reports.empty());
    ASSERT_EQ(reports.size() % 4, 0u);
    const AccelRecoveryRung ladder[4] = {
        AccelRecoveryRung::Reexecute, AccelRecoveryRung::Reexecute,
        AccelRecoveryRung::Reload, AccelRecoveryRung::CpuFallback};
    for (std::size_t i = 0; i < reports.size(); ++i)
        EXPECT_EQ(reports[i].rung, ladder[i % 4]) << "report " << i;
}

TEST(SelfCheck, HealthAndBatchRouteAccelFaultLikeOtherVerdicts)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 3;
    constexpr std::size_t kStruck = 1;
    mpc::BatchController batch(model, selfCheckOptions(), kRobots, 2);

    FaultCampaign campaign;
    campaign.seed = 9;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    FaultInjector injector(campaign);
    batch.solver(kStruck).setTapeFaultHook(injector.tapeHook());

    std::vector<Vector> states, refs;
    for (std::size_t i = 0; i < kRobots; ++i) {
        states.push_back(Vector{0.05 * double(i), 0.0});
        refs.push_back(Vector{1.0});
    }
    const auto &results = batch.solveAll(states, refs);
    EXPECT_EQ(results[kStruck].status, mpc::SolveStatus::AccelFault);

    const mpc::BatchReport &report = batch.report();
    EXPECT_EQ(report.lastBatchAccelFaults, 1u);
    EXPECT_EQ(report.accelFaults, 1u);
    EXPECT_GT(report.lastBatchSelfCheck.parityErrors, 0u);
    EXPECT_GT(report.selfCheck.cpuFallbacks, 0u);

    const std::string json = mpc::batchMetricsJson(report, false);
    EXPECT_NE(json.find("accelFaults"), std::string::npos);
    EXPECT_NE(json.find("parityErrors"), std::string::npos);
    EXPECT_NE(json.find("accelCpuFallbacks"), std::string::npos);

    mpc::SolverHealth health("solver_health");
    health.record(batch.solver(kStruck).lastStats());
    EXPECT_EQ(health.statusCount(mpc::SolveStatus::AccelFault), 1.0);
    const std::string dump = health.dump();
    EXPECT_NE(dump.find("accel_faults"), std::string::npos);
    EXPECT_NE(dump.find("parity_errors"), std::string::npos);
    EXPECT_NE(dump.find("accel_cpu_fallbacks"), std::string::npos);
}

} // namespace
} // namespace robox
