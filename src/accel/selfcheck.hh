/**
 * @file
 * Self-checking tape execution: detection plus a recovery ladder.
 *
 * executeTapeMapped (accel/functional.hh) detects — parity mismatches
 * on stored words and interconnect deliveries, watchdog trips on
 * undelivered operands. This harness decides what to do about it, with
 * an escalating ladder modeled on how a real deployment would react to
 * a transient upset:
 *
 *   rung 1  Re-execute the tape from the same inputs, up to
 *           kAccelMaxReexecutions times (a transient SEU does not
 *           recur; each attempt re-rolls the deterministic campaign
 *           hash via a fresh fault-cycle offset).
 *   rung 2  Re-verify / reload the program image (CRC-32,
 *           compiler/binary.hh) and re-execute once more — the answer
 *           to persistent corruption of the instruction store.
 *   rung 3  Serve the evaluation from the CPU double-precision path.
 *           The accelerator result is abandoned; the control loop
 *           still gets an answer, late but correct.
 *
 * Rungs 1 and 2 recover silently (counted in SelfCheckStats); only a
 * run that falls through to rung 3 — or exhausts the ladder with
 * cpuFallback disabled — is condemned, which is what the solver maps
 * to SolveStatus::AccelFault.
 */

#ifndef ROBOX_ACCEL_SELFCHECK_HH
#define ROBOX_ACCEL_SELFCHECK_HH

#include <cstdint>
#include <vector>

#include "accel/functional.hh"

namespace robox::accel
{

/** Outcome of a self-checked execution. */
struct SelfCheckedResult
{
    /** The accepted functional run (the last attempt). Its
     *  health.selfCheck aggregates every attempt, and its faultReports
     *  hold every detection across attempts with the recovery rung
     *  that answered each one stamped in. */
    FunctionalResult run;

    /** Deepest rung the ladder climbed to. None = first attempt was
     *  clean; Reexecute/Reload = recovered silently; CpuFallback =
     *  the accelerator result was abandoned. */
    AccelRecoveryRung rung = AccelRecoveryRung::None;

    /** Total executeTapeMapped attempts (>= 1). */
    std::uint64_t attempts = 1;

    /** Filled when rung == CpuFallback: the double-precision outputs
     *  that replace run.outputs. */
    std::vector<double> fallbackOutputs;

    /** True when the final outputs are trustworthy (either a clean
     *  attempt or the CPU fallback). False only when the ladder was
     *  exhausted with cpuFallback disabled. */
    bool trusted = true;
};

/**
 * Execute a tape with detection on and the recovery ladder armed.
 *
 * @param tape,inputs,fm,config As executeTapeMapped.
 * @param policy Whether the ladder ends on the CPU fallback.
 * @param faults Optional campaign; without one the first attempt is
 *               clean by construction and the ladder never engages, so
 *               the result is bitwise identical to an unchecked run.
 * @param image Optional packed program image (compiler::packImage).
 *              When given, the reload rung re-verifies its CRC-32 and
 *              records the check; a corrupted image fails the reload
 *              rung immediately and escalates.
 */
SelfCheckedResult
executeTapeSelfChecked(const sym::Tape &tape,
                       const std::vector<Fixed> &inputs,
                       const FixedMath &fm,
                       const AcceleratorConfig &config,
                       const SelfCheckPolicy &policy,
                       FaultInjector *faults = nullptr,
                       const std::vector<std::uint8_t> *image = nullptr);

} // namespace robox::accel

#endif // ROBOX_ACCEL_SELFCHECK_HH
