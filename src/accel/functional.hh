/**
 * @file
 * Functional execution of a mapped tape on the accelerator.
 *
 * The cycle simulator answers "how long"; this engine answers "is the
 * mapping correct": it executes a tape's scalar operations in Q14.17
 * on the CUs chosen by Algorithm 1, moving values between CUs only
 * where the communication map says a transfer happens. An operand that
 * was never delivered to its consumer's CU is a mapping bug and
 * panics. The outputs must equal Tape::evalFixed bit-for-bit, which
 * the tests assert for every benchmark tape.
 *
 * Modeling note: the CU namespace queues are functionally modeled as
 * local value stores; the 8-entry addressable window is a scheduling
 * constraint the static scheduler meets with pop/rewrite traffic and
 * is accounted for in the timing model, not here.
 */

#ifndef ROBOX_ACCEL_FUNCTIONAL_HH
#define ROBOX_ACCEL_FUNCTIONAL_HH

#include <cstdint>
#include <vector>

#include "accel/config.hh"
#include "accel/faults.hh"
#include "fixed/fixed.hh"
#include "fixed/fixed_math.hh"
#include "fixed/health.hh"
#include "sym/tape.hh"

namespace robox::accel
{

/**
 * Knobs of the self-checking execution layer (fixed/selfcheck.hh).
 * A self-checked run keeps a parity bit per stored word (register file
 * and scratchpad) and per interconnect transfer, checked on read /
 * delivery so an upset is caught at first use; recovery re-executes up
 * to kAccelMaxReexecutions times before escalating to a program-image
 * reload. With no faults injected, a self-checked run is bitwise
 * identical to an unchecked one: detection is pure overhead, never
 * perturbation.
 */
struct SelfCheckPolicy
{
    /** Recovery rung 3: serve the run from the CPU double-precision
     *  path when re-execution and reload both stay corrupted. */
    bool cpuFallback = true;
};

/** Result of a functional run. */
struct FunctionalResult
{
    std::vector<Fixed> outputs;       //!< One value per tape output.
    std::size_t transfersApplied = 0; //!< Inter-CU deliveries used.
    std::size_t localReads = 0;       //!< Operands already resident.

    /** Numeric-integrity report for this run: saturation/div-by-zero
     *  deltas, peak magnitude over every stored word, faults taken,
     *  and (with a SelfCheckPolicy) parity/watchdog detections. */
    NumericHealth health;
    /** Peak |value| ever stored per tape slot, for per-variable range
     *  utilization (slot i of the tape -> slotPeakAbs[i]). */
    std::vector<double> slotPeakAbs;

    /** One entry per on-line detection (parity mismatch or watchdog
     *  deadlock trip), in detection order. The recovery rung is
     *  stamped by executeTapeSelfChecked (accel/selfcheck.hh);
     *  detection-only runs leave it AccelRecoveryRung::None. */
    std::vector<AccelFaultReport> faultReports;

    /** An operand was never delivered to its consumer (namespace-queue
     *  deadlock): execution aborted at the consuming instruction and
     *  outputs are untrustworthy. Only possible under a fault campaign
     *  with self-checking on; without a policy the same condition is a
     *  mapping bug and panics. */
    bool deadlock = false;
};

/**
 * Map a tape with Algorithm 1 and execute it functionally.
 *
 * @param tape The compiled tape (scalar ops only, by construction).
 * @param inputs Values for the tape's variable slots.
 * @param fm LUT configuration for the nonlinear operations.
 * @param config Accelerator shape (number of CCs/CUs).
 * @param faults Optional fault injector; when given, scratchpad
 *               preloads (cycle 0, word = slot), register-file result
 *               writes (cycle = instruction id, word = dst slot), and
 *               interconnect deliveries (cycle = consumer id, word =
 *               producer node) are filtered through it. The functional
 *               model keeps one store per slot, so an interconnect
 *               flip corrupts the delivered value for all later
 *               consumers on that CU — a pessimistic but valid SEU
 *               model.
 * @param selfcheck Optional self-checking policy; when given, every
 *               stored word carries a parity bit computed from the
 *               fault-free value and verified on read/delivery,
 *               detections land in
 *               FunctionalResult::faultReports, and an undelivered
 *               operand becomes a watchdog deadlock report instead of
 *               a panic.
 * @param faultCycleOffset Added to every fault-injection cycle
 *               coordinate. Re-execution attempts pass a fresh offset
 *               so the deterministic campaign hash re-rolls — a
 *               transient upset does not recur on replay, exactly like
 *               a real SEU.
 */
FunctionalResult executeTapeMapped(const sym::Tape &tape,
                                   const std::vector<Fixed> &inputs,
                                   const FixedMath &fm,
                                   const AcceleratorConfig &config,
                                   FaultInjector *faults = nullptr,
                                   const SelfCheckPolicy *selfcheck = nullptr,
                                   std::uint64_t faultCycleOffset = 0);

} // namespace robox::accel

#endif // ROBOX_ACCEL_FUNCTIONAL_HH
