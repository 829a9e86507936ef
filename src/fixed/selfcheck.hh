/**
 * @file
 * Self-checking execution vocabulary: fault sites, on-line detectors,
 * the recovery ladder's rungs, and the per-run SelfCheckStats report.
 *
 * The PR 3 fault-injection harness made accelerator upsets injectable;
 * this header names how they are *caught and repaired on-line*. Every
 * fixed-point execution engine (the functional accelerator simulator
 * and the solver's fixed-point tape path) maintains parity over stored
 * words and checks it on read, program images carry a CRC-32 verified
 * at load and re-verifiable mid-run, and the cycle simulator runs
 * per-engine watchdogs. A detection resolves through an escalating
 * recovery ladder — re-execute from the last solver iterate, reload
 * the program image and re-execute, fall back to the CPU
 * double-precision path — so a strike degrades service within one
 * control period instead of silently poisoning an actuator command.
 *
 * Like fixed/health.hh, this lives below both mpc and accel in the
 * dependency graph: the solver embeds a SelfCheckStats in its
 * NumericHealth while the accelerator library fills the same report
 * from the functional simulator.
 */

#ifndef ROBOX_FIXED_SELFCHECK_HH
#define ROBOX_FIXED_SELFCHECK_HH

#include <cstdint>

namespace robox
{

/** Storage structure a fault strikes. Values are bit positions so a
 *  campaign can select sites with a mask (accel::FaultCampaign). */
enum class FaultSite : std::uint32_t
{
    RegisterFile = 1u << 0, //!< CU-local result registers.
    Scratchpad = 1u << 1,   //!< Access-engine scratchpad words.
    Interconnect = 1u << 2, //!< Messages between CUs.
};

/** Human-readable site name ("register-file", "scratchpad", ...). */
inline const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::RegisterFile: return "register-file";
      case FaultSite::Scratchpad: return "scratchpad";
      case FaultSite::Interconnect: return "interconnect";
    }
    return "unknown";
}

/** On-line detector that caught a fault. */
enum class FaultDetector : std::uint8_t
{
    Parity,     //!< Per-word parity mismatch on read/delivery.
    Checksum,   //!< Program-image CRC-32 mismatch.
    Watchdog,   //!< No forward progress / queue deadlock in budget.
    CrossCheck, //!< Golden-model divergence (off-line, PR 3).
};

inline const char *
faultDetectorName(FaultDetector detector)
{
    switch (detector) {
      case FaultDetector::Parity: return "parity";
      case FaultDetector::Checksum: return "checksum";
      case FaultDetector::Watchdog: return "watchdog";
      case FaultDetector::CrossCheck: return "cross-check";
    }
    return "unknown";
}

/**
 * Rung of the escalating recovery ladder a detection resolved on.
 * Every detection terminates on one of these — the ladder has no
 * unbounded rung, so recovery latency is bounded by construction.
 */
enum class AccelRecoveryRung : std::uint8_t
{
    None = 0,    //!< No recovery needed (clean run).
    Reexecute,   //!< Re-executed the tape from the last iterate.
    Reload,      //!< Reloaded/re-verified the program image, then
                 //!< re-executed.
    CpuFallback, //!< Served by the CPU double-precision path.
};

/** Recovery rung 1 depth: re-executions per detection before the
 *  ladder escalates to a reload and then the CPU fallback. Both
 *  engines climb the same ladder: accel::executeTapeSelfChecked and
 *  the solver's fixed-point tape path (mpc::MpcProblem). */
inline constexpr int kAccelMaxReexecutions = 2;

inline const char *
recoveryRungName(AccelRecoveryRung rung)
{
    switch (rung) {
      case AccelRecoveryRung::None: return "none";
      case AccelRecoveryRung::Reexecute: return "re-execute";
      case AccelRecoveryRung::Reload: return "reload";
      case AccelRecoveryRung::CpuFallback: return "cpu-fallback";
    }
    return "unknown";
}

/** One on-line detection event: where, when, which detector fired,
 *  and the ladder rung that resolved it. */
struct AccelFaultReport
{
    FaultSite site = FaultSite::RegisterFile;
    std::uint64_t cycle = 0; //!< Logical time of the detection.
    std::uint64_t word = 0;  //!< Address within the site.
    FaultDetector detector = FaultDetector::Parity;
    AccelRecoveryRung rung = AccelRecoveryRung::None;

    bool operator==(const AccelFaultReport &o) const = default;
};

/** Even parity bit (0/1) of a 32-bit storage word. */
inline int
parity32(std::uint32_t word)
{
    word ^= word >> 16;
    word ^= word >> 8;
    word ^= word >> 4;
    word ^= word >> 2;
    word ^= word >> 1;
    return static_cast<int>(word & 1u);
}

/**
 * Detection/recovery counters of one self-checked execution. Embedded
 * in NumericHealth so the report rides SolveStats into SolverHealth,
 * BatchReport, and batchMetricsJson without new plumbing.
 */
struct SelfCheckStats
{
    std::uint64_t parityChecks = 0;   //!< Words parity-verified on read.
    std::uint64_t parityErrors = 0;   //!< Words caught corrupted.
    std::uint64_t checksumChecks = 0; //!< Image CRC verifications.
    std::uint64_t checksumErrors = 0; //!< Image CRC mismatches.
    std::uint64_t watchdogTrips = 0;  //!< Watchdog deadlock/stall trips.
    std::uint64_t reexecutions = 0;   //!< Ladder rung 1 resolutions.
    std::uint64_t reloads = 0;        //!< Ladder rung 2 resolutions.
    std::uint64_t cpuFallbacks = 0;   //!< Ladder rung 3 resolutions.

    /** Total detections across all on-line detectors. */
    std::uint64_t
    detections() const
    {
        return parityErrors + checksumErrors + watchdogTrips;
    }

    /** Accumulate another report (e.g. per-robot into a batch). */
    void
    merge(const SelfCheckStats &o)
    {
        parityChecks += o.parityChecks;
        parityErrors += o.parityErrors;
        checksumChecks += o.checksumChecks;
        checksumErrors += o.checksumErrors;
        watchdogTrips += o.watchdogTrips;
        reexecutions += o.reexecutions;
        reloads += o.reloads;
        cpuFallbacks += o.cpuFallbacks;
    }

    /** Checkpoint field list (support/checkpoint.hh vocabulary). */
    template <class Self, class Ar>
    static bool
    visit(Self &s, Ar &ar)
    {
        return ar.u64(s.parityChecks) && ar.u64(s.parityErrors) &&
               ar.u64(s.checksumChecks) && ar.u64(s.checksumErrors) &&
               ar.u64(s.watchdogTrips) && ar.u64(s.reexecutions) &&
               ar.u64(s.reloads) && ar.u64(s.cpuFallbacks);
    }

    bool operator==(const SelfCheckStats &o) const = default;
};

} // namespace robox

#endif // ROBOX_FIXED_SELFCHECK_HH
