/**
 * @file
 * Safe live controller upgrades: shadow validation, canary rollout,
 * automatic rollback.
 *
 * A serving BatchController can only ever be as good as the program it
 * booted with unless controllers can be replaced in flight. The
 * UpgradeManager stages a candidate controller (a new model/option set
 * plus its compiled program image, CRC-verified before anything else)
 * through a deterministic virtual-time rollout:
 *
 *   schedule -> Shadow  (candidate solves copies of the live inputs
 *                        for K periods; zero effect on commands)
 *            -> Canary  (a deterministic splitmix64-selected robot
 *                        fraction serves on the candidate; the
 *                        incumbent keeps shadow-solving those robots
 *                        so rollback is seamless)
 *            -> Committed (fleet-wide switch)
 *
 * with automatic rollback to the incumbent — and rejection while still
 * shadowing — on command divergence beyond the warn/fail bands, on a
 * bad-solve (non-usable / NumericDegraded / AccelFault) rate
 * regression, or on an EWMA solve-cost (latency budget) violation.
 * Because the non-serving version keeps shadow-solving every admitted
 * robot during Shadow and Canary, both versions stay warm: a switch in
 * either direction reuses the per-robot backup-plan tail and never
 * costs a robot a command.
 *
 * Determinism contract: every decision (divergence scoring, guard
 * evaluation, canary selection, phase transitions) is folded on the
 * coordinating thread in robot-index order from per-robot scratch
 * slots the workers filled, so a campaign driven through a virtual-
 * time cost hook replays bitwise across runs and thread counts. The
 * full manager state rides inside BatchController::checkpoint();
 * restoring an in-flight upgrade requires re-supplying the candidate
 * (whose image and shape must match the checkpoint) because solver
 * instances cannot be rebuilt from bytes alone.
 */

#ifndef ROBOX_MPC_UPGRADE_HH
#define ROBOX_MPC_UPGRADE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mpc/ipm.hh"
#include "mpc/options.hh"
#include "mpc/status.hh"
#include "mpc/timeline.hh"
#include "support/checkpoint.hh"

namespace robox::mpc
{

/** Where a scheduled upgrade currently stands. */
enum class UpgradePhase : std::uint8_t
{
    Idle = 0,   //!< No candidate staged.
    Shadow,     //!< Candidate solving copies; incumbent serves all.
    Canary,     //!< Canary fraction serves on the candidate.
    Committed,  //!< Fleet-wide on the candidate.
    RolledBack, //!< A guard tripped during Canary; incumbent restored.
    Rejected,   //!< A guard tripped during Shadow; candidate dropped.
};

const char *toString(UpgradePhase phase);

/** Outcome of BatchController::scheduleUpgrade(). */
enum class UpgradeScheduleStatus : std::uint8_t
{
    Scheduled = 0, //!< Accepted; the shadow phase begins next batch.
    BadImage,      //!< verifyImage rejected the candidate's image.
    Incompatible,  //!< Candidate shape differs from the incumbent's.
    Busy,          //!< An upgrade is in flight or already committed.
};

const char *toString(UpgradeScheduleStatus status);

/**
 * A candidate controller: the model and options the per-robot solvers
 * are built from, plus the compiled program image that would be
 * flashed to the accelerator. The image is the untrusted artifact of
 * the deployment pipeline, so it is CRC-verified (verifyImage) before
 * the candidate is staged; an empty image is rejected as truncated.
 */
struct UpgradeCandidate
{
    dsl::ModelSpec model;
    MpcOptions options;
    std::vector<std::uint8_t> image;

    /**
     * Virtual-time cost multiplier applied to the candidate's modeled
     * solve cost while a CostHook drives the admission clock (without
     * a hook, measured wall time is used directly and this is
     * ignored). A campaign models a costlier candidate by setting it
     * above 1, which is what the latency guard then sees.
     */
    double modeledCostScale = 1.0;
};

/** Rollout accounting, embedded in BatchReport and batchMetricsJson.
 *  All counters are lifetime sums across every scheduled candidate. */
struct UpgradeReport
{
    /** Serving controller version: 1 = incumbent, 2 = candidate
     *  (after commit). */
    std::uint32_t version = 1;
    /** Current UpgradePhase as its integer value. */
    std::uint8_t phase = 0;

    std::uint64_t scheduled = 0;       //!< schedule() attempts.
    std::uint64_t rejectedImages = 0;  //!< verifyImage refusals.
    std::uint64_t rejectedIncompatible = 0; //!< Shape refusals.
    std::uint64_t committed = 0;       //!< Fleet-wide commits.
    std::uint64_t rolledBack = 0;      //!< Canary-phase rollbacks.
    std::uint64_t rejectedCandidates = 0; //!< Shadow-phase rejections.

    std::uint64_t shadowSolves = 0; //!< Candidate/incumbent pairs run.
    std::uint64_t canaryRobots = 0; //!< Size of the last canary set.
    std::uint64_t divergenceWarns = 0; //!< Components past the warn band.
    std::uint64_t divergenceFails = 0; //!< Components past the fail band.
    double maxDivergence = 0.0; //!< Largest |candidate - incumbent|.

    /** Fleet-level EWMA modeled solve cost per version, seconds. */
    double incumbentCostEwma = 0.0;
    double candidateCostEwma = 0.0;

    /** Guard trips by reason (reject + rollback combined). */
    std::uint64_t rollbackDivergence = 0;
    std::uint64_t rollbackFaultRate = 0;
    std::uint64_t rollbackLatency = 0;
};

/**
 * The rollout state machine. Owned and driven by BatchController; see
 * the file comment for the phase diagram and determinism contract.
 * The upgrade staging knobs (periods, bands, guards, canary seed) are
 * read from the *incumbent* controller's MpcOptions — the candidate's
 * options only configure the candidate solvers themselves.
 */
class UpgradeManager
{
  public:
    /** An upgrade-category timeline marker queued for the controller
     *  to stamp (virtual time, batch index) and record. */
    struct PendingMarker
    {
        TimelineMarker kind = TimelineMarker::UpgradeShadowStart;
        std::uint32_t robot = 0;
    };

    UpgradeManager(const MpcOptions &incumbent_options,
                   std::size_t num_robots);

    /**
     * Stage a candidate: verify its image, build one solver per robot,
     * and check its problem shape (nx/nu/nref/horizon) against the
     * incumbent's — a shape change is a redeploy, not a live upgrade.
     * On success the shadow phase begins with the next batch. Refused
     * with Busy while an upgrade is in flight or committed; after a
     * rejection or rollback a new candidate may be scheduled.
     */
    UpgradeScheduleStatus schedule(const UpgradeCandidate &candidate,
                                   const MpcProblem &incumbent);

    /** Operator-initiated abort: reject a shadowing candidate or roll
     *  back a canarying one. No-op in any other phase. */
    void abortToIncumbent();

    UpgradePhase phase() const { return phase_; }

    /** True while both versions solve every admitted robot (Shadow or
     *  Canary): the controller must run the shadow solve and call
     *  recordPair(). */
    bool doubleSolve() const
    {
        return phase_ == UpgradePhase::Shadow ||
               phase_ == UpgradePhase::Canary;
    }

    /** True when robot i's commands come from the candidate. */
    bool servesCandidate(std::size_t i) const
    {
        return serving_[i] != 0;
    }

    /** 1 = incumbent, 2 = candidate. */
    std::uint32_t servingVersion(std::size_t i) const
    {
        return serving_[i] != 0 ? 2 : 1;
    }

    /** Robot i's candidate solver; valid in Shadow/Canary/Committed. */
    IpmSolver &candidateSolver(std::size_t i)
    {
        return *candidate_solvers_[i];
    }

    const MpcOptions &candidateOptions() const
    {
        return candidate_.options;
    }

    /** Modeled-cost multiplier for robot i's *serving* solve under a
     *  cost hook (candidate robots carry modeledCostScale). */
    double costScale(std::size_t i) const
    {
        return serving_[i] != 0 ? candidate_.modeledCostScale : 1.0;
    }

    /**
     * Worker-side (robot-slot-isolated) record of one serving/shadow
     * solve pair: divergence is scored here, guards are evaluated
     * later by finishPeriod() on the coordinator. `shadow` is null
     * when the shadow solve threw (the candidate is charged a bad
     * solve; the serving result is never perturbed).
     */
    void recordPair(std::size_t i, const IpmSolver::Result &serving,
                    double serving_seconds,
                    const IpmSolver::Result *shadow,
                    double shadow_seconds);

    /**
     * Coordinator fold, once per batch after the cost model updated:
     * accumulate divergence and per-version cost/fault samples in
     * robot-index order, evaluate the guards, and run the phase
     * transitions. `batch_cost[i]` is the controller's modeled cost of
     * robot i's serving solve; `hooked` says a CostHook drives it (the
     * shadow's modeled cost is then derived from it via
     * modeledCostScale instead of re-invoking the hook, keeping hook
     * call counts — and thus any stateful hook — unperturbed).
     */
    void finishPeriod(const std::vector<double> &batch_cost,
                      bool hooked);

    const UpgradeReport &report() const { return report_; }

    /** Markers queued since the last drain (coordinator only). */
    const std::vector<PendingMarker> &pendingMarkers() const
    {
        return pending_markers_;
    }
    void clearPendingMarkers() { pending_markers_.clear(); }

    /** Drop candidate-solver warm starts (BatchController::resetAll). */
    void resetSolvers();

    void checkpoint(support::CheckpointWriter &w) const;

    /**
     * Restore a manager checkpoint. When the stored phase still holds
     * candidate solvers (Shadow/Canary/Committed), `candidate` must be
     * non-null and match the stored identity (image bytes, model
     * shape, modeledCostScale); the solvers are rebuilt from it and
     * their warm state restored. Returns false on any mismatch or
     * short payload; the caller is expected to cold-start.
     */
    bool restore(support::CheckpointReader &r,
                 const UpgradeCandidate *candidate);

  private:
    template <class Self, class Ar>
    static bool visit(Self &m, Ar &ar, const UpgradeCandidate *candidate);

    /** Per-robot scratch a worker fills for its own slot only. */
    struct PairSample
    {
        std::uint8_t hasPair = 0;
        std::uint32_t warns = 0;
        std::uint32_t fails = 0;
        double maxAbs = 0.0;
        double servingSeconds = 0.0;
        double shadowSeconds = 0.0;
        std::uint8_t servingBad = 0;
        std::uint8_t shadowBad = 0;
    };

    void startShadow();
    void startCanary();
    void commit();
    /** A guard tripped: reject (Shadow) or roll back (Canary),
     *  charging the given per-reason counter. */
    void failCandidate(std::uint64_t UpgradeReport::*reason);
    void dropCandidateSolvers();
    void clearScratch();
    void queueMarker(TimelineMarker kind, std::uint32_t robot);
    bool buildSolvers(const UpgradeCandidate &candidate,
                      std::size_t num_robots);

    MpcOptions options_; //!< Incumbent options (staging knobs).
    std::size_t num_robots_;

    UpgradePhase phase_ = UpgradePhase::Idle;
    std::uint64_t phase_periods_ = 0;

    UpgradeCandidate candidate_;
    std::vector<std::unique_ptr<IpmSolver>> candidate_solvers_;
    std::vector<std::uint8_t> serving_; //!< 1 = candidate serves robot.
    std::vector<std::uint8_t> canary_;  //!< 1 = in the canary set.

    /** Per-phase fault-rate samples (reset at each phase start). */
    std::uint64_t incumbent_solves_ = 0;
    std::uint64_t incumbent_bad_ = 0;
    std::uint64_t candidate_solves_ = 0;
    std::uint64_t candidate_bad_ = 0;

    std::vector<PairSample> scratch_;
    std::vector<PendingMarker> pending_markers_;
    UpgradeReport report_;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_UPGRADE_HH
