/**
 * @file
 * The closed-loop fleet scenario shared by bench/overload_storm and the
 * fleet tests: the DoubleIntegrator plant sources, the fleet's initial
 * states and references, one closed-loop batch driver, and the single
 * kill-and-resume path (a world-state field list, an atomic checkpoint
 * every N batches, seeded kills, a postmortem dump, and restore).
 */

#ifndef ROBOX_BENCH_FLEET_SCENARIO_HH
#define ROBOX_BENCH_FLEET_SCENARIO_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mpc/batch.hh"
#include "mpc/chaos.hh"
#include "mpc/simulate.hh"
#include "mpc/timeline.hh"
#include "mpc/upgrade.hh"

namespace robox::bench
{

/** A 1D double integrator with bounded acceleration: the simplest
 *  nontrivial MPC plant, and every fleet's robot. */
inline constexpr const char *kDoubleIntegrator = R"(
System DoubleIntegrator( param a_max ) {
  state pos, vel;
  input acc;
  pos.dt = vel;
  vel.dt = acc;
  acc.lower_bound <= -a_max;
  acc.upper_bound <= a_max;
  Task moveTo( reference target, param w_pos, param w_u ) {
    penalty track, effort;
    track.running = pos - target;
    track.weight <= w_pos;
    effort.running = acc;
    effort.weight <= w_u;
  }
}
reference target;
DoubleIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

/** Same plant interface, very different tuning: staged as a live
 *  upgrade, its commands disagree with the incumbent's. */
inline constexpr const char *kDoubleIntegratorRetuned = R"(
System DoubleIntegrator( param a_max ) {
  state pos, vel;
  input acc;
  pos.dt = vel;
  vel.dt = acc;
  acc.lower_bound <= -a_max;
  acc.upper_bound <= a_max;
  Task moveTo( reference target, param w_pos, param w_u ) {
    penalty track, effort;
    track.running = pos - target;
    track.weight <= w_pos;
    effort.running = acc;
    effort.weight <= w_u;
  }
}
reference target;
DoubleIntegrator plant(1.0);
plant.moveTo(target, 40.0, 0.001);
)";

/** The base plant plus terminal position and velocity penalties. */
inline constexpr const char *kDoubleIntegratorTerminal = R"(
System DoubleIntegrator( param a_max ) {
  state pos, vel;
  input acc;
  pos.dt = vel;
  vel.dt = acc;
  acc.lower_bound <= -a_max;
  acc.upper_bound <= a_max;
  Task moveTo( reference target, param w_pos, param w_u ) {
    penalty track, effort;
    track.running = pos - target;
    track.weight <= w_pos;
    effort.running = acc;
    effort.weight <= w_u;
    penalty final_pos, final_vel;
    final_pos.terminal = pos - target;
    final_pos.weight <= 10 * w_pos;
    final_vel.terminal = vel;
    final_vel.weight <= w_pos;
  }
}
reference target;
DoubleIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

/** The DoubleIntegrator's solver options: a 0.1 s control period. */
mpc::MpcOptions integratorOptions(int horizon = 12, int maxIterations = 60);

/** Robot i starts at (0.1 i, -0.03 i) and targets 1 + ref_spacing i. */
void makeFleetInputs(std::size_t robots, double ref_spacing,
                     std::vector<Vector> &states, std::vector<Vector> &refs);

/** Bitwise equality: what "replayed identically" means. */
bool sameBits(const Vector &a, const Vector &b);
bool sameBits(const std::vector<Vector> &a, const std::vector<Vector> &b);

/**
 * The plant side of a closed-loop DoubleIntegrator fleet (state
 * (pos, vel), input acc): true states, the command each
 * robot last executed, and the post-settle tracking score. Everything
 * step() reads or writes besides the controller is here, so visit()
 * is the whole world state a checkpoint carries ahead of the
 * controller.
 */
struct FleetWorld
{
    FleetWorld(const dsl::ModelSpec &model, std::size_t robots,
               double ref_spacing, double dt);

    /**
     * Run control period `batch` and advance it: chaos setBatch and
     * poisonState (when a chaos engine is given), solveAll, and the
     * plant step. The actuation rule: with the link on, u0 is what
     * reached the actuators (a fresh plan head or the buffered tail,
     * shed robots included; see mpc/link.hh); with it off, a Shed
     * robot got no command at all and holds its previous one. Returns
     * the controller's per-robot results for the period.
     */
    const std::vector<mpc::IpmSolver::Result> &
    step(mpc::BatchController &ctl, mpc::ChaosEngine *chaos = nullptr);

    /** The checkpointed fields, one list for writer and reader. */
    template <class Ar>
    bool
    visit(Ar &ar)
    {
        return ar.u64(batch) && ar.vectorList(truth) &&
               ar.vectorList(prevMeas) && ar.vectorList(lastU) &&
               ar.f64(errSum) && ar.u64(errN) && ar.f64(maxError) &&
               ar.u64(protectedShed) && ar.boolean(scheduled);
    }

    double meanError() const;

    mpc::Plant plant;
    double dt;
    std::uint64_t batch = 0; //!< Index of the next control period.
    std::vector<Vector> truth, meas, prevMeas, lastU, refs;
    /** First scored period; |pos - target| is scored from here on. */
    std::uint64_t settleBatch = std::numeric_limits<std::uint64_t>::max();
    std::size_t protectedRobots = 0; //!< Robots 0..n-1 count sheds.
    double errSum = 0.0;
    double maxError = 0.0;
    std::uint64_t errN = 0;
    std::uint64_t protectedShed = 0; //!< Shed events on protected robots.
    bool scheduled = false; //!< scheduleUpgrade() accepted the stage.
};

/** World first, then the controller: one checkpoint blob. */
std::string checkpointFleet(FleetWorld &world,
                            const mpc::BatchController &ctl);

/** Restore both halves of a checkpointFleet() blob. A staged upgrade
 *  still in flight needs its candidate re-supplied. */
bool restoreFleet(const std::string &blob, FleetWorld &world,
                  mpc::BatchController &ctl,
                  const mpc::UpgradeCandidate *candidate = nullptr);

/** A live-upgrade candidate built from `source` with `options`, carrying
 *  a minimal valid image (empty streams, checksummed header). */
mpc::UpgradeCandidate makeCandidate(const char *source,
                                    const mpc::MpcOptions &options);

/** One named value of a bench sweep point. */
struct Row
{
    const char *name;
    const char *desc;
    double value;
};

inline double
count(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** One sweep point in the uniform stats::StatGroup::toJson() schema. */
std::string pointJson(const std::string &group, const std::vector<Row> &rows);

/** Kill-and-resume chaos configuration. */
struct CrashPlan
{
    int checkpointEvery = 7; //!< Batches between checkpoints.
    int crashes = 2;         //!< Simulated kills per scenario.
    std::string dir = ".";   //!< Checkpoint / postmortem directory.
};

/** One closed-loop fleet scenario: who runs, under which chaos, for how
 *  long, and what is staged mid-run. */
struct Scenario
{
    std::string tag;            //!< Checkpoint / postmortem file stem.
    std::uint64_t crashNonce = 0; //!< Kill-schedule channel.
    mpc::MpcOptions options;
    mpc::ChaosSpec chaos;       //!< Its seed also seeds the kills.
    std::size_t robots = 12;     //!< Targets 0.2 apart.
    std::size_t threads = 1;
    int batches = 0;            //!< Scored from batches / 3 on.
    std::size_t protectedRobots = 0; //!< Robots 0..n-1 get priority 1.
    /** Candidate staged once the loop has settled in (batch 5). */
    const mpc::UpgradeCandidate *upgrade = nullptr;
    bool timeline = false;      //!< Record the fleet timeline.
};

/** What a scenario leaves behind. */
struct ScenarioResult
{
    mpc::BatchReport report;
    mpc::FleetTimeline timeline; //!< Empty unless Scenario::timeline.
    FleetWorld world;            //!< Final plant state and score.
    /** A checkpoint or postmortem file could not be written. */
    bool writeFailed = false;
};

/**
 * Run a scenario closed loop. With a CrashPlan, the controller and the
 * world are checkpointed every checkpointEvery batches (atomic rename),
 * and at splitmix64-scheduled batches the controller is destroyed, its
 * flight recorder dumped as a postmortem, and a fresh instance resumed
 * from the latest checkpoint; the result is identical either way. A
 * file that cannot be written is reported on stderr when it happens
 * and flagged in ScenarioResult::writeFailed.
 */
ScenarioResult runScenario(const dsl::ModelSpec &model, const Scenario &s,
                           const CrashPlan *crash = nullptr);

} // namespace robox::bench

#endif // ROBOX_BENCH_FLEET_SCENARIO_HH
