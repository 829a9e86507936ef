/**
 * @file
 * Implementation of the self-checking execution recovery ladder.
 */

#include "accel/selfcheck.hh"

#include "compiler/binary.hh"

namespace robox::accel
{

namespace
{

/** Did this attempt detect anything that needs recovery? */
bool
tainted(const FunctionalResult &r)
{
    return r.deadlock || !r.faultReports.empty();
}

/** Stamp every report of one attempt with the rung that answered it,
 *  append to the ladder-wide list, and drain the source so a report is
 *  never collected twice when rungs share one tainted attempt. */
void
collect(std::vector<AccelFaultReport> &all, FunctionalResult &r,
        AccelRecoveryRung rung)
{
    for (AccelFaultReport rep : r.faultReports) {
        rep.rung = rung;
        all.push_back(rep);
    }
    r.faultReports.clear();
}

} // namespace

SelfCheckedResult
executeTapeSelfChecked(const sym::Tape &tape,
                       const std::vector<Fixed> &inputs,
                       const FixedMath &fm,
                       const AcceleratorConfig &config,
                       const SelfCheckPolicy &policy,
                       FaultInjector *faults,
                       const std::vector<std::uint8_t> *image)
{
    // Each attempt shifts every fault-cycle coordinate past the range
    // the previous attempt used, so the deterministic campaign hash
    // re-rolls: transients clear on retry, exactly like real SEUs.
    const std::uint64_t stride =
        static_cast<std::uint64_t>(tape.instrs().size()) + 1;

    SelfCheckedResult out;
    SelfCheckStats agg;
    std::vector<AccelFaultReport> reports;

    auto attempt = [&](std::uint64_t index) {
        FunctionalResult r = executeTapeMapped(
            tape, inputs, fm, config, faults, &policy, index * stride);
        agg.merge(r.health.selfCheck);
        return r;
    };

    out.run = attempt(0);

    // Rung 1: re-execution.
    std::uint64_t index = 0;
    while (tainted(out.run) && index < kAccelMaxReexecutions) {
        collect(reports, out.run, AccelRecoveryRung::Reexecute);
        ++agg.reexecutions;
        out.rung = AccelRecoveryRung::Reexecute;
        out.run = attempt(++index);
        ++out.attempts;
    }

    // Rung 2: program-image verification + one reload re-execution.
    // `unresolved` tracks taint across the collect() drains: a corrupt
    // image skips the re-execution, and that run is still condemned
    // even though its reports were already stamped.
    bool unresolved = tainted(out.run);
    if (unresolved) {
        collect(reports, out.run, AccelRecoveryRung::Reload);
        ++agg.reloads;
        out.rung = AccelRecoveryRung::Reload;
        bool image_ok = true;
        if (image) {
            ++agg.checksumChecks;
            if (compiler::verifyImage(*image) !=
                compiler::ImageStatus::Ok) {
                ++agg.checksumErrors;
                image_ok = false;
            }
        }
        if (image_ok) {
            out.run = attempt(++index);
            ++out.attempts;
            unresolved = tainted(out.run);
        }
    }

    // Rung 3: abandon the accelerator, serve from the CPU.
    if (unresolved) {
        collect(reports, out.run, policy.cpuFallback
                                      ? AccelRecoveryRung::CpuFallback
                                      : AccelRecoveryRung::Reload);
        if (policy.cpuFallback) {
            ++agg.cpuFallbacks;
            out.rung = AccelRecoveryRung::CpuFallback;
            std::vector<double> dinputs;
            dinputs.reserve(inputs.size());
            for (Fixed v : inputs)
                dinputs.push_back(v.toDouble());
            out.fallbackOutputs = tape.eval(dinputs);
        } else {
            out.trusted = false;
        }
    }

    out.run.health.selfCheck = agg;
    out.run.faultReports = std::move(reports);
    return out;
}

} // namespace robox::accel
