/**
 * @file
 * Implementation of functional mapped-tape execution.
 */

#include "accel/functional.hh"

#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "compiler/mapper.hh"
#include "mdfg/mdfg.hh"
#include "support/logging.hh"

namespace robox::accel
{

namespace
{

constexpr std::uint32_t kExternal =
    std::numeric_limits<std::uint32_t>::max();

/** Apply one tape instruction in fixed point. */
Fixed
apply(const sym::Tape::Instr &in, Fixed a, Fixed b, const FixedMath &fm)
{
    switch (in.op) {
      case sym::Op::Add: return a + b;
      case sym::Op::Sub: return a - b;
      case sym::Op::Mul: return a * b;
      case sym::Op::Div: return a / b;
      case sym::Op::Min: return a < b ? a : b;
      case sym::Op::Max: return a > b ? a : b;
      case sym::Op::Neg: return -a;
      case sym::Op::Pow: {
        int e = in.ipow < 0 ? -in.ipow : in.ipow;
        Fixed acc = Fixed::fromDouble(1.0);
        for (int i = 0; i < e; ++i)
            acc *= a;
        if (in.ipow < 0)
            acc = Fixed::fromDouble(1.0) / acc;
        return acc;
      }
      case sym::Op::Sin: return fm.sin(a);
      case sym::Op::Cos: return fm.cos(a);
      case sym::Op::Tan: return fm.tan(a);
      case sym::Op::Asin: return fm.asin(a);
      case sym::Op::Acos: return fm.acos(a);
      case sym::Op::Atan: return fm.atan(a);
      case sym::Op::Exp: return fm.exp(a);
      case sym::Op::Sqrt: return fm.sqrt(a);
      default:
        panic("functional: bad op {}", sym::opName(in.op));
    }
}

} // namespace

FunctionalResult
executeTapeMapped(const sym::Tape &tape, const std::vector<Fixed> &inputs,
                  const FixedMath &fm, const AcceleratorConfig &config,
                  FaultInjector *faults, const SelfCheckPolicy *selfcheck,
                  std::uint64_t faultCycleOffset)
{
    robox_assert(static_cast<int>(inputs.size()) == tape.numVars());

    const std::uint64_t sat0 = Fixed::saturationCount();
    const std::uint64_t div0 = Fixed::divByZeroCount();
    const std::uint64_t faults0 = faults ? faults->faultsInjected() : 0;
    const bool parity_on = selfcheck != nullptr;

    // Lower the tape into an M-DFG so Algorithm 1 can place it. Node i
    // corresponds to tape instruction i because every variable slot is
    // an external input here.
    mdfg::Graph graph;
    std::vector<std::uint32_t> ext(
        static_cast<std::size_t>(tape.numVars()), kExternal);
    std::vector<std::uint32_t> outputs_nodes;
    graph.addTape(tape, ext, mdfg::Phase::Dynamics, 0, outputs_nodes);
    robox_assert(graph.size() == tape.instrs().size());

    compiler::ProgramMap map = compiler::mapGraph(graph, config);

    // Slot values: inputs and constant preloads are resident in every
    // CU (the access engine broadcasts them); instruction results are
    // produced on one CU and move only via the communication map.
    std::vector<Fixed> slot_value(
        static_cast<std::size_t>(tape.numSlots()));
    std::vector<bool> slot_global(
        static_cast<std::size_t>(tape.numSlots()), false);

    FunctionalResult result;
    result.slotPeakAbs.assign(
        static_cast<std::size_t>(tape.numSlots()), 0.0);

    // Parity bit per slot, computed from the fault-free value at store
    // time. An SEU flips a data bit but not the parity bit, so the
    // first read of a corrupted word mismatches.
    std::vector<std::uint8_t> slot_parity(
        static_cast<std::size_t>(tape.numSlots()), 0);

    // Record one stored word: peak-magnitude tracking feeds the
    // per-variable range-utilization report. `truth` is the fault-free
    // value the parity bit is computed from; `v` is what the storage
    // structure actually holds after the fault filter.
    auto store = [&](int slot, Fixed truth, Fixed v) {
        slot_value[slot] = v;
        if (parity_on)
            slot_parity[slot] = static_cast<std::uint8_t>(
                parity32(static_cast<std::uint32_t>(truth.raw())));
        double a = std::abs(v.toDouble());
        if (a > result.slotPeakAbs[slot])
            result.slotPeakAbs[slot] = a;
        result.health.trackValue(a);
    };

    // Verify one word against its parity bit; on mismatch, record the
    // detection and re-adopt the corrupted word's parity so each upset
    // is reported exactly once (scrub-on-detect).
    auto parity_check = [&](int slot, FaultSite site,
                            std::uint64_t cycle, std::uint64_t word) {
        if (!parity_on)
            return;
        ++result.health.selfCheck.parityChecks;
        std::uint32_t raw =
            static_cast<std::uint32_t>(slot_value[slot].raw());
        if (parity32(raw) == slot_parity[slot])
            return;
        ++result.health.selfCheck.parityErrors;
        result.faultReports.push_back(
            {site, cycle, word, FaultDetector::Parity,
             AccelRecoveryRung::None});
        slot_parity[slot] =
            static_cast<std::uint8_t>(parity32(raw));
    };

    // Inputs and preloads land in the access-engine scratchpad before
    // execution starts: fault cycle 0 (+ attempt offset), word = slot.
    for (int i = 0; i < tape.numVars(); ++i) {
        Fixed truth = inputs[i];
        Fixed v = truth;
        if (faults)
            v = faults->access(v, FaultSite::Scratchpad,
                               faultCycleOffset,
                               static_cast<std::uint64_t>(i));
        store(i, truth, v);
        slot_global[i] = true;
    }
    for (const sym::Tape::Preload &p : tape.preloads()) {
        Fixed truth = Fixed::fromDouble(p.value);
        Fixed v = truth;
        if (faults)
            v = faults->access(v, FaultSite::Scratchpad,
                               faultCycleOffset,
                               static_cast<std::uint64_t>(p.slot));
        store(p.slot, truth, v);
        slot_global[p.slot] = true;
    }

    // Availability of produced values: (node, global CU) pairs granted
    // either by production or by a recorded transfer.
    std::set<std::pair<std::uint32_t, int>> available;
    std::size_t transfer_cursor = 0;
    const int ncu = config.cusPerCc;

    // slot -> producing node (for instruction results).
    std::vector<std::uint32_t> slot_node(
        static_cast<std::size_t>(tape.numSlots()), kExternal);

    // Undelivered-operand handling: a mapping that never delivers a
    // consumed value is a compiler bug and panics — unless a self-check
    // policy is attached, in which case the same condition is what a
    // fault-corrupted namespace queue looks like from the consumer:
    // the watchdog trips, the run is flagged, and the recovery ladder
    // (accel/selfcheck.hh) takes over instead of the process dying.
    auto watchdog_trip = [&](std::uint64_t cycle, std::uint64_t word) {
        ++result.health.selfCheck.watchdogTrips;
        result.faultReports.push_back(
            {FaultSite::Interconnect, cycle, word,
             FaultDetector::Watchdog, AccelRecoveryRung::None});
        result.deadlock = true;
    };

    for (std::uint32_t id = 0;
         id < graph.size() && !result.deadlock; ++id) {
        const sym::Tape::Instr &in = tape.instrs()[id];
        const compiler::Placement &pl = map.placement[id];
        int gcu = pl.cc * ncu + pl.cu;
        const std::uint64_t fcycle = id + faultCycleOffset;

        // Deliver any transfers scheduled before this consumer runs.
        while (transfer_cursor < map.transfers.size() &&
               map.transfers[transfer_cursor].consumer <= id) {
            const compiler::Transfer &t = map.transfers[transfer_cursor];
            int dst = t.dstCc * ncu + std::max(0, t.dstCu);
            if (!available.count({t.producer,
                                  t.srcCc * ncu +
                                      std::max(0, t.srcCu)})) {
                if (selfcheck) {
                    watchdog_trip(fcycle, t.producer);
                    break;
                }
                panic("functional: transfer of node {} from a CU that "
                      "does not hold it", t.producer);
            }
            int slot = tape.instrs()[t.producer].dst;
            if (faults) {
                // The message rides the interconnect: upset the word
                // as delivered (cycle = consumer id, word = producer).
                Fixed v = faults->access(
                    slot_value[slot], FaultSite::Interconnect, fcycle,
                    static_cast<std::uint64_t>(t.producer));
                if (v.raw() != slot_value[slot].raw()) {
                    // Corrupted in transit: the data word changes but
                    // the parity bit computed at the producer rides
                    // along unchanged, so the delivery check below (or
                    // the first fetch) sees the mismatch.
                    slot_value[slot] = v;
                    result.health.trackValue(std::abs(v.toDouble()));
                }
            }
            parity_check(slot, FaultSite::Interconnect, fcycle,
                         static_cast<std::uint64_t>(t.producer));
            available.insert({t.producer, dst});
            ++result.transfersApplied;
            ++transfer_cursor;
        }
        if (result.deadlock)
            break;

        auto fetch = [&](int slot) -> Fixed {
            if (slot_global[slot]) {
                parity_check(slot, FaultSite::Scratchpad, fcycle,
                             static_cast<std::uint64_t>(slot));
                return slot_value[slot];
            }
            std::uint32_t producer = slot_node[slot];
            robox_assert(producer != kExternal);
            if (!available.count({producer, gcu})) {
                if (selfcheck) {
                    watchdog_trip(fcycle, producer);
                    return Fixed();
                }
                panic("functional: node {} consumes node {} on cu {} "
                      "but the communication map never delivered it",
                      id, producer, gcu);
            }
            ++result.localReads;
            parity_check(slot, FaultSite::RegisterFile, fcycle,
                         static_cast<std::uint64_t>(slot));
            return slot_value[slot];
        };

        Fixed a = fetch(in.a);
        Fixed b = in.b >= 0 ? fetch(in.b) : Fixed();
        if (result.deadlock)
            break;
        Fixed truth = apply(in, a, b, fm);
        Fixed out = truth;
        if (faults) {
            // The result lands in the CU's register file: cycle =
            // instruction id, word = destination slot.
            out = faults->access(out, FaultSite::RegisterFile, fcycle,
                                 static_cast<std::uint64_t>(in.dst));
        }
        store(in.dst, truth, out);
        slot_node[in.dst] = id;
        available.insert({id, gcu});
    }

    result.outputs.reserve(tape.outputSlots().size());
    for (int slot : tape.outputSlots()) {
        // Handing an output to the host is a read too: an upset on a
        // result no later instruction consumed is still caught here.
        parity_check(slot,
                     slot_global[slot] ? FaultSite::Scratchpad
                                       : FaultSite::RegisterFile,
                     graph.size() + faultCycleOffset,
                     static_cast<std::uint64_t>(slot));
        result.outputs.push_back(slot_value[slot]);
    }

    result.health.tapeEvals = 1;
    result.health.saturations = Fixed::saturationCount() - sat0;
    result.health.divByZeros = Fixed::divByZeroCount() - div0;
    result.health.faultsInjected =
        faults ? faults->faultsInjected() - faults0 : 0;
    return result;
}

} // namespace robox::accel
