/**
 * @file
 * Component-level per-event energy table and energy microbenchmarks
 * (Section IV-E analog).
 *
 * The paper calibrates its energy model with 65 "energy microbenchmarks"
 * run on a placed-and-routed RTL implementation of the little core, then
 * normalizes McPAT component models for the big core against shared
 * components (integer ALU, register file).  We reproduce the *method*
 * with component-level event-energy tables, one per core design:
 * per-event energies for the little core chosen to be representative of
 * a 65 nm LP in-order scalar core, big-core events scaled by
 * microarchitectural factors, and a microbenchmark driver that composes
 * event counts per instruction into energy-per-instruction estimates
 * for one design at a time.  The derived big/little
 * energy-per-instruction ratio is the model's alpha and is cross-checked
 * against the first-order model in tests.
 */

#ifndef AAWS_ENERGY_MICROBENCH_H
#define AAWS_ENERGY_MICROBENCH_H

#include <string>
#include <vector>

namespace aaws {

/** Microarchitectural events charged per instruction. */
enum class EnergyEvent
{
    icache_access,
    dcache_access,
    regfile_read,
    regfile_write,
    int_alu,
    int_mul,
    int_div,
    fp_add,
    fp_mul,
    fp_div,
    branch,
    pipeline_ctrl,   ///< Pipeline registers / control per cycle.
    rename_dispatch, ///< Big core only: rename + dispatch + IQ.
    rob_lsq,         ///< Big core only: ROB/LSQ occupancy per instr.
    bpred,           ///< Big core only: tournament predictor access.
    num_events
};

/** Name of an energy event for reports. */
const char *energyEventName(EnergyEvent event);

/**
 * Per-event energies in picojoules at nominal voltage for one core
 * design.
 */
class EventEnergyTable
{
  public:
    /** The 65 nm LP single-issue in-order little core. */
    static EventEnergyTable littleCore();

    /**
     * The out-of-order big core: the shared components scaled up, plus
     * rename, ROB/LSQ and branch-predictor events.
     */
    static EventEnergyTable bigCore();

    /** Energy in pJ of one occurrence of `event`. */
    double energyPj(EnergyEvent event) const;

    /** Scale a nominal-voltage energy to supply voltage v (E ~ V^2). */
    static double scaleToVoltage(double pj_nominal, double v, double v_nom);

  private:
    EventEnergyTable() = default;

    double pj_[static_cast<int>(EnergyEvent::num_events)] = {};
};

/** Event counts per instruction for one microbenchmark kernel. */
struct Microbench
{
    std::string name;
    /** counts[event] = occurrences per instruction. */
    double counts[static_cast<int>(EnergyEvent::num_events)] = {};
};

/**
 * The microbenchmark suite: one entry per instruction class, in the
 * spirit of the paper's addiu/mul/load/... microbenchmarks.
 */
std::vector<Microbench> makeMicrobenchSuite();

/** Energy per instruction (pJ) of a microbenchmark on the table's core. */
double microbenchEnergyPj(const EventEnergyTable &table,
                          const Microbench &mb);

/**
 * Average energy-per-instruction ratio big/little over the whole suite,
 * i.e. the alpha this component model implies.
 */
double deriveAlpha(const EventEnergyTable &big,
                   const EventEnergyTable &little,
                   const std::vector<Microbench> &suite);

} // namespace aaws

#endif // AAWS_ENERGY_MICROBENCH_H
