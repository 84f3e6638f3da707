/**
 * @file
 * Adaptive refinement of the DVFS lookup table (Section III-A names
 * "more sophisticated adaptive algorithms that update the lookup tables
 * based on performance and energy counters" as future work; this module
 * implements that direction).
 *
 * The static table is generated from the designer's system-wide
 * (alpha, beta) estimates, but a specific application has its own
 * alpha, beta, IPC, and region structure.  The adaptive tuner runs the
 * application, reads the counters a real controller would sample
 * (time per occupancy state, execution time, average power), and
 * hill-climbs the most-occupied table entries' voltages, accepting a
 * change only when it improves the energy-delay product without
 * exceeding the power budget.
 */

#ifndef AAWS_AAWS_ADAPTIVE_H
#define AAWS_AAWS_ADAPTIVE_H

#include <vector>

#include "aaws/experiment.h"

namespace aaws {

/** Tuning knobs of the adaptive table refinement. */
struct AdaptiveOptions
{
    /** Maximum accepted refinements before stopping. */
    int max_accepted = 12;
    /** Voltage perturbation per trial (volts). */
    double voltage_step = 0.05;
    /** Allowed average-power growth over the static-table run. */
    double power_slack = 1.02;
    /** Entries examined per pass, most-occupied first. */
    int entries_per_pass = 6;
};

/** One accepted table refinement. */
struct AdaptiveStep
{
    /** Census cell (CoreTopology::censusIndex) that was rewritten. */
    int cell = 0;
    /** Its new per-cluster voltages, fastest cluster first. */
    std::vector<double> v;
    /** Energy-delay product after accepting this step. */
    double edp = 0.0;
};

/** Outcome of the adaptive tuning. */
struct AdaptiveReport
{
    /** The refined table (same shape as the static one). */
    DvfsLookupTable table;
    /** Static-table metrics. */
    double static_seconds = 0.0;
    double static_edp = 0.0;
    double static_power = 0.0;
    /** Tuned-table metrics. */
    double tuned_seconds = 0.0;
    double tuned_edp = 0.0;
    double tuned_power = 0.0;
    /** Accepted refinements, in order. */
    std::vector<AdaptiveStep> accepted;
};

/**
 * Tune the DVFS lookup table for one kernel on the machine and runtime
 * variant `config` describes (its `table_override` is ignored).
 *
 * Deterministic: equal inputs give equal reports.  The returned table
 * always satisfies v in [v_min, v_max] and the report's tuned EDP is
 * never worse than the static EDP.
 */
AdaptiveReport adaptDvfsTable(const Kernel &kernel,
                              const MachineConfig &config,
                              const AdaptiveOptions &options = {});

} // namespace aaws

#endif // AAWS_AAWS_ADAPTIVE_H
