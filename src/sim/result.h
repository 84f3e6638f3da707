/**
 * @file
 * Results of one simulation: execution time, energy, region breakdown
 * (the Figure 8 categories), per-census occupancy, and scheduler event
 * counts.
 */

#ifndef AAWS_SIM_RESULT_H
#define AAWS_SIM_RESULT_H

#include <cstdint>
#include <vector>

#include "sim/serve_stats.h"
#include "sim/trace.h"

namespace aaws {

/**
 * Time spent in each execution region (Figure 8's breakdown).
 *
 * serial: a truly serial region (logical thread 0 between parallel
 * regions).  hp: every core active.  The LP region splits by mugging
 * opportunity: big-inactive < little-active (BI<LA), big-inactive >=
 * little-active with at least one little active (BI>=LA), and other LP
 * where no little core is active (oLP).
 */
struct RegionBreakdown
{
    double serial = 0.0;
    double hp = 0.0;
    double lp_bi_lt_la = 0.0;
    double lp_bi_ge_la = 0.0;
    double lp_other = 0.0;

    double
    total() const
    {
        return serial + hp + lp_bi_lt_la + lp_bi_ge_la + lp_other;
    }
};

/** Per-core activity statistics. */
struct CoreStats
{
    /** Seconds executing tasks, serial work, or the mug protocol. */
    double busy_seconds = 0.0;
    /** Seconds spinning in the work-stealing loop. */
    double waiting_seconds = 0.0;
    /** Energy consumed (model units). */
    double energy = 0.0;
    /** Instructions retired on this core (work + runtime overhead). */
    uint64_t instructions = 0;
};

/** Everything one run of the simulator produces. */
struct SimResult
{
    /** End-to-end execution time in seconds. */
    double exec_seconds = 0.0;
    /** Total energy in model units. */
    double energy = 0.0;
    /** Energy spent busy-waiting in steal loops. */
    double waiting_energy = 0.0;
    /** Average system power over the run. */
    double avg_power = 0.0;
    /** Region time breakdown (sums to exec_seconds). */
    RegionBreakdown regions;
    /** Program instructions executed (task + serial work + overheads). */
    uint64_t instructions = 0;
    /** Successful steals. */
    uint64_t steals = 0;
    /** Failed steal attempts. */
    uint64_t failed_steals = 0;
    /** Completed work-mugs. */
    uint64_t mugs = 0;
    /** Aborted mug attempts (muggee finished first). */
    uint64_t aborted_mugs = 0;
    /** Per-core DVFS transitions started. */
    uint64_t transitions = 0;
    /** Tasks executed. */
    uint64_t tasks_executed = 0;
    /**
     * Discrete events processed by the simulator's main loop.  Purely a
     * cost/regression metric (events/sec throughput, pinned per-kernel
     * event counts); does not affect any simulated quantity.
     */
    uint64_t sim_events = 0;
    /** Per-core activity and energy statistics. */
    std::vector<CoreStats> core_stats;
    /**
     * Seconds spent at each activity census (active cores per cluster),
     * indexed by CoreTopology::censusIndex; the cells sum to
     * exec_seconds.
     */
    std::vector<double> occupancy_seconds;
    /** Activity trace (only populated when collect_trace is set). */
    ActivityTrace trace;
    /**
     * Open-loop serving statistics; disabled (and not serialized) for
     * classic closed-loop runs.  Filled by src/serve/, never by
     * Machine::run() itself.
     */
    ServeStats serve;
};

} // namespace aaws

#endif // AAWS_SIM_RESULT_H
