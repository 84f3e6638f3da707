/**
 * @file
 * Machine configuration for the cycle-approximate multicore simulator.
 *
 * The machine shape is named by a topology preset (model/topology.h),
 * which describes an ordered list of core clusters, fastest first, each
 * with its own class parameters and DVFS-rail domain.  The paper's Table I machines are
 * the presets "4b4l" (the default) and "1b7l" at a 333 MHz nominal
 * frequency with per-core integrated voltage regulators (40 ns /
 * 0.15 V transition model); any other preset ("2b2m4l", ":pc" shared
 * rails, ...) is named the same way.  The Machine parses the name
 * against `app_params` when it is built, so cluster parameters always
 * follow the final per-application model (alpha, beta, and little-core
 * IPC from Table III), whatever order the fields were set in.  The DVFS
 * lookup table is always generated from the designer's system-wide
 * estimates in `table_params` (alpha = 3, beta = 2), exactly as
 * Section III-A prescribes (CoreTopology::retargeted).
 *
 * The runtime variant is `policy`, the same `sched::PolicyConfig` the
 * native pools take (`policyConfigFor` in src/aaws/ fills it).
 */

#ifndef AAWS_SIM_CONFIG_H
#define AAWS_SIM_CONFIG_H

#include <string>

#include "model/params.h"
#include "sched/policy_stack.h"
#include "sim/cost_model.h"

namespace aaws {

/** Full configuration of one simulated machine + runtime variant. */
struct MachineConfig
{
    /** Machine shape: a topology preset name (parseTopologyName). */
    std::string topology = "4b4l";
    /** Per-application model (alpha, beta, ipc_little from Table III). */
    ModelParams app_params;
    /** Designer's system-wide model used to build the DVFS table. */
    ModelParams table_params;
    /**
     * The runtime's policy assembly: victim selection, work-biasing,
     * work-mugging (Section III-B) and the voltage techniques the DVFS
     * controller applies (see sched/policy_stack.h).
     */
    sched::PolicyConfig policy;
    /** Runtime and mug cost constants. */
    RuntimeCosts costs;
    /** Regulator transition latency per voltage step. */
    double regulator_ns_per_step = 40.0;
    double regulator_volts_per_step = 0.15;
    /** Record an activity trace (Figures 1 and 7). */
    bool collect_trace = false;
    /** Livelock guard: panic with a state dump past this many events. */
    uint64_t max_events = 400'000'000;
    /**
     * Application L2 misses per kilo-instruction (Table III).  Together
     * with `mem_contention` this models shared-L2/memory contention: the
     * effective IPC of every active core is divided by
     * (1 + mem_contention * mpki * (active_cores - 1)), the first-order
     * queueing effect a gem5 MESI/SimpleMemory system exhibits.
     */
    double mpki = 0.0;
    /** Contention slope (calibrated against Table III speedups). */
    double mem_contention = 0.003;
};

} // namespace aaws

#endif // AAWS_SIM_CONFIG_H
