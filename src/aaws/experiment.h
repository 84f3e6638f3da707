/**
 * @file
 * Experiment helpers: the per-kernel machine config and the normalized
 * metrics the paper's figures report.  Simulations run through the
 * experiment engine (exp/run_spec.h), whose specs name the machine by a
 * topology preset.
 */

#ifndef AAWS_AAWS_EXPERIMENT_H
#define AAWS_AAWS_EXPERIMENT_H

#include <string>
#include <vector>

#include "aaws/variant.h"
#include "kernels/registry.h"
#include "sim/machine.h"

namespace aaws {

/** One (kernel, variant) measurement on the spec's machine. */
struct RunResult
{
    std::string kernel;
    Variant variant = Variant::base;
    SimResult sim;

    /** Work per joule, the paper's energy-efficiency axis. */
    double
    efficiency() const
    {
        return sim.energy > 0.0
                   ? static_cast<double>(sim.instructions) / sim.energy
                   : 0.0;
    }
};

/**
 * Build the machine config for a kernel on the default machine
 * (MachineConfig::topology): per-application alpha / beta / little-core
 * IPC from Table III drive core performance and energy; the DVFS lookup
 * table always uses the designer's system-wide estimates.
 */
MachineConfig configFor(const Kernel &kernel, Variant variant,
                        bool collect_trace = false);

/**
 * Simulate the optimized *serial* version on a single core of the given
 * cluster kind ('b', 'm' or 'l', under the kernel's Table III
 * parameters; for Table III's serial baselines): all work executes back
 * to back on one core at nominal voltage, with a 0.92 discount for the
 * parallel version's task-management instructions.
 */
double serialSeconds(const Kernel &kernel, char kind);

/** Serial energy of the same run (for the alpha/ERatio column). */
double serialEnergy(const Kernel &kernel, char kind);

/** Speedup of `opt` over `base` (ratio of execution times). */
double speedupOver(const SimResult &base, const SimResult &opt);

/**
 * Energy-efficiency (perf-per-joule) gain of `opt` over `base`:
 * speedup x E_base/E_opt, i.e. (1/t_opt/E_opt) / (1/t_base/E_base).
 * > 1 means the optimized run does the same work both faster and on a
 * better perf/energy trade-off.
 */
double efficiencyGain(const SimResult &base, const SimResult &opt);

} // namespace aaws

#endif // AAWS_AAWS_EXPERIMENT_H
