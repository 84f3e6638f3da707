/**
 * @file
 * Energy-efficiency vs. performance sweep over (V_B, V_L) pairs (Fig. 2).
 *
 * For a fully busy two-cluster system, sweeps both clusters' voltages
 * over the feasible range and reports performance (aggregate IPS) and
 * energy efficiency (IPS per watt, i.e. work per joule) normalized to
 * the nominal (v_nom, v_nom) system, along with the pareto frontier and
 * the best isopower point.
 */

#ifndef AAWS_MODEL_PARETO_H
#define AAWS_MODEL_PARETO_H

#include <vector>

#include "model/cluster_opt.h"

namespace aaws {

/** One sampled (V_B, V_L) system in the Figure 2 scatter. */
struct ParetoSample
{
    double v_big = 0.0;
    double v_little = 0.0;
    /** IPS relative to the nominal system. */
    double perf = 0.0;
    /** (IPS/power) relative to the nominal system. */
    double efficiency = 0.0;
    /** Power relative to the nominal system. */
    double power = 0.0;
    /** True if no other sample dominates this one in (perf, efficiency). */
    bool pareto_optimal = false;
};

/** Result of the Figure 2 sweep. */
struct ParetoSweep
{
    std::vector<ParetoSample> samples;
    /** The pareto-optimal sample closest to the isopower line (circle). */
    ParetoSample best_isopower;
};

/**
 * Run the Figure 2 sweep.
 *
 * @param model    First-order model (alpha/beta etc. inside).
 * @param topology Two-cluster machine (big first); every core is active.
 * @param steps    Grid resolution per axis.
 */
ParetoSweep paretoSweep(const FirstOrderModel &model,
                        const CoreTopology &topology, int steps = 25);

} // namespace aaws

#endif // AAWS_MODEL_PARETO_H
