/**
 * @file
 * Theoretical speedup as a function of alpha and beta (Fig. 4).
 *
 * For each (alpha, beta) pair, solves the all-cores-active marginal
 * utility problem for a system configuration and reports the optimal
 * (unconstrained) and feasible (clamped to [v_min, v_max]) speedups over
 * running every core at nominal voltage.
 */

#ifndef AAWS_MODEL_SURFACE_H
#define AAWS_MODEL_SURFACE_H

#include <vector>

#include "model/cluster_opt.h"

namespace aaws {

/** One (alpha, beta) cell of the Figure 4 surfaces. */
struct SurfaceCell
{
    double alpha = 0.0;
    double beta = 0.0;
    /** Unconstrained-optimum speedup (Fig. 4a). */
    double optimal_speedup = 0.0;
    /** Speedup within [v_min, v_max] (Fig. 4b). */
    double feasible_speedup = 0.0;
};

/**
 * Sweep alpha and beta over inclusive ranges with the given step counts.
 *
 * @param base     Baseline parameters (alpha/beta fields are overwritten).
 * @param topology Two-cluster machine (e.g. 4B4L), every core active;
 *                 its class parameters are re-derived at each cell.
 */
std::vector<SurfaceCell>
speedupSurface(const ModelParams &base, const CoreTopology &topology,
               double alpha_lo, double alpha_hi, int alpha_steps,
               double beta_lo, double beta_hi, int beta_steps);

} // namespace aaws

#endif // AAWS_MODEL_SURFACE_H
