/**
 * @file
 * N-cluster marginal-utility voltage solver.
 *
 * Generalizes MarginalUtilityOptimizer (model/optimizer.h) from two
 * core types to any CoreTopology: find the per-cluster supply voltages
 * that maximize aggregate active-core throughput under a total-power
 * budget, with waiting cores resting at v_min.
 *
 * Instead of the two-type grid-plus-golden-section search, the solver
 * applies the Law of Equi-Marginal Utility (Eq. 7) directly: at the
 * constrained optimum every active cluster whose voltage is not clamped
 * to [v_min, v_max] runs at the same marginal cost lambda = dP/dIPS.
 * marginalCost() is strictly increasing in V over the feasible range
 * (its stationary point -k2/(3 k1) ~ 0.18 V lies far below v_min), so
 * for a given lambda each cluster's voltage is a clamped monotone
 * inversion, total power is monotone in lambda, and one outer bisection
 * on lambda meets the budget.
 *
 * The paper's big/little DVFS tables do NOT use this solver —
 * lookup-table generation runs the two-type MarginalUtilityOptimizer on
 * them (CoreTopology::isBigLittle, dvfs/lookup_table.cc).  Tests
 * cross-validate the two solvers on two-cluster inputs to a tight
 * tolerance.
 */

#ifndef AAWS_MODEL_CLUSTER_OPT_H
#define AAWS_MODEL_CLUSTER_OPT_H

#include <vector>

#include "model/first_order.h"
#include "model/topology.h"

namespace aaws {

/** Active/waiting core counts per cluster (same order as the topology). */
struct ClusterActivity
{
    std::vector<int> active;
    std::vector<int> waiting;
};

/** Result of an N-cluster voltage optimization. */
struct ClusterOperatingPoint
{
    /** Supply voltage of every active core, per cluster. */
    std::vector<double> v;
    /** Aggregate throughput of the active cores (model IPS units). */
    double ips = 0.0;
    /** Total system power including waiting cores. */
    double power = 0.0;
    /** ips relative to the same active set all running at v_nom. */
    double speedup = 0.0;
    /** True if any active cluster's voltage sits at v_min or v_max. */
    bool clamped = false;
};

/** Throughput-maximizing per-cluster voltage solver. */
class ClusterOptimizer
{
  public:
    /** Borrows both; they must outlive the optimizer. */
    ClusterOptimizer(const FirstOrderModel &model,
                     const CoreTopology &topology);

    /** Eq. 6 generalized: every core active at nominal voltage. */
    double targetPower(const ClusterActivity &activity) const;

    /**
     * Best feasible per-cluster voltages for the activity pattern under
     * `p_target` total power; voltages clamp to [v_min, v_max].
     */
    ClusterOperatingPoint solve(const ClusterActivity &activity,
                                double p_target) const;

    /** Total system power for explicit per-cluster voltages. */
    double systemPower(const ClusterActivity &activity,
                       const std::vector<double> &v) const;

    /** Aggregate active-core throughput for explicit voltages. */
    double activeIps(const ClusterActivity &activity,
                     const std::vector<double> &v) const;

    /**
     * Voltage where the cluster's marginal cost reaches lambda, clamped
     * to [v_min, v_max].  The bisection stops at its fixed point, so the
     * result is that of a fixed 60 halvings.
     */
    double voltageForMarginalCost(const ClusterParams &params,
                                  double lambda) const;

  private:
    const FirstOrderModel &model_;
    const CoreTopology &topology_;
};

} // namespace aaws

#endif // AAWS_MODEL_CLUSTER_OPT_H
