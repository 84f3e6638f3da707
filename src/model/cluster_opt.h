/**
 * @file
 * Marginal-utility voltage optimizer (Section II-B), for any
 * CoreTopology.
 *
 * Finds the per-cluster supply voltages that maximize the aggregate
 * throughput of the active cores under a total-power budget (the Eq. 6
 * all-nominal target by default), with waiting cores resting at v_min.
 * At the unclamped optimum the marginal cost dP/dIPS of every active
 * core is equal (Eq. 7, the Law of Equi-Marginal Utility).  Two
 * searches reach it:
 *
 *  - solveTwoCluster(): the paper's search on a two-cluster machine, a
 *    coarse grid over the first cluster's voltage plus golden-section
 *    refinement, with the second cluster's voltage following from the
 *    residual budget.  It can search past [v_min, v_max] (the paper's
 *    "optimal" points) or within it ("feasible").  The big/little DVFS
 *    tables and Figs. 2-5 come from it.
 *
 *  - solve(): any number of clusters, applying Eq. 7 directly.  Every
 *    active cluster whose voltage is not clamped to [v_min, v_max] runs
 *    at the same marginal cost lambda.  marginalCost() rises over the
 *    feasible range (its stationary point -k2/(3 k1) ~ 0.18 V lies far
 *    below v_min), so for a given lambda each cluster's voltage is a
 *    clamped inversion, total power is monotone in lambda, and one
 *    outer search on lambda meets the budget.
 *
 * The lookup table picks the search by CoreTopology::isBigLittle
 * (dvfs/lookup_table.cc).  Tests cross-validate the two searches on
 * two-cluster inputs to a tight tolerance; they are not bit-identical,
 * and the tables pin each one's bits.
 *
 * The three root searches (voltageForMarginalCost, solveVoltageForPower
 * and solve's lambda) end where a plain bisection of their range ends:
 * on the adjacent doubles where the search's predicate switches, the
 * bisection's fixed point.  Where that predicate is monotone over the
 * doubles, the pair is unique, so solveVoltageForPower (from a Newton
 * guess) and solve's lambda (from a closed-form guess) gallop to a
 * narrow bracket first and bisect only that.  marginalCost() is not
 * monotone in its last bits, so voltageForMarginalCost runs the plain
 * bisection.  DESIGN.md §15 has the argument.
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

/** Result of a voltage optimization. */
struct ClusterOperatingPoint
{
    /** Supply voltage of every active core, per cluster (0 if none). */
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
     * `p_target` total power, by the equi-marginal search; voltages
     * clamp to [v_min, v_max].
     */
    ClusterOperatingPoint solve(const ClusterActivity &activity,
                                double p_target) const;

    /**
     * Best voltages of a two-cluster topology by the paper's
     * grid-plus-golden-section search.  When `feasible` is true,
     * voltages are constrained to [v_min, v_max] (the paper's
     * "feasible" points); otherwise the unconstrained optimum is
     * returned (the "optimal" points, which may exceed v_max).
     */
    ClusterOperatingPoint solveTwoCluster(const ClusterActivity &activity,
                                          double p_target,
                                          bool feasible) const;

    /** Total system power for explicit per-cluster voltages. */
    double systemPower(const ClusterActivity &activity,
                       const std::vector<double> &v) const;

    /** Aggregate active-core throughput for explicit voltages. */
    double activeIps(const ClusterActivity &activity,
                     const std::vector<double> &v) const;

    /**
     * Voltage where the cluster's marginal cost reaches lambda, clamped
     * to [v_min, v_max]: the plain bisection of [v_min, v_max], run to
     * its fixed point (the midpoint rounds to an endpoint) and unseeded,
     * since marginalCost is not monotone in its last bits.
     */
    double voltageForMarginalCost(const ClusterParams &params,
                                  double lambda) const;

    /**
     * Voltage at which `n` active cores of the class consume `budget`
     * power, clamped to [lo, hi]: the fixed point of a bisection of
     * [lo, hi] on the monotone n * activePower(v) < budget, reached
     * from a Newton guess in a few evaluations.  `lo` must be at least
     * the model's voltageFloor().
     */
    double solveVoltageForPower(const ClusterParams &params, int n,
                                double budget, double lo,
                                double hi) const;

  private:
    const FirstOrderModel &model_;
    const CoreTopology &topology_;
};

} // namespace aaws

#endif // AAWS_MODEL_CLUSTER_OPT_H
