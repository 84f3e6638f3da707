/**
 * @file
 * Marginal-utility voltage optimizer (Section II-B).
 *
 * Finds the per-type supply voltages (V_B, V_L) that maximize the
 * aggregate throughput of the active cores subject to a total-power
 * constraint (Eq. 6 target by default), optionally clamped to the
 * feasible [v_min, v_max] DVFS range.  At the unclamped optimum the
 * marginal cost dP/dIPS of every active core is equal (Eq. 7, the Law of
 * Equi-Marginal Utility); the solver verifies this property in tests.
 */

#ifndef AAWS_MODEL_OPTIMIZER_H
#define AAWS_MODEL_OPTIMIZER_H

#include "model/first_order.h"

namespace aaws {

/** Number of active/waiting cores of each type in a region. */
struct CoreActivity
{
    int n_big_active = 0;
    int n_little_active = 0;
    int n_big_waiting = 0;
    int n_little_waiting = 0;

    int totalBig() const { return n_big_active + n_big_waiting; }
    int totalLittle() const { return n_little_active + n_little_waiting; }
};

/** Result of a voltage optimization. */
struct OperatingPoint
{
    /** Supply voltage of every active big core. */
    double v_big = 0.0;
    /** Supply voltage of every active little core. */
    double v_little = 0.0;
    /** Aggregate throughput of the active cores (model IPS units). */
    double ips = 0.0;
    /** Total system power including waiting cores. */
    double power = 0.0;
    /** ips relative to the same active set all running at v_nom. */
    double speedup = 0.0;
    /** True if the solver had to clamp a voltage to [v_min, v_max]. */
    bool clamped = false;
};

/**
 * Throughput-maximizing voltage solver under a power target.
 */
class MarginalUtilityOptimizer
{
  public:
    /** The optimizer borrows the model; it must outlive the optimizer. */
    explicit MarginalUtilityOptimizer(const FirstOrderModel &model);

    /**
     * Solve for the best (V_B, V_L) for the given activity pattern.
     *
     * Waiting cores rest at v_min (contributing waitingPower).  When
     * `feasible` is true, voltages are constrained to [v_min, v_max]
     * (the paper's "feasible" points); otherwise the unconstrained
     * optimum is returned (the paper's "optimal" points, which may
     * exceed v_max).
     *
     * @param activity Active/waiting core counts.
     * @param p_target Total power budget (use Eq. 6 via targetPower()).
     * @param feasible Clamp voltages to the feasible DVFS range.
     */
    OperatingPoint solve(const CoreActivity &activity, double p_target,
                         bool feasible) const;

    /** Eq. 6 power target for the full system implied by `activity`. */
    double targetPower(const CoreActivity &activity) const;

    /** Total system power for explicit voltages under `activity`. */
    double systemPower(const CoreActivity &activity, double v_big,
                       double v_little) const;

    /** Aggregate active-core throughput for explicit voltages. */
    double activeIps(const CoreActivity &activity, double v_big,
                     double v_little) const;

    /**
     * Voltage at which `n` active cores of `type` consume `budget` power,
     * found by bisection on the monotonic activePower curve; returns a
     * value clamped to [lo, hi].  The bisection stops at its fixed
     * point, so the result is that of a fixed 80 halvings.
     */
    double solveVoltageForPower(CoreType type, int n, double budget,
                                double lo, double hi) const;

  private:
    const FirstOrderModel &model_;
};

} // namespace aaws

#endif // AAWS_MODEL_OPTIMIZER_H
