/**
 * @file
 * First-order throughput/power model of Section II-A (Eqs. 1-6).
 *
 * The model predicts, for a core class (ClusterParams, model/topology.h)
 * and a supply voltage: frequency (linear V/f), throughput in
 * instructions per second (IPC * f), and power (dynamic
 * alpha*IPC*f*V^2 plus leakage V*I_leak).  The leakage current is
 * calibrated from the lambda parameter exactly as the paper describes:
 * a big core's leakage consumes lambda of its total nominal power, and
 * every class leaks its leak_ratio of that current (gamma for little).
 */

#ifndef AAWS_MODEL_FIRST_ORDER_H
#define AAWS_MODEL_FIRST_ORDER_H

#include "model/params.h"
#include "model/topology.h"

namespace aaws {

/**
 * Evaluator for the Section II first-order model.
 *
 * All methods are pure functions of the construction-time parameters and
 * the class parameters passed in; the model precomputes the big-core
 * leakage current.
 */
class FirstOrderModel
{
  public:
    /** Build the model, calibrating the leakage current from params. */
    explicit FirstOrderModel(const ModelParams &params = ModelParams{});

    /** Model parameters in use. */
    const ModelParams &params() const { return params_; }

    /** Core frequency in Hz at the given supply voltage (Eq. 1). */
    double freq(double v) const { return params_.k1 * v + params_.k2; }

    /**
     * Supply voltage needed for the given frequency (inverse of Eq. 1).
     */
    double voltageFor(double f) const { return (f - params_.k2) / params_.k1; }

    /** Throughput of an active core of the class, in instr/s (Eq. 2). */
    double ips(const ClusterParams &cp, double v) const;

    /** Leakage current: leak_ratio times the calibrated big leakage. */
    double leakCurrent(const ClusterParams &cp) const;

    /** Power of an active core of the class at voltage v (Eq. 4). */
    double activePower(const ClusterParams &cp, double v) const;

    /**
     * Power of a waiting core spinning in the steal loop at voltage v.
     *
     * Uses the active-power form scaled by the waiting_activity fraction
     * for the dynamic term; leakage is unchanged.
     */
    double waitingPower(const ClusterParams &cp, double v) const;

    /** Power of an active core at nominal voltage (P_BN / P_LN). */
    double nominalPower(const ClusterParams &cp) const;

    /**
     * Marginal cost dP/dIPS of an active core at voltage v (Eq. 7 terms).
     *
     * Computed analytically: dP/dV / dIPS/dV with dIPS/dV = IPC * k1.
     */
    double marginalCost(const ClusterParams &cp, double v) const;

    /** Lowest voltage at which the V/f model yields positive frequency. */
    double
    voltageFloor() const
    {
        return -params_.k2 / params_.k1 + 1e-3;
    }

  private:
    ModelParams params_;
    double leak_big_;
};

} // namespace aaws

#endif // AAWS_MODEL_FIRST_ORDER_H
