/**
 * @file
 * First-order throughput/power model of Section II-A (Eqs. 1-6).
 *
 * The model predicts, for each core type and supply voltage: frequency
 * (linear V/f), throughput in instructions per second (IPC * f), and power
 * (dynamic alpha*IPC*f*V^2 plus leakage V*I_leak).  Leakage currents are
 * calibrated from the lambda / gamma parameters exactly as the paper
 * describes: a big core's leakage consumes lambda of its total nominal
 * power, and a little core's leakage current is gamma of the big core's.
 */

#ifndef AAWS_MODEL_FIRST_ORDER_H
#define AAWS_MODEL_FIRST_ORDER_H

#include "model/params.h"
#include "model/topology.h"

namespace aaws {

/**
 * Evaluator for the Section II first-order model.
 *
 * All methods are pure functions of the construction-time parameters; the
 * class precomputes leakage currents.
 */
class FirstOrderModel
{
  public:
    /** Build the model, calibrating leakage currents from params. */
    explicit FirstOrderModel(const ModelParams &params = ModelParams{});

    /** Model parameters in use. */
    const ModelParams &params() const { return params_; }

    /** Core frequency in Hz at the given supply voltage (Eq. 1). */
    double freq(double v) const { return params_.k1 * v + params_.k2; }

    /**
     * Supply voltage needed for the given frequency (inverse of Eq. 1).
     */
    double voltageFor(double f) const { return (f - params_.k2) / params_.k1; }

    /** Throughput of an active core in instructions/second (Eq. 2). */
    double ips(CoreType type, double v) const;

    /** Leakage current of the given core type (amps, model units). */
    double leakCurrent(CoreType type) const;

    /** Power of an active core at the given voltage (Eq. 4). */
    double activePower(CoreType type, double v) const;

    /**
     * Power of a waiting core spinning in the steal loop at voltage v.
     *
     * Uses the active-power form scaled by the waiting_activity fraction
     * for the dynamic term; leakage is unchanged.
     */
    double waitingPower(CoreType type, double v) const;

    /** Power of an active core at nominal voltage (P_BN / P_LN). */
    double nominalPower(CoreType type) const;

    /** Nominal-system power target of Eq. 6 for n_big + n_little cores. */
    double powerTarget(int n_big, int n_little) const;

    /**
     * Marginal cost dP/dIPS of an active core at voltage v (Eq. 7 terms).
     *
     * Computed analytically: dP/dV / dIPS/dV with dIPS/dV = IPC * k1.
     */
    double marginalCost(CoreType type, double v) const;

    // --- N-cluster generalization ------------------------------------
    //
    // The same model evaluated against one cluster's class parameters
    // (model/topology.h).  For the 'b' and 'l' preset parameters these
    // overloads compute the exact expressions of their CoreType
    // counterparts — same operands, same operation order — so the
    // paper's big/little presets match the two-class model bit for bit.

    /** Throughput of an active core of the cluster class (Eq. 2). */
    double ips(const ClusterParams &cp, double v) const;

    /** Leakage current: leak_ratio times the calibrated big leakage. */
    double leakCurrent(const ClusterParams &cp) const;

    /** Power of an active core of the cluster class (Eq. 4). */
    double activePower(const ClusterParams &cp, double v) const;

    /** Power of a waiting core of the cluster class. */
    double waitingPower(const ClusterParams &cp, double v) const;

    /** Active power at nominal voltage. */
    double nominalPower(const ClusterParams &cp) const;

    /** Marginal cost dP/dIPS at voltage v (Eq. 7 generalized). */
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
    double leak_little_;
};

} // namespace aaws

#endif // AAWS_MODEL_FIRST_ORDER_H
