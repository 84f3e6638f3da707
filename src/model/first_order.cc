#include "model/first_order.h"

#include "common/logging.h"

namespace aaws {

FirstOrderModel::FirstOrderModel(const ModelParams &params)
    : params_(params)
{
    AAWS_ASSERT(params_.k1 > 0.0, "V/f slope must be positive");
    AAWS_ASSERT(params_.lambda >= 0.0 && params_.lambda < 1.0,
                "lambda=%f out of [0,1)", params_.lambda);
    // lambda = V_N * I_leak / (P_dyn_nom + V_N * I_leak)
    //   =>  I_leak = lambda / (1 - lambda) * P_dyn_nom / V_N
    ClusterParams big = clusterParamsFor('b', params_);
    double p_dyn_big_nom = big.energy_coeff * big.ipc * params_.fNom() *
                           params_.v_nom * params_.v_nom;
    leak_big_ = params_.lambda / (1.0 - params_.lambda) * p_dyn_big_nom /
                params_.v_nom;
}

double
FirstOrderModel::ips(const ClusterParams &cp, double v) const
{
    return cp.ipc * freq(v);
}

double
FirstOrderModel::leakCurrent(const ClusterParams &cp) const
{
    return cp.leak_ratio * leak_big_;
}

double
FirstOrderModel::activePower(const ClusterParams &cp, double v) const
{
    double dyn = cp.energy_coeff * cp.ipc * freq(v) * v * v;
    return dyn + v * leakCurrent(cp);
}

double
FirstOrderModel::waitingPower(const ClusterParams &cp, double v) const
{
    double dyn = params_.waiting_activity * cp.energy_coeff * cp.ipc *
                 freq(v) * v * v;
    return dyn + v * leakCurrent(cp);
}

double
FirstOrderModel::nominalPower(const ClusterParams &cp) const
{
    return activePower(cp, params_.v_nom);
}

double
FirstOrderModel::marginalCost(const ClusterParams &cp, double v) const
{
    // dP/dV = a * IPC * d(f*V^2)/dV + I_leak
    //       = a * IPC * (3*k1*V^2 + 2*k2*V) + I_leak
    double dp_dv = cp.energy_coeff * cp.ipc *
                   (3.0 * params_.k1 * v * v + 2.0 * params_.k2 * v) +
                   leakCurrent(cp);
    double dips_dv = cp.ipc * params_.k1;
    return dp_dv / dips_dv;
}

} // namespace aaws
