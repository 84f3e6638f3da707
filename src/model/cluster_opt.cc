#include "model/cluster_opt.h"

#include <algorithm>

#include "common/logging.h"

namespace aaws {

ClusterOptimizer::ClusterOptimizer(const FirstOrderModel &model,
                                   const CoreTopology &topology)
    : model_(model), topology_(topology)
{
    AAWS_ASSERT(!topology.empty(), "cluster optimizer needs a topology");
}

double
ClusterOptimizer::targetPower(const ClusterActivity &activity) const
{
    double power = 0.0;
    for (int k = 0; k < topology_.numClusters(); ++k) {
        int total = activity.active[k] + activity.waiting[k];
        power += total * model_.nominalPower(topology_.cluster(k).params);
    }
    return power;
}

double
ClusterOptimizer::systemPower(const ClusterActivity &activity,
                              const std::vector<double> &v) const
{
    double v_rest = model_.params().v_min;
    double power = 0.0;
    for (int k = 0; k < topology_.numClusters(); ++k) {
        const ClusterParams &params = topology_.cluster(k).params;
        power += activity.active[k] * model_.activePower(params, v[k]) +
                 activity.waiting[k] * model_.waitingPower(params, v_rest);
    }
    return power;
}

double
ClusterOptimizer::activeIps(const ClusterActivity &activity,
                            const std::vector<double> &v) const
{
    double ips = 0.0;
    for (int k = 0; k < topology_.numClusters(); ++k)
        ips += activity.active[k] *
               model_.ips(topology_.cluster(k).params, v[k]);
    return ips;
}

double
ClusterOptimizer::voltageForMarginalCost(const ClusterParams &params,
                                         double lambda) const
{
    const ModelParams &p = model_.params();
    double lo = p.v_min;
    double hi = p.v_max;
    // marginalCost is strictly increasing on [v_min, v_max] (its
    // stationary point -k2/(3 k1) lies far below v_min), so a clamped
    // bisection inverts it.
    if (model_.marginalCost(params, lo) >= lambda)
        return lo;
    if (model_.marginalCost(params, hi) <= lambda)
        return hi;
    // Stop at the fixed point, where the midpoint rounds to an endpoint.
    for (int iter = 0; iter < 60; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            break;
        if (model_.marginalCost(params, mid) < lambda)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

ClusterOperatingPoint
ClusterOptimizer::solve(const ClusterActivity &activity,
                        double p_target) const
{
    const int n = topology_.numClusters();
    AAWS_ASSERT(static_cast<int>(activity.active.size()) == n &&
                    static_cast<int>(activity.waiting.size()) == n,
                "activity arity does not match the topology");
    const ModelParams &p = model_.params();
    ClusterOperatingPoint point;
    point.v.assign(n, 0.0);

    bool any_active = false;
    for (int k = 0; k < n; ++k)
        any_active = any_active || activity.active[k] > 0;
    if (!any_active)
        return point;

    // Equi-marginal search: per-cluster voltages follow from a shared
    // marginal cost lambda; bisect lambda until total power meets the
    // budget (power is monotone nondecreasing in lambda).
    double lambda_lo = model_.marginalCost(topology_.cluster(0).params,
                                           p.v_min);
    double lambda_hi = lambda_lo;
    for (int k = 0; k < n; ++k) {
        const ClusterParams &params = topology_.cluster(k).params;
        lambda_lo = std::min(lambda_lo,
                             model_.marginalCost(params, p.v_min));
        lambda_hi = std::max(lambda_hi,
                             model_.marginalCost(params, p.v_max));
    }

    std::vector<double> v(n, p.v_min);
    auto voltagesFor = [&](double lambda) {
        for (int k = 0; k < n; ++k)
            v[k] = activity.active[k] > 0
                       ? voltageForMarginalCost(
                             topology_.cluster(k).params, lambda)
                       : 0.0;
    };

    voltagesFor(lambda_hi);
    if (systemPower(activity, v) > p_target) {
        voltagesFor(lambda_lo);
        if (systemPower(activity, v) < p_target) {
            double lo = lambda_lo;
            double hi = lambda_hi;
            for (int iter = 0; iter < 100; ++iter) {
                double mid = 0.5 * (lo + hi);
                if (mid == lo || mid == hi)
                    break; // fixed point
                voltagesFor(mid);
                if (systemPower(activity, v) < p_target)
                    lo = mid;
                else
                    hi = mid;
            }
            voltagesFor(lo); // last budget-respecting lambda
        }
        // else: even v_min everywhere exceeds the budget; report the
        // clamped floor point (the regulator cannot go lower).
    }
    // else: the budget is a surplus even at v_max everywhere.

    point.v = v;
    point.power = systemPower(activity, v);
    point.ips = activeIps(activity, v);
    std::vector<double> v_nom(n, p.v_nom);
    double ips_nom = activeIps(activity, v_nom);
    if (ips_nom > 0.0)
        point.speedup = point.ips / ips_nom;
    const double kEps = 1e-6;
    for (int k = 0; k < n; ++k)
        if (activity.active[k] > 0 &&
            (v[k] <= p.v_min + kEps || v[k] >= p.v_max - kEps))
            point.clamped = true;
    return point;
}

} // namespace aaws
