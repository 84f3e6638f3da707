#include "model/cluster_opt.h"

#include <algorithm>

#include "common/logging.h"

namespace aaws {

namespace {

/** Upper search bound for unconstrained voltages (well past any optimum). */
constexpr double kUnconstrainedVMax = 8.0;

/** Does any active cluster's voltage sit at v_min or v_max? */
bool
anyClamped(const ClusterActivity &activity, const std::vector<double> &v,
           const ModelParams &p)
{
    const double kEps = 1e-6;
    for (size_t k = 0; k < v.size(); ++k)
        if (activity.active[k] > 0 &&
            (v[k] <= p.v_min + kEps || v[k] >= p.v_max - kEps))
            return true;
    return false;
}

} // namespace

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
    point.clamped = anyClamped(activity, v, p);
    return point;
}

double
ClusterOptimizer::solveVoltageForPower(const ClusterParams &params, int n,
                                       double budget, double lo,
                                       double hi) const
{
    AAWS_ASSERT(n > 0, "no cores to solve for");
    if (n * model_.activePower(params, lo) >= budget)
        return lo;
    if (n * model_.activePower(params, hi) <= budget)
        return hi;
    // activePower is strictly increasing in V over the search range.
    // Once the midpoint rounds to an endpoint, every further halving is
    // a no-op: each endpoint stays on its side of the test.
    for (int iter = 0; iter < 80; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            break;
        if (n * model_.activePower(params, mid) < budget)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

ClusterOperatingPoint
ClusterOptimizer::solveTwoCluster(const ClusterActivity &activity,
                                  double p_target, bool feasible) const
{
    AAWS_ASSERT(topology_.numClusters() == 2 &&
                    activity.active.size() == 2 &&
                    activity.waiting.size() == 2,
                "the two-cluster search needs a two-cluster census");
    const ModelParams &p = model_.params();
    const ClusterParams &big = topology_.cluster(0).params;
    const ClusterParams &little = topology_.cluster(1).params;
    // Read the census once: the searches below stay scalar.
    const int big_active = activity.active[0];
    const int little_active = activity.active[1];
    const int big_waiting = activity.waiting[0];
    const int little_waiting = activity.waiting[1];

    // Section II's term order (active big, active little, then the
    // resting cores), which the big/little tables' bits depend on.
    auto systemPower = [&](double v_big, double v_little) {
        return big_active * model_.activePower(big, v_big) +
               little_active * model_.activePower(little, v_little) +
               big_waiting * model_.waitingPower(big, p.v_min) +
               little_waiting * model_.waitingPower(little, p.v_min);
    };
    auto activeIps = [&](double v_big, double v_little) {
        return big_active * model_.ips(big, v_big) +
               little_active * model_.ips(little, v_little);
    };

    ClusterOperatingPoint best;
    best.v.assign(2, 0.0);

    double rest_power = big_waiting * model_.waitingPower(big, p.v_min) +
                        little_waiting *
                            model_.waitingPower(little, p.v_min);
    double active_budget = p_target - rest_power;

    double lo = feasible ? p.v_min : model_.voltageFloor();
    double hi = feasible ? p.v_max : kUnconstrainedVMax;

    // Nominal throughput of the same active set, for the speedup metric.
    double ips_nom = activeIps(p.v_nom, p.v_nom);

    if (big_active == 0 && little_active == 0)
        return best;

    auto evaluate = [&](double v_big, double v_little) {
        double power = systemPower(v_big, v_little);
        if (power > p_target * (1.0 + 1e-9))
            return; // infeasible under the power budget
        double ips = activeIps(v_big, v_little);
        if (ips > best.ips) {
            best.v[0] = v_big;
            best.v[1] = v_little;
            best.ips = ips;
            best.power = power;
        }
    };

    if (little_active == 0) {
        // Only big cores active: spend the whole budget on them.
        evaluate(solveVoltageForPower(big, big_active, active_budget, lo,
                                      hi),
                 0.0);
    } else if (big_active == 0) {
        evaluate(0.0, solveVoltageForPower(little, little_active,
                                           active_budget, lo, hi));
    } else {
        // Both clusters active: one-dimensional search over V_B; V_L
        // follows from the residual power budget.  IPS(V_B) is
        // unimodal, so a coarse grid plus golden-section refinement is
        // robust.
        auto v_little_for = [&](double v_big) {
            double budget = active_budget -
                            big_active * model_.activePower(big, v_big);
            if (budget <= little_active * model_.activePower(little, lo))
                return lo;
            return solveVoltageForPower(little, little_active, budget, lo,
                                        hi);
        };
        auto score = [&](double v_big) {
            double v_l = v_little_for(v_big);
            double power = systemPower(v_big, v_l);
            if (power > p_target * (1.0 + 1e-6))
                return -1.0; // even V_L at its floor exceeds the budget
            return activeIps(v_big, v_l);
        };

        constexpr int kGrid = 256;
        double best_v = lo;
        double best_score = -1.0;
        for (int i = 0; i <= kGrid; ++i) {
            double v = lo + (hi - lo) * i / kGrid;
            double s = score(v);
            if (s > best_score) {
                best_score = s;
                best_v = v;
            }
        }
        // Golden-section refinement around the best grid cell.
        double a = std::max(lo, best_v - (hi - lo) / kGrid);
        double b = std::min(hi, best_v + (hi - lo) / kGrid);
        constexpr double kInvPhi = 0.6180339887498949;
        double c = b - kInvPhi * (b - a);
        double d = a + kInvPhi * (b - a);
        double fc = score(c);
        double fd = score(d);
        for (int iter = 0; iter < 60; ++iter) {
            if (fc > fd) {
                b = d;
                d = c;
                fd = fc;
                c = b - kInvPhi * (b - a);
                fc = score(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + kInvPhi * (b - a);
                fd = score(d);
            }
        }
        double v_big = 0.5 * (a + b);
        evaluate(v_big, v_little_for(v_big));
    }

    if (ips_nom > 0.0)
        best.speedup = best.ips / ips_nom;
    best.clamped = feasible && anyClamped(activity, best.v, p);
    return best;
}

} // namespace aaws
