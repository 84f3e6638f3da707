#include "model/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aaws {

namespace {

/** Upper search bound for unconstrained voltages (well past any optimum). */
constexpr double kUnconstrainedVMax = 8.0;

} // namespace

MarginalUtilityOptimizer::MarginalUtilityOptimizer(
        const FirstOrderModel &model)
    : model_(model)
{
}

double
MarginalUtilityOptimizer::targetPower(const CoreActivity &activity) const
{
    return model_.powerTarget(activity.totalBig(), activity.totalLittle());
}

double
MarginalUtilityOptimizer::systemPower(const CoreActivity &activity,
                                      double v_big, double v_little) const
{
    double v_rest = model_.params().v_min;
    return activity.n_big_active * model_.activePower(CoreType::big, v_big) +
           activity.n_little_active *
               model_.activePower(CoreType::little, v_little) +
           activity.n_big_waiting *
               model_.waitingPower(CoreType::big, v_rest) +
           activity.n_little_waiting *
               model_.waitingPower(CoreType::little, v_rest);
}

double
MarginalUtilityOptimizer::activeIps(const CoreActivity &activity,
                                    double v_big, double v_little) const
{
    return activity.n_big_active * model_.ips(CoreType::big, v_big) +
           activity.n_little_active *
               model_.ips(CoreType::little, v_little);
}

double
MarginalUtilityOptimizer::solveVoltageForPower(CoreType type, int n,
                                               double budget, double lo,
                                               double hi) const
{
    AAWS_ASSERT(n > 0, "no cores to solve for");
    if (n * model_.activePower(type, lo) >= budget)
        return lo;
    if (n * model_.activePower(type, hi) <= budget)
        return hi;
    // activePower is strictly increasing in V over the search range.
    // Once the midpoint rounds to an endpoint, every further halving is
    // a no-op: each endpoint stays on its side of the test.
    for (int iter = 0; iter < 80; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            break;
        if (n * model_.activePower(type, mid) < budget)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

OperatingPoint
MarginalUtilityOptimizer::solve(const CoreActivity &activity,
                                double p_target, bool feasible) const
{
    const ModelParams &p = model_.params();
    OperatingPoint best;

    double rest_power =
        activity.n_big_waiting * model_.waitingPower(CoreType::big, p.v_min) +
        activity.n_little_waiting *
            model_.waitingPower(CoreType::little, p.v_min);
    double active_budget = p_target - rest_power;

    double lo = feasible ? p.v_min : model_.voltageFloor();
    double hi = feasible ? p.v_max : kUnconstrainedVMax;

    // Nominal throughput of the same active set, for the speedup metric.
    double ips_nom = activeIps(activity, p.v_nom, p.v_nom);

    if (activity.n_big_active == 0 && activity.n_little_active == 0)
        return best;

    auto evaluate = [&](double v_big, double v_little) {
        double power = systemPower(activity, v_big, v_little);
        if (power > p_target * (1.0 + 1e-9))
            return; // infeasible under the power budget
        double ips = activeIps(activity, v_big, v_little);
        if (ips > best.ips) {
            best.v_big = v_big;
            best.v_little = v_little;
            best.ips = ips;
            best.power = power;
        }
    };

    if (activity.n_little_active == 0) {
        // Only big cores active: spend the whole budget on them.
        double v = solveVoltageForPower(CoreType::big, activity.n_big_active,
                                        active_budget, lo, hi);
        evaluate(v, 0.0);
    } else if (activity.n_big_active == 0) {
        double v = solveVoltageForPower(CoreType::little,
                                        activity.n_little_active,
                                        active_budget, lo, hi);
        evaluate(0.0, v);
    } else {
        // Both types active: one-dimensional search over V_B; V_L follows
        // from the residual power budget.  IPS(V_B) is unimodal, so a
        // coarse grid plus golden-section refinement is robust.
        auto v_little_for = [&](double v_big) {
            double budget = active_budget - activity.n_big_active *
                                model_.activePower(CoreType::big, v_big);
            double v_l_lo = feasible ? p.v_min : model_.voltageFloor();
            double v_l_hi = feasible ? p.v_max : kUnconstrainedVMax;
            if (budget <= activity.n_little_active *
                              model_.activePower(CoreType::little, v_l_lo)) {
                return v_l_lo;
            }
            return solveVoltageForPower(CoreType::little,
                                        activity.n_little_active, budget,
                                        v_l_lo, v_l_hi);
        };
        auto score = [&](double v_big) {
            double v_l = v_little_for(v_big);
            double power = systemPower(activity, v_big, v_l);
            if (power > p_target * (1.0 + 1e-6))
                return -1.0; // even V_L at its floor exceeds the budget
            return activeIps(activity, v_big, v_l);
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
    const double kEps = 1e-6;
    best.clamped =
        feasible &&
        ((activity.n_big_active > 0 &&
          (best.v_big <= p.v_min + kEps || best.v_big >= p.v_max - kEps)) ||
         (activity.n_little_active > 0 &&
          (best.v_little <= p.v_min + kEps ||
           best.v_little >= p.v_max - kEps)));
    return best;
}

} // namespace aaws
