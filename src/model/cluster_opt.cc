#include "model/cluster_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace aaws {

namespace {

/** Upper search bound for unconstrained voltages (well past any optimum). */
constexpr double kUnconstrainedVMax = 8.0;

/** A guess that leaves fixedPointSearch on the plain bisection. */
constexpr double kNoGuess = std::numeric_limits<double>::quiet_NaN();

/** Adjacent doubles where a fixed-point search's predicate switches. */
struct Bracket
{
    double lo;
    double hi;
};

/**
 * Where `below` switches from true to false between lo and hi.
 *
 * Needs below(lo) true and below(hi) false.  Bisecting [lo, hi] until
 * the midpoint rounds to an endpoint stops on adjacent doubles
 * (a, next(a)) with below(a) true and below(next(a)) false.  If below
 * is monotone over the doubles of [lo, hi], that pair is unique, so any
 * search that keeps such a bracket and bisects it to the fixed point
 * stops on it.  A guess inside (lo, hi) shrinks the bracket first: the
 * search gallops from it, 4 ulps and then eight times as far at each
 * step, on the side below points to, until below flips.  The guess
 * sets only the number of evaluations; kNoGuess, or any guess outside
 * (lo, hi), runs the plain bisection, which a predicate that is not
 * monotone needs.
 */
template <typename Below>
Bracket
fixedPointSearch(double lo, double hi, double guess, const Below &below)
{
    AAWS_ASSERT(lo < hi, "search bracket [%g, %g] is empty", lo, hi);
    if (guess > lo && guess < hi) {
        double step = 4.0 * (std::nextafter(guess, hi) - guess);
        if (below(guess)) {
            lo = guess;
            for (double x = lo + step; x < hi; x = lo + step) {
                if (!below(x)) {
                    hi = x;
                    break;
                }
                lo = x;
                step *= 8.0;
            }
        } else {
            hi = guess;
            for (double x = hi - step; x > lo; x = hi - step) {
                if (below(x)) {
                    lo = x;
                    break;
                }
                hi = x;
                step *= 8.0;
            }
        }
    }
    // The midpoint of two doubles with another between them rounds to
    // a double strictly inside, so this ends on an adjacent pair.
    for (;;) {
        double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi)
            return {lo, hi};
        if (below(mid))
            lo = mid;
        else
            hi = mid;
    }
}

/**
 * Root of f on [lo, hi] by Illinois regula falsi (the end that stays
 * put twice has its value halved, so both ends close in); NaN unless
 * f(lo) < 0 < f(hi).
 */
template <typename F>
double
regulaFalsi(double lo, double hi, const F &f)
{
    double f_lo = f(lo);
    double f_hi = f(hi);
    if (!(f_lo < 0.0 && f_hi > 0.0))
        return kNoGuess;
    double x = kNoGuess;
    int moved = 0; // -1: lo moved last step, +1: hi did
    for (int iter = 0; iter < 64; ++iter) {
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo);
        if (!(x > lo && x < hi))
            break;
        double f_x = f(x);
        if (f_x < 0.0) {
            lo = x;
            f_lo = f_x;
            if (moved == -1)
                f_hi *= 0.5;
            moved = -1;
        } else if (f_x > 0.0) {
            hi = x;
            f_hi = f_x;
            if (moved == 1)
                f_lo *= 0.5;
            moved = 1;
        } else {
            break;
        }
    }
    return x;
}

/**
 * Closed-form inverse of marginalCost, clamped to [v_min, v_max]:
 * marginalCost(v) = lambda is 3 k1 v^2 + 2 k2 v + q = 0 with
 * q = (I_leak - lambda ipc k1) / (ec ipc), and v its larger root.
 */
double
closedFormVoltage(const FirstOrderModel &model, const ClusterParams &params,
                  double lambda)
{
    const ModelParams &p = model.params();
    double q = (model.leakCurrent(params) - lambda * params.ipc * p.k1) /
               (params.energy_coeff * params.ipc);
    double disc = 4.0 * p.k2 * p.k2 - 12.0 * p.k1 * q;
    double root = (-2.0 * p.k2 + std::sqrt(std::max(disc, 0.0))) /
                  (6.0 * p.k1);
    return std::clamp(root, p.v_min, p.v_max);
}

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
    if (model_.marginalCost(params, p.v_min) >= lambda)
        return p.v_min;
    if (model_.marginalCost(params, p.v_max) <= lambda)
        return p.v_max;
    // marginalCost rises on [v_min, v_max] (its stationary point
    // -k2/(3 k1) lies far below v_min), but not monotonically in its
    // last bits: 3 k1 v^2 + 2 k2 v cancels, and for the big class it
    // falls from 5.8000974986915539 at v = 0.99607236895571016 to
    // 5.800097498691553 at the next double.  A bracket found from a
    // guess could stop on another switch than the bisection's, so this
    // inversion keeps the plain bisection from [v_min, v_max].
    Bracket bracket = fixedPointSearch(
        p.v_min, p.v_max, kNoGuess, [&](double v) {
            return model_.marginalCost(params, v) < lambda;
        });
    return 0.5 * (bracket.lo + bracket.hi);
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
    // marginal cost lambda; search lambda until total power meets the
    // budget.
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
            // Power is monotone in lambda although marginalCost is not:
            // two lambdas share voltageForMarginalCost's bisection path
            // up to the first midpoint that tells them apart, and there
            // the larger one goes up.  So each cluster's voltage is
            // monotone in lambda, and systemPower sums terms monotone in
            // the voltages in a fixed order, so a guess may seed the
            // search: the lambda at which the closed-form voltages meet
            // the budget.
            std::vector<double> v_closed(n, 0.0);
            double guess = regulaFalsi(
                lambda_lo, lambda_hi, [&](double lambda) {
                    for (int k = 0; k < n; ++k)
                        if (activity.active[k] > 0)
                            v_closed[k] = closedFormVoltage(
                                model_, topology_.cluster(k).params,
                                lambda);
                    return systemPower(activity, v_closed) - p_target;
                });
            Bracket bracket = fixedPointSearch(
                lambda_lo, lambda_hi, guess, [&](double lambda) {
                    voltagesFor(lambda);
                    return systemPower(activity, v) < p_target;
                });
            voltagesFor(bracket.lo); // last budget-respecting lambda
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
    double p_hi = n * model_.activePower(params, hi);
    if (p_hi <= budget)
        return hi;
    // n activePower(v) < budget is monotone in v: activePower is a chain
    // of rounded products and sums of terms that are positive and
    // increasing above voltageFloor() (the lowest lo either range
    // uses), and rounding to nearest is monotone in each operand.  So
    // Newton's method may seed the search: n activePower(v) - budget is
    // convex and increasing there, so from hi it descends onto the
    // root.  dP/dV is marginalCost times dIPS/dV = ipc k1.
    double excess = p_hi - budget;
    const double dips_dv = params.ipc * model_.params().k1;
    double guess = hi;
    for (int iter = 0; iter < 64; ++iter) {
        double step = excess / (n * dips_dv *
                                model_.marginalCost(params, guess));
        guess -= step;
        if (!(std::fabs(step) > 1e-15 * guess))
            break;
        excess = n * model_.activePower(params, guess) - budget;
    }
    Bracket bracket = fixedPointSearch(lo, hi, guess, [&](double v) {
        return n * model_.activePower(params, v) < budget;
    });
    return 0.5 * (bracket.lo + bracket.hi);
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
