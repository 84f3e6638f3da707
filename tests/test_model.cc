/**
 * @file
 * Tests of the Section II first-order model and marginal-utility
 * optimizer against the paper's published operating points:
 *
 *  - HP 4B4L all-active: optimal (0.86 V, 1.44 V) -> 1.12x; feasible
 *    (0.93 V, 1.30 V) -> 1.10x.
 *  - LP 4B4L with 2B2L active: optimal (1.02 V, 1.70 V) -> 1.55x;
 *    feasible (1.16 V, 1.30 V) -> 1.45x.
 *  - Single remaining task: little optimal 2.59 V, feasible V_max ->
 *    ~1.6x; big optimal 1.51 V, feasible V_max -> ~3.3x vs little@V_N.
 *
 * Tolerances reflect that the paper does not publish its exact waiting
 * power model (see ModelParams::waiting_activity).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "energy/accountant.h"
#include "model/cluster_opt.h"
#include "model/first_order.h"
#include "model/pareto.h"
#include "model/surface.h"

namespace aaws {
namespace {

/** Section II's big and little classes under the default parameters. */
const ClusterParams kBig = clusterParamsFor('b', ModelParams{});
const ClusterParams kLittle = clusterParamsFor('l', ModelParams{});

TEST(VfModel, NominalFrequencyIs333MHz)
{
    FirstOrderModel model;
    EXPECT_NEAR(model.freq(1.0), 333e6, 1e6);
}

TEST(VfModel, LinearAndInvertible)
{
    FirstOrderModel model;
    for (double v = 0.7; v <= 1.3; v += 0.1) {
        double f = model.freq(v);
        EXPECT_NEAR(model.voltageFor(f), v, 1e-12);
    }
}

TEST(VfModel, FrequencyIncreasesWithVoltage)
{
    FirstOrderModel model;
    EXPECT_LT(model.freq(0.7), model.freq(1.0));
    EXPECT_LT(model.freq(1.0), model.freq(1.3));
}

TEST(FirstOrder, BigCoreFasterAndHungrier)
{
    FirstOrderModel model;
    EXPECT_NEAR(model.ips(kBig, 1.0) / model.ips(kLittle, 1.0), 2.0,
                1e-12); // beta
    double e_big = model.activePower(kBig, 1.0) / model.ips(kBig, 1.0);
    double e_little =
        model.activePower(kLittle, 1.0) / model.ips(kLittle, 1.0);
    // Energy per instruction ratio approximates alpha = 3 (leakage
    // shifts it slightly).
    EXPECT_NEAR(e_big / e_little, 3.0, 0.4);
}

TEST(FirstOrder, LeakageCalibration)
{
    // Section II's definitions, written out from ModelParams: a big
    // core's dynamic power at nominal is alpha*alpha_L * beta*IPC_L *
    // f_N * V_N^2, its leakage takes lambda of its total nominal power,
    // and a little core leaks gamma of the big core's current.
    FirstOrderModel model;
    const ModelParams &p = model.params();
    double big_dyn_nom = p.alpha * p.alpha_little * p.beta * p.ipc_little *
                         p.fNom() * p.v_nom * p.v_nom;
    double big_leak = p.lambda / (1.0 - p.lambda) * big_dyn_nom / p.v_nom;
    EXPECT_NEAR(model.leakCurrent(kBig), big_leak, 1e-12 * big_leak);
    EXPECT_NEAR(model.leakCurrent(kLittle), p.gamma * big_leak,
                1e-12 * big_leak);
    // Big-core leakage power at nominal is lambda of total power.
    double leak_power = p.v_nom * model.leakCurrent(kBig);
    double total = model.nominalPower(kBig);
    EXPECT_NEAR(leak_power / total, p.lambda, 1e-9);
}

TEST(FirstOrder, WaitingPowerBelowActive)
{
    FirstOrderModel model;
    for (double v : {0.7, 1.0, 1.3}) {
        EXPECT_LT(model.waitingPower(kBig, v), model.activePower(kBig, v));
        EXPECT_LT(model.waitingPower(kLittle, v),
                  model.activePower(kLittle, v));
    }
}

TEST(FirstOrder, MarginalCostMatchesFiniteDifference)
{
    FirstOrderModel model;
    for (const ClusterParams &cp : {kBig, kLittle}) {
        for (double v : {0.8, 1.0, 1.2}) {
            double h = 1e-6;
            double dp =
                model.activePower(cp, v + h) - model.activePower(cp, v - h);
            double dips = model.ips(cp, v + h) - model.ips(cp, v - h);
            EXPECT_NEAR(model.marginalCost(cp, v), dp / dips,
                        1e-4 * model.marginalCost(cp, v));
        }
    }
}

TEST(FirstOrder, PowerTargetIsEq6)
{
    FirstOrderModel model;
    CoreTopology machine = makeTopology("4b4l", model.params());
    ClusterOptimizer opt(model, machine);
    double expected =
        4 * model.nominalPower(kBig) + 4 * model.nominalPower(kLittle);
    // Eq. 6 counts every core, active or waiting.
    EXPECT_DOUBLE_EQ(opt.targetPower({{4, 4}, {0, 0}}), expected);
    EXPECT_DOUBLE_EQ(opt.targetPower({{1, 2}, {3, 2}}), expected);
}

// --- Eq. 4 property tests --------------------------------------------------

TEST(Eq4Power, MatchesClosedFormDecomposition)
{
    // Eq. 4 verbatim: P(V) = alpha_T * IPC_T * f(V) * V^2  +  V * I_leak,
    // with each class's coefficients written out from ModelParams.
    FirstOrderModel model;
    const ModelParams &p = model.params();
    const struct
    {
        const char *name;
        const ClusterParams &cp;
        double energy_coeff;
        double ipc;
    } classes[] = {
        {"big", kBig, p.alpha * p.alpha_little, p.beta * p.ipc_little},
        {"little", kLittle, p.alpha_little, p.ipc_little},
    };
    for (const auto &c : classes) {
        for (double v = p.v_min; v <= p.v_max + 1e-9; v += 0.05) {
            double dynamic = c.energy_coeff * c.ipc * model.freq(v) * v * v;
            double leak = v * model.leakCurrent(c.cp);
            EXPECT_NEAR(model.activePower(c.cp, v), dynamic + leak,
                        1e-12 * (dynamic + leak))
                << c.name << " at " << v << " V";
        }
    }
}

TEST(Eq4Power, StrictlyMonotoneInVoltage)
{
    // Over the feasible DVFS range both Eq. 4 power forms and the Eq. 2
    // throughput are strictly increasing in V: higher supply always buys
    // speed and always costs power, on both core classes.
    FirstOrderModel model;
    const ModelParams &p = model.params();
    const int steps = 200;
    double dv = (p.v_max - p.v_min) / steps;
    for (char kind : {'b', 'l'}) {
        ClusterParams cp = clusterParamsFor(kind, p);
        const char *name = clusterKindName(kind);
        for (int i = 0; i < steps; ++i) {
            double v = p.v_min + i * dv;
            double next = v + dv;
            EXPECT_LT(model.activePower(cp, v), model.activePower(cp, next))
                << name << " activePower at " << v;
            EXPECT_LT(model.waitingPower(cp, v),
                      model.waitingPower(cp, next))
                << name << " waitingPower at " << v;
            EXPECT_LT(model.ips(cp, v), model.ips(cp, next))
                << name << " ips at " << v;
        }
    }
}

TEST(Eq4Power, BigPowerIsHomogeneousInAlpha)
{
    // Both big-core terms of Eq. 4 scale with alpha: the dynamic
    // coefficient directly, and the leakage current through the
    // lambda-fraction calibration against total nominal power.  Big-core
    // power is therefore exactly linear (degree-1 homogeneous) in alpha,
    // while throughput and the little core never see alpha at all.
    ModelParams base;
    FirstOrderModel reference(base);
    for (double scale : {0.5, 2.0, 3.3}) {
        ModelParams scaled_params = base;
        scaled_params.alpha = base.alpha * scale;
        FirstOrderModel scaled(scaled_params);
        ClusterParams scaled_big = clusterParamsFor('b', scaled_params);
        for (double v : {0.7, 0.85, 1.0, 1.15, 1.3}) {
            double want = scale * reference.activePower(kBig, v);
            EXPECT_NEAR(scaled.activePower(scaled_big, v), want,
                        1e-12 * want)
                << "alpha x" << scale << " at " << v << " V";
            EXPECT_NEAR(scaled.waitingPower(scaled_big, v),
                        scale * reference.waitingPower(kBig, v),
                        1e-12 * want);
            // alpha is an energy parameter: it must not change speed.
            EXPECT_DOUBLE_EQ(scaled.ips(scaled_big, v),
                             reference.ips(kBig, v));
            // The little core's *dynamic* power never sees alpha; its
            // leakage current is gamma-coupled to the big core's, so it
            // scales along with alpha.
            double little_dyn = reference.activePower(kLittle, v) -
                                v * reference.leakCurrent(kLittle);
            double little_want =
                little_dyn + scale * v * reference.leakCurrent(kLittle);
            EXPECT_NEAR(scaled.activePower(kLittle, v), little_want,
                        1e-12 * little_want);
            EXPECT_DOUBLE_EQ(scaled.ips(kLittle, v),
                             reference.ips(kLittle, v));
        }
    }
}

TEST(Eq4Power, AccountantAgreesOnConstantPowerTrace)
{
    // A core held in one state at one voltage for T seconds must be
    // charged exactly P * T: the accountant is a timeline integrator
    // over Eq. 4, with no hidden discretization.
    FirstOrderModel model;
    for (const char *shape : {"1b", "1l"}) {
        CoreTopology machine = makeTopology(shape, model.params());
        const ClusterParams &cp = machine.cluster(0).params;
        for (double v : {0.7, 1.0, 1.3}) {
            EnergyAccountant acc(model, machine);
            acc.setState(0, 0.0, PowerState::active, v);
            acc.finish(2.5);
            double want = model.activePower(cp, v) * 2.5;
            EXPECT_NEAR(acc.totalEnergy(), want, 1e-12 * want)
                << shape << " at " << v << " V";
            EXPECT_DOUBLE_EQ(acc.waitingEnergy(), 0.0);
            EXPECT_NEAR(acc.averagePower(), model.activePower(cp, v),
                        1e-12 * model.activePower(cp, v));
        }
    }
}

TEST(Eq4Power, AccountantAgreesOnPiecewiseConstantTrace)
{
    // Multi-segment timeline: active at V_N, waiting at v_min, then off.
    // Each segment charges at the setting that was in force when it
    // started, and the splits land in the right buckets.
    FirstOrderModel model;
    const ModelParams &p = model.params();
    EnergyAccountant acc(model, makeTopology("1b1l", p));

    acc.setState(0, 0.0, PowerState::active, p.v_nom);
    acc.setState(0, 1.0, PowerState::waiting, p.v_min);
    acc.setState(0, 1.75, PowerState::off, p.v_min);

    acc.setState(1, 0.0, PowerState::waiting, p.v_min);
    acc.setState(1, 0.5, PowerState::active, p.v_max);
    acc.finish(2.0);

    double big_active = model.activePower(kBig, p.v_nom) * 1.0;
    double big_waiting = model.waitingPower(kBig, p.v_min) * 0.75;
    double little_waiting = model.waitingPower(kLittle, p.v_min) * 0.5;
    double little_active = model.activePower(kLittle, p.v_max) * 1.5;

    const CoreEnergy &big = acc.coreEnergy(0);
    EXPECT_NEAR(big.active, big_active, 1e-12 * big_active);
    EXPECT_NEAR(big.waiting, big_waiting, 1e-12 * big_waiting);
    const CoreEnergy &little = acc.coreEnergy(1);
    EXPECT_NEAR(little.active, little_active, 1e-12 * little_active);
    EXPECT_NEAR(little.waiting, little_waiting, 1e-12 * little_waiting);

    double total =
        big_active + big_waiting + little_active + little_waiting;
    EXPECT_NEAR(acc.totalEnergy(), total, 1e-12 * total);
    EXPECT_NEAR(acc.waitingEnergy(), big_waiting + little_waiting,
                1e-12 * (big_waiting + little_waiting));
    EXPECT_NEAR(acc.averagePower(), total / 2.0, 1e-12 * total);
}

/** The two-cluster search on the paper's 4B4L machine. */
class OptimizerFixture : public ::testing::Test
{
  protected:
    /** Eq. 6's target of the whole machine. */
    double
    fullTarget() const
    {
        return opt_.targetPower({{4, 4}, {0, 0}});
    }

    FirstOrderModel model_;
    CoreTopology machine_ = makeTopology("4b4l", model_.params());
    ClusterOptimizer opt_{model_, machine_};
};

TEST_F(OptimizerFixture, HpOptimalMatchesPaper)
{
    ClusterActivity hp{{4, 4}, {0, 0}};
    ClusterOperatingPoint point =
        opt_.solveTwoCluster(hp, opt_.targetPower(hp), /*feasible=*/false);
    EXPECT_NEAR(point.v[0], 0.86, 0.05);
    EXPECT_NEAR(point.v[1], 1.44, 0.08);
    EXPECT_NEAR(point.speedup, 1.12, 0.02);
    // Law of Equi-Marginal Utility holds at the unconstrained optimum.
    EXPECT_NEAR(model_.marginalCost(kBig, point.v[0]),
                model_.marginalCost(kLittle, point.v[1]),
                0.02 * model_.marginalCost(kBig, point.v[0]));
}

TEST_F(OptimizerFixture, HpFeasibleMatchesPaper)
{
    ClusterActivity hp{{4, 4}, {0, 0}};
    ClusterOperatingPoint point =
        opt_.solveTwoCluster(hp, opt_.targetPower(hp), /*feasible=*/true);
    EXPECT_NEAR(point.v[0], 0.93, 0.03);
    EXPECT_NEAR(point.v[1], 1.30, 1e-6); // clamped at V_max
    EXPECT_NEAR(point.speedup, 1.10, 0.02);
    EXPECT_TRUE(point.clamped);
}

TEST_F(OptimizerFixture, LpOptimalMatchesPaper)
{
    ClusterActivity lp{{2, 2}, {2, 2}};
    ClusterOperatingPoint point =
        opt_.solveTwoCluster(lp, fullTarget(), /*feasible=*/false);
    EXPECT_NEAR(point.v[0], 1.02, 0.05);
    EXPECT_NEAR(point.v[1], 1.70, 0.08);
    EXPECT_NEAR(point.speedup, 1.55, 0.02);
}

TEST_F(OptimizerFixture, LpFeasibleMatchesPaper)
{
    ClusterActivity lp{{2, 2}, {2, 2}};
    ClusterOperatingPoint point =
        opt_.solveTwoCluster(lp, fullTarget(), /*feasible=*/true);
    EXPECT_NEAR(point.v[0], 1.16, 0.03);
    EXPECT_NEAR(point.v[1], 1.30, 1e-6);
    EXPECT_NEAR(point.speedup, 1.45, 0.02);
}

TEST_F(OptimizerFixture, SingleTaskOnLittleMatchesPaper)
{
    ClusterActivity act{{0, 1}, {4, 3}};
    ClusterOperatingPoint optimal =
        opt_.solveTwoCluster(act, fullTarget(), /*feasible=*/false);
    EXPECT_NEAR(optimal.v[1], 2.59, 0.12);
    ClusterOperatingPoint feasible =
        opt_.solveTwoCluster(act, fullTarget(), /*feasible=*/true);
    EXPECT_NEAR(feasible.v[1], 1.30, 1e-6);
    // f(1.3)/f(1.0): the paper rounds 1.66 down to "1.6x".
    EXPECT_NEAR(feasible.speedup, 1.66, 0.02);
}

TEST_F(OptimizerFixture, SingleTaskOnBigMatchesPaper)
{
    ClusterActivity act{{1, 0}, {3, 4}};
    ClusterOperatingPoint optimal =
        opt_.solveTwoCluster(act, fullTarget(), /*feasible=*/false);
    EXPECT_NEAR(optimal.v[0], 1.51, 0.05);
    ClusterOperatingPoint feasible =
        opt_.solveTwoCluster(act, fullTarget(), /*feasible=*/true);
    double vs_little_nominal = feasible.ips / model_.ips(kLittle, 1.0);
    EXPECT_NEAR(vs_little_nominal, 3.3, 0.05);
}

TEST_F(OptimizerFixture, SolutionRespectsPowerBudget)
{
    for (int ba = 0; ba <= 4; ++ba) {
        for (int la = 0; la <= 4; ++la) {
            if (ba == 0 && la == 0)
                continue;
            ClusterActivity act{{ba, la}, {4 - ba, 4 - la}};
            double target = opt_.targetPower(act);
            ClusterOperatingPoint point =
                opt_.solveTwoCluster(act, target, true);
            EXPECT_LE(point.power, target * (1.0 + 1e-6))
                << "ba=" << ba << " la=" << la;
        }
    }
}

TEST_F(OptimizerFixture, OptimumBeatsNeighbors)
{
    // Property: perturbing the optimal solution along the isopower
    // constraint never improves throughput.
    ClusterActivity hp{{4, 4}, {0, 0}};
    double target = opt_.targetPower(hp);
    ClusterOperatingPoint point = opt_.solveTwoCluster(hp, target, false);
    for (double dv : {-0.02, -0.005, 0.005, 0.02}) {
        double v_big = point.v[0] + dv;
        // Re-solve v_little for the same power.
        double lo = 0.56, hi = 8.0;
        for (int i = 0; i < 60; ++i) {
            double mid = 0.5 * (lo + hi);
            if (opt_.systemPower(hp, {v_big, mid}) < target)
                lo = mid;
            else
                hi = mid;
        }
        double v_little = 0.5 * (lo + hi);
        EXPECT_LE(opt_.activeIps(hp, {v_big, v_little}),
                  point.ips * (1.0 + 1e-6));
    }
}

TEST_F(OptimizerFixture, NoActiveCoresGivesZero)
{
    ClusterActivity act{{0, 0}, {4, 4}};
    ClusterOperatingPoint point =
        opt_.solveTwoCluster(act, opt_.targetPower(act), true);
    EXPECT_EQ(point.ips, 0.0);
}

/** Reference: solveVoltageForPower with all 80 halvings run. */
double
fixedCountVoltageForPower(const FirstOrderModel &model,
                          const ClusterParams &cp, int n, double budget,
                          double lo, double hi)
{
    if (n * model.activePower(cp, lo) >= budget)
        return lo;
    if (n * model.activePower(cp, hi) <= budget)
        return hi;
    for (int iter = 0; iter < 80; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (n * model.activePower(cp, mid) < budget)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

TEST_F(OptimizerFixture, VoltageForPowerMatchesTheFixedCountBisection)
{
    // Budgets span both clamped ends, on the feasible and unconstrained
    // ranges the optimizer searches; the early stop must change no bit.
    const ModelParams &p = model_.params();
    Rng rng(7);
    const double ranges[][2] = {{p.v_min, p.v_max},
                                {model_.voltageFloor(), 8.0}};
    for (const ClusterParams &cp : {kBig, kLittle}) {
        for (const auto &range : ranges) {
            for (int n = 1; n <= 4; ++n) {
                double p_lo = n * model_.activePower(cp, range[0]);
                double p_hi = n * model_.activePower(cp, range[1]);
                for (int i = 0; i < 500; ++i) {
                    double budget = rng.uniform(0.5 * p_lo, 1.5 * p_hi);
                    EXPECT_EQ(opt_.solveVoltageForPower(cp, n, budget,
                                                        range[0], range[1]),
                              fixedCountVoltageForPower(model_, cp, n,
                                                        budget, range[0],
                                                        range[1]))
                        << "n=" << n << " budget=" << budget;
                }
            }
        }
    }
    // Budgets at the predicate's own values, n * activePower(v) at
    // random v, and their neighbouring doubles: a seeded search that
    // stopped on another switch than the bisection's would show there.
    Rng at_switch(17);
    for (const ClusterParams &cp : {kBig, kLittle}) {
        for (const auto &range : ranges) {
            for (int n = 1; n <= 4; ++n) {
                for (int i = 0; i < 1000; ++i) {
                    double v = at_switch.uniform(range[0], range[1]);
                    double at = n * model_.activePower(cp, v);
                    for (double budget : {std::nextafter(at, 0.0), at,
                                          std::nextafter(at, INFINITY)})
                        EXPECT_EQ(opt_.solveVoltageForPower(
                                      cp, n, budget, range[0], range[1]),
                                  fixedCountVoltageForPower(
                                      model_, cp, n, budget, range[0],
                                      range[1]))
                            << "n=" << n << " budget=" << budget;
                }
            }
        }
    }
}

TEST(Pareto, UpperRightQuadrantExists)
{
    FirstOrderModel model;
    ParetoSweep sweep =
        paretoSweep(model, makeTopology("4b4l", model.params()), 12);
    // The paper's key observation: points with BOTH better performance
    // and better energy efficiency than nominal exist.
    bool upper_right = false;
    for (const auto &s : sweep.samples)
        upper_right |= s.perf > 1.0 && s.efficiency > 1.0;
    EXPECT_TRUE(upper_right);
}

TEST(Pareto, BestIsopowerBeatsNominal)
{
    FirstOrderModel model;
    ParetoSweep sweep =
        paretoSweep(model, makeTopology("4b4l", model.params()), 24);
    EXPECT_GT(sweep.best_isopower.perf, 1.05);
    EXPECT_LE(sweep.best_isopower.power, 1.0 + 1e-9);
    // Matches the feasible HP operating point within grid resolution.
    EXPECT_NEAR(sweep.best_isopower.v_little, 1.30, 0.03);
}

TEST(Pareto, FrontierIsNonDominated)
{
    FirstOrderModel model;
    ParetoSweep sweep =
        paretoSweep(model, makeTopology("2b2l", model.params()), 10);
    for (const auto &s : sweep.samples) {
        if (!s.pareto_optimal)
            continue;
        for (const auto &other : sweep.samples) {
            bool dominates = other.perf > s.perf &&
                             other.efficiency > s.efficiency;
            EXPECT_FALSE(dominates);
        }
    }
}

TEST(Pareto, IsopowerSamplesLieOnTheDiagonal)
{
    // At equal power, efficiency (IPS/W) scales exactly with
    // performance, so samples near power = 1 sit near eff = perf --
    // the diagonal isopower line of Figure 2.
    FirstOrderModel model;
    ParetoSweep sweep =
        paretoSweep(model, makeTopology("4b4l", model.params()), 30);
    int checked = 0;
    for (const auto &s : sweep.samples) {
        if (std::abs(s.power - 1.0) < 0.01) {
            EXPECT_NEAR(s.efficiency, s.perf, 0.02);
            checked++;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(Surface, SpeedupGrowsWithAlphaOverBeta)
{
    // Figure 4: marginal-utility benefit is largest when alpha/beta is
    // large (expensive big core, modest speedup).
    ModelParams base;
    CoreTopology busy = makeTopology("4b4l", base);
    auto cells = speedupSurface(base, busy, 2.0, 4.0, 2, 2.0, 2.0, 1);
    // cells: alpha in {2,3,4} x beta in {2,2}; dedupe beta by stride.
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_LT(cells[0].optimal_speedup, cells[4].optimal_speedup);
}

TEST(Surface, FeasibleNeverExceedsOptimal)
{
    ModelParams base;
    CoreTopology busy = makeTopology("4b4l", base);
    auto cells = speedupSurface(base, busy, 1.0, 5.0, 4, 1.0, 4.0, 3);
    for (const auto &cell : cells) {
        EXPECT_LE(cell.feasible_speedup,
                  cell.optimal_speedup * (1.0 + 1e-6));
        EXPECT_GE(cell.feasible_speedup, 1.0 - 1e-9);
    }
}

TEST(Surface, HomogeneousSystemGainsNothing)
{
    // With alpha = beta = 1 the "big" cores are identical to little
    // cores: the Law of Equi-Marginal Utility says run all at V_N.
    ModelParams base;
    CoreTopology busy = makeTopology("4b4l", base);
    auto cells = speedupSurface(base, busy, 1.0, 1.0, 1, 1.0, 1.0, 1);
    for (const auto &cell : cells)
        EXPECT_NEAR(cell.optimal_speedup, 1.0, 1e-3);
}

} // namespace
} // namespace aaws
