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

#include "common/rng.h"
#include "energy/accountant.h"
#include "model/first_order.h"
#include "model/optimizer.h"
#include <cmath>

#include "model/pareto.h"
#include "model/surface.h"

namespace aaws {
namespace {

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
    EXPECT_NEAR(model.ips(CoreType::big, 1.0) /
                    model.ips(CoreType::little, 1.0),
                2.0, 1e-12); // beta
    double e_big = model.activePower(CoreType::big, 1.0) /
                   model.ips(CoreType::big, 1.0);
    double e_little = model.activePower(CoreType::little, 1.0) /
                      model.ips(CoreType::little, 1.0);
    // Energy per instruction ratio approximates alpha = 3 (leakage
    // shifts it slightly).
    EXPECT_NEAR(e_big / e_little, 3.0, 0.4);
}

TEST(FirstOrder, LeakageCalibration)
{
    FirstOrderModel model;
    const ModelParams &p = model.params();
    // Big-core leakage power at nominal is lambda of total power.
    double leak_power = p.v_nom * model.leakCurrent(CoreType::big);
    double total = model.nominalPower(CoreType::big);
    EXPECT_NEAR(leak_power / total, p.lambda, 1e-9);
    // Little leakage current is gamma of big.
    EXPECT_NEAR(model.leakCurrent(CoreType::little) /
                    model.leakCurrent(CoreType::big),
                p.gamma, 1e-12);
}

TEST(FirstOrder, WaitingPowerBelowActive)
{
    FirstOrderModel model;
    for (double v : {0.7, 1.0, 1.3}) {
        EXPECT_LT(model.waitingPower(CoreType::big, v),
                  model.activePower(CoreType::big, v));
        EXPECT_LT(model.waitingPower(CoreType::little, v),
                  model.activePower(CoreType::little, v));
    }
}

TEST(FirstOrder, MarginalCostMatchesFiniteDifference)
{
    FirstOrderModel model;
    for (CoreType type : {CoreType::big, CoreType::little}) {
        for (double v : {0.8, 1.0, 1.2}) {
            double h = 1e-6;
            double dp = model.activePower(type, v + h) -
                        model.activePower(type, v - h);
            double dips = model.ips(type, v + h) - model.ips(type, v - h);
            EXPECT_NEAR(model.marginalCost(type, v), dp / dips,
                        1e-4 * model.marginalCost(type, v));
        }
    }
}

TEST(FirstOrder, PowerTargetIsEq6)
{
    FirstOrderModel model;
    double expected = 4 * model.nominalPower(CoreType::big) +
                      4 * model.nominalPower(CoreType::little);
    EXPECT_DOUBLE_EQ(model.powerTarget(4, 4), expected);
}

// --- Eq. 4 property tests --------------------------------------------------

TEST(Eq4Power, MatchesClosedFormDecomposition)
{
    // Eq. 4 verbatim: P(V) = alpha_T * IPC_T * f(V) * V^2  +  V * I_leak.
    FirstOrderModel model;
    const ModelParams &p = model.params();
    for (CoreType type : {CoreType::big, CoreType::little}) {
        for (double v = p.v_min; v <= p.v_max + 1e-9; v += 0.05) {
            double dynamic =
                p.energyCoeff(type) * p.ipc(type) * model.freq(v) * v * v;
            double leak = v * model.leakCurrent(type);
            EXPECT_NEAR(model.activePower(type, v), dynamic + leak,
                        1e-12 * (dynamic + leak))
                << coreTypeName(type) << " at " << v << " V";
        }
    }
}

TEST(Eq4Power, StrictlyMonotoneInVoltage)
{
    // Over the feasible DVFS range both Eq. 4 power forms and the Eq. 2
    // throughput are strictly increasing in V: higher supply always buys
    // speed and always costs power, on both core types.
    FirstOrderModel model;
    const ModelParams &p = model.params();
    const int steps = 200;
    double dv = (p.v_max - p.v_min) / steps;
    for (CoreType type : {CoreType::big, CoreType::little}) {
        for (int i = 0; i < steps; ++i) {
            double v = p.v_min + i * dv;
            double next = v + dv;
            EXPECT_LT(model.activePower(type, v),
                      model.activePower(type, next))
                << coreTypeName(type) << " activePower at " << v;
            EXPECT_LT(model.waitingPower(type, v),
                      model.waitingPower(type, next))
                << coreTypeName(type) << " waitingPower at " << v;
            EXPECT_LT(model.ips(type, v), model.ips(type, next))
                << coreTypeName(type) << " ips at " << v;
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
        for (double v : {0.7, 0.85, 1.0, 1.15, 1.3}) {
            double want =
                scale * reference.activePower(CoreType::big, v);
            EXPECT_NEAR(scaled.activePower(CoreType::big, v), want,
                        1e-12 * want)
                << "alpha x" << scale << " at " << v << " V";
            EXPECT_NEAR(scaled.waitingPower(CoreType::big, v),
                        scale * reference.waitingPower(CoreType::big, v),
                        1e-12 * want);
            // alpha is an energy parameter: it must not change speed.
            EXPECT_DOUBLE_EQ(scaled.ips(CoreType::big, v),
                             reference.ips(CoreType::big, v));
            // The little core's *dynamic* power never sees alpha; its
            // leakage current is gamma-coupled to the big core's, so it
            // scales along with alpha.
            double little_dyn =
                reference.activePower(CoreType::little, v) -
                v * reference.leakCurrent(CoreType::little);
            double little_want =
                little_dyn +
                scale * v * reference.leakCurrent(CoreType::little);
            EXPECT_NEAR(scaled.activePower(CoreType::little, v),
                        little_want, 1e-12 * little_want);
            EXPECT_DOUBLE_EQ(scaled.ips(CoreType::little, v),
                             reference.ips(CoreType::little, v));
        }
    }
}

TEST(Eq4Power, AccountantAgreesOnConstantPowerTrace)
{
    // A core held in one state at one voltage for T seconds must be
    // charged exactly P * T: the accountant is a timeline integrator
    // over Eq. 4, with no hidden discretization.
    FirstOrderModel model;
    for (CoreType type : {CoreType::big, CoreType::little}) {
        for (double v : {0.7, 1.0, 1.3}) {
            EnergyAccountant acc(model, {type});
            acc.setState(0, 0.0, PowerState::active, v);
            acc.finish(2.5);
            double want = model.activePower(type, v) * 2.5;
            EXPECT_NEAR(acc.totalEnergy(), want, 1e-12 * want)
                << coreTypeName(type) << " at " << v << " V";
            EXPECT_DOUBLE_EQ(acc.waitingEnergy(), 0.0);
            EXPECT_NEAR(acc.averagePower(),
                        model.activePower(type, v),
                        1e-12 * model.activePower(type, v));
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
    EnergyAccountant acc(model,
                         {CoreType::big, CoreType::little});

    acc.setState(0, 0.0, PowerState::active, p.v_nom);
    acc.setState(0, 1.0, PowerState::waiting, p.v_min);
    acc.setState(0, 1.75, PowerState::off, p.v_min);

    acc.setState(1, 0.0, PowerState::waiting, p.v_min);
    acc.setState(1, 0.5, PowerState::active, p.v_max);
    acc.finish(2.0);

    double big_active = model.activePower(CoreType::big, p.v_nom) * 1.0;
    double big_waiting =
        model.waitingPower(CoreType::big, p.v_min) * 0.75;
    double little_waiting =
        model.waitingPower(CoreType::little, p.v_min) * 0.5;
    double little_active =
        model.activePower(CoreType::little, p.v_max) * 1.5;

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

class OptimizerFixture : public ::testing::Test
{
  protected:
    FirstOrderModel model_;
    MarginalUtilityOptimizer opt_{model_};
};

TEST_F(OptimizerFixture, HpOptimalMatchesPaper)
{
    CoreActivity hp{4, 4, 0, 0};
    OperatingPoint point =
        opt_.solve(hp, opt_.targetPower(hp), /*feasible=*/false);
    EXPECT_NEAR(point.v_big, 0.86, 0.05);
    EXPECT_NEAR(point.v_little, 1.44, 0.08);
    EXPECT_NEAR(point.speedup, 1.12, 0.02);
    // Law of Equi-Marginal Utility holds at the unconstrained optimum.
    EXPECT_NEAR(model_.marginalCost(CoreType::big, point.v_big),
                model_.marginalCost(CoreType::little, point.v_little),
                0.02 * model_.marginalCost(CoreType::big, point.v_big));
}

TEST_F(OptimizerFixture, HpFeasibleMatchesPaper)
{
    CoreActivity hp{4, 4, 0, 0};
    OperatingPoint point =
        opt_.solve(hp, opt_.targetPower(hp), /*feasible=*/true);
    EXPECT_NEAR(point.v_big, 0.93, 0.03);
    EXPECT_NEAR(point.v_little, 1.30, 1e-6); // clamped at V_max
    EXPECT_NEAR(point.speedup, 1.10, 0.02);
    EXPECT_TRUE(point.clamped);
}

TEST_F(OptimizerFixture, LpOptimalMatchesPaper)
{
    CoreActivity lp{2, 2, 2, 2};
    double target = opt_.targetPower(CoreActivity{4, 4, 0, 0});
    OperatingPoint point = opt_.solve(lp, target, /*feasible=*/false);
    EXPECT_NEAR(point.v_big, 1.02, 0.05);
    EXPECT_NEAR(point.v_little, 1.70, 0.08);
    EXPECT_NEAR(point.speedup, 1.55, 0.02);
}

TEST_F(OptimizerFixture, LpFeasibleMatchesPaper)
{
    CoreActivity lp{2, 2, 2, 2};
    double target = opt_.targetPower(CoreActivity{4, 4, 0, 0});
    OperatingPoint point = opt_.solve(lp, target, /*feasible=*/true);
    EXPECT_NEAR(point.v_big, 1.16, 0.03);
    EXPECT_NEAR(point.v_little, 1.30, 1e-6);
    EXPECT_NEAR(point.speedup, 1.45, 0.02);
}

TEST_F(OptimizerFixture, SingleTaskOnLittleMatchesPaper)
{
    CoreActivity act{0, 1, 4, 3};
    double target = opt_.targetPower(CoreActivity{4, 4, 0, 0});
    OperatingPoint optimal = opt_.solve(act, target, /*feasible=*/false);
    EXPECT_NEAR(optimal.v_little, 2.59, 0.12);
    OperatingPoint feasible = opt_.solve(act, target, /*feasible=*/true);
    EXPECT_NEAR(feasible.v_little, 1.30, 1e-6);
    // f(1.3)/f(1.0): the paper rounds 1.66 down to "1.6x".
    EXPECT_NEAR(feasible.speedup, 1.66, 0.02);
}

TEST_F(OptimizerFixture, SingleTaskOnBigMatchesPaper)
{
    CoreActivity act{1, 0, 3, 4};
    double target = opt_.targetPower(CoreActivity{4, 4, 0, 0});
    OperatingPoint optimal = opt_.solve(act, target, /*feasible=*/false);
    EXPECT_NEAR(optimal.v_big, 1.51, 0.05);
    OperatingPoint feasible = opt_.solve(act, target, /*feasible=*/true);
    double vs_little_nominal =
        feasible.ips / model_.ips(CoreType::little, 1.0);
    EXPECT_NEAR(vs_little_nominal, 3.3, 0.05);
}

TEST_F(OptimizerFixture, SolutionRespectsPowerBudget)
{
    for (int ba = 0; ba <= 4; ++ba) {
        for (int la = 0; la <= 4; ++la) {
            if (ba == 0 && la == 0)
                continue;
            CoreActivity act{ba, la, 4 - ba, 4 - la};
            double target = opt_.targetPower(act);
            OperatingPoint point = opt_.solve(act, target, true);
            EXPECT_LE(point.power, target * (1.0 + 1e-6))
                << "ba=" << ba << " la=" << la;
        }
    }
}

TEST_F(OptimizerFixture, OptimumBeatsNeighbors)
{
    // Property: perturbing the feasible solution along the isopower
    // constraint never improves throughput.
    CoreActivity hp{4, 4, 0, 0};
    double target = opt_.targetPower(hp);
    OperatingPoint point = opt_.solve(hp, target, false);
    for (double dv : {-0.02, -0.005, 0.005, 0.02}) {
        double v_big = point.v_big + dv;
        // Re-solve v_little for the same power.
        double lo = 0.56, hi = 8.0;
        for (int i = 0; i < 60; ++i) {
            double mid = 0.5 * (lo + hi);
            if (opt_.systemPower(hp, v_big, mid) < target)
                lo = mid;
            else
                hi = mid;
        }
        double v_little = 0.5 * (lo + hi);
        EXPECT_LE(opt_.activeIps(hp, v_big, v_little),
                  point.ips * (1.0 + 1e-6));
    }
}

TEST_F(OptimizerFixture, NoActiveCoresGivesZero)
{
    CoreActivity act{0, 0, 4, 4};
    OperatingPoint point =
        opt_.solve(act, opt_.targetPower(act), true);
    EXPECT_EQ(point.ips, 0.0);
}

/** Reference: solveVoltageForPower with all 80 halvings run. */
double
fixedCountVoltageForPower(const FirstOrderModel &model, CoreType type, int n,
                          double budget, double lo, double hi)
{
    if (n * model.activePower(type, lo) >= budget)
        return lo;
    if (n * model.activePower(type, hi) <= budget)
        return hi;
    for (int iter = 0; iter < 80; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (n * model.activePower(type, mid) < budget)
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
    for (CoreType type : {CoreType::big, CoreType::little}) {
        for (const auto &range : ranges) {
            for (int n = 1; n <= 4; ++n) {
                double p_lo = n * model_.activePower(type, range[0]);
                double p_hi = n * model_.activePower(type, range[1]);
                for (int i = 0; i < 500; ++i) {
                    double budget = rng.uniform(0.5 * p_lo, 1.5 * p_hi);
                    EXPECT_EQ(opt_.solveVoltageForPower(type, n, budget,
                                                        range[0], range[1]),
                              fixedCountVoltageForPower(model_, type, n,
                                                        budget, range[0],
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
    CoreActivity busy{4, 4, 0, 0};
    ParetoSweep sweep = paretoSweep(model, busy, 12);
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
    CoreActivity busy{4, 4, 0, 0};
    ParetoSweep sweep = paretoSweep(model, busy, 24);
    EXPECT_GT(sweep.best_isopower.perf, 1.05);
    EXPECT_LE(sweep.best_isopower.power, 1.0 + 1e-9);
    // Matches the feasible HP operating point within grid resolution.
    EXPECT_NEAR(sweep.best_isopower.v_little, 1.30, 0.03);
}

TEST(Pareto, FrontierIsNonDominated)
{
    FirstOrderModel model;
    CoreActivity busy{2, 2, 0, 0};
    ParetoSweep sweep = paretoSweep(model, busy, 10);
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
    CoreActivity busy{4, 4, 0, 0};
    ParetoSweep sweep = paretoSweep(model, busy, 30);
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
    CoreActivity busy{4, 4, 0, 0};
    auto cells = speedupSurface(base, busy, 2.0, 4.0, 2, 2.0, 2.0, 1);
    // cells: alpha in {2,3,4} x beta in {2,2}; dedupe beta by stride.
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_LT(cells[0].optimal_speedup, cells[4].optimal_speedup);
}

TEST(Surface, FeasibleNeverExceedsOptimal)
{
    ModelParams base;
    CoreActivity busy{4, 4, 0, 0};
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
    CoreActivity busy{4, 4, 0, 0};
    auto cells = speedupSurface(base, busy, 1.0, 1.0, 1, 1.0, 1.0, 1);
    for (const auto &cell : cells)
        EXPECT_NEAR(cell.optimal_speedup, 1.0, 1e-3);
}

} // namespace
} // namespace aaws
