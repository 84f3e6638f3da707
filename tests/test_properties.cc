/**
 * @file
 * Parameterized property suites: invariants that must hold across the
 * whole cross product of kernels, variants, machine shapes, and model
 * parameters (rather than at hand-picked points).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "aaws/experiment.h"
#include "exp/run_spec.h"
#include "model/cluster_opt.h"

namespace aaws {
namespace {

// --- optimizer properties over the (alpha, beta) plane -------------------

/** The two-cluster search on 4B4L at one (alpha, beta) point. */
class OptimizerSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
  protected:
    static ModelParams
    paramsAt(const std::tuple<double, double> &alpha_beta)
    {
        ModelParams params;
        params.alpha = std::get<0>(alpha_beta);
        params.beta = std::get<1>(alpha_beta);
        return params;
    }

    ModelParams params_ = paramsAt(GetParam());
    FirstOrderModel model_{params_};
    CoreTopology machine_ = CoreTopology::bigLittle(4, 4, params_);
    ClusterOptimizer opt_{model_, machine_};
};

TEST_P(OptimizerSweep, FeasibleRespectsBudgetAndBounds)
{
    for (int ba = 0; ba <= 4; ++ba) {
        for (int la = 0; la <= 4; ++la) {
            if (ba == 0 && la == 0)
                continue;
            ClusterActivity act{{ba, la}, {4 - ba, 4 - la}};
            double target = opt_.targetPower(act);
            ClusterOperatingPoint f = opt_.solveTwoCluster(act, target, true);
            EXPECT_LE(f.power, target * (1 + 1e-6));
            for (int k = 0; k < 2; ++k) {
                if (act.active[k] == 0)
                    continue;
                EXPECT_GE(f.v[k], params_.v_min - 1e-9);
                EXPECT_LE(f.v[k], params_.v_max + 1e-9);
            }
        }
    }
}

TEST_P(OptimizerSweep, FeasibleNeverBeatsOptimal)
{
    ClusterActivity act{{4, 4}, {0, 0}};
    double target = opt_.targetPower(act);
    ClusterOperatingPoint optimal = opt_.solveTwoCluster(act, target, false);
    ClusterOperatingPoint feasible = opt_.solveTwoCluster(act, target, true);
    EXPECT_LE(feasible.ips, optimal.ips * (1 + 1e-6));
    EXPECT_GE(feasible.speedup, 1.0 - 1e-6); // V_N is always feasible
}

TEST_P(OptimizerSweep, EquiMarginalAtInteriorOptimum)
{
    ClusterActivity act{{4, 4}, {0, 0}};
    ClusterOperatingPoint o =
        opt_.solveTwoCluster(act, opt_.targetPower(act), false);
    double mc_big = model_.marginalCost(machine_.cluster(0).params, o.v[0]);
    double mc_little =
        model_.marginalCost(machine_.cluster(1).params, o.v[1]);
    EXPECT_NEAR(mc_big / mc_little, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBeta, OptimizerSweep,
    ::testing::Combine(::testing::Values(1.5, 2.0, 3.0, 4.5),
                       ::testing::Values(1.2, 2.0, 3.0)),
    [](const auto &info) {
        return "a" +
               std::to_string(int(std::get<0>(info.param) * 10)) +
               "_b" +
               std::to_string(int(std::get<1>(info.param) * 10));
    });

// --- Eq. 4 properties over the (alpha, beta) plane -----------------------

class Eq4Sweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(Eq4Sweep, PowerAndThroughputMonotoneInVoltage)
{
    auto [alpha, beta] = GetParam();
    ModelParams params;
    params.alpha = alpha;
    params.beta = beta;
    FirstOrderModel model(params);
    const int steps = 60;
    double dv = (params.v_max - params.v_min) / steps;
    for (char kind : {'b', 'l'}) {
        ClusterParams cp = clusterParamsFor(kind, params);
        for (int i = 0; i < steps; ++i) {
            double v = params.v_min + i * dv;
            EXPECT_LT(model.activePower(cp, v),
                      model.activePower(cp, v + dv));
            EXPECT_LT(model.waitingPower(cp, v),
                      model.waitingPower(cp, v + dv));
            EXPECT_LT(model.ips(cp, v), model.ips(cp, v + dv));
        }
    }
}

TEST_P(Eq4Sweep, BigPowerScalesLinearlyWithAlpha)
{
    // Doubling alpha doubles big-core Eq. 4 power at every voltage (the
    // leakage calibration keeps lambda a *fraction*, so leakage scales
    // along with the dynamic term) and leaves throughput untouched.
    auto [alpha, beta] = GetParam();
    ModelParams params;
    params.alpha = alpha;
    params.beta = beta;
    FirstOrderModel one(params);
    ModelParams doubled_params = params;
    doubled_params.alpha = 2.0 * alpha;
    FirstOrderModel two(doubled_params);
    ClusterParams big_one = clusterParamsFor('b', params);
    ClusterParams big_two = clusterParamsFor('b', doubled_params);
    ClusterParams little = clusterParamsFor('l', params);
    for (double v : {0.7, 1.0, 1.3}) {
        double want = 2.0 * one.activePower(big_one, v);
        EXPECT_NEAR(two.activePower(big_two, v), want, 1e-12 * want);
        EXPECT_DOUBLE_EQ(two.ips(big_two, v), one.ips(big_one, v));
        // Little dynamic power ignores alpha; little leakage doubles
        // with it through the gamma coupling to big-core leakage.
        double little_dyn =
            one.activePower(little, v) - v * one.leakCurrent(little);
        double little_want =
            little_dyn + 2.0 * v * one.leakCurrent(little);
        EXPECT_NEAR(two.activePower(little, v), little_want,
                    1e-12 * little_want);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBeta, Eq4Sweep,
    ::testing::Combine(::testing::Values(1.5, 2.0, 3.0, 4.5),
                       ::testing::Values(1.2, 2.0, 3.0)),
    [](const auto &info) {
        return "a" +
               std::to_string(int(std::get<0>(info.param) * 10)) +
               "_b" +
               std::to_string(int(std::get<1>(info.param) * 10));
    });

// --- machine-shape properties --------------------------------------------

class ShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    /** The topology preset of an nBmL shape (empty clusters left out). */
    static std::string
    preset(int n_big, int n_little)
    {
        std::string name;
        if (n_big > 0)
            name += std::to_string(n_big) + "b";
        if (n_little > 0)
            name += std::to_string(n_little) + "l";
        return name;
    }

    static TaskDag
    workload()
    {
        TaskDag dag;
        uint32_t root = dag.addTask();
        for (int i = 0; i < 24; ++i) {
            uint32_t child = dag.addTask();
            dag.addWork(child, 400'000 + 40'000u * (i % 5));
            dag.addSpawn(root, child);
        }
        dag.addSync(root);
        dag.addPhase(100'000, static_cast<int32_t>(root));
        return dag;
    }
};

TEST_P(ShapeSweep, AllVariantsCompleteAndAccount)
{
    auto [n_big, n_little] = GetParam();
    TaskDag dag = workload();
    for (Variant v : allVariants()) {
        MachineConfig config;
        config.topology = preset(n_big, n_little);
        config.policy = policyConfigFor(v);
        SimResult r = Machine(config, dag).run();
        EXPECT_GT(r.exec_seconds, 0.0) << variantName(v);
        EXPECT_EQ(r.tasks_executed, 25u) << variantName(v);
        EXPECT_NEAR(r.regions.total(), r.exec_seconds,
                    r.exec_seconds * 1e-6)
            << variantName(v);
        EXPECT_GE(r.instructions, 24u * 400'000u);
        double core_energy = 0.0;
        for (const auto &stats : r.core_stats)
            core_energy += stats.energy;
        EXPECT_NEAR(core_energy, r.energy, r.energy * 1e-9);
    }
}

TEST_P(ShapeSweep, MoreBigCoresNeverSlower)
{
    auto [n_big, n_little] = GetParam();
    if (n_big + n_little >= 8)
        GTEST_SKIP() << "only meaningful for upgradable shapes";
    TaskDag dag = workload();
    MachineConfig small;
    small.topology = preset(n_big, n_little);
    small.policy = policyConfigFor(Variant::base);
    MachineConfig bigger = small;
    bigger.topology = preset(n_big + 1, n_little);
    SimResult a = Machine(small, dag).run();
    SimResult b = Machine(bigger, dag).run();
    EXPECT_LE(b.exec_seconds, a.exec_seconds * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeSweep,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 2),
                      std::make_tuple(2, 6), std::make_tuple(6, 2),
                      std::make_tuple(1, 7), std::make_tuple(4, 4),
                      std::make_tuple(8, 0), std::make_tuple(0, 8)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "B" +
               std::to_string(std::get<1>(info.param)) + "L";
    });

// --- per-kernel scheduler invariants ---------------------------------------

class KernelInvariants : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Simulate `kernel` under `variant` on the default machine. */
    static SimResult
    run(const Kernel &kernel, Variant variant)
    {
        return exp::executeSpec({kernel.stats.name, variant}, kernel).sim;
    }
};

TEST_P(KernelInvariants, EveryTaskRunsExactlyOnce)
{
    Kernel kernel = makeKernel(GetParam());
    for (Variant v : {Variant::base, Variant::base_psm}) {
        SimResult r = run(kernel, v);
        EXPECT_EQ(r.tasks_executed, kernel.dag.numTasks())
            << variantName(v);
    }
}

TEST_P(KernelInvariants, InstructionsCoverDagWork)
{
    Kernel kernel = makeKernel(GetParam());
    SimResult r = run(kernel, Variant::base_psm);
    // All DAG work executes, plus bounded runtime overhead (< 25%).
    EXPECT_GE(r.instructions, kernel.dag.totalWork());
    EXPECT_LE(r.instructions,
              kernel.dag.totalWork() + kernel.dag.totalWork() / 4 +
                  1'000'000u);
}

TEST_P(KernelInvariants, ExecTimeBoundedByWorkAndSpanLaws)
{
    // Brent-style bounds: T_P >= max(T_1/ideal_throughput, T_inf/fast)
    // and T_P <= T_1 / slowest-core throughput.
    Kernel kernel = makeKernel(GetParam());
    SimResult r = run(kernel, Variant::base);
    MachineConfig config = configFor(kernel, Variant::base);
    FirstOrderModel model(config.app_params);
    double ips_little =
        model.ips(clusterParamsFor('l', config.app_params), 1.0);
    double ips_big = model.ips(clusterParamsFor('b', config.app_params), 1.0);
    double ideal = 4 * ips_big + 4 * ips_little;
    double work = static_cast<double>(r.instructions);
    EXPECT_GE(r.exec_seconds, work / ideal * 0.999) << "below T1/P bound";
    EXPECT_LE(r.exec_seconds, work / ips_little) << "worse than serial";
}

TEST_P(KernelInvariants, MuggingEliminatesEligibleRegions)
{
    Kernel kernel = makeKernel(GetParam());
    SimResult r = run(kernel, Variant::base_psm);
    double eligible = r.regions.lp_bi_lt_la + r.regions.lp_bi_ge_la;
    EXPECT_LT(eligible, 0.05 * r.exec_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelInvariants, ::testing::ValuesIn(kernelNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace aaws
