/**
 * @file
 * Tests of the variant definitions and the experiment driver wiring
 * (per-kernel model parameters, serial baselines).
 */

#include <gtest/gtest.h>

#include "aaws/experiment.h"
#include "exp/run_spec.h"

namespace aaws {
namespace {

/** Simulate `kernel` under `variant` on a topology preset. */
SimResult
simulate(const Kernel &kernel, Variant variant,
         const std::string &topology = "4b4l")
{
    exp::RunSpec spec{kernel.stats.name, variant};
    spec.overrides.topology = topology;
    return exp::executeSpec(spec, kernel).sim;
}

TEST(Variant, NamesRoundTrip)
{
    for (Variant v : allVariants())
        EXPECT_EQ(variantFromName(variantName(v)), v);
    EXPECT_EQ(allVariants().size(), 5u);
}

TEST(Variant, LiteralNamesMatchThePaper)
{
    // Both directions against the literal spellings of Figures 7-9, so
    // a renamed enumerator cannot silently re-shuffle the mapping.
    EXPECT_STREQ(variantName(Variant::base), "base");
    EXPECT_STREQ(variantName(Variant::base_p), "base+p");
    EXPECT_STREQ(variantName(Variant::base_ps), "base+ps");
    EXPECT_STREQ(variantName(Variant::base_psm), "base+psm");
    EXPECT_STREQ(variantName(Variant::base_m), "base+m");
    EXPECT_EQ(variantFromName("base"), Variant::base);
    EXPECT_EQ(variantFromName("base+p"), Variant::base_p);
    EXPECT_EQ(variantFromName("base+ps"), Variant::base_ps);
    EXPECT_EQ(variantFromName("base+psm"), Variant::base_psm);
    EXPECT_EQ(variantFromName("base+m"), Variant::base_m);
}

TEST(Variant, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)variantFromName("base+x"), "unknown variant");
}

TEST(Variant, NearMissNamesAreFatalToo)
{
    // Parsing is exact: no prefix matching, case folding, or trimming.
    EXPECT_DEATH((void)variantFromName(""), "unknown variant");
    EXPECT_DEATH((void)variantFromName("Base"), "unknown variant");
    EXPECT_DEATH((void)variantFromName("base+"), "unknown variant");
    EXPECT_DEATH((void)variantFromName("base+psmx"), "unknown variant");
    EXPECT_DEATH((void)variantFromName(" base"), "unknown variant");
}

TEST(Metrics, SpeedupAndEfficiencyGainOnHandBuiltResults)
{
    // Baseline: 2 s at 8 J.  Optimized: 1 s at 5 J.
    SimResult base;
    base.exec_seconds = 2.0;
    base.energy = 8.0;
    SimResult opt;
    opt.exec_seconds = 1.0;
    opt.energy = 5.0;

    EXPECT_DOUBLE_EQ(speedupOver(base, opt), 2.0);
    // Perf-per-joule gain is (perf_opt/perf_base) x (E_base/E_opt) =
    // speedup x E_base/E_opt = 2.0 x 8/5 = 3.2.  ext_scaling's old
    // inline formula algebraically cancelled to a bare E_base/E_opt
    // (1.6 here), dropping the speedup factor; this pins the corrected
    // definition.
    EXPECT_DOUBLE_EQ(efficiencyGain(base, opt), 3.2);

    // Equal energies: efficiency gain degenerates to the speedup.
    opt.energy = 8.0;
    EXPECT_DOUBLE_EQ(efficiencyGain(base, opt), 2.0);

    // Slower but much cheaper: gain can exceed 1 with speedup < 1.
    opt.exec_seconds = 4.0;
    opt.energy = 2.0;
    EXPECT_DOUBLE_EQ(speedupOver(base, opt), 0.5);
    EXPECT_DOUBLE_EQ(efficiencyGain(base, opt), 2.0);
}

TEST(Variant, TechniqueMatrix)
{
    // Every (variant, switch) cell.  Serial-sprinting and work-biasing
    // are the aggressive baseline of every variant, and victim selection
    // is not a variant concern.
    struct Row
    {
        Variant v;
        bool pacing, sprinting, mugging;
    };
    const Row rows[] = {
        {Variant::base, false, false, false},
        {Variant::base_p, true, false, false},
        {Variant::base_ps, true, true, false},
        {Variant::base_psm, true, true, true},
        {Variant::base_m, false, false, true},
    };
    for (const Row &row : rows) {
        sched::PolicyConfig sp = policyConfigFor(row.v);
        EXPECT_EQ(sp.work_pacing, row.pacing) << variantName(row.v);
        EXPECT_EQ(sp.work_sprinting, row.sprinting) << variantName(row.v);
        EXPECT_EQ(sp.work_mugging, row.mugging) << variantName(row.v);
        EXPECT_TRUE(sp.serial_sprinting) << variantName(row.v);
        EXPECT_TRUE(sp.work_biasing) << variantName(row.v);
        EXPECT_EQ(sp.victim, sched::VictimPolicy::occupancy)
            << variantName(row.v);
    }
}

TEST(Experiment, ConfigUsesPerKernelModelButDesignerTable)
{
    Kernel kernel = makeKernel("cilksort"); // alpha 3.7, beta 1.3
    MachineConfig config = configFor(kernel, Variant::base_psm);
    EXPECT_NEAR(config.app_params.alpha, 3.7, 1e-9);
    EXPECT_NEAR(config.app_params.beta, 1.3, 1e-9);
    // Designer's table estimates stay at the defaults.
    EXPECT_NEAR(config.table_params.alpha, 3.0, 1e-9);
    EXPECT_NEAR(config.table_params.beta, 2.0, 1e-9);
}

TEST(Experiment, PresetsNameThePaperMachines)
{
    // The paper's two machines are topology presets; a spec that names
    // none runs 4B4L.
    Kernel kernel = makeKernel("mis");
    exp::RunSpec spec{"mis", Variant::base};
    MachineConfig c4 = exp::configForSpec(kernel, spec);
    EXPECT_EQ(c4.topology, "4b4l");
    spec.overrides.topology = "1b7l";
    MachineConfig c1 = exp::configForSpec(kernel, spec);
    EXPECT_EQ(c1.topology, "1b7l");
    Machine m4(c4, kernel.dag);
    Machine m1(c1, kernel.dag);
    EXPECT_EQ(m4.clusterSize(0), 4);
    EXPECT_EQ(m4.clusterSize(1), 4);
    EXPECT_EQ(m1.clusterSize(0), 1);
    EXPECT_EQ(m1.clusterSize(1), 7);
}

TEST(Experiment, SerialBaselinesFollowBeta)
{
    Kernel kernel = makeKernel("mis");
    double t_little = serialSeconds(kernel, 'l');
    double t_big = serialSeconds(kernel, 'b');
    EXPECT_NEAR(t_little / t_big, kernel.stats.beta, 1e-9);
}

TEST(Experiment, SerialEnergyRatioApproximatesAlpha)
{
    Kernel kernel = makeKernel("mis");
    double e_little = serialEnergy(kernel, 'l');
    double e_big = serialEnergy(kernel, 'b');
    // ERatio = alpha up to the leakage correction.
    EXPECT_NEAR(e_big / e_little, kernel.stats.alpha,
                0.15 * kernel.stats.alpha);
}

TEST(Experiment, RunKernelProducesPositiveMetrics)
{
    RunResult result = exp::executeSpec({"mis", Variant::base});
    EXPECT_GT(result.sim.exec_seconds, 0.0);
    EXPECT_GT(result.sim.energy, 0.0);
    EXPECT_GT(result.efficiency(), 0.0);
    EXPECT_EQ(result.kernel, "mis");
}

TEST(Experiment, ParallelBeatsSerialOnBothSystems)
{
    Kernel kernel = makeKernel("mis");
    double serial_io = serialSeconds(kernel, 'l');
    for (const char *topology : {"4b4l", "1b7l"}) {
        SimResult result = simulate(kernel, Variant::base, topology);
        EXPECT_GT(serial_io / result.exec_seconds, 2.0) << topology;
    }
}

namespace {

/** Fan-out DAG: @p n children of @p instrs each, then a serial phase. */
TaskDag
fanOutDag(int n, uint64_t instrs, uint64_t serial_instrs)
{
    TaskDag dag;
    uint32_t root = dag.addTask();
    for (int i = 0; i < n; ++i) {
        uint32_t child = dag.addTask();
        dag.addWork(child, instrs);
        dag.addSpawn(root, child);
    }
    dag.addSync(root);
    dag.addPhase(serial_instrs, static_cast<int32_t>(root));
    dag.validate();
    return dag;
}

/** Six bulk-synchronous phases of twelve unequal tasks each, so the
 *  lp_bi_ge_la region (bigs idle, littles loaded) reopens at every
 *  phase tail and mugging has to fire again and again. */
TaskDag
phasedDag()
{
    TaskDag dag;
    for (int p = 0; p < 6; ++p) {
        uint32_t root = dag.addTask();
        for (int i = 0; i < 12; ++i) {
            uint32_t child = dag.addTask();
            dag.addWork(child, 800'000 + 100'000 * i);
            dag.addSpawn(root, child);
        }
        dag.addSync(root);
        dag.addPhase(200'000, static_cast<int32_t>(root));
    }
    dag.validate();
    return dag;
}

SimResult
runDag(const TaskDag &dag, Variant variant)
{
    MachineConfig config;
    config.policy = policyConfigFor(variant);
    return Machine(config, dag).run();
}

} // namespace

TEST(WorkMugging, MugRacingTaskCompletionIsAborted)
{
    // Many small tasks keep the littles flickering between running and
    // stealing, so a mug interrupt eventually lands after its muggee
    // already finished the task it was picked for: onMugIssueDone must
    // then abort instead of swapping, and no task may be lost or run
    // twice because of the aborted handshake.
    TaskDag dag = fanOutDag(96, 5'000, 50'000);
    SimResult result = runDag(dag, Variant::base_psm);
    EXPECT_GE(result.aborted_mugs, 1u);
    EXPECT_EQ(result.tasks_executed, 97u);
    EXPECT_GE(result.instructions, dag.totalWork());
}

TEST(WorkMugging, EmptyLittleCoreIsNeverMugged)
{
    // Exactly one long task per big core: the big cores absorb them and the
    // littles never hold work.  pickMuggee only considers *running*
    // little cores, so no mug may ever be issued (and certainly none
    // aborted) against the idle littles.
    TaskDag dag = fanOutDag(4, 3'000'000, 50'000);
    for (Variant variant : {Variant::base_psm, Variant::base_m}) {
        SCOPED_TRACE(variantName(variant));
        SimResult result = runDag(dag, variant);
        EXPECT_EQ(result.mugs, 0u);
        EXPECT_EQ(result.aborted_mugs, 0u);
        EXPECT_EQ(result.tasks_executed, 5u);
    }
}

TEST(WorkMugging, RepeatedMugCyclesAcrossPhases)
{
    // Every phase tail strands long tasks on the littles while the bigs
    // drain first, so the runtime must mug, finish the phase, fall back
    // to normal stealing, and then mug again in the next phase.
    TaskDag dag = phasedDag();
    SimResult mugged = runDag(dag, Variant::base_psm);
    EXPECT_GE(mugged.mugs, 6u); // at least one mug per phase
    EXPECT_EQ(mugged.aborted_mugs, 0u);
    EXPECT_EQ(mugged.tasks_executed, 78u);
    EXPECT_GE(mugged.instructions, dag.totalWork());

    // Control: with mugging disabled the same DAG must report zero mugs
    // and still execute every task.
    SimResult unmugged = runDag(dag, Variant::base_ps);
    EXPECT_EQ(unmugged.mugs, 0u);
    EXPECT_EQ(unmugged.aborted_mugs, 0u);
    EXPECT_EQ(unmugged.tasks_executed, 78u);
}

TEST(CoreStatsCheck, BusyPlusWaitingCoversRun)
{
    Kernel kernel = makeKernel("mis");
    SimResult result = simulate(kernel, Variant::base);
    ASSERT_EQ(result.core_stats.size(), 8u);
    for (const auto &stats : result.core_stats) {
        EXPECT_NEAR(stats.busy_seconds + stats.waiting_seconds,
                    result.exec_seconds, result.exec_seconds * 1e-6);
        EXPECT_GT(stats.energy, 0.0);
    }
    // Core energies sum to the system energy.
    double sum = 0.0;
    for (const auto &stats : result.core_stats)
        sum += stats.energy;
    EXPECT_NEAR(sum, result.energy, result.energy * 1e-9);
}

TEST(CoreStatsCheck, OccupancySecondsCoverRun)
{
    Kernel kernel = makeKernel("radix-2");
    SimResult result = simulate(kernel, Variant::base_psm);
    ASSERT_EQ(result.occupancy_seconds.size(), 25u);
    double total = 0.0;
    for (double s : result.occupancy_seconds)
        total += s;
    EXPECT_NEAR(total, result.exec_seconds, result.exec_seconds * 1e-6);
}

} // namespace
} // namespace aaws
