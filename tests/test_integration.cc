/**
 * @file
 * End-to-end integration tests: full kernels on both systems under all
 * runtime variants, checking the paper's headline claims hold in shape
 * (Section V): AAWS speeds up every kernel, mugging exhausts its
 * opportunities, energy efficiency improves, and the techniques
 * compose.
 */

#include <gtest/gtest.h>

#include "aaws/experiment.h"
#include "common/stats.h"
#include "exp/run_spec.h"

namespace aaws {
namespace {

/** Simulate `kernel` under `variant` on a topology preset. */
RunResult
run(const Kernel &kernel, Variant variant,
    const std::string &topology = "4b4l", bool trace = false)
{
    exp::RunSpec spec{kernel.stats.name, variant, exp::kDefaultSeed, trace};
    spec.overrides.topology = topology;
    return exp::executeSpec(spec, kernel);
}

/** Small-but-representative kernel subset to keep test time bounded. */
std::vector<std::string>
subset()
{
    return {"mis", "qsort-1", "radix-2", "hull", "bscholes", "uts"};
}

TEST(Integration, FullAawsNeverSlowsDown4B4L)
{
    for (const auto &name : subset()) {
        Kernel kernel = makeKernel(name);
        double base = run(kernel, Variant::base).sim.exec_seconds;
        double psm = run(kernel, Variant::base_psm).sim.exec_seconds;
        // Paper range: 1.02x - 1.32x.
        EXPECT_GT(base / psm, 1.0) << name;
        EXPECT_LT(base / psm, 1.6) << name;
    }
}

TEST(Integration, MuggingExhaustsItsOpportunities)
{
    for (const auto &name : subset()) {
        Kernel kernel = makeKernel(name);
        SimResult result = run(kernel, Variant::base_psm).sim;
        double eligible =
            result.regions.lp_bi_ge_la + result.regions.lp_bi_lt_la;
        EXPECT_LT(eligible, 0.03 * result.exec_seconds) << name;
    }
}

TEST(Integration, EnergyEfficiencyImprovesWithFullAaws)
{
    // Paper: all but one kernel improved energy efficiency; median
    // 1.11x, max 1.53x.
    std::vector<double> gains;
    for (const auto &name : subset()) {
        Kernel kernel = makeKernel(name);
        RunResult base = run(kernel, Variant::base);
        RunResult psm = run(kernel, Variant::base_psm);
        gains.push_back(psm.efficiency() / base.efficiency());
    }
    EXPECT_GT(median(gains), 1.0);
    EXPECT_LT(maxOf(gains), 1.8);
    int regressions = 0;
    for (double g : gains)
        regressions += g < 0.97;
    EXPECT_LE(regressions, 1);
}

TEST(Integration, SprintingCutsWaitingEnergy)
{
    Kernel kernel = makeKernel("qsort-1"); // large LP regions
    SimResult base = run(kernel, Variant::base).sim;
    SimResult ps = run(kernel, Variant::base_ps).sim;
    EXPECT_LT(ps.waiting_energy, base.waiting_energy * 0.7);
}

TEST(Integration, MuggingAloneReducesBusyWaitingEnergy)
{
    // Section V-C: base+m reduces the busy-waiting energy of cores in
    // the steal loop (they spin at nominal without sprinting).
    Kernel kernel = makeKernel("radix-2");
    SimResult base = run(kernel, Variant::base).sim;
    SimResult m = run(kernel, Variant::base_m).sim;
    EXPECT_LT(m.waiting_energy, base.waiting_energy);
    EXPECT_GT(m.mugs, 0u);
}

TEST(Integration, TechniquesComposeMonotonicallyOnLpHeavyKernels)
{
    // qsort-1's exponential dataset creates the large LP regions the
    // paper highlights: each added technique should not hurt.
    Kernel kernel = makeKernel("qsort-1");
    double t_base = run(kernel, Variant::base).sim.exec_seconds;
    double t_ps = run(kernel, Variant::base_ps).sim.exec_seconds;
    double t_psm = run(kernel, Variant::base_psm).sim.exec_seconds;
    EXPECT_LT(t_ps, t_base);
    EXPECT_LE(t_psm, t_ps * 1.02);
}

TEST(Integration, BothSystemsRunEveryVariant)
{
    Kernel kernel = makeKernel("mis");
    for (const char *topology : {"4b4l", "1b7l"}) {
        for (Variant v : allVariants()) {
            SimResult result = run(kernel, v, topology).sim;
            EXPECT_GT(result.exec_seconds, 0.0)
                << topology << " " << variantName(v);
            EXPECT_NEAR(result.regions.total(), result.exec_seconds,
                        result.exec_seconds * 1e-6);
        }
    }
}

TEST(Integration, FourBigFourLittleBeatsOneBigSevenLittle)
{
    // Section V-A: the 4B4L system strictly increases performance.
    for (const auto &name : subset()) {
        Kernel kernel = makeKernel(name);
        double t_4b4l = run(kernel, Variant::base).sim.exec_seconds;
        double t_1b7l = run(kernel, Variant::base, "1b7l").sim.exec_seconds;
        EXPECT_LT(t_4b4l, t_1b7l) << name;
    }
}

TEST(Integration, ParallelSpeedupsAreRespectable)
{
    // Table III: 4B4L-vs-serial-IO speedups range ~5x-17x.
    for (const auto &name : subset()) {
        Kernel kernel = makeKernel(name);
        double serial_io = serialSeconds(kernel, 'l');
        double t = run(kernel, Variant::base).sim.exec_seconds;
        EXPECT_GT(serial_io / t, 3.0) << name;
        EXPECT_LT(serial_io / t, 20.0) << name;
    }
}

TEST(Integration, TraceShowsPacingLoweringBigVoltage)
{
    Kernel kernel = makeKernel("radix-2");
    RunResult result = run(kernel, Variant::base_psm, "4b4l", /*trace=*/true);
    bool big_below_nominal = false;
    bool little_above_nominal = false;
    for (const auto &rec : result.sim.trace.records()) {
        if (rec.core < 4 && rec.state == TraceState::task &&
            rec.voltage < 0.99) {
            big_below_nominal = true;
        }
        if (rec.core >= 4 && rec.state == TraceState::task &&
            rec.voltage > 1.01) {
            little_above_nominal = true;
        }
    }
    EXPECT_TRUE(big_below_nominal);
    EXPECT_TRUE(little_above_nominal);
}

} // namespace
} // namespace aaws
