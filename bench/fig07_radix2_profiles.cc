/**
 * @file
 * Figure 7 reproduction: activity profiles for radix-2 on the 4B4L
 * system as the AAWS techniques are added one by one, with execution
 * times normalized to the baseline.  The paper's observations to look
 * for: (b) pacing raises little-core voltage in the HP region, (c)
 * sprinting rests waiters and boosts the stragglers, (d) mugging moves
 * the leftover little-core work onto big cores.
 */

#include <cstdio>

#include "aaws/experiment.h"
#include "exp/cli.h"
#include "exp/run_spec.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    Kernel kernel = makeKernel("radix-2");
    double base_seconds = 0.0;
    const Variant variants[] = {Variant::base, Variant::base_p,
                                Variant::base_ps, Variant::base_psm,
                                Variant::base_m};
    const char *labels[] = {"(a) baseline", "(b) +work-pacing",
                            "(c) +work-sprinting", "(d) +work-mugging",
                            "(e) mugging alone (for reference)"};
    std::printf("=== Figure 7: radix-2 activity profiles on 4B4L "
                "===\n");
    for (int i = 0; i < 5; ++i) {
        RunResult result = exp::executeSpec(
            {"radix-2", variants[i], exp::kDefaultSeed, /*trace=*/true},
            kernel);
        if (i == 0)
            base_seconds = result.sim.exec_seconds;
        cli.results.add({.series = "profile",
                         .kernel = "radix-2",
                         .shape = "4B4L",
                         .variant = variantName(variants[i]),
                         .metric = "norm_time",
                         .value = result.sim.exec_seconds /
                                  base_seconds});
        cli.results.add({.series = "profile",
                         .kernel = "radix-2",
                         .shape = "4B4L",
                         .variant = variantName(variants[i]),
                         .metric = "mugs",
                         .value = static_cast<double>(result.sim.mugs)});
        std::printf("\n%s [%s]: %.3f ms (normalized %.2f, mugs=%llu)\n",
                    labels[i], variantName(variants[i]),
                    result.sim.exec_seconds * 1e3,
                    result.sim.exec_seconds / base_seconds,
                    static_cast<unsigned long long>(result.sim.mugs));
        std::printf("%s", result.sim.trace
                              .renderAscii(8, 96, 1.0)
                              .c_str());
    }
    std::printf("\nvoltage row: '-'=nominal '+'/'^'=boosted "
                "'v'/'_'=reduced; paper reduction for (d): 24%%\n");
    return 0;
}
