/**
 * @file
 * Figure 1 reproduction: activity profile of the convex-hull kernel on
 * the baseline (asymmetry-oblivious + serial-sprint/biasing) 4B4L
 * system.  Rows are cores (B0-B3 big, L0-L3 little); '#' = executing a
 * task, ' ' = waiting in the work-stealing loop, 'S' = serial region.
 * The HP/LP structure the paper discusses is visible as full vs ragged
 * columns.
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
    std::printf("=== Figure 1: activity profile, hull on 4B4L (base) "
                "===\n\n");
    Kernel kernel = makeKernel("hull");
    RunResult result = exp::executeSpec(
        {"hull", Variant::base, exp::kDefaultSeed, /*trace=*/true}, kernel);
    std::printf("%s\n", result.sim.trace
                            .renderAscii(8, 100, 1.0)
                            .c_str());
    const RegionBreakdown &regions = result.sim.regions;
    std::printf("exec time      : %.3f ms\n",
                result.sim.exec_seconds * 1e3);
    std::printf("serial region  : %5.1f %%\n",
                100.0 * regions.serial / regions.total());
    std::printf("HP region      : %5.1f %%\n",
                100.0 * regions.hp / regions.total());
    std::printf("LP region      : %5.1f %%\n",
                100.0 * (regions.lp_bi_lt_la + regions.lp_bi_ge_la +
                         regions.lp_other) /
                    regions.total());
    auto addRegion = [&](const char *metric, double value) {
        cli.results.add({.series = "regions",
                         .kernel = "hull",
                         .shape = "4B4L",
                         .variant = "base",
                         .metric = metric,
                         .value = value});
    };
    addRegion("exec_ms", result.sim.exec_seconds * 1e3);
    addRegion("serial_pct", 100.0 * regions.serial / regions.total());
    addRegion("hp_pct", 100.0 * regions.hp / regions.total());
    addRegion("lp_pct",
              100.0 *
                  (regions.lp_bi_lt_la + regions.lp_bi_ge_la +
                   regions.lp_other) /
                  regions.total());
    std::printf("\ncores 0-3 are big (B0-B3), cores 4-7 are little "
                "(L0-L3); '#'=task, ' '=steal loop, 'S'=serial\n");
    return 0;
}
