/**
 * @file
 * Extension bench (Section III-A future work): adaptive refinement of
 * the DVFS lookup table from performance/energy counters, compared to
 * the static designer table on a kernel subset.  Reports execution
 * time, energy-delay product, and average power before and after.
 */

#include <cstdio>

#include "aaws/adaptive.h"
#include "exp/cli.h"
#include "exp/run_spec.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    std::printf("=== Adaptive DVFS table refinement (base+psm, 4B4L) "
                "===\n\n");
    std::printf("%-9s %9s %9s %8s %8s %8s %7s\n", "kernel", "t_static",
                "t_tuned", "EDPgain", "power", "cap", "steps");
    const char *names[] = {"radix-2", "qsort-1", "cilksort", "dict",
                           "mis", "bscholes"};
    for (const char *name : names) {
        Kernel kernel = makeKernel(name);
        AdaptiveOptions options;
        AdaptiveReport report = adaptDvfsTable(
            kernel, exp::configForSpec(kernel, {name, Variant::base_psm}),
            options);
        std::printf("%-9s %8.2fms %8.2fms %7.1f%% %8.3f %8.3f %7zu\n",
                    name, report.static_seconds * 1e3,
                    report.tuned_seconds * 1e3,
                    100.0 * (report.static_edp / report.tuned_edp - 1.0),
                    report.tuned_power / report.static_power,
                    options.power_slack, report.accepted.size());
        auto addPoint = [&](const char *metric, double value) {
            cli.results.add({.series = "adaptive",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = "base+psm",
                             .metric = metric,
                             .value = value});
        };
        addPoint("edp_gain_pct",
                 100.0 * (report.static_edp / report.tuned_edp - 1.0));
        addPoint("power_ratio",
                 report.tuned_power / report.static_power);
    }
    std::printf("\nEDPgain = energy-delay-product improvement of the "
                "tuned table; power column is relative to the\n"
                "static-table run and must stay under the cap.  The "
                "static table uses the designer's system-wide\n"
                "alpha=3/beta=2; tuning specializes it to each "
                "application's alpha, beta, IPC, and region mix.\n");
    return 0;
}
