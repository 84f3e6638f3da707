/**
 * @file
 * Sensitivity study from Section IV-D: sweep the mug inter-core
 * interrupt latency from 20 to 1000 cycles.  The paper reports < 1%
 * overall performance impact because mugs are rare (< 40 per million
 * instructions).
 *
 * Driven by the experiment engine with mug_interrupt_cycles spec
 * overrides (parallel).
 */

#include <cstdio>
#include <vector>

#include "aaws/experiment.h"
#include "common/logging.h"
#include "common/stats.h"
#include "exp/cli.h"
#include "exp/engine.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    const std::vector<std::string> names = cli.filterNames(kernelNames());
    const uint64_t cycles[] = {20, 100, 400, 1000};

    std::vector<exp::RunSpec> specs;
    for (const auto &name : names) {
        for (uint64_t c : cycles) {
            exp::RunSpec spec{name, Variant::base_psm};
            spec.overrides.mug_interrupt_cycles = c;
            specs.push_back(std::move(spec));
        }
    }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("=== Sensitivity: mug interrupt latency (base+psm, "
                "4B4L) ===\n\n");
    std::printf("%-9s", "kernel");
    for (uint64_t c : cycles)
        std::printf(" %6llucyc", (unsigned long long)c);
    std::printf("   mugs/Minstr\n");

    std::vector<double> worst, rates;
    size_t idx = 0;
    for (const auto &name : names) {
        std::printf("%-9s", name.c_str());
        const SimResult *points[4];
        for (size_t i = 0; i < 4; ++i)
            points[i] = &results[idx++].sim;
        double base_seconds = points[0]->exec_seconds;
        double mug_rate = static_cast<double>(points[0]->mugs) /
                          (points[0]->instructions / 1e6);
        rates.push_back(mug_rate);
        for (size_t i = 0; i < 4; ++i) {
            double norm = points[i]->exec_seconds / base_seconds;
            std::printf(" %9.3f", norm);
            cli.results.add({.series = "norm_time",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = "base+psm",
                             .metric = strfmt("%llucyc",
                                              (unsigned long long)
                                                  cycles[i]),
                             .value = norm});
            if (i == 3)
                worst.push_back(norm);
        }
        std::printf("   %8.2f\n", mug_rate);
    }
    cli.results.add("summary", "worst_slowdown_pct",
                    100.0 * (maxOf(worst) - 1.0));
    cli.results.add("summary", "max_mugs_per_minstr", maxOf(rates));
    std::printf("\nworst 1000-cycle slowdown: %.1f%% (paper: < 1%%; "
                "mug rate < 40/Minstr)\n", 100.0 * (maxOf(worst) - 1.0));

    return 0;
}
