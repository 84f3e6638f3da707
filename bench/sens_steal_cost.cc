/**
 * @file
 * Extension sensitivity study: how steal-attempt cost affects overall
 * performance.  The paper charges steal attempts implicitly through
 * gem5's memory system; here the cost is an explicit model parameter,
 * so its influence can be quantified directly.
 *
 * Driven by the experiment engine with steal_attempt_cycles spec
 * overrides; each (kernel, cost) point simulates once (the hand-rolled
 * version re-simulated every point twice) and caches.
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
    const uint64_t costs[] = {10, 30, 60, 120};

    std::vector<exp::RunSpec> specs;
    for (const auto &name : names) {
        for (uint64_t c : costs) {
            exp::RunSpec spec{name, Variant::base_psm};
            spec.overrides.steal_attempt_cycles = c;
            specs.push_back(std::move(spec));
        }
    }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("=== Sensitivity: steal-attempt cost (base+psm, 4B4L) "
                "===\n\n");
    std::printf("%-9s", "kernel");
    for (uint64_t c : costs)
        std::printf(" %6llucyc", (unsigned long long)c);
    std::printf("   steals\n");
    std::vector<double> worst;
    size_t idx = 0;
    for (const auto &name : names) {
        std::printf("%-9s", name.c_str());
        const SimResult *points[4];
        for (size_t i = 0; i < 4; ++i)
            points[i] = &results[idx++].sim;
        double base_seconds = points[1]->exec_seconds; // 30cyc default
        uint64_t steals = points[1]->steals;
        for (size_t i = 0; i < 4; ++i) {
            double norm = points[i]->exec_seconds / base_seconds;
            std::printf(" %9.3f", norm);
            cli.results.add({.series = "norm_time",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = "base+psm",
                             .metric = strfmt("%llucyc",
                                              (unsigned long long)
                                                  costs[i]),
                             .value = norm});
            if (i == 3)
                worst.push_back(norm);
        }
        std::printf("   %6llu\n", (unsigned long long)steals);
    }
    cli.results.add("summary", "worst_slowdown_pct",
                    100.0 * (maxOf(worst) - 1.0));
    std::printf("\nworst 120-cycle slowdown vs the 30-cycle default: "
                "%.1f%%\n", 100.0 * (maxOf(worst) - 1.0));
    return 0;
}
