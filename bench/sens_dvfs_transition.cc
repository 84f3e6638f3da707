/**
 * @file
 * Sensitivity study from Section IV-D: sweep the regulator transition
 * cost from 40 ns to 250 ns per 0.15 V step.  The paper reports < 2%
 * overall performance impact because transitions are rare (~0.2 per
 * 10 us on average).
 *
 * Driven by the experiment engine with regulator_ns_per_step spec
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
    const double steps[] = {40.0, 100.0, 175.0, 250.0};

    std::vector<exp::RunSpec> specs;
    for (const auto &name : names) {
        for (double ns : steps) {
            exp::RunSpec spec{name, Variant::base_psm};
            spec.overrides.regulator_ns_per_step = ns;
            specs.push_back(std::move(spec));
        }
    }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("=== Sensitivity: DVFS transition latency (base+psm, "
                "4B4L) ===\n\n");
    std::printf("%-9s", "kernel");
    for (double ns : steps)
        std::printf(" %7.0fns", ns);
    std::printf("   trans/10us\n");

    std::vector<double> worst, rates;
    size_t idx = 0;
    for (const auto &name : names) {
        std::printf("%-9s", name.c_str());
        const SimResult *points[4];
        for (size_t i = 0; i < 4; ++i)
            points[i] = &results[idx++].sim;
        double base_seconds = points[0]->exec_seconds;
        double transitions_per_10us =
            points[0]->transitions / (points[0]->exec_seconds * 1e5);
        rates.push_back(transitions_per_10us);
        for (size_t i = 0; i < 4; ++i) {
            double norm = points[i]->exec_seconds / base_seconds;
            std::printf(" %8.3f", norm);
            cli.results.add({.series = "norm_time",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = "base+psm",
                             .metric = strfmt("%.0fns", steps[i]),
                             .value = norm});
            if (i == 3)
                worst.push_back(norm);
        }
        std::printf("   %8.2f\n", transitions_per_10us);
    }
    cli.results.add("summary", "worst_slowdown_pct",
                    100.0 * (maxOf(worst) - 1.0));
    cli.results.add("summary", "max_transitions_per_10us", maxOf(rates));
    std::printf("\nworst 250ns slowdown: %.1f%% (paper: < 2%%)\n",
                100.0 * (maxOf(worst) - 1.0));
    return 0;
}
