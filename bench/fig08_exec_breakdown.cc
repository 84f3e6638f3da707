/**
 * @file
 * Figure 8 reproduction: normalized execution-time breakdown for every
 * kernel on the 1B7L and 4B4L systems as the AAWS techniques are
 * incrementally enabled (base, +p, +ps, +psm, and mugging-only +m).
 * Each bar is broken into serial / HP / BI<LA / BI>=LA / oLP time, all
 * normalized to that kernel's baseline.
 *
 * Driven by the experiment engine: all (topology x kernel x variant)
 * simulations fan out on the native runtime.  Shares the engine CLI
 * (--jobs, --filter, --results-json, ...; see src/exp/cli.h).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "aaws/experiment.h"
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
    // Each machine's topology preset and its display name.
    const struct
    {
        std::string topology;
        const char *name;
    } shapes[] = {{"1b7l", "1B7L"}, {"4b4l", "4B4L"}};

    std::vector<exp::RunSpec> specs;
    for (const auto &shape : shapes)
        for (const auto &name : names)
            for (Variant v : allVariants()) {
                exp::RunSpec spec{name, v};
                spec.overrides.topology = shape.topology;
                specs.push_back(std::move(spec));
            }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    size_t idx = 0;
    for (const auto &shape : shapes) {
        std::printf("=== Figure 8 (%s): normalized execution time "
                    "breakdown ===\n", shape.name);
        std::printf("%-9s %-9s %8s %8s %8s %8s %8s %8s %9s\n", "kernel",
                    "variant", "serial", "hp", "BI<LA", "BI>=LA", "oLP",
                    "total", "speedup");
        std::vector<double> psm_speedups;
        for (const auto &name : names) {
            double base_seconds = 0.0;
            for (Variant v : allVariants()) {
                const SimResult &r = results[idx++].sim;
                if (v == Variant::base)
                    base_seconds = r.exec_seconds;
                double n = base_seconds;
                const RegionBreakdown &g = r.regions;
                double speedup = base_seconds / r.exec_seconds;
                if (v == Variant::base_psm)
                    psm_speedups.push_back(speedup);
                cli.results.add({.series = "breakdown",
                                 .kernel = name,
                                 .shape = shape.name,
                                 .variant = variantName(v),
                                 .metric = "speedup",
                                 .value = speedup});
                std::printf(
                    "%-9s %-9s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f "
                    "%8.2fx\n",
                    name.c_str(), variantName(v), g.serial / n, g.hp / n,
                    g.lp_bi_lt_la / n, g.lp_bi_ge_la / n, g.lp_other / n,
                    r.exec_seconds / base_seconds, speedup);
            }
        }
        cli.results.add({.series = "psm_speedup",
                         .shape = shape.name,
                         .variant = "base+psm",
                         .metric = "min",
                         .value = minOf(psm_speedups)});
        cli.results.add({.series = "psm_speedup",
                         .shape = shape.name,
                         .variant = "base+psm",
                         .metric = "median",
                         .value = median(psm_speedups)});
        cli.results.add({.series = "psm_speedup",
                         .shape = shape.name,
                         .variant = "base+psm",
                         .metric = "max",
                         .value = maxOf(psm_speedups)});
        std::printf("\n%s base+psm speedups: min %.2fx median %.2fx "
                    "max %.2fx", shape.name, minOf(psm_speedups),
                    median(psm_speedups), maxOf(psm_speedups));
        if (shape.topology == "4b4l")
            std::printf("   [paper 4B4L: 1.02x / 1.10x / 1.32x]");
        std::printf("\n\n");
    }

    return 0;
}
