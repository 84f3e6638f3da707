/**
 * @file
 * Figure 9 reproduction: energy efficiency vs performance of every
 * kernel under each AAWS technique subset, normalized to that kernel on
 * the baseline 4B4L system.  Points above perf=eff (the isopower
 * diagonal) draw less power than the baseline.
 *
 * Driven by the experiment engine (parallel fan-out + result cache);
 * the base runs are shared cache entries with fig08 and table3.
 */

#include <cstdio>
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
    const Variant techniques[] = {Variant::base_p, Variant::base_ps,
                                  Variant::base_psm, Variant::base_m};

    std::vector<exp::RunSpec> specs;
    for (const auto &name : names) {
        specs.push_back({name, Variant::base});
        for (Variant v : techniques)
            specs.push_back({name, v});
    }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("=== Figure 9: energy efficiency vs performance, 4B4L "
                "===\n");
    std::printf("kernel,variant,perf,efficiency,power\n");
    std::vector<double> psm_eff, psm_perf, psm_power;
    size_t idx = 0;
    for (const auto &name : names) {
        const RunResult &base = results[idx++];
        for (Variant v : techniques) {
            const RunResult &r = results[idx++];
            double perf = base.sim.exec_seconds / r.sim.exec_seconds;
            double eff = r.efficiency() / base.efficiency();
            double power = r.sim.avg_power / base.sim.avg_power;
            if (v == Variant::base_psm) {
                psm_eff.push_back(eff);
                psm_perf.push_back(perf);
                psm_power.push_back(power);
            }
            cli.results.add({.series = "vs_base",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = variantName(v),
                             .metric = "perf",
                             .value = perf});
            cli.results.add({.series = "vs_base",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = variantName(v),
                             .metric = "efficiency",
                             .value = eff});
            cli.results.add({.series = "vs_base",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = variantName(v),
                             .metric = "power",
                             .value = power});
            std::printf("%s,%s,%.3f,%.3f,%.3f\n", name.c_str(),
                        variantName(v), perf, eff, power);
        }
    }
    int improved = 0;
    for (double e : psm_eff)
        improved += e > 1.0;
    cli.results.add("psm_summary", "improved",
                    static_cast<double>(improved));
    cli.results.add("psm_summary", "kernels",
                    static_cast<double>(psm_eff.size()));
    cli.results.add("psm_summary", "median_efficiency", median(psm_eff));
    cli.results.add("psm_summary", "max_efficiency", maxOf(psm_eff));
    cli.results.add("psm_summary", "median_perf", median(psm_perf));
    cli.results.add("psm_summary", "median_power", median(psm_power));
    std::printf("\nbase+psm energy efficiency: improved on %d/%zu "
                "kernels, median %.2fx, max %.2fx\n", improved,
                psm_eff.size(), median(psm_eff), maxOf(psm_eff));
    std::printf("paper: all but one kernel improved; median 1.11x, max "
                "1.53x\n");
    return 0;
}
