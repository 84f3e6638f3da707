/**
 * @file
 * Extension study: the AAWS techniques on N-cluster topologies.
 *
 * The paper evaluates two-cluster big/little systems (4B4L, 1B7L);
 * this bench sweeps all five runtime variants across {4b4l, 1b7l,
 * 2b2m4l} — including a three-cluster big/medium/little machine — to
 * check that the techniques generalize beyond the dichotomy.  Each cell
 * is the speedup and perf-per-joule gain vs the `base` runtime on the
 * same topology (engine-cached; the DVFS lookup table is regenerated
 * per topology, one cell per census tuple).
 *
 * `--topology=NAME` restricts the sweep to one preset.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "aaws/experiment.h"
#include "common/stats.h"
#include "exp/cli.h"
#include "exp/engine.h"

using namespace aaws;

namespace {

/** Kernels the sweep covers (the ext_scaling set). */
const char *kSweepKernels[] = {"radix-2", "qsort-1", "cilksort", "dict",
                               "uts"};

} // namespace

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    std::vector<std::string> presets = {"4b4l", "1b7l", "2b2m4l"};
    if (!cli.topology.empty())
        presets = {cli.topology};
    std::vector<std::string> names;
    for (const char *name : kSweepKernels)
        if (cli.matches(name))
            names.push_back(name);

    // Variant sweep across topologies (engine-cached).
    std::vector<exp::RunSpec> specs;
    for (const auto &preset : presets) {
        for (const auto &name : names) {
            for (Variant v : allVariants()) {
                exp::RunSpec spec{name, v};
                spec.overrides.topology = preset;
                specs.push_back(std::move(spec));
            }
        }
    }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("=== Extension: AAWS variants on N-cluster topologies "
                "===\n");
    const size_t nv = allVariants().size();
    std::vector<double> psm_speedups, psm_gains;
    size_t idx = 0;
    for (const auto &preset : presets) {
        std::printf("\n--- topology %s (cells: speedup / "
                    "perf-per-joule gain vs base) ---\n%-9s",
                    preset.c_str(), "kernel");
        for (Variant v : allVariants())
            if (v != Variant::base)
                std::printf(" %14s", variantName(v));
        std::printf("\n");
        for (const auto &name : names) {
            const SimResult &base = results[idx].sim;
            std::printf("%-9s", name.c_str());
            for (size_t k = 1; k < nv; ++k) {
                Variant v = allVariants()[k];
                const SimResult &opt = results[idx + k].sim;
                double speedup = speedupOver(base, opt);
                double gain = efficiencyGain(base, opt);
                std::printf("  %5.2fx/%5.2fe", speedup, gain);
                cli.results.add({.series = "vs_base",
                                 .kernel = name,
                                 .shape = preset,
                                 .variant = variantName(v),
                                 .metric = "speedup",
                                 .value = speedup});
                cli.results.add({.series = "vs_base",
                                 .kernel = name,
                                 .shape = preset,
                                 .variant = variantName(v),
                                 .metric = "efficiency_gain",
                                 .value = gain});
                if (v == Variant::base_psm) {
                    psm_speedups.push_back(speedup);
                    psm_gains.push_back(gain);
                }
            }
            std::printf("\n");
            idx += nv;
        }
    }
    cli.results.add("summary", "min_psm_speedup", minOf(psm_speedups));
    cli.results.add("summary", "median_psm_speedup",
                    median(psm_speedups));
    cli.results.add("summary", "min_psm_efficiency_gain",
                    minOf(psm_gains));
    std::printf("\nbase+psm across %zu topologies: speedup min %.3fx "
                "median %.3fx; perf-per-joule gain min %.3fe\n",
                presets.size(), minOf(psm_speedups),
                median(psm_speedups), minOf(psm_gains));
    return 0;
}
