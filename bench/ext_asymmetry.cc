/**
 * @file
 * Extension study: the AAWS techniques on N-cluster topologies.
 *
 * The paper evaluates two-cluster big/little systems (4B4L, 1B7L);
 * this bench sweeps every runtime variant across topology presets —
 * including a three-cluster big/medium/little machine — to check that
 * the techniques generalize beyond the dichotomy:
 *
 *  1. topology sweep: all five variants x {4b4l, 1b7l, 2b2m4l},
 *     speedup and perf-per-joule gain vs the `base` runtime on the
 *     same topology (engine-cached; the DVFS lookup table is
 *     regenerated per topology, one cell per census tuple);
 *  2. criticality-victim ablation: direct (uncached) runs comparing
 *     Costero-style criticality-aware victim selection against the
 *     paper's occupancy policy on each topology.
 *
 * `--topology=NAME` (or AAWS_TOPOLOGY) restricts both legs to one
 * preset.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "aaws/experiment.h"
#include "common/stats.h"
#include "exp/cli.h"
#include "exp/engine.h"
#include "sim/machine.h"

using namespace aaws;

namespace {

/** Kernels the sweep covers (the ext_scaling set). */
const char *kSweepKernels[] = {"radix-2", "qsort-1", "cilksort", "dict",
                               "uts"};

double
runCriticality(const Kernel &kernel, const std::string &preset,
               bool criticality)
{
    exp::RunSpec spec{kernel.stats.name, Variant::base_psm};
    spec.overrides.topology = preset;
    MachineConfig config = exp::configForSpec(kernel, spec);
    if (criticality)
        config.victim = sched::VictimPolicy::criticality;
    return Machine(config, kernel.dag).run().exec_seconds;
}

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

    // --- 1. variant sweep across topologies (engine-cached) ---------
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

    // --- 2. criticality-aware victim selection ablation -------------
    // Direct runs: the victim policy is not spec-addressable, so these
    // bypass the engine cache like ablation_victim_biasing.
    std::printf("\n--- criticality vs occupancy victim selection "
                "(base+psm; values are time ratios) ---\n%-9s", "kernel");
    for (const auto &preset : presets)
        std::printf(" %9s", preset.c_str());
    std::printf("\n");
    std::vector<double> crit_ratios;
    for (const auto &name : names) {
        Kernel kernel = makeKernel(name);
        std::printf("%-9s", name.c_str());
        for (const auto &preset : presets) {
            double occ = runCriticality(kernel, preset, false);
            double crit = runCriticality(kernel, preset, true);
            double ratio = crit / occ;
            crit_ratios.push_back(ratio);
            cli.results.add({.series = "criticality",
                             .kernel = name,
                             .shape = preset,
                             .variant = "base+psm",
                             .metric = "time_ratio",
                             .value = ratio});
            std::printf(" %8.3fx", ratio);
        }
        std::printf("\n");
    }
    cli.results.add("criticality_summary", "median_ratio",
                    median(crit_ratios));
    cli.results.add("criticality_summary", "max_ratio",
                    maxOf(crit_ratios));
    std::printf("\ncriticality victim selection: median %.3fx, worst "
                "%.3fx of the occupancy baseline\n",
                median(crit_ratios), maxOf(crit_ratios));
    return 0;
}
