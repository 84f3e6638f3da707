/**
 * @file
 * Extension study: how the AAWS benefit scales with machine size.
 * The paper evaluates 8-core systems (4B4L, 1B7L) and argues the
 * conclusions hold for larger systems; this bench sweeps the core count
 * at a fixed 1:1 big/little ratio and reports base+psm speedup and
 * energy-efficiency gain per shape.
 *
 * Driven by the experiment engine: each shape is an "<N>b<N>l"
 * topology preset, so each (shape, kernel, variant) simulation is one
 * parallel task.
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
    const int sizes[] = {1, 2, 4, 6, 8};
    const char *all_names[] = {"radix-2", "qsort-1", "cilksort", "dict",
                               "uts"};
    std::vector<std::string> names;
    for (const char *name : all_names)
        if (cli.matches(name))
            names.push_back(name);

    std::vector<exp::RunSpec> specs;
    for (int n : sizes) {
        for (const auto &name : names) {
            for (Variant v : {Variant::base, Variant::base_psm}) {
                exp::RunSpec spec{name, v};
                spec.overrides.topology = strfmt("%db%dl", n, n);
                specs.push_back(std::move(spec));
            }
        }
    }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("=== Extension: AAWS benefit vs machine size "
                "(base+psm vs base) ===\n\n");
    std::printf("%-7s", "shape");
    for (const auto &name : names)
        std::printf(" %14s", name.c_str());
    std::printf("\n");
    size_t idx = 0;
    for (int n : sizes) {
        std::string shape_name = strfmt("%dB%dL", n, n);
        std::printf("%-7s", shape_name.c_str());
        for (size_t k = 0; k < names.size(); ++k) {
            const SimResult &b = results[idx++].sim;
            const SimResult &a = results[idx++].sim;
            double speedup = speedupOver(b, a);
            double eff = efficiencyGain(b, a);
            std::printf("  %5.2fx/%5.2fe", speedup, eff);
            cli.results.add({.series = "vs_base",
                             .kernel = names[k],
                             .shape = shape_name,
                             .variant = "base+psm",
                             .metric = "speedup",
                             .value = speedup});
            cli.results.add({.series = "vs_base",
                             .kernel = names[k],
                             .shape = shape_name,
                             .variant = "base+psm",
                             .metric = "efficiency_gain",
                             .value = eff});
        }
        std::printf("\n");
    }
    std::printf("\ncells are speedup / perf-per-joule gain "
                "(speedup x E_base/E_psm) of full AAWS over the\n"
                "baseline on each machine shape; the DVFS lookup table "
                "is regenerated per shape\n"
                "((N_B+1)x(N_L+1) entries).\n");
    return 0;
}
