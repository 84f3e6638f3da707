/**
 * @file
 * Command-line driver for the asymmetric-machine simulator: run any
 * kernel x topology x variant and print a gem5-style stats report
 * (per-core activity/energy, region breakdown, scheduler counters),
 * optionally with the activity profile.
 *
 * Usage: simulate <kernel|list> [topology] [variant] [--trace]
 *        [--stats]
 *   The topology is any preset name, case-insensitively (4B4L, 1b7l,
 *   2b2m4l, 4b4l:pc, ...; default 4b4l).
 *   e.g. simulate radix-2 4B4L base+psm --trace --stats
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "aaws/experiment.h"
#include "exp/run_spec.h"
#include "sim/stats_writer.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <kernel|list> [topology] [variant] "
                     "[--trace] [--stats]\n", argv[0]);
        return 1;
    }
    if (std::strcmp(argv[1], "list") == 0) {
        for (const auto &name : kernelNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    exp::RunSpec spec{argv[1], Variant::base_psm};
    bool stats = false;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        std::string preset;
        for (char c : arg)
            preset += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        CoreTopology parsed;
        if (arg == "--trace")
            spec.collect_trace = true;
        else if (arg == "--stats")
            stats = true;
        else if (parseTopologyName(preset, ModelParams{}, parsed))
            spec.overrides.topology = preset;
        else
            spec.variant = variantFromName(arg);
    }

    Kernel kernel = makeKernel(spec.kernel, spec.seed);
    MachineConfig config = exp::configForSpec(kernel, spec);
    const SimResult r = exp::executeSpec(spec, kernel).sim;
    const CoreTopology topology =
        makeTopology(config.topology, config.app_params);

    std::printf("kernel            %s (%s, %s)\n", spec.kernel.c_str(),
                kernel.stats.suite, kernel.stats.pm);
    std::printf("system / variant  %s / %s\n", topology.name().c_str(),
                variantName(spec.variant));
    std::printf("exec time         %.3f ms\n", r.exec_seconds * 1e3);
    std::printf("instructions      %.1f M\n", r.instructions / 1e6);
    std::printf("energy            %.4g (avg power %.4g)\n", r.energy,
                r.avg_power);
    std::printf("tasks / steals    %llu / %llu (+%llu failed)\n",
                (unsigned long long)r.tasks_executed,
                (unsigned long long)r.steals,
                (unsigned long long)r.failed_steals);
    std::printf("mugs / dvfs trans %llu (+%llu aborted) / %llu\n",
                (unsigned long long)r.mugs,
                (unsigned long long)r.aborted_mugs,
                (unsigned long long)r.transitions);
    const RegionBreakdown &g = r.regions;
    std::printf("regions           serial %.1f%%  HP %.1f%%  BI<LA "
                "%.1f%%  BI>=LA %.1f%%  oLP %.1f%%\n",
                100 * g.serial / g.total(), 100 * g.hp / g.total(),
                100 * g.lp_bi_lt_la / g.total(),
                100 * g.lp_bi_ge_la / g.total(),
                100 * g.lp_other / g.total());

    std::printf("\nper-core stats:\n");
    std::printf("  %-6s %-7s %10s %10s %10s\n", "core", "type",
                "busy(ms)", "wait(ms)", "energy");
    for (size_t c = 0; c < r.core_stats.size(); ++c) {
        const CoreStats &s = r.core_stats[c];
        const int cluster = topology.clusterOf(static_cast<int>(c));
        std::printf("  %-6zu %-7s %10.3f %10.3f %10.4g\n", c,
                    clusterKindName(topology.cluster(cluster).kind),
                    s.busy_seconds * 1e3, s.waiting_seconds * 1e3,
                    s.energy);
    }

    if (stats)
        std::printf("\n%s", formatStats(config, r).c_str());

    if (spec.collect_trace) {
        std::printf("\nactivity profile:\n%s",
                    r.trace
                        .renderAscii(static_cast<int>(r.core_stats.size()),
                                     100, 1.0)
                        .c_str());
    }
    return 0;
}
