/**
 * @file
 * Section IV-E validation analog: the component-level energy model
 * (per-event energies x per-application instruction mixes) derives an
 * energy-per-instruction for each core design, whose big/little ratio is
 * an independently obtained alpha.  Compare it per kernel against the
 * measured ERatio column of Table III that the first-order model
 * consumes -- the cross-check the paper performs between its VLSI
 * numbers and the normalized McPAT components.
 */

#include <cstdio>

#include "common/stats.h"
#include "energy/instr_mix.h"
#include "exp/cli.h"
#include "kernels/table3.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    const EventEnergyTable little_core = EventEnergyTable::littleCore();
    const EventEnergyTable big_core = EventEnergyTable::bigCore();
    std::printf("=== Component-level energy model vs Table III ERatio "
                "===\n\n");
    std::printf("%-9s %12s %12s %10s %10s\n", "kernel", "EPI_L(pJ)",
                "EPI_B(pJ)", "alpha_cmp", "alpha_tab3");
    std::vector<double> errors;
    for (const auto &row : table3()) {
        const InstrMix &mix = instrMixFor(row.name);
        double little = energyPerInstrPj(little_core, mix);
        double big = energyPerInstrPj(big_core, mix);
        double alpha = big / little;
        errors.push_back(alpha / row.alpha);
        cli.results.add({.series = "alpha_agreement",
                         .kernel = row.name,
                         .metric = "ratio",
                         .value = alpha / row.alpha});
        std::printf("%-9s %12.1f %12.1f %10.2f %10.2f\n", row.name,
                    little, big, alpha, row.alpha);
    }
    cli.results.add("alpha_agreement", "median_ratio", median(errors));
    std::printf("\ncomponent-alpha / table3-alpha: median %.2f "
                "(1.0 = perfect agreement), range %.2f..%.2f\n",
                median(errors), minOf(errors), maxOf(errors));
    std::printf("paper: iterated its component model until "
                "microbenchmark energies matched the VLSI flow, then\n"
                "normalized McPAT's out-of-order components against "
                "shared structures (ALU, register file).\n");
    return 0;
}
