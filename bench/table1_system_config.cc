/**
 * @file
 * Table I reproduction: the cycle-level system configuration this
 * repository simulates, printed from the live defaults so the table can
 * never drift from the code.
 */

#include <cstdio>

#include "aaws/experiment.h"
#include "exp/cli.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    MachineConfig c4;
    FirstOrderModel model(c4.table_params);
    const ModelParams &p = c4.table_params;
    cli.results.add("config", "v_nom", p.v_nom);
    cli.results.add("config", "v_min", p.v_min);
    cli.results.add("config", "v_max", p.v_max);
    cli.results.add("config", "alpha", p.alpha);
    cli.results.add("config", "beta", p.beta);
    cli.results.add("config", "lambda", p.lambda);
    cli.results.add("config", "gamma", p.gamma);
    cli.results.add("config", "f_nominal_mhz",
                    model.freq(p.v_nom) / 1e6);
    cli.results.add("config", "regulator_ns_per_step",
                    c4.regulator_ns_per_step);

    std::printf("=== Table I: system configuration ===\n\n");
    std::printf("technology        modeled after TSMC 65nm LP, %.1f V "
                "nominal\n", p.v_nom);
    std::printf("V/f model         f = k1*V + k2, k1=%.3g Hz/V, "
                "k2=%.3g Hz -> f(V_N) = %.0f MHz\n",
                p.k1, p.k2, model.freq(p.v_nom) / 1e6);
    std::printf("DVFS range        %.2f V .. %.2f V, per-core "
                "integrated regulators\n", p.v_min, p.v_max);
    std::printf("transition        %.0f ns per %.2f V step; execute "
                "through at min(f_old, f_new)\n",
                c4.regulator_ns_per_step, c4.regulator_volts_per_step);
    std::printf("little core       in-order-class, IPC = app-specific "
                "(Table III), alpha_L = 1\n");
    std::printf("big core          out-of-order-class, IPC = beta x "
                "little, energy = alpha x little\n");
    std::printf("designer model    alpha = %.1f, beta = %.1f (DVFS "
                "lookup table generation)\n", p.alpha, p.beta);
    std::printf("leakage           lambda = %.2f of big nominal power; "
                "little leak current = %.2f x big\n", p.lambda, p.gamma);
    std::printf("systems           4B4L (4 big + 4 little) and 1B7L "
                "(1 big + 7 little)\n");
    std::printf("runtime costs     spawn %llu, task-begin %llu, sync "
                "%llu instr; steal %llu (+%llu hit) cycles\n",
                (unsigned long long)c4.costs.spawn_instrs,
                (unsigned long long)c4.costs.task_begin_instrs,
                (unsigned long long)c4.costs.sync_instrs,
                (unsigned long long)c4.costs.steal_attempt_cycles,
                (unsigned long long)c4.costs.steal_success_cycles);
    std::printf("mug costs         %llu-cycle interrupt, %llu instr "
                "swap/side, %llu instr cache penalty\n",
                (unsigned long long)c4.costs.mug_interrupt_cycles,
                (unsigned long long)c4.costs.mug_swap_instrs,
                (unsigned long long)c4.costs.mug_cache_penalty_instrs);

    std::printf("\n=== DVFS lookup table (4B4L, 25 entries; Section "
                "III-A) ===\n");
    DvfsLookupTable table(model, makeTopology(c4.topology, p));
    std::printf("%-14s", "bigA\\littleA");
    for (int la = 0; la <= 4; ++la)
        std::printf("        %d       ", la);
    std::printf("\n");
    for (int ba = 0; ba <= 4; ++ba) {
        std::printf("%-14d", ba);
        for (int la = 0; la <= 4; ++la) {
            const DvfsTableEntry &e = table.atCounts({ba, la});
            std::printf("  (%.2f, %.2f) ", e.v[0], e.v[1]);
        }
        std::printf("\n");
    }
    std::printf("(entries are (V_big, V_little) for the active cores; "
                "waiters rest at %.2f V)\n", p.v_min);
    return 0;
}
