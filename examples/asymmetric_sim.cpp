/**
 * @file
 * Domain example: evaluate a custom workload on the simulated
 * asymmetric machine and see what each AAWS technique buys.
 *
 * Builds a task graph by hand (a divide-and-conquer phase followed by a
 * skewed low-parallel tail, the structure AAWS targets), runs it on the
 * 4B4L machine under every runtime variant, and prints times, energy,
 * region breakdowns, and the activity profile of the full AAWS run.
 */

#include <cstdio>

#include "aaws/variant.h"
#include "kernels/dag_builders.h"
#include "sim/machine.h"

using namespace aaws;

namespace {

/** A two-phase workload with a deliberately skewed tail. */
TaskDag
makeWorkload()
{
    TaskDag dag;

    // Phase 1: a uniform parallel_for (high-parallel region) of 4096
    // iterations of 2000 instructions each.
    uint32_t loop = buildParallelFor(
        dag, /*n=*/4096, [](int64_t) { return uint64_t{2000}; },
        /*grain=*/64);
    dag.addPhase(/*serial_work=*/400'000, static_cast<int32_t>(loop));

    // Phase 2: eight tasks, one of them 8x larger (low-parallel tail).
    uint32_t root = dag.addTask();
    for (int i = 0; i < 8; ++i) {
        uint32_t child = dag.addTask();
        // Index chosen so the fat task is stolen by a little core.
        dag.addWork(child, i == 4 ? 8'000'000 : 1'000'000);
        dag.addSpawn(root, child);
    }
    dag.addSync(root);
    dag.addPhase(/*serial_work=*/100'000, static_cast<int32_t>(root));
    return dag;
}

} // namespace

int
main()
{
    TaskDag dag = makeWorkload();
    dag.validate();
    std::printf("workload: %zu tasks, %.1fM instructions, span %.1fM\n\n",
                dag.numTasks(), dag.totalWork() / 1e6,
                dag.criticalPathWork() / 1e6);

    double base_seconds = 0.0;
    double base_energy = 0.0;
    std::printf("%-9s %10s %9s %9s %8s %7s %7s\n", "variant",
                "time(ms)", "speedup", "energy", "eff", "mugs",
                "LPshare");
    for (Variant v : allVariants()) {
        MachineConfig config;
        config.policy = policyConfigFor(v);
        SimResult r = Machine(config, dag).run();
        if (v == Variant::base) {
            base_seconds = r.exec_seconds;
            base_energy = r.energy;
        }
        double lp = r.regions.lp_bi_lt_la + r.regions.lp_bi_ge_la +
                    r.regions.lp_other;
        // Same total work per run: efficiency gain = energy ratio.
        std::printf("%-9s %10.3f %8.2fx %9.3g %7.2fx %7llu %6.1f%%\n",
                    variantName(v), r.exec_seconds * 1e3,
                    base_seconds / r.exec_seconds, r.energy,
                    base_energy / r.energy,
                    static_cast<unsigned long long>(r.mugs),
                    100.0 * lp / r.exec_seconds);
    }

    std::printf("\nfull AAWS (base+psm) activity profile:\n");
    MachineConfig config;
    config.policy = policyConfigFor(Variant::base_psm);
    config.collect_trace = true;
    SimResult r = Machine(config, dag).run();
    std::printf("%s", r.trace.renderAscii(8, 96, 1.0).c_str());
    std::printf("('#'=task 'S'=serial 'M'=mug swap; voltage row: "
                "'+/^'=boost 'v/_'=rest)\n");
    return 0;
}
