/**
 * @file
 * Native AAWS policies: one policy layer, every runtime variant, both
 * backends.
 *
 * The scheduler-policy layer in src/sched/ is engine-agnostic, so the
 * same assemblies the simulator evaluates (base, base+p, ..., base+psm)
 * also drive both native pools — the Chase-Lev deque WorkerPool and the
 * channel-based (steal-request) ChannelPool — through the shared
 * RuntimeBackend seam.  This example runs one workload under every
 * variant on each backend, switching the policy stack at runtime, with
 * a software pacing governor attached: the governor listens to the
 * pool's activity hints, maintains the big/little census, and logs the
 * voltage each worker *would* be set to by the paper's lookup-table
 * DVFS controller.  Build and run:
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/native_pacing            # both backends
 *   ./build/examples/native_pacing chan       # just one
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <memory>

#include "aaws/governor.h"
#include "aaws/variant.h"
#include "chan/backend_factory.h"
#include "dvfs/lookup_table.h"
#include "model/first_order.h"
#include "runtime/parallel_for.h"

using namespace aaws;

namespace {

/** A mildly irregular workload so workers actually steal. */
double
crunch(RuntimeBackend &pool, int64_t n)
{
    std::atomic<double> sum{0.0};
    parallelFor(pool, 0, n, 512, [&](int64_t lo, int64_t hi) {
        double s = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
            // Leaf cost varies ~8x with the index: imbalance feeds the
            // steal path and, under base+m, the mug path.
            int reps = 1 + static_cast<int>(i % 8);
            for (int r = 0; r < reps; ++r)
                s += std::sin(1e-6 * static_cast<double>(i + r));
        }
        double expected = sum.load(std::memory_order_relaxed);
        while (!sum.compare_exchange_weak(expected, expected + s,
                                          std::memory_order_relaxed)) {
        }
    });
    return sum.load();
}

void
runBackend(BackendKind kind, const DvfsLookupTable &table,
           const ModelParams &mp, int workers, int n_big, int64_t n)
{
    std::printf("--- backend: %s ---\n", backendName(kind));
    std::printf("%-9s %8s %8s %6s %6s %7s %7s %8s\n", "variant",
                "steals", "mugTry", "mugs", "rounds", "rests",
                "sprints", "checksum");
    for (Variant v : allVariants()) {
        PacingGovernor governor(policyConfigFor(v), table, mp);
        PoolOptions options;
        options.policy = policyConfigFor(v);
        options.n_big = n_big;
        options.hooks = &governor;
        std::unique_ptr<RuntimeBackend> pool =
            chan::makeBackend(kind, workers, options);
        double checksum = crunch(*pool, n);
        std::printf("%-9s %8llu %8llu %6llu %6llu %7llu %7llu %8.2f\n",
                    variantName(v),
                    static_cast<unsigned long long>(pool->steals()),
                    static_cast<unsigned long long>(pool->mugAttempts()),
                    static_cast<unsigned long long>(pool->mugs()),
                    static_cast<unsigned long long>(
                        governor.decisionRounds()),
                    static_cast<unsigned long long>(
                        governor.restIntents()),
                    static_cast<unsigned long long>(
                        governor.sprintIntents()),
                    checksum);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // A 1 big + 3 little native machine: worker 0 plays the big core.
    const int kWorkers = 4;
    const int kBig = 1;
    const int64_t kN = 1 << 19;

    bool run_deque = true;
    bool run_chan = true;
    if (argc > 1) {
        BackendKind kind;
        if (!parseBackendKind(argv[1], kind)) {
            std::fprintf(stderr,
                         "usage: %s [deque|chan]  (no argument runs "
                         "both backends)\n",
                         argv[0]);
            return 1;
        }
        run_deque = kind == BackendKind::deque;
        run_chan = kind == BackendKind::chan;
    }

    // The marginal-utility table the governor maps census cells
    // through — the same table generation the simulator uses, over the
    // pools' n_big split.
    ModelParams mp;
    DvfsLookupTable table(FirstOrderModel(mp),
                          CoreTopology::bigLittle(kBig, kWorkers - kBig, mp));

    std::printf("native pools: %d workers (%dB%dL)\n\n", kWorkers, kBig,
                kWorkers - kBig);
    if (run_deque)
        runBackend(BackendKind::deque, table, mp, kWorkers, kBig, kN);
    if (run_chan)
        runBackend(BackendKind::chan, table, mp, kWorkers, kBig, kN);

    // Show one governor decision log in detail: what each worker would
    // be running at under full-AAWS with the whole machine busy.
    std::printf("base+psm boot decision (all workers active):\n");
    PacingGovernor governor(policyConfigFor(Variant::base_psm), table, mp);
    for (int w = 0; w < kWorkers; ++w) {
        GovernorDecision d = governor.decision(w);
        std::printf("  worker %d (%s): %.3f V\n", w,
                    w < kBig ? "big" : "little", d.voltage);
    }
    return 0;
}
