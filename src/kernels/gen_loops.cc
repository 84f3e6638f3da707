#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "kernels/dag_builders.h"
#include "kernels/generators.h"

namespace aaws {

namespace {

/**
 * LSD radix sort DAG: per 8-bit pass, a parallel count, a short serial
 * scan, and a parallel scatter; block costs inherit the key
 * distribution's locality skew via `scatter_jitter`.
 */
TaskDag
buildRadix2(Rng &rng, int64_t n, int passes, uint64_t count_per_item,
            uint64_t scatter_per_item, int64_t count_leaves,
            int64_t scatter_leaves, double scatter_jitter)
{
    TaskDag dag;
    dag.addPhase(/*serial_work=*/static_cast<uint64_t>(n) / 2, -1);
    for (int pass = 0; pass < passes; ++pass) {
        uint32_t count_root = buildParallelFor(
            dag, n, [=](int64_t) { return count_per_item; },
            std::max<int64_t>(1, n / count_leaves));
        dag.addPhase(/*serial_work=*/9000,
                     static_cast<int32_t>(count_root));
        uint32_t scatter_root = buildParallelFor(
            dag, n,
            [&](int64_t) {
                double j = 1.0 + scatter_jitter * rng.uniform();
                return static_cast<uint64_t>(scatter_per_item * j);
            },
            std::max<int64_t>(1, n / scatter_leaves));
        dag.addPhase(/*serial_work=*/9000,
                     static_cast<int32_t>(scatter_root));
    }
    return dag;
}

} // namespace

TaskDag
genDict(Rng &rng)
{
    // exptSeq_1M_int: batch hash-table insert then lookup; probe lengths
    // vary with the exponential key distribution's collision clustering.
    constexpr int64_t kN = 1000000;
    TaskDag dag;
    dag.addPhase(/*serial_work=*/800000, -1); // table allocation

    uint32_t insert_root = buildParallelFor(
        dag, kN / 2, [&](int64_t) { return 37 + rng.below(16); },
        /*grain=*/(kN / 2) / 50);
    dag.addPhase(/*serial_work=*/40000,
                 static_cast<int32_t>(insert_root));

    uint32_t find_root = buildParallelFor(
        dag, kN / 2, [&](int64_t) { return 30 + rng.below(12); },
        /*grain=*/(kN / 2) / 50);
    dag.addPhase(/*serial_work=*/40000, static_cast<int32_t>(find_root));
    return dag;
}

TaskDag
genRadix1(Rng &rng)
{
    // randomSeq_400K_int: uniform keys, 4 byte-passes, few large tasks.
    return buildRadix2(rng, 400000, /*passes=*/4, /*count=*/7,
                        /*scatter=*/11, /*count_leaves=*/8,
                        /*scatter_leaves=*/16, /*jitter=*/0.10);
}

TaskDag
genRadix2(Rng &rng)
{
    // exptSeq_250K_int: skewed digits concentrate scatter traffic.
    return buildRadix2(rng, 250000, /*passes=*/4, /*count=*/8,
                        /*scatter=*/16, /*count_leaves=*/8,
                        /*scatter_leaves=*/20, /*jitter=*/0.35);
}

TaskDag
genRdups(Rng &rng)
{
    // trigramSeq_300K_pair_int: concurrent hash insert (CAS retries on
    // duplicate-heavy trigram keys) followed by a compaction pass.
    constexpr int64_t kN = 300000;
    TaskDag dag;
    dag.addPhase(/*serial_work=*/600000, -1);

    uint32_t insert_root = buildParallelFor(
        dag, kN,
        [&](int64_t) {
            // Trigram keys repeat heavily: some inserts retry several
            // times.
            uint64_t retries = rng.chance(0.25) ? rng.below(4) : 0;
            return 100 + 30 * retries;
        },
        /*grain=*/kN / 36);
    dag.addPhase(/*serial_work=*/50000,
                 static_cast<int32_t>(insert_root));

    uint32_t compact_root = buildParallelFor(
        dag, kN, [](int64_t) { return uint64_t{52}; }, /*grain=*/kN / 36);
    dag.addPhase(/*serial_work=*/50000,
                 static_cast<int32_t>(compact_root));
    return dag;
}

TaskDag
genSarray(Rng &rng)
{
    // trigramString_120K: prefix-doubling suffix array; log n rounds of
    // rank updates and bucket sorts with serial scans in between.
    constexpr int64_t kN = 120000;
    constexpr int kRounds = 17;
    TaskDag dag;
    dag.addPhase(/*serial_work=*/500000, -1);
    for (int round = 0; round < kRounds; ++round) {
        // Later rounds touch fewer unresolved suffixes.
        auto n = static_cast<int64_t>(
            kN * std::max(0.35, 1.0 - 0.04 * round));
        int64_t grain = std::max<int64_t>(64, n / 18);
        uint32_t rank_root = buildParallelFor(
            dag, n, [&](int64_t) { return 9 + rng.below(4); }, grain);
        dag.addPhase(/*serial_work=*/20000,
                     static_cast<int32_t>(rank_root));
        uint32_t sort_root = buildParallelFor(
            dag, n, [&](int64_t) { return 10 + rng.below(5); }, grain);
        dag.addPhase(/*serial_work=*/20000,
                     static_cast<int32_t>(sort_root));
    }
    return dag;
}

TaskDag
genBscholes(Rng &rng)
{
    // 1024 options priced independently: the classic uniform
    // parallel_for with almost no LP region (64 large tasks).
    constexpr int64_t kN = 1024;
    TaskDag dag;
    dag.addPhase(/*serial_work=*/500000, -1);
    uint32_t root = buildParallelFor(
        dag, kN, [&](int64_t) { return 37500 + rng.below(3000); },
        /*grain=*/32);
    dag.addPhase(/*serial_work=*/60000, static_cast<int32_t>(root));
    return dag;
}

namespace {

/** Recursive spatial split of the heat stencil (cilk heat style). */
uint32_t
buildHeatSplit(TaskDag &dag, int64_t cols, int64_t rows,
               uint64_t per_cell, int64_t cutoff_cols)
{
    uint32_t t = dag.addTask();
    if (cols <= cutoff_cols) {
        dag.addWork(t, per_cell * cols * rows + 90);
        return t;
    }
    dag.addWork(t, 70);
    uint32_t right = buildHeatSplit(dag, cols - cols / 2, rows, per_cell,
                                    cutoff_cols);
    uint32_t left = buildHeatSplit(dag, cols / 2, rows, per_cell,
                                   cutoff_cols);
    dag.addSpawn(t, right);
    dag.addCall(t, left);
    dag.addSync(t);
    return t;
}

} // namespace

TaskDag
genHeat(Rng &rng)
{
    (void)rng; // stencil structure is data-independent
    // -nx 256 -ny 64: three recursive space sweeps over the grid.
    constexpr int64_t kCols = 256;
    constexpr int64_t kRows = 64;
    constexpr int kSteps = 3;
    TaskDag dag;
    dag.addPhase(/*serial_work=*/400000, -1);
    for (int s = 0; s < kSteps; ++s) {
        uint32_t root = buildHeatSplit(dag, kCols, kRows,
                                       /*per_cell=*/1090,
                                       /*cutoff_cols=*/2);
        dag.addPhase(/*serial_work=*/25000, static_cast<int32_t>(root));
    }
    return dag;
}

} // namespace aaws
