#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "kernels/dag_builders.h"
#include "kernels/generators.h"

namespace aaws {

namespace {

/** Instruction-cost constants of a quicksort skeleton. */
struct QsortCosts
{
    /** Per-element partition cost (compare + swap + loop). */
    uint64_t per_elem_partition;
    /** Per-element-per-level cost of the serial leaf sort. */
    uint64_t per_elem_leaf;
    /** Subarray size below which the leaf sorts serially. */
    int64_t cutoff;
};

/**
 * Run the real quicksort recursion over `vals[lo, hi)` (median-of-3
 * pivot, genuine partitioning) and record the task each recursion level
 * would be, so task sizes inherit the dataset's split imbalance.
 */
uint32_t
buildQsort(TaskDag &dag, std::vector<double> &vals, int64_t lo, int64_t hi,
           const QsortCosts &costs)
{
    uint32_t t = dag.addTask();
    int64_t m = hi - lo;
    if (m <= costs.cutoff) {
        double levels = std::log2(std::max<double>(2.0, m));
        dag.addWork(t, static_cast<uint64_t>(
                           costs.per_elem_leaf * m * levels) + 40);
        return t;
    }
    // Median-of-3 pivot over the actual values.
    double a = vals[lo];
    double b = vals[lo + m / 2];
    double c = vals[hi - 1];
    double pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
    auto *base = vals.data();
    auto *split = std::partition(base + lo, base + hi,
                                 [pivot](double x) { return x < pivot; });
    int64_t p = split - base;
    // Guarantee progress when many keys equal the pivot.
    if (p == lo)
        p = lo + m / 2;
    dag.addWork(t, costs.per_elem_partition * m + 60);
    uint32_t right = buildQsort(dag, vals, p, hi, costs);
    uint32_t left = buildQsort(dag, vals, lo, p, costs);
    dag.addSpawn(t, right);
    dag.addCall(t, left);
    dag.addSync(t);
    return t;
}

/** Structural cilkmerge recursion: parallel merge of m elements. */
uint32_t
buildCilkMerge(TaskDag &dag, int64_t m, int64_t cutoff, uint64_t per_elem)
{
    uint32_t t = dag.addTask();
    if (m <= cutoff) {
        dag.addWork(t, per_elem * m + 50);
        return t;
    }
    dag.addWork(t, 120); // binary search for the split point
    uint32_t right = buildCilkMerge(dag, m - m / 2, cutoff, per_elem);
    uint32_t left = buildCilkMerge(dag, m / 2, cutoff, per_elem);
    dag.addSpawn(t, right);
    dag.addCall(t, left);
    dag.addSync(t);
    return t;
}

/** Structural cilksort recursion: mergesort with parallel merge. */
uint32_t
buildCilksort(TaskDag &dag, int64_t m, int64_t sort_cutoff,
              int64_t merge_cutoff, uint64_t leaf_per_elem,
              uint64_t merge_per_elem)
{
    uint32_t t = dag.addTask();
    if (m <= sort_cutoff) {
        double levels = std::log2(std::max<double>(2.0, m));
        dag.addWork(t, static_cast<uint64_t>(
                           leaf_per_elem * m * levels) + 60);
        return t;
    }
    dag.addWork(t, 80);
    uint32_t right = buildCilksort(dag, m - m / 2, sort_cutoff,
                                   merge_cutoff, leaf_per_elem,
                                   merge_per_elem);
    uint32_t left = buildCilksort(dag, m / 2, sort_cutoff, merge_cutoff,
                                  leaf_per_elem, merge_per_elem);
    dag.addSpawn(t, right);
    dag.addCall(t, left);
    dag.addSync(t);
    uint32_t merge = buildCilkMerge(dag, m, merge_cutoff, merge_per_elem);
    dag.addCall(t, merge);
    return t;
}

} // namespace

TaskDag
genQsort1(Rng &rng)
{
    // exptSeq_10K_double: exponential keys make pivots skewed, creating
    // very short and very long tasks (the paper calls this out as the
    // source of qsort-1's large LP regions).
    constexpr int64_t kN = 10000;
    std::vector<double> vals(kN);
    for (auto &v : vals)
        v = rng.exponential(1.0);
    TaskDag dag;
    uint32_t root = buildQsort(dag, vals, 0, kN,
                               QsortCosts{165, 42, 40});
    dag.addPhase(/*serial_work=*/300000, static_cast<int32_t>(root));
    return dag;
}

TaskDag
genQsort2(Rng &rng)
{
    // trigramSeq_50K: heavily duplicated string keys; model the trigram
    // distribution with a discretized exponential plus a tiny tiebreak.
    constexpr int64_t kN = 50000;
    std::vector<double> vals(kN);
    for (auto &v : vals)
        v = std::floor(rng.exponential(300.0)) + rng.uniform() * 1e-3;
    TaskDag dag;
    uint32_t root = buildQsort(dag, vals, 0, kN,
                               QsortCosts{26, 14, 55});
    dag.addPhase(/*serial_work=*/400000, static_cast<int32_t>(root));
    return dag;
}

TaskDag
genCilksort(Rng &rng)
{
    (void)rng; // balanced recursion: structure is data-independent
    constexpr int64_t kN = 300000;
    TaskDag dag;
    uint32_t root = buildCilksort(dag, kN, /*sort_cutoff=*/2048,
                                  /*merge_cutoff=*/4096,
                                  /*leaf_per_elem=*/9,
                                  /*merge_per_elem=*/8);
    dag.addPhase(/*serial_work=*/600000, static_cast<int32_t>(root));
    return dag;
}

TaskDag
genSampsort(Rng &rng)
{
    // Nested parallelism (np): classify into buckets, transpose, then a
    // nested quicksort per bucket, then copy back.  Thousands of tiny
    // tasks (Table III: 15522 tasks of ~2K instructions).
    constexpr int64_t kN = 10000;
    constexpr int64_t kBuckets = 100;
    TaskDag dag;

    // Phase 1: classify each element (binary search over pivots).
    uint32_t classify_root = buildParallelFor(
        dag, kN, [&](int64_t) { return 700 + rng.below(160); },
        /*grain=*/5);
    dag.addPhase(/*serial_work=*/200000,
                 static_cast<int32_t>(classify_root));

    // Phase 2: per-bucket nested quicksort.  Bucket sizes come from
    // multinomial sampling of the exponential keys: skewed buckets.
    std::vector<int64_t> bucket_sizes(kBuckets, 0);
    for (int64_t i = 0; i < kN; ++i) {
        double key = rng.exponential(1.0);
        auto b = static_cast<int64_t>(key / 6.0 * kBuckets);
        bucket_sizes[std::min(b, kBuckets - 1)]++;
    }
    std::vector<ForItem> buckets(kBuckets);
    for (int64_t b = 0; b < kBuckets; ++b) {
        int64_t m = std::max<int64_t>(1, bucket_sizes[b]);
        std::vector<double> vals(m);
        for (auto &v : vals)
            v = rng.uniform();
        uint32_t sort_task =
            buildQsort(dag, vals, 0, m, QsortCosts{420, 90, 10});
        buckets[b].work = 200;
        buckets[b].call_task = static_cast<int32_t>(sort_task);
    }
    uint32_t bucket_root = buildParallelFor(dag, buckets, /*grain=*/1);
    dag.addPhase(/*serial_work=*/60000, static_cast<int32_t>(bucket_root));

    // Phase 3: copy back.
    uint32_t copy_root = buildParallelFor(
        dag, kN, [](int64_t) { return uint64_t{520}; }, /*grain=*/5);
    dag.addPhase(/*serial_work=*/40000, static_cast<int32_t>(copy_root));
    return dag;
}

} // namespace aaws
