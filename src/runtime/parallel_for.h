/**
 * @file
 * parallel_for / parallel_reduce with automatic recursive decomposition
 * (TBB simple_partitioner style): ranges split in half, the right half
 * is forked as a stealable frame job, the left half is executed inline,
 * and the two join before returning — each split is one two-way
 * parallelInvoke (runtime/parallel_invoke.h), so a split that no thief
 * takes costs no heap task and no locked read-modify-write.
 */

#ifndef AAWS_RUNTIME_PARALLEL_FOR_H
#define AAWS_RUNTIME_PARALLEL_FOR_H

#include <algorithm>
#include <cstdint>

#include "runtime/parallel_invoke.h"

namespace aaws {

/**
 * Apply `body(lo, hi)` over [lo, hi) in grain-sized leaf ranges, in
 * parallel.  `body` must be safe to invoke concurrently on disjoint
 * ranges.
 */
template <typename Body>
void
parallelFor(RuntimeBackend &pool, int64_t lo, int64_t hi, int64_t grain,
            const Body &body)
{
    if (hi <= lo)
        return;
    if (hi - lo <= grain) {
        body(lo, hi);
        return;
    }
    int64_t mid = lo + (hi - lo) / 2;
    parallelInvoke(pool, [&] { parallelFor(pool, lo, mid, grain, body); },
                   [&] { parallelFor(pool, mid, hi, grain, body); });
}

/**
 * parallel_for with automatic grain selection (TBB auto_partitioner
 * style): the range is split until there are enough leaves to keep
 * every worker busy through imbalance (4 chunks per worker), without
 * the user choosing a grain.  Prefer the explicit-grain overload when
 * the per-iteration cost is tiny (the auto grain may be too coarse for
 * very skewed bodies).
 */
template <typename Body>
void
parallelForAuto(RuntimeBackend &pool, int64_t lo, int64_t hi,
                const Body &body)
{
    if (hi <= lo)
        return;
    int64_t chunks = 4LL * pool.numWorkers();
    int64_t grain = std::max<int64_t>(1, (hi - lo + chunks - 1) / chunks);
    parallelFor(pool, lo, hi, grain, body);
}

/**
 * Parallel reduction: `leaf(lo, hi)` produces a partial value per leaf
 * range; `combine(a, b)` must be associative.
 */
template <typename T, typename Leaf, typename Combine>
T
parallelReduce(RuntimeBackend &pool, int64_t lo, int64_t hi, int64_t grain,
               T identity, const Leaf &leaf, const Combine &combine)
{
    if (hi <= lo)
        return identity;
    if (hi - lo <= grain)
        return leaf(lo, hi);
    int64_t mid = lo + (hi - lo) / 2;
    T left_value = identity;
    T right_value = identity;
    parallelInvoke(
        pool,
        [&] {
            left_value = parallelReduce(pool, lo, mid, grain, identity,
                                        leaf, combine);
        },
        [&] {
            right_value = parallelReduce(pool, mid, hi, grain, identity,
                                         leaf, combine);
        });
    return combine(left_value, right_value);
}

} // namespace aaws

#endif // AAWS_RUNTIME_PARALLEL_FOR_H
