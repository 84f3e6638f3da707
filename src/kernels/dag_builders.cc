#include "kernels/dag_builders.h"

#include <algorithm>

#include "common/logging.h"

namespace aaws {

namespace detail {

namespace {

/** Recursive helper: build the range task for iterations [lo, hi). */
uint32_t
buildRange(TaskDag &dag, int64_t lo, int64_t hi, int64_t grain,
           const DagCosts &costs, std::vector<LoopLeaf> &leaves)
{
    uint32_t t = dag.addTask();
    if (hi - lo <= grain) {
        leaves.push_back({t, lo, hi});
        return t;
    }
    int64_t mid = lo + (hi - lo) / 2;
    dag.addWork(t, costs.split);
    // Right half is spawned (stealable); left half is a plain call.
    uint32_t right = buildRange(dag, mid, hi, grain, costs, leaves);
    uint32_t left = buildRange(dag, lo, mid, grain, costs, leaves);
    dag.addSpawn(t, right);
    dag.addCall(t, left);
    dag.addSync(t);
    return t;
}

} // namespace

uint32_t
buildLoopSkeleton(TaskDag &dag, int64_t n, int64_t grain,
                  const DagCosts &costs, std::vector<LoopLeaf> &leaves)
{
    AAWS_ASSERT(n >= 1, "empty parallel_for");
    AAWS_ASSERT(grain >= 1, "grain must be at least 1, got %lld",
                static_cast<long long>(grain));
    return buildRange(dag, 0, n, grain, costs, leaves);
}

} // namespace detail

uint32_t
buildParallelFor(TaskDag &dag, const std::vector<ForItem> &items,
                 int64_t grain, const DagCosts &costs)
{
    std::vector<detail::LoopLeaf> leaves;
    uint32_t root = detail::buildLoopSkeleton(
        dag, static_cast<int64_t>(items.size()), grain, costs, leaves);
    for (const detail::LoopLeaf &leaf : leaves) {
        // Each iteration that calls a nested task splits the leaf's
        // body work around the call.
        uint64_t acc = costs.leaf_setup;
        for (int64_t i = leaf.lo; i < leaf.hi; ++i) {
            acc += costs.per_iter + items[i].work;
            if (items[i].call_task >= 0) {
                dag.addWork(leaf.task, acc);
                acc = 0;
                dag.addCall(leaf.task,
                            static_cast<uint32_t>(items[i].call_task));
            }
        }
        dag.addWork(leaf.task, acc);
    }
    return root;
}

int64_t
grainForTaskCount(int64_t n, int64_t target_tasks)
{
    AAWS_ASSERT(n >= 1 && target_tasks >= 1, "bad grain request");
    // A binary decomposition into L leaves creates ~2L-1 tasks total.
    int64_t leaves = std::max<int64_t>(1, (target_tasks + 1) / 2);
    int64_t grain = n / leaves;
    // Halving splits mean leaf count snaps to powers of two; the exact
    // task count is checked by calibration tests, not here.
    return std::max<int64_t>(1, grain);
}

} // namespace aaws
