/**
 * @file
 * Builders that translate parallel constructs into task DAGs.
 *
 * `buildParallelFor` mirrors the runtime's automatic recursive
 * decomposition of a loop range (TBB simple_partitioner style, Section
 * IV-C): a range task splits in half, *spawns* the right half onto the
 * deque (stealable) and *calls* the left half inline, until ranges reach
 * the grain size and execute the loop body.  Splitting and per-iteration
 * loop control cost instructions, which is why the parallel versions of
 * the paper's kernels execute more dynamic instructions than the serial
 * versions.
 */

#ifndef AAWS_KERNELS_DAG_BUILDERS_H
#define AAWS_KERNELS_DAG_BUILDERS_H

#include <cstdint>
#include <type_traits>
#include <vector>

#include "kernels/task_dag.h"

namespace aaws {

/** Instruction overheads of the modeled runtime constructs. */
struct DagCosts
{
    /** Range-task split: compute midpoint, construct child tasks. */
    uint64_t split = 90;
    /** Leaf-task setup: closure load, range registers, loop preamble. */
    uint64_t leaf_setup = 60;
    /** Per-iteration loop control (index increment, bound check, call). */
    uint64_t per_iter = 4;
};

/** One iteration of a loop whose iterations call nested tasks. */
struct ForItem
{
    uint64_t work = 0;
    /** Nested task executed inline by the iteration (-1 = none). */
    int32_t call_task = -1;
};

namespace detail {

/** A leaf range task of a loop: iterations [lo, hi). */
struct LoopLeaf
{
    uint32_t task;
    int64_t lo;
    int64_t hi;
};

/**
 * Build the range tasks of an `n`-iteration loop: each split task gets
 * its split work, spawn, call and sync; each leaf task is left empty
 * and appended to `leaves`.  The right half is built first, so task ids
 * match the builders' recursion and `leaves` ends in decreasing index
 * order.
 */
uint32_t buildLoopSkeleton(TaskDag &dag, int64_t n, int64_t grain,
                           const DagCosts &costs,
                           std::vector<LoopLeaf> &leaves);

} // namespace detail

/**
 * Build a recursively decomposed parallel_for of `n` iterations whose
 * body at index i costs `work_of(i)` instructions.
 *
 * Contract: the builder first creates all of the loop's tasks, then
 * calls `work_of(i)` exactly once per index, in increasing order of i,
 * and stores no per-iteration item.  A generator may therefore draw
 * from its Rng inside `work_of` and consume the stream a plain loop
 * over 0..n-1 would.  `work_of` must not touch `dag`.
 *
 * @param dag     DAG under construction.
 * @param n       Iteration count (at least 1).
 * @param work_of Body cost of iteration i, an integral instruction count.
 * @param grain   Maximum iterations per leaf task.
 * @param costs   Runtime overhead constants.
 * @return Root task id of the loop.
 */
template <class WorkOf>
uint32_t
buildParallelFor(TaskDag &dag, int64_t n, WorkOf &&work_of, int64_t grain,
                 const DagCosts &costs = DagCosts{})
{
    static_assert(std::is_integral_v<std::invoke_result_t<WorkOf &, int64_t>>,
                  "work_of(i) must return an instruction count");
    std::vector<detail::LoopLeaf> leaves;
    uint32_t root = detail::buildLoopSkeleton(dag, n, grain, costs, leaves);
    for (auto leaf = leaves.rbegin(); leaf != leaves.rend(); ++leaf) {
        uint64_t work = costs.leaf_setup;
        for (int64_t i = leaf->lo; i < leaf->hi; ++i)
            work += costs.per_iter + static_cast<uint64_t>(work_of(i));
        dag.addWork(leaf->task, work);
    }
    return root;
}

/**
 * Build a recursively decomposed parallel_for over explicit items, for
 * a loop whose iterations call nested tasks (a plain loop passes a
 * callable to the form above instead).
 *
 * @param dag   DAG under construction.
 * @param items Per-iteration body costs and nested tasks.
 * @param grain Maximum iterations per leaf task.
 * @param costs Runtime overhead constants.
 * @return Root task id of the loop.
 */
uint32_t buildParallelFor(TaskDag &dag, const std::vector<ForItem> &items,
                          int64_t grain, const DagCosts &costs = DagCosts{});

/**
 * Choose a grain so an `n`-iteration loop yields roughly `target_tasks`
 * tasks (counting both split and leaf tasks); clamps to at least 1.
 */
int64_t grainForTaskCount(int64_t n, int64_t target_tasks);

} // namespace aaws

#endif // AAWS_KERNELS_DAG_BUILDERS_H
