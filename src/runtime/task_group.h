/**
 * @file
 * TaskGroup: structured spawn/wait for dynamic N-way fan-out.
 *
 * `run()` spawns a stealable heap child; `wait()` blocks
 * *productively*: the waiting thread executes its own and stolen tasks
 * until every child of the group has finished (TBB-style blocking join,
 * which is what a child-stealing runtime does at a sync).  Use it when
 * the number of children is known only at run time — the experiment
 * engine's batch, the serving request fan-out.  Binary fork-join
 * (parallelInvoke, parallelFor, parallelReduce) does not come here: it
 * forks frame jobs, which need no heap task and no shared counter.
 */

#ifndef AAWS_RUNTIME_TASK_GROUP_H
#define AAWS_RUNTIME_TASK_GROUP_H

#include <atomic>

#include "runtime/backend.h"

namespace aaws {

/** Structured fork/join scope over any RuntimeBackend. */
class TaskGroup
{
  public:
    explicit TaskGroup(RuntimeBackend &pool) : pool_(pool) {}

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    ~TaskGroup() { wait(); }

    /** Spawn `fn` as a stealable child of this group. */
    template <typename F>
    void
    run(F &&fn)
    {
        pending_.fetch_add(1, std::memory_order_acq_rel);
        pool_.spawn(
            [this, fn = std::forward<F>(fn)]() mutable {
                fn();
                pending_.fetch_sub(1, std::memory_order_acq_rel);
            });
    }

    /** Execute work until every child spawned so far has completed. */
    void
    wait()
    {
        pool_.helpUntil(
            [this] { return pending_.load(std::memory_order_acquire) == 0; });
    }

  private:
    RuntimeBackend &pool_;
    std::atomic<int64_t> pending_{0};
};

} // namespace aaws

#endif // AAWS_RUNTIME_TASK_GROUP_H
