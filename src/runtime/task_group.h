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
 *
 * A child that throws still counts as finished: the group keeps the
 * first exception any child throws, every other child still runs, and
 * `wait()` rethrows the kept exception once all of them are done.
 */

#ifndef AAWS_RUNTIME_TASK_GROUP_H
#define AAWS_RUNTIME_TASK_GROUP_H

#include <atomic>
#include <exception>

#include "runtime/backend.h"

namespace aaws {

/** Structured fork/join scope over any RuntimeBackend. */
class TaskGroup
{
  public:
    explicit TaskGroup(RuntimeBackend &pool) : pool_(pool) {}

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Joins every child.  An exception a child threw that no `wait()`
     * rethrew is dropped: a destructor must not throw.
     */
    ~TaskGroup() { join(); }

    /** Spawn `fn` as a stealable child of this group. */
    template <typename F>
    void
    run(F &&fn)
    {
        pending_.fetch_add(1, std::memory_order_acq_rel);
        pool_.spawn(
            [this, fn = std::forward<F>(fn)]() mutable {
                try {
                    fn();
                } catch (...) {
                    if (!failed_.exchange(true, std::memory_order_relaxed))
                        error_ = std::current_exception();
                }
                // The last touch of the group: it may be gone after this.
                pending_.fetch_sub(1, std::memory_order_acq_rel);
            });
    }

    /**
     * Execute work until every child spawned so far has completed, then
     * rethrow the first exception a child threw, if any (once: the
     * group is clean again afterwards).
     */
    void
    wait()
    {
        join();
        if (failed_.load(std::memory_order_relaxed)) {
            std::exception_ptr error = std::move(error_);
            error_ = nullptr;
            failed_.store(false, std::memory_order_relaxed);
            std::rethrow_exception(error);
        }
    }

  private:
    void
    join()
    {
        pool_.helpUntil(
            [this] { return pending_.load(std::memory_order_acquire) == 0; });
    }

    RuntimeBackend &pool_;
    std::atomic<int64_t> pending_{0};
    /** Set by the first child that throws; it alone writes `error_`. */
    std::atomic<bool> failed_{false};
    /** Published to `wait()` by the thrower's decrement of `pending_`. */
    std::exception_ptr error_;
};

} // namespace aaws

#endif // AAWS_RUNTIME_TASK_GROUP_H
