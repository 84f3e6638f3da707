/**
 * @file
 * The native work-stealing thread pool (Section IV-C analog).
 *
 * A library-based, child-stealing runtime in the spirit of Intel TBB:
 * per-worker split Chase-Lev deques, policy-selected victims, and
 * blocking-style joins in which the waiting thread keeps executing local
 * and stolen tasks.  A frame job (forkTask) goes into the private part
 * of its worker's deque, so a fork that no thief takes runs no fence
 * and no locked instruction; the worker publishes its private part at
 * its first push or pop that finds the public part drained.  A bare
 * spawn (spawnTask) publishes everything the worker holds.
 *
 * Deliberately lightweight: no cancellation, and an exception crosses
 * tasks only at a join (a fork's inline branch, a `TaskGroup` child at
 * `wait()`).  An exception that escapes a bare `spawn`/`enqueue` task
 * panics, naming the pool worker that ran it and the exception's
 * what(); the task is freed on every exit.  The paper credits the same
 * omissions for its runtime's competitive single-socket performance
 * (Table II).
 *
 * Everything but the deques comes from the shared body in
 * `runtime/backend.h`: worker threads, the activity hints and census,
 * parking, the injection queue, and the `src/sched/` policy components
 * the simulator also runs (victim selection, the work-biasing steal
 * gate, the mug trigger).  Without hardware preemption, a native "mug"
 * is the policy-directed migration of *queued* work: a starved
 * fast-cluster worker targets the most loaded busy slower worker's
 * deque directly instead of whatever victim selection would pick.
 */

#ifndef AAWS_RUNTIME_WORKER_POOL_H
#define AAWS_RUNTIME_WORKER_POOL_H

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/backend.h"
#include "runtime/chase_lev_deque.h"
#include "runtime/hooks.h"
#include "runtime/task.h"

namespace aaws {

/**
 * Fixed-size work-stealing pool over per-worker Chase-Lev deques.  The
 * constructing thread is "worker 0" (the master) and participates in
 * execution whenever it waits on a join; `threads - 1` additional
 * worker threads are spawned.
 */
class WorkerPool : public RuntimeBackend
{
  public:
    /**
     * @param threads Total workers including the master (>= 1).
     * @param hooks Optional activity observer (borrowed; must outlive
     *              the pool).  See runtime/hooks.h.
     */
    explicit WorkerPool(int threads, SchedulerHooks *hooks = nullptr);

    /**
     * @param threads Total workers including the master (>= 1).
     * @param options Policy assembly + core-type split + hooks.
     */
    WorkerPool(int threads, const PoolOptions &options);

    ~WorkerPool() override;

    /**
     * Push a task on the current worker's deque.  Deque pushes are
     * owner-only, so foreign threads use the injection queue instead.
     */
    void spawnTask(RtTask *task) override;

    /**
     * Push a frame job into the private part of the current worker's
     * deque: no fence, no RMW.  A push or pop that finds the public
     * part drained publishes the private part and wakes a parked
     * worker.  Foreign threads use the injection queue.
     */
    void forkTask(RtTask *task) override;

    /**
     * Take one unit of work: own deque first, then — if the biasing
     * gate allows — the injection queue and a policy-selected victim,
     * then, for a starved big worker under work-mugging, a mug-targeted
     * steal.  Returns nullptr when nothing was found this attempt.
     */
    RtTask *tryTakeTask() override;

  private:
    RtTask *tryMug(int self);

    int64_t
    dequeSize(int worker) const override
    {
        return workers_[worker]->deque.sizeEstimate();
    }

    /**
     * Everything one worker writes on its spawn/pop path, in a
     * cache-line-aligned block of its own: every successful pop
     * rewrites `hint.failed`, so two workers' blocks must never share
     * a line.
     */
    struct alignas(kCacheLine) WorkerState
    {
        /**
         * Owner pushes and pops the bottom; thieves steal the top of
         * the public part.
         */
        ChaseLevDeque<RtTask *> deque;
        WorkerHint hint;
    };
    static_assert(alignof(WorkerState) == kCacheLine,
                  "per-worker blocks must not share a cache line");

    std::vector<std::unique_ptr<WorkerState>> workers_;
};

} // namespace aaws

#endif // AAWS_RUNTIME_WORKER_POOL_H
