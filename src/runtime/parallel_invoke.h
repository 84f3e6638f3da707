/**
 * @file
 * parallel_invoke: run N callables in parallel and join (the paper's
 * recursive spawn-and-sync construct), and the frame-resident fork that
 * carries every fork-join construct of the runtime.
 *
 * The two-way parallelInvoke is the primitive, in the style of
 * pbbslib's `pardo`: the forked callable travels as a small job that
 * lives in the forking frame, not on the heap.  The frame pushes it
 * through the backend's forkTask, runs the other callable inline, and
 * then joins it.  Because the join takes the job back if no thief has,
 * a backend may hide it from thieves for a while: the deque pool keeps
 * it private while older work of the worker is stealable, and until the
 * worker's next push or pop once that has drained.  So the inline
 * callable must never wait for the forked one to run elsewhere.
 *
 * The join takes one task first.  When that is the job itself — the
 * usual case — no other thread can reach it any more, so the owner
 * calls the callable directly: no indirect call, no done flag, no `new`
 * or `delete`, and on the deque pool no fence anywhere in the fork and
 * join.
 * Otherwise a thief took the job, or the inline callable left newer
 * work above it (a bare spawn, an unjoined TaskGroup child); the owner
 * runs what it took and helps until the job's runner, on whichever
 * thread took it, has stored the done flag with release order.  The
 * three- and four-way forms and parallelFor/parallelReduce
 * (runtime/parallel_for.h) nest this fork.
 *
 * The join runs in the job's destructor, so it also runs when the
 * inline callable throws: the exception leaves the frame only after the
 * job has finished, and no thread ever touches a dead frame.  A forked
 * callable must not throw.
 */

#ifndef AAWS_RUNTIME_PARALLEL_INVOKE_H
#define AAWS_RUNTIME_PARALLEL_INVOKE_H

#include <atomic>

#include "runtime/backend.h"

namespace aaws {

namespace detail {

/**
 * A forked callable that lives in the forking frame: its constructor
 * makes it stealable on `pool`, its destructor joins it.
 */
template <typename F>
class FrameJob final : public RtTask
{
  public:
    FrameJob(RuntimeBackend &pool, const F &fn) : pool_(pool), fn_(fn)
    {
        invoke = &run;
        pool_.forkTask(this);
    }

    FrameJob(const FrameJob &) = delete;
    FrameJob &operator=(const FrameJob &) = delete;

    ~FrameJob() override
    {
        RtTask *task = pool_.tryTakeTask();
        if (task == this) {
            // Taken back from our own queue: no other thread can run it.
            fn_();
            return;
        }
        if (task)
            task->invoke(task);
        pool_.helpUntil(
            [this] { return done_.load(std::memory_order_acquire); });
    }

  private:
    /** The runner, for a job the join's first take did not return. */
    static void
    run(RtTask *self)
    {
        auto *job = static_cast<FrameJob *>(self);
        job->fn_();
        // The last touch: the forking frame may return once it sees it.
        job->done_.store(true, std::memory_order_release);
    }

    RuntimeBackend &pool_;
    const F &fn_;
    std::atomic<bool> done_{false};
};

} // namespace detail

/** Run two callables in parallel; returns after both complete. */
template <typename F0, typename F1>
void
parallelInvoke(RuntimeBackend &pool, const F0 &f0, const F1 &f1)
{
    detail::FrameJob<F1> job(pool, f1);
    f0();
}

/** Run three callables in parallel; returns after all complete. */
template <typename F0, typename F1, typename F2>
void
parallelInvoke(RuntimeBackend &pool, const F0 &f0, const F1 &f1, const F2 &f2)
{
    parallelInvoke(pool, [&] { parallelInvoke(pool, f0, f1); }, f2);
}

/** Run four callables in parallel; returns after all complete. */
template <typename F0, typename F1, typename F2, typename F3>
void
parallelInvoke(RuntimeBackend &pool, const F0 &f0, const F1 &f1, const F2 &f2,
               const F3 &f3)
{
    parallelInvoke(pool, [&] { parallelInvoke(pool, f0, f1); },
                   [&] { parallelInvoke(pool, f2, f3); });
}

} // namespace aaws

#endif // AAWS_RUNTIME_PARALLEL_INVOKE_H
