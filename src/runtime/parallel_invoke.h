/**
 * @file
 * parallel_invoke: run N callables in parallel and join (the paper's
 * recursive spawn-and-sync construct), and the frame-resident fork that
 * carries every fork-join construct of the runtime.
 *
 * The two-way parallelInvoke is the primitive, in the style of
 * pbbslib's `pardo`: the forked callable travels as a small job that
 * lives in the forking frame, not on the heap.  The frame pushes it
 * through the backend's spawnTask, runs the other callable inline, and
 * then helps until the job is done — usually by popping it straight
 * back and running it inline.  The job's runner ends with one release
 * store of its done flag, so the owner's fork and join do no `new`, no
 * `delete` and no locked read-modify-write; shared state is touched
 * only when a thief took the job.  The three- and four-way forms and
 * parallelFor/parallelReduce (runtime/parallel_for.h) nest this fork.
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
        pool_.spawnTask(this);
    }

    FrameJob(const FrameJob &) = delete;
    FrameJob &operator=(const FrameJob &) = delete;

    ~FrameJob() override
    {
        pool_.helpUntil(
            [this] { return done_.load(std::memory_order_acquire); });
    }

  private:
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
