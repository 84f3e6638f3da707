/**
 * @file
 * Type-erased tasks shared by every runtime backend.
 *
 * Split out of worker_pool.h so backends that never see a Chase-Lev
 * deque (src/chan/) can traffic in the same task objects: a task is a
 * plain function-pointer invoke plus a virtual destructor.  A task
 * comes in two kinds, and the backends move both alike:
 *
 *  - a heap task (`ClosureTask`, from spawn/enqueue and TaskGroup) is
 *    freed by whichever worker executes it, or deleted by the pool's
 *    drain if nobody ran it.  An exception that escapes its closure
 *    panics, naming the pool worker and the exception's what();
 *  - a frame job (`detail::FrameJob` in runtime/parallel_invoke.h)
 *    lives in the frame that forked it.  The frame's join usually takes
 *    it straight back and calls it without `invoke`; a runner reached
 *    through any other take ends with the release store that tells the
 *    frame it is done.  It is never freed, and the join guarantees it
 *    never reaches a drain.
 *
 * The cache-line size every backend pads its per-worker state to lives
 * here too, so a backend needs no deque header to use it.
 */

#ifndef AAWS_RUNTIME_TASK_H
#define AAWS_RUNTIME_TASK_H

#include <cstddef>
#include <memory>
#include <utility>

namespace aaws {

/** Destructive-interference padding (std::hardware_* is still shaky). */
inline constexpr std::size_t kCacheLine = 64;

/** Type-erased task: `invoke` runs it (and frees a heap task). */
struct RtTask
{
    void (*invoke)(RtTask *self);

    virtual ~RtTask() = default;
};

namespace detail {

/**
 * Panic on the exception in flight (call from a handler only), naming
 * the calling thread's pool worker index and the exception's what().
 */
[[noreturn]] void panicOnTaskException();

/** Concrete closure task. */
template <typename F>
struct ClosureTask final : RtTask
{
    F fn;

    explicit ClosureTask(F f) : fn(std::move(f))
    {
        invoke = [](RtTask *self) {
            std::unique_ptr<ClosureTask> task(static_cast<ClosureTask *>(self));
            try {
                task->fn();
            } catch (...) {
                panicOnTaskException();
            }
        };
    }
};

} // namespace detail

} // namespace aaws

#endif // AAWS_RUNTIME_TASK_H
