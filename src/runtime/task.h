/**
 * @file
 * Type-erased heap tasks shared by every runtime backend.
 *
 * Split out of worker_pool.h so backends that never see a Chase-Lev
 * deque (src/chan/) can traffic in the same task objects: a task is a
 * plain function-pointer invoke plus a virtual destructor, freed by
 * whichever worker executes (or drains) it.  The cache-line size every
 * backend pads its per-worker state to lives here for the same reason.
 */

#ifndef AAWS_RUNTIME_TASK_H
#define AAWS_RUNTIME_TASK_H

#include <cstddef>
#include <utility>

namespace aaws {

/** Destructive-interference padding (std::hardware_* is still shaky). */
inline constexpr std::size_t kCacheLine = 64;

/** Type-erased heap task: freed by the executor after running. */
struct RtTask
{
    void (*invoke)(RtTask *self);

    virtual ~RtTask() = default;
};

namespace detail {

/** Concrete closure task. */
template <typename F>
struct ClosureTask final : RtTask
{
    F fn;

    explicit ClosureTask(F f) : fn(std::move(f))
    {
        invoke = [](RtTask *self) {
            auto *task = static_cast<ClosureTask *>(self);
            task->fn();
            delete task;
        };
    }
};

} // namespace detail

} // namespace aaws

#endif // AAWS_RUNTIME_TASK_H
