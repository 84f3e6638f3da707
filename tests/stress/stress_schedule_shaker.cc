/**
 * @file
 * Seeded schedule shaking: run real workloads on both native backends
 * while a ScheduleShaker injects pseudo-random yields and spins through
 * the SchedulerHooks instrumentation points, perturbing the
 * interleavings the OS scheduler would otherwise settle into.
 *
 * `ShakenWorkloads` runs on the deque backend and `ShakenChanWorkloads`
 * runs the fork-join tests on the channel backend, where perturbed
 * schedules cover a frame job being granted, forwarded, and answered
 * from a lifeline.  Each test instance is one seed; the seed is part of
 * the test name and logged via SCOPED_TRACE, so a failing interleaving
 * is re-runnable:
 *
 *   AAWS_STRESS_SEED=<base> ./stress_schedule_shaker \
 *       --gtest_filter=Seeds/ShakenWorkloads.TaskStormCompletes/seed7
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "chan/backend_factory.h"
#include "runtime/parallel_for.h"
#include "runtime/parallel_invoke.h"
#include "runtime/task_group.h"
#include "stress_util.h"

namespace aaws {
namespace {

using stress::envKnob;
using stress::ScheduleShaker;

/** The fork-join tests on the deque backend (TaskGroup's too). */
class ShakenWorkloads : public ::testing::TestWithParam<int>
{
  protected:
    uint64_t
    seed() const
    {
        return stress::nthSeed(stress::baseSeed(),
                               static_cast<uint64_t>(GetParam()));
    }

    virtual BackendKind backend() const { return BackendKind::deque; }

    /** A pool of this fixture's backend, perturbed by `shaker`. */
    std::unique_ptr<RuntimeBackend>
    shakenPool(int workers, ScheduleShaker &shaker) const
    {
        PoolOptions options;
        options.hooks = &shaker;
        return chan::makeBackend(backend(), workers, options);
    }

    void
    parallelForSumsExactly()
    {
        SCOPED_TRACE(testing::Message()
                     << "shake seed 0x" << std::hex << seed());
        const int workers = 2 + GetParam() % 4;
        const int64_t n = 30'000;
        ScheduleShaker shaker(seed(), workers);
        auto pool = shakenPool(workers, shaker);
        std::atomic<int64_t> sum{0};
        parallelFor(*pool, 0, n, 128, [&](int64_t lo, int64_t hi) {
            int64_t s = 0;
            for (int64_t i = lo; i < hi; ++i)
                s += i;
            sum.fetch_add(s, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    }

    void
    recursiveJoinIsExact()
    {
        SCOPED_TRACE(testing::Message()
                     << "shake seed 0x" << std::hex << seed());
        const int workers = 3;
        ScheduleShaker shaker(seed(), workers);
        auto pool = shakenPool(workers, shaker);
        std::function<int64_t(int64_t)> fib = [&](int64_t n) -> int64_t {
            if (n < 2)
                return n;
            int64_t a = 0;
            int64_t b = 0;
            parallelInvoke(*pool, [&] { a = fib(n - 1); },
                           [&] { b = fib(n - 2); });
            return a + b;
        };
        EXPECT_EQ(fib(15), 610);
    }
};

/** The same fork-join tests on the channel backend. */
class ShakenChanWorkloads : public ShakenWorkloads
{
  protected:
    BackendKind backend() const override { return BackendKind::chan; }
};

TEST_P(ShakenWorkloads, TaskStormCompletes)
{
    SCOPED_TRACE(testing::Message()
                 << "shake seed 0x" << std::hex << seed());
    const int workers = 2 + GetParam() % 3;
    ScheduleShaker shaker(seed(), workers);
    auto pool = shakenPool(workers, shaker);
    std::atomic<int> ran{0};
    TaskGroup group(*pool);
    for (int i = 0; i < 2000; ++i)
        group.run([&ran] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 2000);
    // The shaker must actually have perturbed the schedule: spawn hooks
    // alone fire 2000 times, so a silent no-op shaker is a test bug.
    EXPECT_GT(shaker.perturbations(), 0u);
}

TEST_P(ShakenWorkloads, ParallelForSumsExactly) { parallelForSumsExactly(); }

TEST_P(ShakenWorkloads, RecursiveJoinIsExact) { recursiveJoinIsExact(); }

TEST_P(ShakenChanWorkloads, ParallelForSumsExactly)
{
    parallelForSumsExactly();
}

TEST_P(ShakenChanWorkloads, RecursiveJoinIsExact) { recursiveJoinIsExact(); }

const auto kShakeSeeds = ::testing::Range(
    0, static_cast<int>(envKnob("AAWS_SHAKE_SEEDS", 16, 6)));

std::string
seedName(const ::testing::TestParamInfo<int> &info)
{
    return "seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShakenWorkloads, kShakeSeeds, seedName);
INSTANTIATE_TEST_SUITE_P(Seeds, ShakenChanWorkloads, kShakeSeeds, seedName);

} // namespace
} // namespace aaws
