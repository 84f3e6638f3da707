/**
 * @file
 * WorkerPool churn stress: pools constructed and destroyed in a loop
 * with work in flight, spawn storms that force worker-thread steals,
 * deep nested joins, and activity-census consistency under load.  The
 * census check and the fork-join storm run on both backends: the
 * census is the body both pools share, and the storm gives the channel
 * pool the fork-join benchmark's own load.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "aaws/variant.h"
#include "chan/backend_factory.h"
#include "runtime/parallel_for.h"
#include "runtime/parallel_invoke.h"
#include "runtime/task_group.h"
#include "runtime/worker_pool.h"
#include "stress_util.h"

namespace aaws {
namespace {

using stress::baseSeed;
using stress::envKnob;
using stress::nthSeed;
using stress::ScheduleShaker;

TEST(WorkerPoolStress, SpawnQuiesceChurn)
{
    // Construct, flood, join, and destroy pools of rotating sizes; every
    // round must run every task exactly once and shut down cleanly.
    const int64_t rounds = envKnob("AAWS_STRESS_CHURN", 150, 25);
    const int tasks_per_round = 200;
    for (int64_t round = 0; round < rounds; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        int threads = 1 + static_cast<int>(round % 5);
        WorkerPool pool(threads);
        std::atomic<int> ran{0};
        {
            TaskGroup group(pool);
            for (int i = 0; i < tasks_per_round; ++i)
                group.run([&ran] { ran.fetch_add(1); });
        }
        ASSERT_EQ(ran.load(), tasks_per_round);
    }
}

TEST(WorkerPoolStress, DestructionWithUnexecutedTasks)
{
    // Flood the master's deque and destroy the pool while most tasks are
    // still queued: the destructor must drain (and free) whatever the
    // workers did not get to.  LeakSanitizer (asan preset) verifies the
    // closures are actually freed.
    const int64_t rounds = envKnob("AAWS_STRESS_CHURN", 150, 25);
    for (int64_t round = 0; round < rounds; ++round) {
        std::atomic<int> ran{0};
        {
            WorkerPool pool(3);
            for (int i = 0; i < 500; ++i)
                pool.spawn([&ran] { ran.fetch_add(1); });
        }
        // Whatever ran, ran exactly once; the rest was reclaimed.
        ASSERT_LE(ran.load(), 500);
    }
}

TEST(WorkerPoolStress, NestedGroupsUnderContention)
{
    // Nested fork/join three levels deep from every worker at once:
    // exercises the blocking-join path (waiters execute stolen work)
    // under real contention.
    const int64_t rounds = envKnob("AAWS_STRESS_ROUNDS", 30, 6);
    WorkerPool pool(4);
    for (int64_t round = 0; round < rounds; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        std::atomic<int> leaves{0};
        TaskGroup outer(pool);
        for (int i = 0; i < 8; ++i) {
            outer.run([&pool, &leaves] {
                TaskGroup mid(pool);
                for (int j = 0; j < 8; ++j) {
                    mid.run([&pool, &leaves] {
                        TaskGroup inner(pool);
                        for (int k = 0; k < 8; ++k)
                            inner.run([&leaves] { leaves.fetch_add(1); });
                    });
                }
            });
        }
        outer.wait();
        ASSERT_EQ(leaves.load(), 8 * 8 * 8);
    }
}

TEST(WorkerPoolStress, ParallelAlgorithmsUnderChurn)
{
    // parallel_for / reduce / invoke against a fresh pool per round, so
    // worker spin-up and deep-sleep wakeups interleave with real work.
    const int64_t rounds = envKnob("AAWS_STRESS_CHURN", 40, 8);
    const int64_t n = 40'000;
    for (int64_t round = 0; round < rounds; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        WorkerPool pool(2 + static_cast<int>(round % 3));
        std::atomic<int64_t> sum{0};
        parallelFor(pool, 0, n, 256, [&](int64_t lo, int64_t hi) {
            int64_t s = 0;
            for (int64_t i = lo; i < hi; ++i)
                s += i;
            sum.fetch_add(s, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), n * (n - 1) / 2);

        int64_t reduced = parallelReduce<int64_t>(
            pool, 0, n, 512, 0,
            [](int64_t lo, int64_t hi) {
                int64_t s = 0;
                for (int64_t i = lo; i < hi; ++i)
                    s += 2 * i;
                return s;
            },
            [](int64_t a, int64_t b) { return a + b; });
        ASSERT_EQ(reduced, n * (n - 1));
    }
}

/** ActivityMonitor that also remembers the master's own hint. */
struct MasterTrackingMonitor : ActivityMonitor
{
    using ActivityMonitor::ActivityMonitor;

    void
    onWorkerActive(int worker) override
    {
        ActivityMonitor::onWorkerActive(worker);
        if (worker == 0)
            master_active.store(true);
    }

    void
    onWorkerWaiting(int worker) override
    {
        ActivityMonitor::onWorkerWaiting(worker);
        if (worker == 0)
            master_active.store(false);
    }

    std::atomic<bool> master_active{true};
};

TEST(WorkerPoolStress, ActivityCensusStaysInBounds)
{
    // Hammer the hint machinery: repeated storms followed by quiescence.
    // The census must stay within [0, workers] at every observation and,
    // after work dries up, count no worker thread: only the idle master
    // may remain, and only if its last take attempt of the final join
    // found work (a master that missed twice there signalled waiting).
    const int64_t rounds = envKnob("AAWS_STRESS_ROUNDS", 40, 8);
    const int workers = 4;
    for (BackendKind kind : {BackendKind::deque, BackendKind::chan}) {
        SCOPED_TRACE(backendName(kind));
        MasterTrackingMonitor monitor(workers);
        PoolOptions options;
        options.hooks = &monitor;
        std::unique_ptr<RuntimeBackend> pool =
            chan::makeBackend(kind, workers, options);
        for (int64_t round = 0; round < rounds; ++round) {
            SCOPED_TRACE(testing::Message() << "round " << round);
            std::atomic<int> ran{0};
            TaskGroup group(*pool);
            for (int i = 0; i < 300; ++i) {
                group.run([&] {
                    volatile int x = 0;
                    for (int j = 0; j < 500; ++j)
                        x = x + j;
                    ran.fetch_add(1);
                });
            }
            group.wait();
            ASSERT_EQ(ran.load(), 300);
            int census = monitor.activeWorkers();
            ASSERT_GE(census, 0);
            ASSERT_LE(census, workers);
            // Every committed steal reports through onStealSuccess.
            ASSERT_EQ(monitor.stealSuccesses(), pool->steals());
        }
        const int master = monitor.master_active.load() ? 1 : 0;
        for (int spin = 0;
             spin < 200'000 && monitor.activeWorkers() > master; ++spin)
            std::this_thread::yield();
        EXPECT_EQ(monitor.activeWorkers(), master);
        // Idle workers exhaust their spin budget and park; the rest hook
        // must have fired by the time the pool has been quiet this long.
        for (int spin = 0; spin < 200'000 && monitor.rests() == 0; ++spin)
            std::this_thread::yield();
        EXPECT_GT(monitor.rests(), 0u);
        // The default pool has mugging disabled: the hook must stay
        // quiet.
        EXPECT_EQ(monitor.mugs(), 0u);
    }
}

TEST(WorkerPoolStress, PolicyStackPoolSurvivesShaking)
{
    // The full AAWS policy assembly (biasing + mugging + occupancy
    // selection) under schedule perturbation: correctness must not
    // depend on which worker a task lands on or on mug timing.
    const int64_t rounds = envKnob("AAWS_STRESS_ROUNDS", 30, 6);
    const int64_t n = 60'000;
    const uint64_t seed = baseSeed();
    for (int64_t round = 0; round < rounds; ++round) {
        SCOPED_TRACE(testing::Message()
                     << "round " << round << " seed 0x" << std::hex
                     << nthSeed(seed, round));
        ScheduleShaker shaker(nthSeed(seed, round), 4);
        PoolOptions options;
        options.policy.work_biasing = true;
        options.policy.work_mugging = true;
        options.n_big = 2;
        options.hooks = &shaker;
        WorkerPool pool(4, options);
        std::atomic<int64_t> sum{0};
        parallelFor(pool, 0, n, 128, [&](int64_t lo, int64_t hi) {
            int64_t s = 0;
            for (int64_t i = lo; i < hi; ++i)
                s += i;
            sum.fetch_add(s, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), n * (n - 1) / 2);
        ASSERT_LE(pool.mugs(), pool.steals());
        ASSERT_LE(pool.mugs(), pool.mugAttempts());
    }
}

/** One cell of the fork-join storm matrix. */
struct StormCase
{
    BackendKind backend;
    /** base+psm with one big worker, as the fork-join benchmark runs. */
    bool base_psm;
};

void
PrintTo(const StormCase &storm, std::ostream *os)
{
    *os << backendName(storm.backend)
        << (storm.base_psm ? "/base_psm" : "/default");
}

class ForkJoinStormStress : public testing::TestWithParam<StormCase>
{
};

/** Below this n, the storm's fib runs serially inside one task. */
constexpr int kStormSerialBelow = 10;

uint64_t
fibSerial(int n)
{
    uint64_t a = 0, b = 1;
    for (int i = 0; i < n; ++i) {
        uint64_t next = a + b;
        a = b;
        b = next;
    }
    return a;
}

TEST_P(ForkJoinStormStress, RecursiveInvokeStorm)
{
    // Deep spawn-and-sync recursion (the classic work-stealing torture
    // test) in the fork-join benchmark's shape: fib with a serial
    // cutoff, so each worker spawns and pops its own subtree between
    // steals.  Repeated across pool lifetimes, with every steal, mug
    // and hint transition reported to a monitor.
    const StormCase &storm = GetParam();
    const int64_t rounds = envKnob("AAWS_STRESS_CHURN", 10, 3);
    const int workers = 4;
    for (int64_t round = 0; round < rounds; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        ActivityMonitor monitor(workers);
        PoolOptions options;
        if (storm.base_psm) {
            options.policy = policyConfigFor(Variant::base_psm);
            options.n_big = 1;
        }
        options.hooks = &monitor;
        std::unique_ptr<RuntimeBackend> pool =
            chan::makeBackend(storm.backend, workers, options);
        std::atomic<int> census_out_of_bounds{0};
        std::function<uint64_t(int)> fib = [&](int n) -> uint64_t {
            if (n < kStormSerialBelow) {
                int census = monitor.activeWorkers();
                if (census < 0 || census > workers)
                    census_out_of_bounds.fetch_add(1);
                return fibSerial(n);
            }
            uint64_t a = 0;
            uint64_t b = 0;
            parallelInvoke(*pool, [&] { a = fib(n - 1); },
                           [&] { b = fib(n - 2); });
            return a + b;
        };
        ASSERT_EQ(fib(30), 832040u);
        ASSERT_EQ(census_out_of_bounds.load(), 0);
        int census = monitor.activeWorkers();
        ASSERT_GE(census, 0);
        ASSERT_LE(census, workers);
        // Every committed steal reports through onStealSuccess.
        ASSERT_EQ(monitor.stealSuccesses(), pool->steals());
        ASSERT_LE(pool->mugs(), pool->steals());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ForkJoinStormStress,
    testing::Values(StormCase{BackendKind::deque, false},
                    StormCase{BackendKind::deque, true},
                    StormCase{BackendKind::chan, false},
                    StormCase{BackendKind::chan, true}),
    [](const testing::TestParamInfo<StormCase> &info) {
        return std::string(backendName(info.param.backend)) +
               (info.param.base_psm ? "_base_psm" : "_default");
    });

TEST(WorkerPoolStress, ForeignProducersVsDrainingWorkers)
{
    // Cross-thread injection under contention: several foreign threads
    // hammer enqueue() concurrently while the pool's workers (and the
    // master's help loop) drain.  The injection queue must conserve
    // exactly — every submitted closure runs once — and fork-join work
    // spawned *from* injected tasks must coexist with the inject path.
    const int64_t per_producer = envKnob("AAWS_STRESS_INJECT", 4000, 800);
    const int producers = 4;
    WorkerPool pool(3);
    std::atomic<int64_t> done{0};
    std::atomic<int64_t> nested{0};
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p)
        threads.emplace_back([&] {
            for (int64_t i = 0; i < per_producer; ++i) {
                if (i % 16 == 0)
                    // A request-like injected task: forks children on
                    // the pool and joins them before completing.
                    pool.enqueue([&done, &nested, &pool] {
                        {
                            TaskGroup group(pool);
                            for (int c = 0; c < 3; ++c)
                                group.run([&nested] {
                                    nested.fetch_add(
                                        1, std::memory_order_relaxed);
                                });
                        }
                        done.fetch_add(1, std::memory_order_relaxed);
                    });
                else
                    pool.enqueue([&done] {
                        done.fetch_add(1, std::memory_order_relaxed);
                    });
            }
        });
    for (auto &thread : threads)
        thread.join();
    const int64_t total = per_producer * producers;
    while (done.load(std::memory_order_acquire) < total) {
        RtTask *task = pool.tryTakeTask();
        if (task)
            task->invoke(task);
        else
            std::this_thread::yield();
    }
    EXPECT_EQ(done.load(), total);
    const int64_t forked = (per_producer + 15) / 16 * producers * 3;
    EXPECT_EQ(nested.load(), forked);
}

} // namespace
} // namespace aaws
