/**
 * @file
 * Tests of the native concurrent work-stealing runtime: Chase-Lev deque
 * semantics (sequential and under real thief contention), the worker
 * pool, TaskGroup joins (children that throw included),
 * parallel_for/reduce/invoke correctness, the frame-resident fork (its
 * join under an exception, its allocation-free owner path,
 * foreign-thread callers), the Table II comparison
 * schedulers, and the body both native backends share (worker identity,
 * the activity-hint protocol and its hooks), which runs on each backend
 * in turn.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chan/backend_factory.h"
#include "runtime/central_queue.h"
#include "runtime/hooks.h"
#include "runtime/parallel_for.h"
#include "runtime/parallel_invoke.h"
#include "runtime/task_group.h"
#include "runtime/worker_pool.h"

#ifndef AAWS_SANITIZER_BUILD
// Every global operator new of this binary is counted, so a test can
// pin that a fork allocates nothing.  Sanitizer runtimes own these
// operators (ASan checks that each delete matches its new), so
// sanitizer builds keep theirs and skip that test.  Out of line, so
// the compiler never sees a `new` paired with a bare free().
namespace {
std::atomic<uint64_t> g_operator_news{0};
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_operator_news.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(size ? size : 1))
        return block;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *block) noexcept
{
    std::free(block);
}

[[gnu::noinline]] void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}
#endif

namespace aaws {

/** Parameterized test names print the backend's name. */
static void
PrintTo(BackendKind kind, std::ostream *os)
{
    *os << backendName(kind);
}

namespace {

/** Both native backends, for the tests of the body they share. */
constexpr BackendKind kBackends[] = {BackendKind::deque, BackendKind::chan};

std::unique_ptr<RuntimeBackend>
makePool(BackendKind kind, int threads, SchedulerHooks *hooks = nullptr)
{
    PoolOptions options;
    options.hooks = hooks;
    return chan::makeBackend(kind, threads, options);
}

TEST(ChaseLev, LifoOwnerPops)
{
    ChaseLevDeque<int64_t> dq;
    for (int64_t i = 0; i < 10; ++i)
        dq.push(i);
    for (int64_t i = 9; i >= 0; --i) {
        int64_t out = -1;
        ASSERT_TRUE(dq.pop(out));
        EXPECT_EQ(out, i);
    }
    int64_t out;
    EXPECT_FALSE(dq.pop(out));
}

TEST(ChaseLev, FifoThiefSteals)
{
    ChaseLevDeque<int64_t> dq;
    for (int64_t i = 0; i < 10; ++i)
        dq.push(i);
    for (int64_t i = 0; i < 10; ++i) {
        int64_t out = -1;
        ASSERT_TRUE(dq.steal(out));
        EXPECT_EQ(out, i);
    }
    int64_t out;
    EXPECT_FALSE(dq.steal(out));
}

TEST(ChaseLev, GrowthPreservesContents)
{
    ChaseLevDeque<int64_t> dq(8);
    for (int64_t i = 0; i < 5000; ++i)
        dq.push(i);
    EXPECT_EQ(dq.sizeEstimate(), 5000);
    int64_t sum = 0;
    int64_t out;
    while (dq.pop(out))
        sum += out;
    EXPECT_EQ(sum, 5000LL * 4999 / 2);
}

TEST(ChaseLev, InterleavedPushPopStealKeepsEveryElementOnce)
{
    ChaseLevDeque<int64_t> dq;
    std::vector<int> seen(1000, 0);
    int64_t out;
    for (int64_t i = 0; i < 1000; ++i) {
        dq.push(i);
        if (i % 3 == 0 && dq.steal(out))
            seen[out]++;
        if (i % 5 == 0 && dq.pop(out))
            seen[out]++;
    }
    while (dq.pop(out))
        seen[out]++;
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(seen[i], 1) << i;
}

TEST(ChaseLev, ConcurrentThievesNeverDuplicateOrLose)
{
    constexpr int64_t kItems = 200000;
    constexpr int kThieves = 3;
    ChaseLevDeque<int64_t> dq;
    std::atomic<int64_t> stolen_sum{0};
    std::atomic<int64_t> stolen_count{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            int64_t out;
            while (!done.load(std::memory_order_acquire)) {
                if (dq.steal(out)) {
                    stolen_sum.fetch_add(out, std::memory_order_relaxed);
                    stolen_count.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
            while (dq.steal(out)) {
                stolen_sum.fetch_add(out, std::memory_order_relaxed);
                stolen_count.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    int64_t owner_sum = 0;
    int64_t owner_count = 0;
    int64_t out;
    for (int64_t i = 0; i < kItems; ++i) {
        dq.push(i);
        if (i % 2 == 0 && dq.pop(out)) {
            owner_sum += out;
            owner_count++;
        }
    }
    while (dq.pop(out)) {
        owner_sum += out;
        owner_count++;
    }
    done.store(true, std::memory_order_release);
    for (auto &thief : thieves)
        thief.join();

    EXPECT_EQ(owner_count + stolen_count.load(), kItems);
    EXPECT_EQ(owner_sum + stolen_sum.load(), kItems * (kItems - 1) / 2);
}

TEST(WorkerPool, SpawnedTasksAllRun)
{
    WorkerPool pool(4);
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 1000; ++i)
        group.run([&ran] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 1000);
}

TEST(WorkerPool, SingleWorkerStillCompletes)
{
    WorkerPool pool(1);
    std::atomic<int> ran{0};
    TaskGroup group(pool);
    for (int i = 0; i < 100; ++i)
        group.run([&ran] { ran.fetch_add(1); });
    group.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPool, NestedGroupsJoinInOrder)
{
    WorkerPool pool(4);
    std::atomic<int> inner_done{0};
    std::atomic<bool> outer_saw_inner{false};
    TaskGroup outer(pool);
    outer.run([&] {
        TaskGroup inner(pool);
        for (int i = 0; i < 50; ++i)
            inner.run([&] { inner_done.fetch_add(1); });
        inner.wait();
        outer_saw_inner.store(inner_done.load() == 50);
    });
    outer.wait();
    EXPECT_TRUE(outer_saw_inner.load());
}

TEST(WorkerPool, DestructorWaitsInGroupScope)
{
    WorkerPool pool(3);
    std::atomic<int> ran{0};
    {
        TaskGroup group(pool);
        group.run([&ran] { ran.fetch_add(1); });
        // no explicit wait: the destructor joins
    }
    EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, SumsDisjointRanges)
{
    WorkerPool pool(4);
    std::vector<int64_t> data(100000);
    parallelFor(pool, 0, 100000, 512, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            data[i] = i;
    });
    int64_t sum = std::accumulate(data.begin(), data.end(), int64_t{0});
    EXPECT_EQ(sum, 100000LL * 99999 / 2);
}

TEST(ParallelFor, EmptyAndTinyRanges)
{
    WorkerPool pool(2);
    std::atomic<int> calls{0};
    parallelFor(pool, 5, 5, 4, [&](int64_t, int64_t) { calls++; });
    EXPECT_EQ(calls.load(), 0);
    parallelFor(pool, 0, 1, 4, [&](int64_t lo, int64_t hi) {
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 1);
        calls++;
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, LeafSizesRespectGrain)
{
    WorkerPool pool(4);
    std::atomic<int64_t> max_leaf{0};
    parallelFor(pool, 0, 10000, 64, [&](int64_t lo, int64_t hi) {
        int64_t size = hi - lo;
        int64_t prev = max_leaf.load();
        while (size > prev && !max_leaf.compare_exchange_weak(prev, size)) {
        }
    });
    EXPECT_LE(max_leaf.load(), 64);
}

TEST(ParallelForAuto, CoversRangeWithoutAGrain)
{
    WorkerPool pool(4);
    std::vector<int64_t> data(30000, 0);
    parallelForAuto(pool, 0, 30000, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            data[i] = i + 1;
    });
    int64_t sum = std::accumulate(data.begin(), data.end(), int64_t{0});
    EXPECT_EQ(sum, 30000LL * 30001 / 2);
}

TEST(ParallelForAuto, ProducesEnoughChunksToBalance)
{
    WorkerPool pool(4);
    std::atomic<int> leaves{0};
    parallelForAuto(pool, 0, 100000,
                    [&](int64_t, int64_t) { leaves.fetch_add(1); });
    // 4 chunks per worker target; halving splits may round up to the
    // next power of two.
    EXPECT_GE(leaves.load(), 16);
    EXPECT_LE(leaves.load(), 64);
}

TEST(ParallelForAuto, TinyRangeDegeneratesGracefully)
{
    WorkerPool pool(4);
    std::atomic<int> iters{0};
    parallelForAuto(pool, 0, 3, [&](int64_t lo, int64_t hi) {
        iters.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(iters.load(), 3);
}

TEST(ParallelReduce, MatchesSerialSum)
{
    WorkerPool pool(4);
    auto value = parallelReduce<int64_t>(
        pool, 0, 50000, 128, 0,
        [](int64_t lo, int64_t hi) {
            int64_t s = 0;
            for (int64_t i = lo; i < hi; ++i)
                s += i * i;
            return s;
        },
        [](int64_t a, int64_t b) { return a + b; });
    int64_t expected = 0;
    for (int64_t i = 0; i < 50000; ++i)
        expected += i * i;
    EXPECT_EQ(value, expected);
}

TEST(ParallelInvoke, RunsAllBranches)
{
    WorkerPool pool(4);
    std::atomic<int> mask{0};
    parallelInvoke(
        pool, [&] { mask.fetch_or(1); }, [&] { mask.fetch_or(2); },
        [&] { mask.fetch_or(4); }, [&] { mask.fetch_or(8); });
    EXPECT_EQ(mask.load(), 15);
}

/** fib(n) with a two-way fork at every level. */
uint64_t
forkFib(RuntimeBackend &pool, int n)
{
    if (n < 2)
        return static_cast<uint64_t>(n);
    uint64_t a = 0;
    uint64_t b = 0;
    parallelInvoke(pool, [&] { a = forkFib(pool, n - 1); },
                   [&] { b = forkFib(pool, n - 2); });
    return a + b;
}

TEST(ParallelInvoke, RecursiveFibonacci)
{
    WorkerPool pool(4);
    // Classic spawn-and-sync recursion exercising deep nesting.
    EXPECT_EQ(forkFib(pool, 18), 2584u);
}

/** The frame-resident fork on each backend, one ctest entry each. */
class FrameFork : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(FrameFork, ThrowingInlineBranchJoinsTheForkFirst)
{
    // The forked job lives in the frame the exception unwinds, so it
    // must have run to completion before the exception leaves it.
    auto pool = makePool(GetParam(), 4);
    for (int rep = 0; rep < 50; ++rep) {
        std::atomic<bool> forked_done{false};
        bool done_at_catch = false;
        EXPECT_THROW(
            {
                try {
                    parallelInvoke(
                        *pool,
                        [] { throw std::runtime_error("inline branch"); },
                        [&] {
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(200));
                            forked_done.store(true,
                                              std::memory_order_release);
                        });
                } catch (const std::runtime_error &) {
                    done_at_catch =
                        forked_done.load(std::memory_order_acquire);
                    throw;
                }
            },
            std::runtime_error);
        EXPECT_TRUE(done_at_catch) << "rep " << rep;
    }
}

TEST_P(FrameFork, OwnerForksAllocateNothing)
{
#ifdef AAWS_SANITIZER_BUILD
    GTEST_SKIP() << "the sanitizer runtime owns operator new in this build";
#else
    // One worker: no thief, so the owner pops every fork straight back.
    auto pool = makePool(GetParam(), 1);
    // The warm-up lets every queue reach the depth fib(20) needs.
    ASSERT_EQ(forkFib(*pool, 20), 6765u);
    const uint64_t before = g_operator_news.load();
    const uint64_t value = forkFib(*pool, 20);
    const uint64_t news = g_operator_news.load() - before;
    EXPECT_EQ(value, 6765u);
    EXPECT_EQ(news, 0u) << "heap allocations over 10945 forks";
#endif
}

TEST_P(FrameFork, ForeignThreadRunsEveryConstruct)
{
    // A thread outside the pool forks through the injection queue; a
    // worker or the foreign waiter itself runs each job.
    auto pool = makePool(GetParam(), 4);
    constexpr int64_t kItems = 20000;
    std::vector<std::atomic<int>> hits(kItems);
    int64_t sum = 0;
    uint64_t fib = 0;
    std::thread foreign([&] {
        EXPECT_EQ(pool->currentWorker(), -1);
        parallelFor(*pool, 0, kItems, 64, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        sum = parallelReduce<int64_t>(
            *pool, 0, kItems, 64, 0,
            [](int64_t lo, int64_t hi) {
                int64_t s = 0;
                for (int64_t i = lo; i < hi; ++i)
                    s += i;
                return s;
            },
            [](int64_t a, int64_t b) { return a + b; });
        fib = forkFib(*pool, 18);
    });
    foreign.join();
    int64_t wrong = 0;
    for (const auto &hit : hits)
        wrong += hit.load() != 1;
    EXPECT_EQ(wrong, 0) << "indices not run exactly once";
    EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
    EXPECT_EQ(fib, 2584u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FrameFork, ::testing::ValuesIn(kBackends),
                         [](const ::testing::TestParamInfo<BackendKind> &info) {
                             return std::string(backendName(info.param));
                         });

/**
 * Aborts the process if still armed `limit` after construction, so a
 * join that hangs fails in seconds rather than at the ctest timeout.
 */
class Watchdog
{
  public:
    explicit Watchdog(const char *what,
                      std::chrono::seconds limit = std::chrono::seconds(10))
        : thread_([this, what, limit] {
              std::unique_lock<std::mutex> lock(mutex_);
              if (!disarmed_cv_.wait_for(lock, limit,
                                         [this] { return disarmed_; })) {
                  std::fprintf(stderr, "watchdog: %s still running after "
                               "%lld s\n", what,
                               static_cast<long long>(limit.count()));
                  std::abort();
              }
          })
    {
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            disarmed_ = true;
        }
        disarmed_cv_.notify_one();
        thread_.join();
    }

  private:
    std::mutex mutex_;
    std::condition_variable disarmed_cv_;
    bool disarmed_ = false;
    /** Last, so it starts after the members it reads. */
    std::thread thread_;
};

/** TaskGroup children that throw, on each backend. */
class TaskGroupThrow : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(TaskGroupThrow, OneWorkerRethrowsOnceAndRunsEveryChild)
{
    // The only worker runs every child inside wait(), the thrower
    // included; the group must still count it as finished.
    Watchdog watchdog("a 1-worker TaskGroup with a throwing child");
    auto pool = makePool(GetParam(), 1);
    std::atomic<int> ran{0};
    int rethrows = 0;
    {
        TaskGroup group(*pool);
        group.run([] { throw std::runtime_error("child"); });
        for (int i = 0; i < 9; ++i)
            group.run([&ran] { ran.fetch_add(1); });
        try {
            group.wait();
        } catch (const std::runtime_error &) {
            ++rethrows;
        }
    }
    EXPECT_EQ(rethrows, 1);
    EXPECT_EQ(ran.load(), 9);
}

TEST_P(TaskGroupThrow, FourWorkersRethrowOnceAndRunEveryChild)
{
    // Throwers run on worker threads as well as on the waiting master.
    Watchdog watchdog("a 4-worker TaskGroup with throwing children");
    auto pool = makePool(GetParam(), 4);
    for (int rep = 0; rep < 20; ++rep) {
        std::atomic<int> ran{0};
        int rethrows = 0;
        {
            TaskGroup group(*pool);
            for (int i = 0; i < 200; ++i) {
                if (i % 10 == 0)
                    group.run([] { throw std::runtime_error("child"); });
                else
                    group.run([&ran] { ran.fetch_add(1); });
            }
            try {
                group.wait();
            } catch (const std::runtime_error &) {
                ++rethrows;
            }
        }
        EXPECT_EQ(rethrows, 1) << "rep " << rep;
        EXPECT_EQ(ran.load(), 180) << "rep " << rep;
    }
}

TEST_P(TaskGroupThrow, DestructorJoinsAndDropsTheException)
{
    Watchdog watchdog("a TaskGroup destructor after a throwing child");
    auto pool = makePool(GetParam(), 2);
    std::atomic<int> ran{0};
    {
        TaskGroup group(*pool);
        group.run([] { throw std::runtime_error("child"); });
        group.run([&ran] { ran.fetch_add(1); });
        // No wait(): the destructor joins and must not throw.
    }
    EXPECT_EQ(ran.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, TaskGroupThrow,
                         ::testing::ValuesIn(kBackends),
                         [](const ::testing::TestParamInfo<BackendKind> &info) {
                             return std::string(backendName(info.param));
                         });

/** A bare spawn/enqueue task that throws, on each backend. */
class BareTaskThrow : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(BareTaskThrow, PanicNamesTheWorkerAndTheException)
{
    // The pool's threads are running, so fork-and-exec the death child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The master only sleeps, so worker 1 runs every task: the enqueued
    // one from the injection queue, and the one it spawns from its own
    // deque.
    auto runThrower = [](BackendKind kind, bool spawned) {
        auto pool = makePool(kind, 2);
        auto boom = [] { throw std::runtime_error("bare task failed"); };
        if (spawned)
            pool->enqueue([&pool, boom] { pool->spawn(boom); });
        else
            pool->enqueue(boom);
        std::this_thread::sleep_for(std::chrono::seconds(10));
    };
    EXPECT_DEATH(runThrower(GetParam(), false),
                 "pool worker 1: bare task failed");
    EXPECT_DEATH(runThrower(GetParam(), true),
                 "pool worker 1: bare task failed");
}

INSTANTIATE_TEST_SUITE_P(Backends, BareTaskThrow,
                         ::testing::ValuesIn(kBackends),
                         [](const ::testing::TestParamInfo<BackendKind> &info) {
                             return std::string(backendName(info.param));
                         });

TEST(WorkerPool, WorkerThreadsStealFromTheMaster)
{
    WorkerPool pool(4);
    std::atomic<int> ran{0};
    // The master floods its own deque and then refuses to help, so the
    // only way the tasks can complete is via worker-thread steals.
    for (int i = 0; i < 200; ++i)
        pool.spawn([&ran] { ran.fetch_add(1); });
    while (ran.load(std::memory_order_acquire) < 200)
        std::this_thread::yield();
    EXPECT_EQ(ran.load(), 200);
    EXPECT_GT(pool.steals(), 0u);
}

TEST(CentralQueue, ParallelForMatchesSerial)
{
    CentralQueuePool pool(4);
    std::vector<int64_t> data(20000, 0);
    pool.parallelFor(0, 20000, 256, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            data[i] = 2 * i;
    });
    int64_t sum = std::accumulate(data.begin(), data.end(), int64_t{0});
    EXPECT_EQ(sum, 2LL * 20000 * 19999 / 2);
}

TEST(CentralQueue, SpawnAndHelp)
{
    CentralQueuePool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 500; ++i)
        pool.spawn([&ran] { ran.fetch_add(1); });
    pool.helpUntilIdle();
    EXPECT_EQ(ran.load(), 500);
}

TEST(AsyncChunked, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(10000);
    asyncChunkedFor(0, 10000, 4, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Hooks, WorkersSignalWaitingWhenIdle)
{
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        ActivityMonitor monitor(4);
        auto pool = makePool(kind, 4, &monitor);
        // With nothing to do, the three worker threads fail steals and
        // signal waiting; the master only participates during joins, so
        // the census settles at exactly one active worker (the master).
        for (int spin = 0; spin < 200'000 && monitor.activeWorkers() > 1;
             ++spin)
            std::this_thread::yield();
        EXPECT_EQ(monitor.activeWorkers(), 1);
    }
}

TEST(Hooks, WorkersReactivateForWork)
{
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        ActivityMonitor monitor(4);
        auto pool = makePool(kind, 4, &monitor);
        for (int spin = 0; spin < 200'000 && monitor.activeWorkers() > 1;
             ++spin)
            std::this_thread::yield();
        ASSERT_EQ(monitor.activeWorkers(), 1);

        std::atomic<int> ran{0};
        TaskGroup group(*pool);
        for (int i = 0; i < 2000; ++i) {
            group.run([&ran] {
                // Enough work per task for activity to be observable.
                volatile int x = 0;
                for (int j = 0; j < 2000; ++j)
                    x = x + j;
                ran.fetch_add(1);
            });
        }
        group.wait();
        EXPECT_EQ(ran.load(), 2000);
        // Census must never go negative or exceed the worker count.
        EXPECT_GE(monitor.activeWorkers(), 0);
        EXPECT_LE(monitor.activeWorkers(), 4);
    }
}

TEST(Hooks, TransitionCountsAreBalanced)
{
    // A counting hook sees alternating waiting/active per worker; the
    // number of active signals can lag waiting by at most one per
    // worker (workers may end in the waiting state).
    struct Counter : SchedulerHooks
    {
        std::atomic<int> waits{0};
        std::atomic<int> actives{0};
        void onWorkerActive(int) override { actives.fetch_add(1); }
        void onWorkerWaiting(int) override { waits.fetch_add(1); }
    };
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        Counter counter;
        {
            auto pool = makePool(kind, 3, &counter);
            for (int round = 0; round < 5; ++round) {
                TaskGroup group(*pool);
                for (int i = 0; i < 50; ++i)
                    group.run([] {});
                group.wait();
                std::this_thread::yield();
            }
        }
        int waits = counter.waits.load();
        int actives = counter.actives.load();
        EXPECT_GE(waits, actives);
        EXPECT_LE(waits - actives, 3);
    }
}

TEST(Hooks, NullHooksAreSafe)
{
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        auto pool = makePool(kind, 3, nullptr);
        std::atomic<int> ran{0};
        TaskGroup group(*pool);
        for (int i = 0; i < 100; ++i)
            group.run([&ran] { ran.fetch_add(1); });
        group.wait();
        EXPECT_EQ(ran.load(), 100);
    }
}

TEST(Hooks, StealSuccessReportsEveryCommittedSteal)
{
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        ActivityMonitor monitor(4);
        auto pool = makePool(kind, 4, &monitor);
        std::atomic<int> ran{0};
        TaskGroup group(*pool);
        for (int i = 0; i < 2000; ++i) {
            group.run([&ran] {
                // Enough work that the join outlasts a worker's wakeup:
                // a host may run a woken thread on the waker's busy CPU
                // for milliseconds before migrating it.
                volatile int x = 0;
                for (int j = 0; j < 20000; ++j)
                    x = x + j;
                ran.fetch_add(1);
            });
        }
        group.wait();
        EXPECT_EQ(ran.load(), 2000);
        EXPECT_EQ(monitor.stealSuccesses(), pool->steals());
        // With this much work and three hungry workers, something stole.
        EXPECT_GT(monitor.stealSuccesses(), 0u);
    }
}

TEST(Hooks, RestFiresWhenWorkersPark)
{
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        ActivityMonitor monitor(3);
        auto pool = makePool(kind, 3, &monitor);
        // Idle workers exhaust their spin budget and park on the wakeup
        // condition variable, announcing the rest through the hook.
        for (int spin = 0; spin < 200'000 && monitor.rests() == 0; ++spin)
            std::this_thread::yield();
        EXPECT_GT(monitor.rests(), 0u);
        // Mugging is off in a default pool: no mug may ever be reported.
        EXPECT_EQ(monitor.mugs(), 0u);
        EXPECT_EQ(pool->mugAttempts(), 0u);
    }
}

TEST(Hooks, SequencedTransitionsObserveNewCallbacks)
{
    // Drive the hint machinery deterministically from the master:
    // tryTakeTask failures toggle waiting on the second miss, a found
    // task toggles active, and the new callbacks interleave with the
    // legacy ones in order.
    struct Recorder : SchedulerHooks
    {
        std::vector<std::string> events;
        void onWorkerActive(int) override { events.push_back("active"); }
        void onWorkerWaiting(int) override { events.push_back("wait"); }
        void
        onStealSuccess(int, int) override
        {
            events.push_back("steal");
        }
    };
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        Recorder recorder;
        // Master only: single-threaded.
        auto pool = makePool(kind, 1, &recorder);
        EXPECT_EQ(pool->tryTakeTask(), nullptr);
        EXPECT_EQ(pool->tryTakeTask(), nullptr); // 2nd miss: waiting
        pool->spawn([] {});
        RtTask *task = pool->tryTakeTask(); // own pop: active again
        ASSERT_NE(task, nullptr);
        task->invoke(task);
        std::vector<std::string> expect = {"wait", "active"};
        EXPECT_EQ(recorder.events, expect); // own pops are not steals
    }
}

TEST(WorkerIdentity, EveryPoolAThreadBuildsCountsItAsMaster)
{
    // A thread that builds two pools is worker 0 of both — not only of
    // the last one — so spawns on either land in its own queue, where
    // the worker threads can only get them by stealing.
    for (BackendKind kind : kBackends) {
        SCOPED_TRACE(backendName(kind));
        auto first = makePool(kind, 4);
        auto second = makePool(kind, 4);
        for (RuntimeBackend *pool : {first.get(), second.get()}) {
            EXPECT_EQ(pool->currentWorker(), 0);
            std::atomic<int> ran{0};
            TaskGroup group(*pool);
            for (int i = 0; i < 2000; ++i) {
                group.run([&ran] {
                    // As in StealSuccessReportsEveryCommittedSteal: long
                    // enough to outlast a worker's wakeup.
                    volatile int x = 0;
                    for (int j = 0; j < 20000; ++j)
                        x = x + j;
                    ran.fetch_add(1);
                });
            }
            group.wait();
            EXPECT_EQ(ran.load(), 2000);
            EXPECT_GT(pool->steals(), 0u);
        }
    }
}

TEST(WorkerIdentity, PoolBuiltInsideATaskKeepsTheWorkersIndex)
{
    // A task builds and destroys a pool of its own: the worker running
    // it is that pool's master meanwhile, and afterwards still the same
    // worker of the outer pool.
    for (BackendKind outer_kind : kBackends) {
        for (BackendKind inner_kind : kBackends) {
            SCOPED_TRACE(std::string(backendName(inner_kind)) + " in " +
                         backendName(outer_kind));
            auto outer = makePool(outer_kind, 2);
            std::atomic<int> before{-2};
            std::atomic<int> inner_master{-2};
            std::atomic<int> after{-2};
            std::atomic<bool> done{false};
            // The master never helps, so worker 1 runs the task.
            outer->enqueue([&] {
                before.store(outer->currentWorker());
                {
                    auto inner = makePool(inner_kind, 2);
                    inner_master.store(inner->currentWorker());
                }
                after.store(outer->currentWorker());
                done.store(true, std::memory_order_release);
            });
            while (!done.load(std::memory_order_acquire))
                std::this_thread::yield();
            EXPECT_EQ(before.load(), 1);
            EXPECT_EQ(inner_master.load(), 0);
            EXPECT_EQ(after.load(), 1);
        }
    }
}

} // namespace
} // namespace aaws
