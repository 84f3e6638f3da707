/**
 * @file
 * Unit tests of the channel primitives (SPSC/MPSC rings: capacity,
 * FIFO order, wraparound, close semantics, the mailbox's readiness
 * check) and of the ChannelPool backend: fork-join correctness through
 * the RuntimeBackend seam, all five AAWS variants on the
 * message-passing scheduler, mugging as a steal-request message,
 * steal-one/steal-half/adaptive granularity, lifeline accounting, the
 * foreign-thread enqueue path, the destructor's drain, and the backend
 * factory + strict BackendKind parsing.
 *
 * Genuine multi-thread hammering lives in tests/stress/stress_chan.cc;
 * these tests keep workloads small enough for the sanitizer legs.
 */

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aaws/variant.h"
#include "chan/backend_factory.h"
#include "chan/channel.h"
#include "chan/channel_pool.h"
#include "runtime/parallel_for.h"
#include "runtime/parallel_invoke.h"
#include "runtime/task_group.h"

namespace aaws {
namespace {

using chan::ChannelPool;
using chan::ChanStatus;
using chan::MpscChannel;
using chan::SpscChannel;
using chan::StealKind;

TEST(SpscChannel, CapacityRoundsUpToPowerOfTwo)
{
    SpscChannel<int> c3(3);
    EXPECT_EQ(c3.capacity(), 4u);
    SpscChannel<int> c4(4);
    EXPECT_EQ(c4.capacity(), 4u);
    SpscChannel<int> c1(1);
    EXPECT_EQ(c1.capacity(), 1u);
}

TEST(SpscChannel, FifoOrderAndFull)
{
    SpscChannel<int> chan(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(chan.trySend(i), ChanStatus::ok);
    EXPECT_EQ(chan.trySend(99), ChanStatus::full);
    EXPECT_EQ(chan.size(), 4u);
    int value = -1;
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(chan.tryRecv(value), ChanStatus::ok);
        EXPECT_EQ(value, i);
    }
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::empty);
    EXPECT_TRUE(chan.empty());
}

TEST(SpscChannel, WraparoundPreservesOrder)
{
    SpscChannel<int> chan(2);
    int value = -1;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(chan.trySend(2 * i), ChanStatus::ok);
        ASSERT_EQ(chan.trySend(2 * i + 1), ChanStatus::ok);
        ASSERT_EQ(chan.tryRecv(value), ChanStatus::ok);
        ASSERT_EQ(value, 2 * i);
        ASSERT_EQ(chan.tryRecv(value), ChanStatus::ok);
        ASSERT_EQ(value, 2 * i + 1);
    }
}

TEST(SpscChannel, CloseDrainsThenReports)
{
    SpscChannel<int> chan(4);
    EXPECT_EQ(chan.trySend(7), ChanStatus::ok);
    chan.close();
    EXPECT_TRUE(chan.closed());
    EXPECT_EQ(chan.trySend(8), ChanStatus::closed);
    int value = -1;
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::ok);
    EXPECT_EQ(value, 7);
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::closed);
}

TEST(MpscChannel, FifoOrderAndFull)
{
    MpscChannel<int> chan(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(chan.trySend(i), ChanStatus::ok);
    EXPECT_EQ(chan.trySend(99), ChanStatus::full);
    int value = -1;
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(chan.tryRecv(value), ChanStatus::ok);
        EXPECT_EQ(value, i);
    }
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::empty);
}

TEST(MpscChannel, WraparoundPreservesOrder)
{
    MpscChannel<int> chan(2);
    int value = -1;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(chan.trySend(i), ChanStatus::ok);
        ASSERT_EQ(chan.tryRecv(value), ChanStatus::ok);
        ASSERT_EQ(value, i);
    }
}

TEST(MpscChannel, CloseDrainsThenReports)
{
    MpscChannel<int> chan(4);
    EXPECT_EQ(chan.trySend(7), ChanStatus::ok);
    chan.close();
    EXPECT_EQ(chan.trySend(8), ChanStatus::closed);
    int value = -1;
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::ok);
    EXPECT_EQ(value, 7);
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::closed);
}

TEST(MpscChannel, ReadyMeansTheNextRecvSucceeds)
{
    MpscChannel<int> chan(4);
    EXPECT_FALSE(chan.ready());
    int value = -1;
    // Several laps, so the head cell's sequence number wraps too.
    for (int i = 0; i < 12; ++i) {
        ASSERT_EQ(chan.trySend(i), ChanStatus::ok);
        EXPECT_TRUE(chan.ready()) << "message " << i;
        ASSERT_EQ(chan.tryRecv(value), ChanStatus::ok);
        EXPECT_FALSE(chan.ready()) << "message " << i;
    }
    // Closing keeps a buffered message visible until it is drained.
    ASSERT_EQ(chan.trySend(7), ChanStatus::ok);
    chan.close();
    EXPECT_TRUE(chan.ready());
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::ok);
    EXPECT_EQ(value, 7);
    EXPECT_FALSE(chan.ready());
    EXPECT_EQ(chan.tryRecv(value), ChanStatus::closed);
}

TEST(MpscChannel, TwoProducersDeliverEverythingOnce)
{
    MpscChannel<int> chan(256);
    constexpr int kPerProducer = 100;
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p)
        producers.emplace_back([&chan, p] {
            for (int i = 0; i < kPerProducer; ++i)
                while (chan.trySend(p * kPerProducer + i) !=
                       ChanStatus::ok)
                    std::this_thread::yield();
        });
    std::vector<int> seen(2 * kPerProducer, 0);
    int received = 0;
    int value = -1;
    while (received < 2 * kPerProducer)
        if (chan.tryRecv(value) == ChanStatus::ok) {
            ++seen[value];
            ++received;
        }
    for (auto &producer : producers)
        producer.join();
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

// --- ChannelPool ------------------------------------------------------

/** Recursive fork-join fib: many tiny tasks, the steal-heavy shape. */
uint64_t
fib(RuntimeBackend &pool, int n)
{
    if (n < 2)
        return static_cast<uint64_t>(n);
    if (n < 12) {
        uint64_t a = 0;
        uint64_t b = 1;
        for (int i = 2; i <= n; ++i) {
            uint64_t next = a + b;
            a = b;
            b = next;
        }
        return b;
    }
    uint64_t left = 0;
    uint64_t right = 0;
    parallelInvoke(
        pool, [&] { left = fib(pool, n - 1); },
        [&] { right = fib(pool, n - 2); });
    return left + right;
}

TEST(ChannelPool, ParallelReduceMatchesSerial)
{
    ChannelPool pool(4);
    constexpr int64_t kN = 1 << 14;
    int64_t total = parallelReduce(
        pool, 0, kN, 64, int64_t{0},
        [](int64_t lo, int64_t hi) {
            int64_t sum = 0;
            for (int64_t i = lo; i < hi; ++i)
                sum += i;
            return sum;
        },
        [](int64_t a, int64_t b) { return a + b; });
    EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST(ChannelPool, ParallelForTouchesEveryIndexOnce)
{
    ChannelPool pool(3);
    constexpr int64_t kN = 4096;
    std::vector<std::atomic<int>> touched(kN);
    parallelFor(pool, 0, kN, 32, [&touched](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            touched[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (int64_t i = 0; i < kN; ++i)
        EXPECT_EQ(touched[i].load(std::memory_order_relaxed), 1);
}

TEST(ChannelPool, FibOnFineGrainedTasks)
{
    for (StealKind kind :
         {StealKind::one, StealKind::half, StealKind::adaptive}) {
        ChannelPool pool(4, PoolOptions{}, kind);
        EXPECT_EQ(fib(pool, 20), 6765u) << chan::stealKindName(kind);
        // Steal-one grants exactly one task per batch, structurally.
        if (kind == StealKind::one)
            EXPECT_EQ(pool.tasksReceived(), pool.steals());
        else
            EXPECT_GE(pool.tasksReceived(), pool.steals());
    }
}

TEST(ChannelPool, AllFiveVariantsRunUnchanged)
{
    for (Variant variant : allVariants()) {
        PoolOptions options;
        options.policy = policyConfigFor(variant);
        options.n_big = 2;
        ChannelPool pool(4, options);
        EXPECT_EQ(pool.policyConfig().work_mugging,
                  policyConfigFor(variant).work_mugging);
        EXPECT_EQ(fib(pool, 18), 2584u) << variantName(variant);
        if (!policyConfigFor(variant).work_mugging) {
            EXPECT_EQ(pool.mugAttempts(), 0u) << variantName(variant);
            EXPECT_EQ(pool.mugs(), 0u) << variantName(variant);
        }
    }
}

TEST(ChannelPool, MuggingIsDeliveredAsMessage)
{
    // The mug travels the steal-request channel: every mug the pool
    // counts is observed by the hooks (fired at batch receipt), and a
    // mug is also a steal, so the counters nest.
    ActivityMonitor monitor(4);
    PoolOptions options;
    options.policy = policyConfigFor(Variant::base_psm);
    options.n_big = 2;
    options.hooks = &monitor;
    ChannelPool pool(4, options);
    EXPECT_EQ(fib(pool, 21), 10946u);
    EXPECT_EQ(pool.mugs(), monitor.mugs());
    EXPECT_LE(pool.mugs(), pool.mugAttempts());
    EXPECT_LE(pool.mugs(), pool.steals());
    EXPECT_EQ(monitor.stealSuccesses(), pool.steals());
}

TEST(ChannelPool, LifelineCountersNest)
{
    ChannelPool pool(4);
    for (int round = 0; round < 20; ++round)
        EXPECT_EQ(fib(pool, 16), 987u);
    // Lifeline grants only happen to previously held requests.
    EXPECT_LE(pool.lifelineGrants(), pool.lifelineHolds());
}

TEST(ChannelPool, ForeignEnqueueConservation)
{
    // The serving invariant at unit scale: everything a foreign thread
    // enqueues is executed exactly once (shed + completed == submitted
    // with no shedding at this layer).
    ChannelPool pool(3);
    constexpr int kTasks = 2000;
    std::atomic<int> done{0};
    std::thread producer([&pool, &done] {
        for (int i = 0; i < kTasks; ++i)
            pool.enqueue([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
    });
    producer.join();
    while (done.load(std::memory_order_acquire) < kTasks) {
        RtTask *task = pool.tryTakeTask();
        if (task)
            task->invoke(task);
        else
            std::this_thread::yield();
    }
    EXPECT_EQ(done.load(std::memory_order_relaxed), kTasks);
}

TEST(ChannelPool, DestructionWithUnexecutedTasksDoesNotLeak)
{
    // Spawned-but-never-executed tasks (including any granted batch in
    // flight) are drained and freed by the destructor; asan is the
    // oracle here.
    {
        // The master's spawns fill its private queue past the 64
        // entries the ring starts at; with no other worker, nothing
        // runs them before the drain.
        std::atomic<int> ran{0};
        {
            ChannelPool pool(1);
            for (int i = 0; i < 200; ++i)
                pool.spawn([&ran] { ran.fetch_add(1); });
        }
        EXPECT_EQ(ran.load(), 0);
    }
    ChannelPool pool(2);
    for (int i = 0; i < 64; ++i)
        pool.enqueue([] {});
}

TEST(BackendFactory, ConstructsWorkingPools)
{
    for (BackendKind kind : {BackendKind::deque, BackendKind::chan}) {
        auto pool = chan::makeBackend(kind, 3, PoolOptions{});
        ASSERT_NE(pool, nullptr);
        EXPECT_EQ(pool->numWorkers(), 3);
        EXPECT_EQ(pool->currentWorker(), 0);
        EXPECT_EQ(fib(*pool, 18), 2584u) << backendName(kind);
    }
}

TEST(BackendFactory, ParseBackendKindIsStrict)
{
    BackendKind kind = BackendKind::deque;
    EXPECT_TRUE(parseBackendKind("chan", kind));
    EXPECT_EQ(kind, BackendKind::chan);
    EXPECT_TRUE(parseBackendKind("deque", kind));
    EXPECT_EQ(kind, BackendKind::deque);
    kind = BackendKind::chan;
    EXPECT_FALSE(parseBackendKind("deques", kind));
    EXPECT_FALSE(parseBackendKind("Chan", kind));
    EXPECT_FALSE(parseBackendKind("", kind));
    EXPECT_FALSE(parseBackendKind(nullptr, kind));
    // Failed parses leave the output untouched.
    EXPECT_EQ(kind, BackendKind::chan);
    EXPECT_STREQ(backendName(BackendKind::deque), "deque");
    EXPECT_STREQ(backendName(BackendKind::chan), "chan");
}

} // namespace
} // namespace aaws
