/**
 * @file
 * Channel-backend stress: multi-producer hammering of the MPSC
 * mailbox ring, pool churn with work in flight, foreign-producer
 * contention on the injection path, and the 50-seed
 * determinism-of-results fuzz — ChannelPool runs under ScheduleShaker
 * perturbation must still produce bit-identical reduction results,
 * every variant must survive shaking, and the steal-protocol counters
 * must stay consistent.
 *
 * "Determinism" here is determinism of *results*, not schedules: the
 * message-passing runtime interleaves freely, but a fixed-shape
 * parallelReduce combines partial sums in a fixed tree, so any
 * scheduling of the same tree must produce the same double bit
 * pattern.  A lost task, duplicated grant, or leaked batch breaks the
 * equality before it breaks anything else.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "aaws/variant.h"
#include "chan/channel.h"
#include "chan/channel_pool.h"
#include "runtime/parallel_for.h"
#include "runtime/task_group.h"
#include "stress_util.h"

namespace aaws {
namespace {

using chan::ChannelPool;
using chan::ChanStatus;
using chan::MpscChannel;
using chan::StealKind;
using stress::baseSeed;
using stress::envKnob;
using stress::nthSeed;
using stress::ScheduleShaker;

TEST(ChanStress, MpscMultiProducerHammering)
{
    // Many producers race CAS claims on a deliberately small ring while
    // the consumer drains; every message must arrive exactly once.
    const int64_t messages =
        envKnob("AAWS_STRESS_CHAN_MSGS", 200000, 40000);
    const int producers = 4;
    MpscChannel<int64_t> mailbox(64);
    std::atomic<int64_t> sent{0};
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            for (int64_t i = p; i < messages; i += producers) {
                while (mailbox.trySend(i) != ChanStatus::ok)
                    std::this_thread::yield();
                sent.fetch_add(1, std::memory_order_relaxed);
            }
        });
    std::vector<uint8_t> seen(static_cast<size_t>(messages), 0);
    int64_t received = 0;
    int64_t value = -1;
    while (received < messages) {
        if (mailbox.tryRecv(value) != ChanStatus::ok) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_GE(value, 0);
        ASSERT_LT(value, messages);
        ASSERT_EQ(seen[static_cast<size_t>(value)], 0)
            << "message delivered twice";
        seen[static_cast<size_t>(value)] = 1;
        ++received;
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(sent.load(), messages);
    EXPECT_EQ(mailbox.tryRecv(value), ChanStatus::empty);
}

TEST(ChanStress, SpawnQuiesceChurn)
{
    // Construct, flood, join, and destroy channel pools of rotating
    // sizes and steal kinds; every round must run every task exactly
    // once and shut down cleanly.
    const int64_t rounds = envKnob("AAWS_STRESS_CHURN", 150, 25);
    const int tasks_per_round = 200;
    const StealKind kinds[] = {StealKind::one, StealKind::half,
                               StealKind::adaptive};
    for (int64_t round = 0; round < rounds; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        int threads = 1 + static_cast<int>(round % 5);
        ChannelPool pool(threads, PoolOptions{}, kinds[round % 3]);
        std::atomic<int> ran{0};
        {
            TaskGroup group(pool);
            for (int i = 0; i < tasks_per_round; ++i)
                group.run([&ran] { ran.fetch_add(1); });
        }
        ASSERT_EQ(ran.load(), tasks_per_round);
    }
}

TEST(ChanStress, DestructionWithUnexecutedTasks)
{
    // Destroy pools while tasks are still queued, granted, or in
    // flight inside TaskBatch messages: the destructor must free
    // everything (LeakSanitizer on the asan leg is the oracle).
    const int64_t rounds = envKnob("AAWS_STRESS_CHURN", 150, 25);
    for (int64_t round = 0; round < rounds; ++round) {
        std::atomic<int> ran{0};
        {
            ChannelPool pool(3);
            for (int i = 0; i < 500; ++i)
                pool.spawn([&ran] { ran.fetch_add(1); });
            // No join: shutdown races the workers on purpose.
        }
        ASSERT_LE(ran.load(), 500);
    }
}

TEST(ChanStress, ForeignProducersVsDrainingWorkers)
{
    // Many foreign threads hammer enqueue() while the pool drains:
    // conservation must hold exactly (nothing lost, nothing doubled).
    const int64_t per_producer =
        envKnob("AAWS_STRESS_CHAN_INJECT", 4000, 800);
    const int producers = 4;
    ChannelPool pool(3);
    std::atomic<int64_t> done{0};
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p)
        threads.emplace_back([&] {
            for (int64_t i = 0; i < per_producer; ++i)
                pool.enqueue([&done] {
                    done.fetch_add(1, std::memory_order_relaxed);
                });
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
}

/** Fixed-tree shaken reduction; any lost/duplicated task changes it. */
double
shakenReduce(uint64_t seed, StealKind kind)
{
    const int threads = 4;
    ScheduleShaker shaker(seed, threads);
    PoolOptions options;
    options.policy = policyConfigFor(Variant::base_psm);
    options.n_big = 2;
    options.hooks = &shaker;
    ChannelPool pool(threads, options, kind);
    return parallelReduce(
        pool, 0, 1 << 12, 16, 0.0,
        [](int64_t lo, int64_t hi) {
            double sum = 0.0;
            for (int64_t i = lo; i < hi; ++i)
                sum += std::sin(1e-3 * static_cast<double>(i));
            return sum;
        },
        [](double a, double b) { return a + b; });
}

TEST(ChanStress, DeterminismOfResultsUnderShaking)
{
    // The 50-seed fuzz: every shaken run of the same fixed reduction
    // tree must reproduce the unshaken reference bit-for-bit, across
    // steal kinds.  AAWS_DETERMINISM_SEEDS trims the sanitizer legs.
    const int64_t seeds = envKnob("AAWS_DETERMINISM_SEEDS", 50, 12);
    const double reference = shakenReduce(baseSeed(), StealKind::one);
    const StealKind kinds[] = {StealKind::one, StealKind::half,
                               StealKind::adaptive};
    for (int64_t i = 0; i < seeds; ++i) {
        SCOPED_TRACE(testing::Message() << "seed index " << i);
        double shaken =
            shakenReduce(nthSeed(baseSeed(), i + 1), kinds[i % 3]);
        ASSERT_EQ(shaken, reference);
    }
}

TEST(ChanStress, AllVariantsSurviveShaking)
{
    // Every policy assembly on the message-passing backend, perturbed
    // at each hook point: correct results, consistent counters.
    const int64_t rounds = envKnob("AAWS_STRESS_VARIANT_ROUNDS", 6, 2);
    for (int64_t round = 0; round < rounds; ++round) {
        for (Variant variant : allVariants()) {
            SCOPED_TRACE(testing::Message()
                         << variantName(variant) << " round " << round);
            const int threads = 4;
            ScheduleShaker shaker(nthSeed(baseSeed(), round), threads);
            PoolOptions options;
            options.policy = policyConfigFor(variant);
            options.n_big = 2;
            options.hooks = &shaker;
            ChannelPool pool(threads, options);
            std::atomic<int64_t> count{0};
            parallelFor(pool, 0, 2048, 8,
                        [&count](int64_t lo, int64_t hi) {
                            count.fetch_add(hi - lo,
                                            std::memory_order_relaxed);
                        });
            ASSERT_EQ(count.load(), 2048);
            EXPECT_LE(pool.mugs(), pool.mugAttempts());
            EXPECT_LE(pool.mugs(), pool.steals());
            EXPECT_LE(pool.steals(), pool.tasksReceived());
            EXPECT_LE(pool.lifelineGrants(), pool.lifelineHolds());
            if (!policyConfigFor(variant).work_mugging) {
                EXPECT_EQ(pool.mugAttempts(), 0u);
            }
        }
    }
}

} // namespace
} // namespace aaws
