/**
 * @file
 * Real-thread adversarial tests of the Chase-Lev deque: multi-thief
 * hammering across buffer growth, the owner-pop vs. steal race on the
 * last element, and conservation (every pushed element leaves the deque
 * exactly once, through exactly one side).
 *
 * These tests are where ThreadSanitizer earns its keep: the deque's
 * fence-based C11 orderings are exactly the code TSan instruments when
 * built with -DAAWS_SANITIZE=thread (ctest --preset tsan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/chase_lev_deque.h"
#include "stress_util.h"

namespace aaws {
namespace {

using stress::envKnob;

TEST(ChaseLevStress, MultiThiefHammerAcrossGrowth)
{
    // Start at the minimum capacity (8) so the buffer grows ~14 times
    // while thieves are actively stealing: every growth publishes a new
    // buffer that racing thieves must either miss (retry) or read
    // consistently.
    const int64_t items = envKnob("AAWS_STRESS_ITEMS", 200'000, 40'000);
    const int thieves = 4;

    ChaseLevDeque<int64_t> dq(1); // rounds up to the 8-slot minimum
    std::vector<std::atomic<uint8_t>> seen(items);
    std::atomic<int64_t> stolen{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> pack;
    for (int t = 0; t < thieves; ++t) {
        pack.emplace_back([&] {
            int64_t out;
            while (!done.load(std::memory_order_acquire)) {
                if (dq.steal(out)) {
                    seen[out].fetch_add(1, std::memory_order_relaxed);
                    stolen.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
            while (dq.steal(out)) {
                seen[out].fetch_add(1, std::memory_order_relaxed);
                stolen.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    int64_t popped = 0;
    int64_t out;
    for (int64_t i = 0; i < items; ++i) {
        dq.push(i);
        // Interleave owner pops so both ends are exercised while the
        // buffer grows underneath.
        if (i % 7 == 0 && dq.pop(out)) {
            seen[out].fetch_add(1, std::memory_order_relaxed);
            popped++;
        }
    }
    while (dq.pop(out)) {
        seen[out].fetch_add(1, std::memory_order_relaxed);
        popped++;
    }
    done.store(true, std::memory_order_release);
    for (auto &thief : pack)
        thief.join();

    EXPECT_TRUE(dq.empty());
    EXPECT_EQ(dq.size(), 0);
    EXPECT_EQ(popped + stolen.load(), items);
    for (int64_t i = 0; i < items; ++i)
        ASSERT_EQ(seen[i].load(), 1) << "element " << i;
}

TEST(ChaseLevStress, OwnerPopVsStealRaceOnLastElement)
{
    // Every round puts exactly one element in the deque and has the
    // owner and two thieves fight for it through the seq_cst CAS on
    // `top`.  The thieves keep stealing until the owner's pop has
    // returned, so they are still at it when the pop runs.  Exactly one
    // side may win each round.
    const int64_t rounds = envKnob("AAWS_STRESS_ROUNDS", 10'000, 1'500);
    const int thieves = 2;

    ChaseLevDeque<int64_t> dq;
    std::atomic<int64_t> taken{0};
    std::atomic<bool> settled{false};
    std::barrier<> gate(thieves + 1);

    std::vector<std::thread> pack;
    for (int t = 0; t < thieves; ++t) {
        pack.emplace_back([&] {
            int64_t out;
            for (int64_t r = 0; r < rounds; ++r) {
                gate.arrive_and_wait(); // element is in place
                while (!settled.load(std::memory_order_acquire)) {
                    if (dq.steal(out)) {
                        EXPECT_EQ(out, r);
                        taken.fetch_add(1, std::memory_order_relaxed);
                    }
                }
                gate.arrive_and_wait(); // round settled
            }
        });
    }

    int64_t out;
    for (int64_t r = 0; r < rounds; ++r) {
        dq.push(r);
        settled.store(false, std::memory_order_relaxed);
        gate.arrive_and_wait();
        if (dq.pop(out)) {
            EXPECT_EQ(out, r);
            taken.fetch_add(1, std::memory_order_relaxed);
        }
        settled.store(true, std::memory_order_release);
        gate.arrive_and_wait();
        // The element must have gone to exactly one contender.
        ASSERT_EQ(taken.load(std::memory_order_relaxed), r + 1)
            << "round " << r;
        ASSERT_TRUE(dq.empty()) << "round " << r;
    }
    for (auto &thief : pack)
        thief.join();
}

TEST(ChaseLevStress, BurstPushStealOnlyDrain)
{
    // Thieves drain a deque that only ever grows from the owner side:
    // exercises steal vs. push (and steal vs. grow) without owner pops,
    // and checks FIFO-per-thief monotonicity of the stolen sequence.
    const int64_t items = envKnob("AAWS_STRESS_ITEMS", 200'000, 40'000);
    const int thieves = 3;

    ChaseLevDeque<int64_t> dq(1);
    std::atomic<int64_t> remaining{items};
    std::atomic<bool> sequence_ok{true};

    std::vector<std::thread> pack;
    for (int t = 0; t < thieves; ++t) {
        pack.emplace_back([&] {
            int64_t last = -1;
            int64_t out;
            while (remaining.load(std::memory_order_acquire) > 0) {
                if (!dq.steal(out)) {
                    std::this_thread::yield();
                    continue;
                }
                // Steals come off the FIFO end: each thief must observe
                // a strictly increasing sequence.
                if (out <= last)
                    sequence_ok.store(false, std::memory_order_relaxed);
                last = out;
                remaining.fetch_sub(1, std::memory_order_acq_rel);
            }
        });
    }

    for (int64_t i = 0; i < items; ++i)
        dq.push(i);
    for (auto &thief : pack)
        thief.join();

    EXPECT_TRUE(sequence_ok.load());
    EXPECT_EQ(remaining.load(), 0);
    EXPECT_TRUE(dq.empty());
}

TEST(ChaseLevStress, SplitHammerAcrossGrowth)
{
    // The owner mixes private pushes, public pushes and pops while the
    // buffer grows from its 8-slot minimum; thieves steal whatever a
    // public push, or a push or pop on a drained public part, publishes.
    const int64_t items = envKnob("AAWS_STRESS_ITEMS", 200'000, 40'000);
    const int thieves = 4;

    ChaseLevDeque<int64_t> dq(1);
    std::vector<std::atomic<uint8_t>> seen(items);
    std::atomic<int64_t> stolen{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> pack;
    for (int t = 0; t < thieves; ++t) {
        pack.emplace_back([&] {
            int64_t out;
            while (!done.load(std::memory_order_acquire)) {
                if (dq.steal(out)) {
                    seen[out].fetch_add(1, std::memory_order_relaxed);
                    stolen.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }

    int64_t popped = 0;
    int64_t publishes = 0;
    auto note = [&publishes] { ++publishes; };
    int64_t out;
    for (int64_t i = 0; i < items; ++i) {
        if (i % 11 == 0)
            dq.push(i);
        else
            dq.pushPrivate(i, note);
        if (i % 3 == 0 && dq.pop(out, note)) {
            seen[out].fetch_add(1, std::memory_order_relaxed);
            popped++;
        }
    }
    while (dq.pop(out, note)) {
        seen[out].fetch_add(1, std::memory_order_relaxed);
        popped++;
    }
    done.store(true, std::memory_order_release);
    for (auto &thief : pack)
        thief.join();

    EXPECT_TRUE(dq.empty());
    EXPECT_FALSE(dq.steal(out));
    EXPECT_GT(publishes, 0);
    EXPECT_EQ(popped + stolen.load(), items);
    for (int64_t i = 0; i < items; ++i)
        ASSERT_EQ(seen[i].load(), 1) << "element " << i;
}

TEST(ChaseLevStress, LastPublicElementRaceWithPrivateAbove)
{
    // Each round leaves one public element with two private ones above
    // it.  Thieves race for the public one; the owner pops the private
    // ones — the first publishing the other when a thief has drained
    // the public part — and then fights through the CAS for whatever
    // is last.  Every element goes to exactly one contender.
    const int64_t rounds = envKnob("AAWS_STRESS_ROUNDS", 10'000, 1'500);
    const int thieves = 2;
    constexpr int64_t kPerRound = 3;

    ChaseLevDeque<int64_t> dq;
    std::vector<std::atomic<uint8_t>> seen(rounds * kPerRound);
    std::atomic<int64_t> taken{0};
    std::atomic<bool> settled{false};
    std::barrier<> gate(thieves + 1);

    std::vector<std::thread> pack;
    for (int t = 0; t < thieves; ++t) {
        pack.emplace_back([&] {
            int64_t out;
            for (int64_t r = 0; r < rounds; ++r) {
                gate.arrive_and_wait(); // elements are in place
                while (!settled.load(std::memory_order_acquire)) {
                    if (dq.steal(out)) {
                        seen[out].fetch_add(1, std::memory_order_relaxed);
                        taken.fetch_add(1, std::memory_order_relaxed);
                    }
                }
                gate.arrive_and_wait(); // round settled
            }
        });
    }

    int64_t out;
    for (int64_t r = 0; r < rounds; ++r) {
        const int64_t base = r * kPerRound;
        dq.push(base);
        dq.pushPrivate(base + 1, [] {});
        dq.pushPrivate(base + 2, [] {});
        settled.store(false, std::memory_order_relaxed);
        gate.arrive_and_wait();
        // A failed pop means the deque is empty: a private pop cannot
        // fail, and a lost last-element CAS leaves nothing behind.
        while (dq.pop(out)) {
            seen[out].fetch_add(1, std::memory_order_relaxed);
            taken.fetch_add(1, std::memory_order_relaxed);
        }
        settled.store(true, std::memory_order_release);
        gate.arrive_and_wait();
        ASSERT_EQ(taken.load(std::memory_order_relaxed), base + kPerRound)
            << "round " << r;
        ASSERT_TRUE(dq.empty()) << "round " << r;
        for (int64_t i = base; i < base + kPerRound; ++i)
            ASSERT_EQ(seen[i].load(std::memory_order_relaxed), 1)
                << "round " << r << ", element " << i;
    }
    for (auto &thief : pack)
        thief.join();
}

TEST(ChaseLevStress, SizeObserverIsExactForTheOwner)
{
    // With no concurrent thieves, size()/empty() are exact from the
    // owner thread -- the contract conservation assertions rely on.
    ChaseLevDeque<int64_t> dq;
    EXPECT_TRUE(dq.empty());
    for (int64_t i = 1; i <= 1000; ++i) {
        dq.push(i);
        ASSERT_EQ(dq.size(), i);
    }
    int64_t out;
    for (int64_t i = 999; i >= 0; --i) {
        ASSERT_TRUE(dq.pop(out));
        ASSERT_EQ(dq.size(), i);
    }
    EXPECT_TRUE(dq.empty());
}

TEST(ChaseLevStress, SizeNeverExceedsOutstandingUnderTheft)
{
    // While thieves drain, the owner's relaxed size() must stay within
    // [0, pushed - consumed]: stale is fine, impossible is not.
    const int64_t items = envKnob("AAWS_STRESS_ITEMS", 100'000, 20'000);
    ChaseLevDeque<int64_t> dq;
    std::atomic<int64_t> consumed{0};
    std::atomic<bool> done{false};

    std::thread thief([&] {
        int64_t out;
        while (!done.load(std::memory_order_acquire)) {
            if (dq.steal(out))
                consumed.fetch_add(1, std::memory_order_release);
            else
                std::this_thread::yield();
        }
    });

    for (int64_t pushed = 1; pushed <= items; ++pushed) {
        dq.push(pushed);
        // Read consumed first: the true outstanding count can only be
        // larger than the bound computed this way, never smaller.
        int64_t floor_consumed = consumed.load(std::memory_order_acquire);
        int64_t sz = dq.size();
        ASSERT_GE(sz, 0);
        ASSERT_LE(sz, pushed - floor_consumed);
    }
    done.store(true, std::memory_order_release);
    thief.join();
}

} // namespace
} // namespace aaws
