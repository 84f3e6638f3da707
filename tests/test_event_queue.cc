/**
 * @file
 * Tests of the indexed event queue against a reference model of the old
 * lazy-deletion priority queue: same (tick, seq) pop order, including
 * same-tick ties, in-place reschedules in both directions, cancels, and
 * the simulator's dispatch-in-place protocol (read the top, handle it
 * while it stays queued, retire it by seq).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.h"

namespace aaws {
namespace {

/**
 * The simulator's previous scheme: a std::priority_queue with per-slot
 * epochs and lazy deletion.  Rescheduling or cancelling bumps the
 * slot's epoch; stale entries are discarded at pop time.  Pop order of
 * *live* events is the contract the indexed queue must reproduce.
 */
class LazyDeletionModel
{
  public:
    explicit LazyDeletionModel(int slots) : epoch_(slots, 0) {}

    void
    schedule(int slot, Tick tick, uint64_t seq)
    {
        ++epoch_[slot];
        queue_.push({tick, seq, slot, epoch_[slot]});
    }

    void cancel(int slot) { ++epoch_[slot]; }

    bool
    empty()
    {
        skipStale();
        return queue_.empty();
    }

    /** Pop the earliest live event; returns its slot. */
    int
    pop(Tick &tick_out)
    {
        skipStale();
        Entry top = queue_.top();
        queue_.pop();
        ++epoch_[top.slot];
        tick_out = top.tick;
        return top.slot;
    }

  private:
    struct Entry
    {
        Tick tick;
        uint64_t seq;
        int slot;
        uint64_t epoch;
        // Min-first via operator> (priority_queue is max-first).
        bool
        operator>(const Entry &o) const
        {
            return tick != o.tick ? tick > o.tick : seq > o.seq;
        }
    };

    void
    skipStale()
    {
        while (!queue_.empty() &&
               queue_.top().epoch != epoch_[queue_.top().slot])
            queue_.pop();
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        queue_;
    std::vector<uint64_t> epoch_;
};

/** Deterministic xorshift64 so failures reproduce exactly. */
uint64_t
nextRand(uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

TEST(EventQueue, PopsInTickOrder)
{
    IndexedEventQueue queue(4);
    uint64_t seq = 0;
    queue.schedule(0, 30, seq++);
    queue.schedule(1, 10, seq++);
    queue.schedule(2, 20, seq++);
    EXPECT_EQ(queue.size(), 3u);
    EXPECT_EQ(queue.topTick(), 10u);
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), 0);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SameTickTiesBreakBySequence)
{
    IndexedEventQueue queue(4);
    // Scheduled in slot order 2, 0, 3, 1 -- all at tick 100.  Earlier
    // schedule (lower seq) must pop first, regardless of slot index.
    uint64_t seq = 0;
    for (int slot : {2, 0, 3, 1})
        queue.schedule(slot, 100, seq++);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_EQ(queue.pop(), 0);
    EXPECT_EQ(queue.pop(), 3);
    EXPECT_EQ(queue.pop(), 1);
}

TEST(EventQueue, RescheduleMovesEventEarlier)
{
    IndexedEventQueue queue(2);
    uint64_t seq = 0;
    queue.schedule(0, 50, seq++);
    queue.schedule(1, 100, seq++);
    queue.schedule(1, 10, seq++); // in-place, now earliest
    EXPECT_EQ(queue.size(), 2u) << "reschedule must not grow the queue";
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_EQ(queue.pop(), 0);
}

TEST(EventQueue, RescheduleMovesEventLater)
{
    IndexedEventQueue queue(2);
    uint64_t seq = 0;
    queue.schedule(0, 50, seq++);
    queue.schedule(1, 10, seq++);
    queue.schedule(1, 100, seq++); // in-place, now latest
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.pop(), 0);
    EXPECT_EQ(queue.pop(), 1);
}

TEST(EventQueue, RescheduleAtSameTickLosesTieToOlderEvents)
{
    IndexedEventQueue queue(2);
    uint64_t seq = 0;
    queue.schedule(0, 100, seq++);
    queue.schedule(1, 100, seq++);
    queue.schedule(0, 100, seq++); // re-arm slot 0: fresher seq
    EXPECT_EQ(queue.pop(), 1) << "re-armed event must lose the tie";
    EXPECT_EQ(queue.pop(), 0);
}

TEST(EventQueue, CancelRemovesLiveEvent)
{
    IndexedEventQueue queue(3);
    uint64_t seq = 0;
    queue.schedule(0, 10, seq++);
    queue.schedule(1, 20, seq++);
    queue.schedule(2, 30, seq++);
    EXPECT_TRUE(queue.active(1));
    queue.cancel(1);
    EXPECT_FALSE(queue.active(1));
    EXPECT_EQ(queue.size(), 2u);
    queue.cancel(1); // idempotent
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.pop(), 0);
    EXPECT_EQ(queue.pop(), 2);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CancelTopThenPopSkipsIt)
{
    IndexedEventQueue queue(2);
    uint64_t seq = 0;
    queue.schedule(0, 10, seq++);
    queue.schedule(1, 20, seq++);
    queue.cancel(0);
    EXPECT_EQ(queue.topTick(), 20u);
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RandomScheduleMatchesLazyDeletionModel)
{
    // Drive both implementations with an identical random mix of
    // schedules, reschedules, cancels, and pops (heavy on same-tick
    // collisions) and require identical pop sequences.
    constexpr int kSlots = 33;
    constexpr int kOps = 200000;
    IndexedEventQueue queue(kSlots);
    LazyDeletionModel model(kSlots);
    uint64_t seq = 0;
    uint64_t rng = 0x1234'5678'9ABC'DEF0ull;
    Tick now = 0;

    for (int i = 0; i < kOps; ++i) {
        uint64_t roll = nextRand(rng) % 100;
        int slot = static_cast<int>(nextRand(rng) % kSlots);
        if (roll < 55) {
            // Coarse tick quantization forces frequent seq tie-breaks.
            Tick tick = now + 1 + nextRand(rng) % 8;
            queue.schedule(slot, tick, seq);
            model.schedule(slot, tick, seq);
            ++seq;
        } else if (roll < 70) {
            queue.cancel(slot);
            model.cancel(slot);
            ASSERT_FALSE(queue.active(slot));
        } else {
            ASSERT_EQ(queue.empty(), model.empty()) << "op " << i;
            if (queue.empty())
                continue;
            Tick expect_tick = 0;
            int expect_slot = model.pop(expect_tick);
            ASSERT_EQ(queue.topTick(), expect_tick) << "op " << i;
            ASSERT_EQ(queue.pop(), expect_slot) << "op " << i;
            now = expect_tick;
        }
    }

    // Drain both completely.
    while (!model.empty()) {
        ASSERT_FALSE(queue.empty());
        Tick expect_tick = 0;
        int expect_slot = model.pop(expect_tick);
        EXPECT_EQ(queue.topTick(), expect_tick);
        EXPECT_EQ(queue.pop(), expect_slot);
    }
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RetireRemovesOnlyAnUntouchedDispatchedEvent)
{
    IndexedEventQueue queue(3);
    uint64_t seq = 0;
    queue.schedule(0, 10, seq++);
    queue.schedule(1, 20, seq++);
    queue.schedule(2, 30, seq++);

    // Untouched by its handler: retired.
    uint64_t top = queue.topSeq();
    EXPECT_EQ(queue.topSlot(), 0);
    queue.retire(0, top);
    EXPECT_FALSE(queue.active(0));
    EXPECT_EQ(queue.size(), 2u);

    // Re-armed by its handler: the fresh event stays.
    top = queue.topSeq();
    EXPECT_EQ(queue.topSlot(), 1);
    queue.schedule(1, 40, seq++);
    queue.retire(1, top);
    EXPECT_TRUE(queue.active(1));
    EXPECT_EQ(queue.seqOf(1), seq - 1);

    // Cancelled by its handler: nothing left to retire.
    top = queue.topSeq();
    EXPECT_EQ(queue.topSlot(), 2);
    queue.cancel(2);
    queue.retire(2, top);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.pop(), 1);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RandomDispatchInPlaceMatchesLazyDeletionModel)
{
    // The simulator's protocol: read the top event, run a "handler" with
    // the entry still queued, then retire it by seq.  Handlers re-arm
    // their own slot, move other slots' events earlier or later, and
    // cancel, always at or after the dispatched tick and with fresh
    // seqs.  The pop sequence must match the lazy-deletion model's.
    constexpr int kSlots = 33;
    constexpr int kEvents = 100000;
    IndexedEventQueue queue(kSlots);
    LazyDeletionModel model(kSlots);
    uint64_t seq = 0;
    uint64_t rng = 0x0FED'CBA9'8765'4321ull;
    Tick now = 0;
    auto schedule = [&](int slot, Tick tick) {
        queue.schedule(slot, tick, seq);
        model.schedule(slot, tick, seq);
        ++seq;
    };
    for (int slot = 0; slot < kSlots; ++slot)
        schedule(slot, 1 + nextRand(rng) % 8);

    int own_reschedules = 0;
    for (int i = 0; i < kEvents && !model.empty(); ++i) {
        ASSERT_FALSE(queue.empty()) << "event " << i;
        Tick expect_tick = 0;
        int expect_slot = model.pop(expect_tick);
        ASSERT_EQ(queue.topTick(), expect_tick) << "event " << i;
        ASSERT_EQ(queue.topSlot(), expect_slot) << "event " << i;
        const int slot = queue.topSlot();
        const uint64_t top_seq = queue.topSeq();
        now = expect_tick;

        int actions = static_cast<int>(nextRand(rng) % 4);
        for (int a = 0; a < actions; ++a) {
            uint64_t roll = nextRand(rng) % 100;
            int target = roll < 40 ? slot
                                   : static_cast<int>(nextRand(rng) % kSlots);
            if (roll < 85) {
                // At the dispatched tick or later: a same-tick re-arm
                // loses the tie to every older event at that tick.
                schedule(target, now + nextRand(rng) % 8);
                own_reschedules += target == slot;
            } else {
                queue.cancel(target);
                model.cancel(target);
            }
        }
        queue.retire(slot, top_seq);
        ASSERT_TRUE(!queue.active(slot) || queue.seqOf(slot) > top_seq)
            << "event " << i;
        ASSERT_EQ(queue.empty(), model.empty()) << "event " << i;
        if (queue.empty()) {
            for (int s = 0; s < kSlots; ++s)
                schedule(s, now + 1 + nextRand(rng) % 8);
        }
    }
    EXPECT_GT(own_reschedules, kEvents / 4);
}

} // namespace
} // namespace aaws
