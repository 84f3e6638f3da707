/**
 * @file
 * Bounded lock-free channels for the message-passing runtime backend.
 *
 * Two flavors, both fixed-capacity power-of-two rings with cache-line
 * padded indices (the layout of aprell/tasking-2.0's channel_shm,
 * SNIPPETS.md §1):
 *
 *  - SpscChannel: single producer, single consumer.  Task hand-off
 *    channels are SPSC because the runtime enforces at most one
 *    outstanding steal request per thief (MAXSTEAL = 1 in tasking-2.0
 *    terms): whoever currently *holds* the request is the unique
 *    producer of that thief's task channel, and the hand-off of the
 *    request itself through MPSC channels sequences successive
 *    producers with release/acquire edges.
 *
 *  - MpscChannel: many producers, single consumer — the per-worker
 *    steal-request mailbox.  A bounded Vyukov-style array queue:
 *    producers claim a cell with a CAS on the tail, publish the payload
 *    with a release store of the cell's sequence number, and the single
 *    consumer acquires it.
 *
 * Channels carry small trivially-copyable structs by value; there is no
 * blocking send/recv — the runtime's poll loops are the scheduler.
 */

#ifndef AAWS_CHAN_CHANNEL_H
#define AAWS_CHAN_CHANNEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/logging.h"
#include "runtime/task.h"

namespace aaws::chan {

/** Result of a non-blocking channel operation. */
enum class ChanStatus
{
    ok,
    /** Ring is at capacity (send only). */
    full,
    /** Nothing buffered (recv only). */
    empty,
    /** Channel closed: sends refused; recv drains then reports this. */
    closed,
};

namespace detail {

inline std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace detail

/**
 * Bounded single-producer single-consumer ring.
 *
 * Head (consumer cursor) and tail (producer cursor) are monotonically
 * increasing uint64 indices masked into the ring, each alone on a cache
 * line so the producer and consumer never false-share.  The producer
 * publishes a slot with a release store of tail; the consumer's acquire
 * load of tail makes the payload visible (and vice versa for head, so
 * slot reuse is ordered).
 */
template <typename T>
class SpscChannel
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "channels carry plain message structs by value");

  public:
    explicit SpscChannel(std::size_t capacity)
        : mask_(detail::roundUpPow2(capacity < 1 ? 1 : capacity) - 1),
          slots_(std::make_unique<T[]>(mask_ + 1))
    {
        AAWS_ASSERT(capacity >= 1, "channel capacity must be positive");
    }

    SpscChannel(const SpscChannel &) = delete;
    SpscChannel &operator=(const SpscChannel &) = delete;

    std::size_t capacity() const { return mask_ + 1; }

    /** Producer-side: buffered message count (consumer may race it). */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(
            tail_.load(std::memory_order_acquire) -
            head_.load(std::memory_order_acquire));
    }

    bool empty() const { return size() == 0; }

    /** Producer only. */
    ChanStatus
    trySend(const T &value)
    {
        if (closed_.load(std::memory_order_acquire))
            return ChanStatus::closed;
        uint64_t tail = tail_.load(std::memory_order_relaxed);
        uint64_t head = head_.load(std::memory_order_acquire);
        if (tail - head > mask_)
            return ChanStatus::full;
        slots_[tail & mask_] = value;
        tail_.store(tail + 1, std::memory_order_release);
        return ChanStatus::ok;
    }

    /** Consumer only.  Drains buffered messages even after close(). */
    ChanStatus
    tryRecv(T &out)
    {
        uint64_t head = head_.load(std::memory_order_relaxed);
        uint64_t tail = tail_.load(std::memory_order_acquire);
        if (head == tail)
            return closed_.load(std::memory_order_acquire)
                       ? ChanStatus::closed
                       : ChanStatus::empty;
        out = slots_[head & mask_];
        head_.store(head + 1, std::memory_order_release);
        return ChanStatus::ok;
    }

    /** Any thread; idempotent.  Future sends are refused. */
    void close() { closed_.store(true, std::memory_order_release); }

    bool closed() const { return closed_.load(std::memory_order_acquire); }

  private:
    const uint64_t mask_;
    std::unique_ptr<T[]> slots_;
    alignas(kCacheLine) std::atomic<uint64_t> head_{0};
    alignas(kCacheLine) std::atomic<uint64_t> tail_{0};
    alignas(kCacheLine) std::atomic<bool> closed_{false};
};

/**
 * Bounded multi-producer single-consumer queue (Vyukov array queue).
 *
 * Each cell carries a sequence number: `seq == pos` means free for the
 * producer claiming position `pos`; `seq == pos + 1` means the payload
 * at `pos` is published for the consumer.  Producers race on a CAS of
 * the tail, then publish their claimed cell independently, so a send
 * never blocks behind another producer's in-flight write.
 */
template <typename T>
class MpscChannel
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "channels carry plain message structs by value");

  public:
    explicit MpscChannel(std::size_t capacity)
        : mask_(detail::roundUpPow2(capacity < 1 ? 1 : capacity) - 1),
          cells_(std::make_unique<Cell[]>(mask_ + 1))
    {
        AAWS_ASSERT(capacity >= 1, "channel capacity must be positive");
        for (uint64_t i = 0; i <= mask_; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    MpscChannel(const MpscChannel &) = delete;
    MpscChannel &operator=(const MpscChannel &) = delete;

    std::size_t capacity() const { return mask_ + 1; }

    /** Snapshot count (producers and the consumer may race it). */
    std::size_t
    size() const
    {
        uint64_t tail = tail_.load(std::memory_order_acquire);
        uint64_t head = head_.load(std::memory_order_acquire);
        return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
    }

    bool empty() const { return size() == 0; }

    /** Any producer thread. */
    ChanStatus
    trySend(const T &value)
    {
        if (closed_.load(std::memory_order_acquire))
            return ChanStatus::closed;
        uint64_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & mask_];
            uint64_t seq = cell.seq.load(std::memory_order_acquire);
            intptr_t diff = static_cast<intptr_t>(seq) -
                            static_cast<intptr_t>(pos);
            if (diff == 0) {
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                {
                    cell.value = value;
                    cell.seq.store(pos + 1, std::memory_order_release);
                    return ChanStatus::ok;
                }
                // CAS failure reloaded pos; retry on the new tail.
            } else if (diff < 0) {
                return ChanStatus::full;
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Consumer only: is a message published at the head?  One acquire
     * load of the head cell, inline, so a consumer polling an empty
     * mailbox pays no call; true means the next tryRecv returns ok.
     * close() does not change it: a buffered message keeps it true.
     */
    bool
    ready() const
    {
        uint64_t pos = head_.load(std::memory_order_relaxed);
        return cells_[pos & mask_].seq.load(std::memory_order_acquire) ==
               pos + 1;
    }

    /** Consumer only.  Drains published messages even after close(). */
    ChanStatus
    tryRecv(T &out)
    {
        uint64_t pos = head_.load(std::memory_order_relaxed);
        Cell &cell = cells_[pos & mask_];
        uint64_t seq = cell.seq.load(std::memory_order_acquire);
        intptr_t diff = static_cast<intptr_t>(seq) -
                        static_cast<intptr_t>(pos + 1);
        if (diff < 0)
            return closed_.load(std::memory_order_acquire)
                       ? ChanStatus::closed
                       : ChanStatus::empty;
        out = cell.value;
        // Recycle the cell for the producer one lap ahead.
        cell.seq.store(pos + mask_ + 1, std::memory_order_release);
        head_.store(pos + 1, std::memory_order_relaxed);
        return ChanStatus::ok;
    }

    /** Any thread; idempotent.  Future sends are refused. */
    void close() { closed_.store(true, std::memory_order_release); }

    bool closed() const { return closed_.load(std::memory_order_acquire); }

  private:
    struct Cell
    {
        std::atomic<uint64_t> seq;
        T value;
    };

    const uint64_t mask_;
    std::unique_ptr<Cell[]> cells_;
    alignas(kCacheLine) std::atomic<uint64_t> head_{0};
    alignas(kCacheLine) std::atomic<uint64_t> tail_{0};
    alignas(kCacheLine) std::atomic<bool> closed_{false};
};

} // namespace aaws::chan

#endif // AAWS_CHAN_CHANNEL_H
