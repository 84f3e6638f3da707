/**
 * @file
 * Indexed event queue for the discrete-event simulator.
 *
 * The simulator has a small, fixed population of event *sources* (one
 * pending-op slot per core, one transition slot per core, one
 * controller slot), and every source has at most one live event at a
 * time: rescheduling a source replaces its previous event.  A general
 * priority queue with lazy deletion therefore wastes most of its work
 * churning stale entries.  This structure instead keys events by slot
 * and keeps an indexed 4-ary min-heap over the *active* slots only, so
 * reschedule is an in-place sift and cancel is an O(log n) removal --
 * no stale events ever exist.
 *
 * Heap entries carry their (tick, seq) key inline rather than indirect
 * through a per-slot key array: every sift comparison would otherwise
 * be a dependent load at a heap-order-random slot index (inlining the
 * keys made serial Machine::run ~1.5x faster).  The per-slot `pos_`
 * index alone is enough for the in-place reschedule and cancel paths.
 *
 * Ordering is identical to the old `std::priority_queue<Event>` scheme:
 * events pop in (tick, seq) lexicographic order, where `seq` is the
 * caller-supplied monotone sequence number that breaks same-tick ties
 * deterministically (earlier schedule pops first).
 *
 * Every sift runs in one direction: an in-place reschedule compares the
 * new key with the old one, and a removal compares the moved-in entry
 * with the removed one.  The simulator dispatches in place (`retire`):
 * the top event stays queued while its handler runs, so the common
 * handler that re-arms its own slot sifts once from the root.
 */

#ifndef AAWS_SIM_EVENT_QUEUE_H
#define AAWS_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "sim/ticks.h"

namespace aaws {

/**
 * Min-heap of at most one pending event per slot, ordered by
 * (tick, seq).  Slots are dense integers in [0, slots).
 */
class IndexedEventQueue
{
  public:
    explicit IndexedEventQueue(int slots)
        : pos_(static_cast<size_t>(slots), -1)
    {
        heap_.reserve(static_cast<size_t>(slots));
    }

    /**
     * Arm `slot` to fire at `tick`.  If the slot already has a live
     * event it is rescheduled in place (the old event is replaced).
     * `seq` must come from a monotonically increasing counter shared by
     * all schedule calls; it breaks same-tick ties.
     */
    void
    schedule(int slot, Tick tick, uint64_t seq)
    {
        Entry entry{{tick, seq}, slot};
        int32_t p = pos_[slot];
        if (p < 0) {
            p = static_cast<int32_t>(heap_.size());
            heap_.push_back(entry);
            siftUp(p, entry);
        } else if (entry.key < heap_[p].key) {
            siftUp(p, entry); // in-place reschedule, earlier
        } else {
            siftDown(p, entry); // in-place reschedule, later
        }
    }

    /** Disarm `slot`; no-op if it has no live event. */
    void
    cancel(int slot)
    {
        int32_t p = pos_[slot];
        if (p < 0)
            return;
        removeAt(p);
    }

    /** Does `slot` have a live event? */
    bool active(int slot) const { return pos_[slot] >= 0; }

    bool empty() const { return heap_.empty(); }
    size_t size() const { return heap_.size(); }

    /** Slot of the earliest event; queue must be non-empty. */
    int topSlot() const { return heap_[0].slot; }

    /** Tick of the earliest event; queue must be non-empty. */
    Tick topTick() const { return heap_[0].key.tick; }

    /** Sequence number of the earliest event; queue must be non-empty. */
    uint64_t topSeq() const { return heap_[0].key.seq; }

    /** Remove and return the slot of the earliest event. */
    int
    pop()
    {
        AAWS_ASSERT(!heap_.empty(), "pop from empty event queue");
        int slot = heap_[0].slot;
        removeAt(0);
        return slot;
    }

    /** Sequence number of `slot`'s live event; the slot must be active. */
    uint64_t seqOf(int slot) const { return heap_[pos_[slot]].key.seq; }

    /**
     * Dispatch in place: a caller may read the top event, handle it with
     * the entry still queued, and then retire it.  Remove `slot`'s event
     * if it still carries `seq`, that is, if the handler neither
     * rescheduled nor cancelled the slot.  A handler that reschedules
     * its own slot thus costs one sift from the root instead of a pop
     * and a push.
     */
    void
    retire(int slot, uint64_t seq)
    {
        int32_t p = pos_[slot];
        if (p >= 0 && heap_[p].key.seq == seq)
            removeAt(p);
    }

  private:
    struct Key
    {
        Tick tick = 0;
        uint64_t seq = 0;
        bool
        operator<(const Key &o) const
        {
            return tick != o.tick ? tick < o.tick : seq < o.seq;
        }
    };

    struct Entry
    {
        Key key;
        int slot = 0;
    };

    void
    removeAt(int32_t p)
    {
        Key removed = heap_[p].key;
        pos_[heap_[p].slot] = -1;
        int32_t last = static_cast<int32_t>(heap_.size()) - 1;
        Entry moved = heap_[last];
        heap_.pop_back();
        if (p == last)
            return;
        // The hole's parent sorts before `removed` and its children
        // after, so the moved entry can violate only one side.
        if (moved.key < removed)
            siftUp(p, moved);
        else
            siftDown(p, moved);
    }

    // Hole-based insertion: `entry` is written once at its final
    // position; intermediate levels only copy downward/upward.
    void
    siftUp(int32_t p, Entry entry)
    {
        while (p > 0) {
            int32_t parent = (p - 1) >> 2;
            if (!(entry.key < heap_[parent].key))
                break;
            heap_[p] = heap_[parent];
            pos_[heap_[p].slot] = p;
            p = parent;
        }
        heap_[p] = entry;
        pos_[entry.slot] = p;
    }

    void
    siftDown(int32_t p, Entry entry)
    {
        int32_t n = static_cast<int32_t>(heap_.size());
        while (true) {
            int32_t first = (p << 2) + 1;
            if (first >= n)
                break;
            int32_t best = first;
            int32_t end = first + 4 < n ? first + 4 : n;
            for (int32_t c = first + 1; c < end; ++c) {
                if (heap_[c].key < heap_[best].key)
                    best = c;
            }
            if (!(heap_[best].key < entry.key))
                break;
            heap_[p] = heap_[best];
            pos_[heap_[p].slot] = p;
            p = best;
        }
        heap_[p] = entry;
        pos_[entry.slot] = p;
    }

    std::vector<int32_t> pos_; ///< Per-slot heap position, -1 = inactive.
    std::vector<Entry> heap_;  ///< Active events, key inline with slot.
};

} // namespace aaws

#endif // AAWS_SIM_EVENT_QUEUE_H
