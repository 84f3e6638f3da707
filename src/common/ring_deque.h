/**
 * @file
 * RingDeque: the one owner-LIFO, thief-FIFO queue both engines keep
 * per worker — the simulator's per-worker deque (`sim::Machine`) and
 * the channel pool's private task queue (`chan::ChannelPool`).
 *
 * It is single-threaded: each user touches a ring from one thread
 * only, the simulator because it is single-threaded and the channel
 * pool because a victim hands its tasks to thieves by message.
 */

#ifndef AAWS_COMMON_RING_DEQUE_H
#define AAWS_COMMON_RING_DEQUE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aaws {

/**
 * A power-of-two ring over one vector.  The owner pushes and pops at
 * the back (the tail), thieves take from the front (the head), and a
 * full ring doubles.  `T` is a small trivially copyable entry.  A ring
 * starts at 64 entries, which few deques outgrow.
 */
template <class T>
class RingDeque
{
  public:
    bool empty() const { return head_ == tail_; }
    size_t size() const { return tail_ - head_; }

    void
    pushBack(const T &entry)
    {
        if (size() == buf_.size())
            grow();
        buf_[tail_++ & mask_] = entry;
    }

    /** Remove and return the newest entry; the deque must not be empty. */
    T popBack() { return buf_[--tail_ & mask_]; }

    /** Remove and return the oldest entry; the deque must not be empty. */
    T popFront() { return buf_[head_++ & mask_]; }

  private:
    void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 64 : 2 * buf_.size());
        for (uint32_t i = head_; i != tail_; ++i)
            bigger[i - head_] = buf_[i & mask_];
        tail_ -= head_;
        head_ = 0;
        mask_ = static_cast<uint32_t>(bigger.size() - 1);
        buf_ = std::move(bigger);
    }

    std::vector<T> buf_;
    // Free-running indices: an entry sits at index & mask_, and the
    // unsigned difference tail_ - head_ is the size even after wrapping.
    uint32_t head_ = 0;
    uint32_t tail_ = 0;
    uint32_t mask_ = 0;
};

} // namespace aaws

#endif // AAWS_COMMON_RING_DEQUE_H
