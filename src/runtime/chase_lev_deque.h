/**
 * @file
 * Lock-free split work-stealing deque: a Chase-Lev deque [Chase & Lev,
 * SPAA'05] with the C11-memory-model orderings of Le et al. (PPoPP'13),
 * plus an owner-private part in the style of Lace's split deque [van
 * Dijk & van de Pol, Euro-Par 2014 workshops].
 *
 * Three indices cut the ring: thieves steal at `top`; `[top, split)` is
 * the public part, an unchanged Chase-Lev deque with `split` in the role
 * of its bottom; `[split, bottom)` is the owner's private part, which no
 * thief ever reads.  A public push (push) publishes everything the owner
 * holds, so it keeps Chase-Lev's meaning.  A private push (pushPrivate)
 * and a pop of a private element are plain loads and stores — no fence
 * and no read-modify-write — because no thief can race them.  Only the
 * pop of a public element runs the fenced Chase-Lev pop, and only the
 * last public element costs a CAS.
 *
 * Private work becomes stealable when the owner finds its public part
 * drained: every private push and every private pop loads `top`, and on
 * `top >= split` publishes the whole private part with one release store
 * of `split`.  A thief that finds the public part drained therefore
 * waits for the owner's next push or pop; an owner that runs long
 * without one (or is descheduled) hides its private work until then.
 * Lace makes the same trade.
 *
 * Every store of `split` is a release store, the thief's load of it an
 * acquire load, so a stolen element's data happens-before the thief's
 * use of it with no standalone fence to model.  `bottom` is a relaxed
 * size hint no thief synchronizes on.
 *
 * The buffer grows geometrically; retired buffers are kept alive until
 * destruction so racing thieves never read freed memory (the classic
 * leak-until-quiescence reclamation scheme, bounded because growth
 * doubles capacity).
 */

#ifndef AAWS_RUNTIME_CHASE_LEV_DEQUE_H
#define AAWS_RUNTIME_CHASE_LEV_DEQUE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "runtime/task.h"

namespace aaws {

/**
 * Split work-stealing deque of trivially copyable elements (task
 * pointers).
 *
 * Thread-safety contract: exactly one owner thread may call push(),
 * pushPrivate() and pop(); any number of threads may call steal()
 * concurrently.
 */
template <typename T>
class ChaseLevDeque
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "deque elements must be trivially copyable");

  public:
    explicit ChaseLevDeque(int64_t initial_capacity = 64)
        : top_(0), split_(0), bottom_(0)
    {
        buffers_.push_back(
            std::make_unique<Buffer>(roundUp(initial_capacity)));
        adopt(buffers_.back().get());
    }

    ChaseLevDeque(const ChaseLevDeque &) = delete;
    ChaseLevDeque &operator=(const ChaseLevDeque &) = delete;

    /**
     * Owner: push an element at the bottom, stealable at once.  Every
     * private element below it is published with it.
     */
    void
    push(T value)
    {
        int64_t b = put(value, top_.load(std::memory_order_acquire));
        split_.store(b + 1, std::memory_order_release);
    }

    /**
     * Owner: push an element into the private part.  When the public
     * part is drained — always so on an empty deque — the push publishes
     * the whole private part, the new element included, and calls
     * `on_publish`.
     */
    template <typename OnPublish>
    void
    pushPrivate(T value, OnPublish &&on_publish)
    {
        int64_t t = top_.load(std::memory_order_acquire);
        int64_t b = put(value, t);
        if (t >= split_.load(std::memory_order_relaxed)) [[unlikely]] {
            split_.store(b + 1, std::memory_order_release);
            on_publish();
        }
    }

    /**
     * Owner: pop the most recently pushed element, private or public.
     * A private pop that leaves private elements above a drained public
     * part publishes them and calls `on_publish`.
     * @return true and set `out` on success; false when empty.
     */
    template <typename OnPublish>
    bool
    pop(T &out, OnPublish &&on_publish)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        int64_t s = split_.load(std::memory_order_relaxed);
        if (b < s)
            return popPublic(out);
        out = slots_[b & mask_].load(std::memory_order_relaxed);
        bottom_.store(b, std::memory_order_relaxed);
        bool drained = b > s && top_.load(std::memory_order_relaxed) >= s;
        if (drained) [[unlikely]] {
            split_.store(b, std::memory_order_release);
            on_publish();
        }
        return true;
    }

    bool pop(T &out) { return pop(out, [] {}); }

    /**
     * Thief: steal the oldest public element.
     * @return true and set `out` on success; false when the public part
     *         is empty or lost a race (callers treat both as a failed
     *         attempt).
     */
    bool
    steal(T &out)
    {
        int64_t t = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t s = split_.load(std::memory_order_acquire);
        if (t >= s)
            return false;
        Buffer *buf = buffer_.load(std::memory_order_consume);
        T value = buf->get(t);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
            return false;
        }
        out = value;
        return true;
    }

    /**
     * Approximate occupancy, public and private, from relaxed reads of
     * top/bottom.
     *
     * The two indices are read independently, so concurrent pushes, pops,
     * and steals can make the result momentarily stale in either
     * direction; it is never negative.  From the *owner* thread with no
     * concurrent thieves the value is exact, which is what conservation
     * assertions in tests rely on.  Never use it to decide whether a
     * subsequent pop()/steal() will succeed: a thief sees only the
     * public part.
     */
    int64_t
    size() const
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        int64_t t = top_.load(std::memory_order_relaxed);
        return b > t ? b - t : 0;
    }

    /** True when size() observes no elements (same relaxed semantics). */
    bool empty() const { return size() == 0; }

    /**
     * The victim probe: the public part's size, from relaxed reads of
     * top/split.  Private elements do not count, because no thief can
     * take them before the owner's next push or pop publishes them.
     * Stale in either direction under concurrent operations, like
     * size(), and never negative.
     */
    int64_t
    sizeEstimate() const
    {
        int64_t s = split_.load(std::memory_order_relaxed);
        int64_t t = top_.load(std::memory_order_relaxed);
        return s > t ? s - t : 0;
    }

  private:
    struct Buffer
    {
        explicit Buffer(int64_t cap)
            : capacity(cap), mask(cap - 1),
              slots(std::make_unique<std::atomic<T>[]>(cap))
        {
        }

        T
        get(int64_t i) const
        {
            return slots[i & mask].load(std::memory_order_relaxed);
        }

        void
        put(int64_t i, T value)
        {
            slots[i & mask].store(value, std::memory_order_relaxed);
        }

        int64_t capacity;
        int64_t mask;
        std::unique_ptr<std::atomic<T>[]> slots;
    };

    static int64_t
    roundUp(int64_t v)
    {
        int64_t cap = 8;
        while (cap < v)
            cap <<= 1;
        return cap;
    }

    /**
     * Owner: store `value` at the bottom, unpublished, growing the ring
     * when `t` (a lower bound of top) says it is full.  Returns the
     * index it used.
     */
    int64_t
    put(T value, int64_t t)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        if (b - t > mask_) [[unlikely]]
            grow(t, b);
        slots_[b & mask_].store(value, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return b;
    }

    /**
     * Owner: the fenced Chase-Lev pop of the public part, reached only
     * with the private part empty (`bottom == split`).  Out of line, so
     * the private paths stay small enough to inline.
     */
    [[gnu::noinline]] bool
    popPublic(T &out)
    {
        int64_t s = split_.load(std::memory_order_relaxed) - 1;
        split_.store(s, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t t = top_.load(std::memory_order_relaxed);
        if (t > s) {
            // Deque was empty: restore.
            split_.store(s + 1, std::memory_order_release);
            return false;
        }
        out = slots_[s & mask_].load(std::memory_order_relaxed);
        if (t == s) {
            // Last element: race against thieves for it.  Either way
            // the deque ends empty at s + 1.
            bool won = top_.compare_exchange_strong(
                t, t + 1, std::memory_order_seq_cst,
                std::memory_order_relaxed);
            split_.store(s + 1, std::memory_order_release);
            return won;
        }
        bottom_.store(s, std::memory_order_relaxed);
        return true;
    }

    /** Owner: grow the ring to twice its size, keeping [t, b). */
    [[gnu::noinline]] void
    grow(int64_t t, int64_t b)
    {
        Buffer *old = buffer_.load(std::memory_order_relaxed);
        auto bigger = std::make_unique<Buffer>(old->capacity * 2);
        for (int64_t i = t; i < b; ++i)
            bigger->put(i, old->get(i));
        buffers_.push_back(std::move(bigger));
        adopt(buffers_.back().get());
    }

    /** Owner: make `buf` the ring, for thieves and the owner's copy. */
    void
    adopt(Buffer *buf)
    {
        slots_ = buf->slots.get();
        mask_ = buf->mask;
        buffer_.store(buf, std::memory_order_release);
    }

    /**
     * The one index thieves write (by CAS).  The owner reads it on every
     * push and pop; its own line keeps the owner's per-operation writes
     * from invalidating it.
     */
    alignas(kCacheLine) std::atomic<int64_t> top_;
    /** Owner-written end of the public part; thieves acquire it. */
    alignas(kCacheLine) std::atomic<int64_t> split_;
    /** Owner-written end of the private part; a relaxed size hint. */
    std::atomic<int64_t> bottom_;
    /** Owner-only copy of the ring's slots and mask: no buffer_ hop. */
    std::atomic<T> *slots_ = nullptr;
    int64_t mask_ = 0;
    /** The ring thieves read, published with release on growth. */
    std::atomic<Buffer *> buffer_;
    /** Owner-only: every buffer ever used, freed at destruction. */
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

} // namespace aaws

#endif // AAWS_RUNTIME_CHASE_LEV_DEQUE_H
