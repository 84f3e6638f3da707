/**
 * @file
 * ChannelPool: the message-passing work-stealing backend (ROADMAP item
 * 1, modeled on aprell/tasking-2.0 — SNIPPETS.md §1–2).
 *
 * Where `runtime::WorkerPool` lets thieves raid victim Chase-Lev deques
 * directly, here every worker owns a *private* task queue that only it
 * touches — the simulator's ring deque (common/ring_deque.h): the owner
 * pushes and pops the back, grants hand off the front — plus two
 * channels:
 *
 *  - an MPSC steal-request mailbox other workers post StealRequest
 *    messages into, polled on every take (one load when empty), and
 *  - an SPSC task channel on which exactly one granted TaskBatch (or an
 *    explicit decline) travels back per request.
 *
 * Each worker keeps at most one steal request in flight (MAXSTEAL = 1),
 * which is what makes the task channel single-producer: the current
 * holder of the request is the unique granter.  Victims are chosen by
 * the same `sched::VictimSelector` the deque backend and the simulator
 * use, probing per-worker cache-line-padded *task indicators* (the
 * channel-world substitute for deque-size estimates).  A victim with
 * nothing to give forwards the request ring-wise; after the request has
 * visited every worker it is *held* on a lifeline — the next spawn at
 * the holder answers the parked thief directly (work stealing degrades
 * to work sharing), and a holder that is itself starving declines all
 * held requests so thieves can re-aim.
 *
 * Policy-wise the pool is a drop-in peer of WorkerPool: both derive
 * from the shared body in `runtime/backend.h`, which owns the worker
 * threads, the activity hints and census, parking, the injection queue,
 * the steal/mug counters and hooks, and the `src/sched/` policy
 * components (victim selection, the work-biasing steal gate, the mug
 * trigger) — so all five AAWS variants run on it unchanged.  This
 * class adds only the queues and the channel protocol.
 * Work-mugging becomes a *literal message*: a starved big worker posts
 * a mug-flagged request straight into the policy-picked muggee's
 * mailbox (never forwarded, never held), much closer to the paper's
 * user-level interrupts than the deque backend's queue raid.
 */

#ifndef AAWS_CHAN_CHANNEL_POOL_H
#define AAWS_CHAN_CHANNEL_POOL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "chan/channel.h"
#include "chan/steal_request.h"
#include "common/ring_deque.h"
#include "runtime/backend.h"
#include "runtime/task.h"

namespace aaws::chan {

/**
 * Fixed-size message-passing work-stealing pool.  The constructing
 * thread is worker 0 (the master) and participates whenever it waits on
 * a join; `threads - 1` additional worker threads are spawned.
 *
 * `steal` selects the request granularity (steal-one / steal-half /
 * adaptive), which is a backend mechanism, not an AAWS policy switch.
 */
class ChannelPool : public RuntimeBackend
{
  public:
    explicit ChannelPool(int threads,
                         const PoolOptions &options = PoolOptions{},
                         StealKind steal = StealKind::adaptive);

    ~ChannelPool() override;

    void spawnTask(RtTask *task) override;

    /** A frame job takes the spawn path (a direct call). */
    void forkTask(RtTask *task) override;

    RtTask *tryTakeTask() override;

    /** The configured request granularity. */
    StealKind stealKind() const { return steal_kind_; }

    // Protocol statistics (for the shootout and tests) -------------------

    /** Steal requests posted (normal + mug; excludes forwarding hops). */
    uint64_t requestsSent() const
    {
        return requests_sent_.load(std::memory_order_relaxed);
    }

    /** Tasks that arrived through task channels (>= steals()). */
    uint64_t tasksReceived() const
    {
        return tasks_received_.load(std::memory_order_relaxed);
    }

    /** Explicit empty-batch declines sent by victims. */
    uint64_t declines() const
    {
        return declines_.load(std::memory_order_relaxed);
    }

    /** Ring-wise forwarding hops of unsatisfied requests. */
    uint64_t forwards() const
    {
        return forwards_.load(std::memory_order_relaxed);
    }

    /** Requests parked on a lifeline (held until new work or decline). */
    uint64_t lifelineHolds() const
    {
        return lifeline_holds_.load(std::memory_order_relaxed);
    }

    /** Held requests answered with tasks by a later spawn. */
    uint64_t lifelineGrants() const
    {
        return lifeline_grants_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * Per-worker scheduling state, one cache-line-aligned block per
     * worker.  `local`, `outstanding`, `steal_half_next`, and `held`
     * are owner-thread-only; `indicator` is the concurrently probed
     * task count, written only by the owner (a plain store of
     * `local.size()` after each change, as tasking-2.0's `atomic_set`);
     * the channels carry the steal protocol.
     */
    struct alignas(kCacheLine) WorkerState
    {
        /** Private task queue: owner pops the back, grants the front. */
        RingDeque<RtTask *> local;
        /** Task indicator: concurrent victim checks read this. */
        std::atomic<int64_t> indicator{0};
        /** Steal-request mailbox (any worker posts, owner drains). */
        MpscChannel<StealRequest> requests;
        /** Task hand-off channel (current request holder -> owner). */
        SpscChannel<TaskBatch> batches;
        /** Owner has a steal request in flight (MAXSTEAL = 1). */
        bool outstanding = false;
        /** Adaptive stealing: grab half next time (success history). */
        bool steal_half_next = false;
        /** Lifeline parking lot: requests held until work appears. */
        std::vector<StealRequest> held;
        WorkerHint hint;

        explicit WorkerState(int threads)
            : requests(static_cast<std::size_t>(2 * threads)), batches(2)
        {
        }

        /** Owner: publish the queue length to victim probes. */
        void
        publishSize()
        {
            indicator.store(static_cast<int64_t>(local.size()),
                            std::memory_order_relaxed);
        }
    };
    static_assert(alignof(WorkerState) == kCacheLine,
                  "per-worker blocks must not share a cache line");

    /** Drain the mailbox, answering/forwarding/holding each request. */
    void serveRequests(int self);
    void handleRequest(int self, StealRequest req);
    /** Pop tasks for `req` off the front of `self`'s queue and send. */
    void grant(int self, const StealRequest &req);
    /** Send an explicit empty batch so the thief's request is spent. */
    void decline(int self, const StealRequest &req);
    /** Pass the request to the next worker on the ring. */
    void forward(int self, StealRequest req);
    /** Answer every held request (grant if possible, else decline). */
    void releaseHeld(int self);
    /** Post a new steal request if none is in flight (mug or normal). */
    void maybeSendRequest(int self);
    /** Resolve the configured kind to the on-wire one/half. */
    StealKind resolveKind(int self);

    int64_t
    dequeSize(int worker) const override
    {
        return workers_[worker]->indicator.load(std::memory_order_relaxed);
    }

    std::vector<std::unique_ptr<WorkerState>> workers_;
    StealKind steal_kind_ = StealKind::adaptive;

    std::atomic<uint64_t> requests_sent_{0};
    std::atomic<uint64_t> tasks_received_{0};
    std::atomic<uint64_t> declines_{0};
    std::atomic<uint64_t> forwards_{0};
    std::atomic<uint64_t> lifeline_holds_{0};
    std::atomic<uint64_t> lifeline_grants_{0};
};

} // namespace aaws::chan

#endif // AAWS_CHAN_CHANNEL_POOL_H
