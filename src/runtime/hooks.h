/**
 * @file
 * Scheduler hooks: the software half of the paper's hint-instruction
 * interface (Section III-A) on the *native* runtime.
 *
 * On the paper's hardware, the runtime executes a hint instruction that
 * toggles a per-core activity bit after the second failed steal attempt
 * and again when work is found; the DVFS controller reads the bits.  On
 * commodity hardware there is no DVFS controller to inform, but the
 * same instrumentation points are exposed as virtual hooks so users can
 * attach profilers or (as `ActivityMonitor` does) maintain the
 * active-worker census the AAWS controller would see.
 */

#ifndef AAWS_RUNTIME_HOOKS_H
#define AAWS_RUNTIME_HOOKS_H

#include <atomic>
#include <cstdint>

namespace aaws {

/**
 * Observer of per-worker activity transitions.  Callbacks may run
 * concurrently from different workers but never concurrently for the
 * same worker index.  Both native backends fire them from one shared
 * body (runtime/backend.h), so the sequences below hold for either.
 *
 * A foreign thread — one that is not a worker of the pool, helping
 * while it joins a fork or a TaskGroup (RuntimeBackend::helpUntil) —
 * reports onStealAttempt and onStealSuccess with thief index -1 when
 * it steals on the deque backend.  The never-concurrently promise does
 * not cover -1: any number of foreign threads may report it at once.
 * onSpawn fires for every task a worker makes stealable, heap task or
 * frame job alike.
 */
class SchedulerHooks
{
  public:
    virtual ~SchedulerHooks() = default;

    /** Worker found work after having signalled waiting. */
    virtual void onWorkerActive(int worker) { (void)worker; }

    /**
     * Worker's second consecutive failed steal attempt (the paper's
     * trigger for toggling the activity bit to waiting).
     */
    virtual void onWorkerWaiting(int worker) { (void)worker; }

    /**
     * Worker `thief` is about to attempt a steal from `victim` (after
     * victim selection, before touching the victim's deque or posting
     * it a steal request).  High-frequency instrumentation point; also
     * what the stress suite's schedule shaker uses to perturb thread
     * interleavings.
     */
    virtual void
    onStealAttempt(int thief, int victim)
    {
        (void)thief;
        (void)victim;
    }

    /** Worker is about to push a spawned task onto its own queue. */
    virtual void onSpawn(int worker) { (void)worker; }

    /**
     * Worker `thief` took work from `victim`: a committed deque steal,
     * or a granted batch received.  Fires after the steal committed
     * (the task is the thief's) and before the thief starts executing
     * it.
     */
    virtual void
    onStealSuccess(int thief, int victim)
    {
        (void)thief;
        (void)victim;
    }

    /**
     * Worker `mugger` (on a big core) claimed queued work from worker
     * `muggee` (on a little core) through the mugging policy — the
     * software analog of the paper's user-level-interrupt migration.
     * Fires before the corresponding onStealSuccess.
     */
    virtual void
    onMug(int mugger, int muggee)
    {
        (void)mugger;
        (void)muggee;
    }

    /**
     * Worker parked (rest state: blocked on the wakeup condition
     * variable after exhausting its idle spins).  The worker signals
     * waiting via onWorkerWaiting well before it rests; onWorkerActive
     * marks the end of the rest.
     */
    virtual void onRest(int worker) { (void)worker; }
};

/**
 * Maintains the active-worker count, i.e. the activity-bit census the
 * paper's DVFS controller reads.
 */
class ActivityMonitor : public SchedulerHooks
{
  public:
    /** @param workers Total workers; all start in the active state. */
    explicit ActivityMonitor(int workers) : active_(workers) {}

    void
    onWorkerActive(int worker) override
    {
        (void)worker;
        active_.fetch_add(1, std::memory_order_acq_rel);
    }

    void
    onWorkerWaiting(int worker) override
    {
        (void)worker;
        active_.fetch_sub(1, std::memory_order_acq_rel);
    }

    void
    onStealSuccess(int thief, int victim) override
    {
        (void)thief;
        (void)victim;
        steal_successes_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    onMug(int mugger, int muggee) override
    {
        (void)mugger;
        (void)muggee;
        mugs_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    onRest(int worker) override
    {
        (void)worker;
        rests_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Workers currently holding their activity bit high. */
    int
    activeWorkers() const
    {
        return active_.load(std::memory_order_acquire);
    }

    /** Committed steals observed via onStealSuccess. */
    uint64_t
    stealSuccesses() const
    {
        return steal_successes_.load(std::memory_order_relaxed);
    }

    /** Mug migrations observed via onMug. */
    uint64_t
    mugs() const
    {
        return mugs_.load(std::memory_order_relaxed);
    }

    /** Worker park events observed via onRest. */
    uint64_t
    rests() const
    {
        return rests_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int> active_;
    std::atomic<uint64_t> steal_successes_{0};
    std::atomic<uint64_t> mugs_{0};
    std::atomic<uint64_t> rests_{0};
};

} // namespace aaws

#endif // AAWS_RUNTIME_HOOKS_H
