/**
 * @file
 * RuntimeBackend: the shared body of every native work-stealing pool,
 * and the seam task-parallel algorithms are written against.
 *
 * Two backends derive from it — `runtime::WorkerPool` (per-worker
 * Chase-Lev deques raided directly by thieves) and `chan::ChannelPool`
 * (explicit steal-request messages over bounded channels, modeled on
 * aprell/tasking-2.0).  parallelInvoke, parallelFor, TaskGroup, and the
 * serving ingest loop are written against this class, so every
 * algorithm and all five AAWS policy variants run on either backend
 * unchanged.
 *
 * The body owns everything the backends do alike: the worker threads
 * and their identity, the activity-hint protocol and its per-cluster
 * census (Section III-A), the park ladder, the foreign-thread injection
 * queue, the steal/mug counters and their hook calls, the policy
 * components built from `PoolOptions::policy` (a victim selector per
 * worker, the work-biasing steal gate and the mug trigger), and the
 * `sched::SchedView` answers those components read.  A backend
 * supplies only how work moves — `spawnTask`, `forkTask`,
 * `tryTakeTask`, and the queue-occupancy probe `dequeSize` — plus one
 * cache-line-aligned block per worker that embeds the worker's
 * `WorkerHint`.
 *
 * The contract is what a productive blocking join needs: spawnTask
 * (stealable at once) and forkTask (a frame job its frame joins) from a
 * pool thread, enqueueTask from any thread, and a non-blocking
 * tryTakeTask that `helpUntil` — the one help loop every join runs —
 * spins on.
 */

#ifndef AAWS_RUNTIME_BACKEND_H
#define AAWS_RUNTIME_BACKEND_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "model/topology.h"
#include "runtime/hooks.h"
#include "runtime/task.h"
#include "sched/mug.h"
#include "sched/policy_stack.h"
#include "sched/steal_gate.h"
#include "sched/victim.h"
#include "sched/view.h"

namespace aaws {

/** Selects which native scheduler a bench/example/service runs on. */
enum class BackendKind
{
    /** runtime::WorkerPool — Chase-Lev deques, thieves raid directly. */
    deque,
    /** chan::ChannelPool — steal-request messages over channels. */
    chan,
};

/** Stable lowercase name ("deque" / "chan") for CLI and artifacts. */
const char *backendName(BackendKind kind);

/**
 * Strict parse of a backend name.  Returns false (leaving `out`
 * untouched) on anything but exactly "deque" or "chan".
 */
bool parseBackendKind(const char *text, BackendKind &out);

/**
 * Scheduling-policy options of a native pool.
 *
 * The defaults reproduce the historical pool behavior exactly: all
 * workers are "little" (n_big = 0), so the work-biasing gate never
 * fires, mugging is off, and victim selection is occupancy-based.
 */
struct PoolOptions
{
    /** Policy-component switches (see sched/policy_stack.h). */
    sched::PolicyConfig policy{};
    /**
     * Workers 0..n_big-1 are treated as big cores by the biasing and
     * mugging policies (clamped to the worker count).  Zero disables
     * the asymmetry-aware policies without touching their switches.
     */
    int n_big = 0;
    /** Optional activity observer (borrowed; must outlive the pool). */
    SchedulerHooks *hooks = nullptr;
};

/**
 * A fixed-size native worker pool.  The constructing thread is worker 0
 * (the master) and participates whenever it waits on a join;
 * `threads - 1` worker threads are spawned.
 *
 * Implements sched::SchedView for the shared policy components with
 * concurrent snapshots: relaxed hint-bit and census loads, plus the
 * backend's queue-size estimates.
 */
class RuntimeBackend : protected sched::SchedView
{
  public:
    ~RuntimeBackend() override;

    RuntimeBackend(const RuntimeBackend &) = delete;
    RuntimeBackend &operator=(const RuntimeBackend &) = delete;

    /** Total workers including the master. */
    int numWorkers() const final { return topo_.numCores(); }

    /**
     * Worker index of the calling thread (master = 0); -1 if foreign.
     * A thread's first pool answers from thread-local storage; any
     * further pool the same thread constructs recognizes its master by
     * thread id, so building a pool never takes a thread out of the
     * pool it already serves.
     */
    int
    currentWorker() const
    {
        if (tls_pool_ == this) [[likely]]
            return tls_worker_;
        return std::this_thread::get_id() == master_ ? 0 : -1;
    }

    /**
     * Push a task as stealable work of the current worker.  Foreign
     * threads fall back to the injection queue.
     */
    virtual void spawnTask(RtTask *task) = 0;

    /**
     * Push a frame job (detail::FrameJob) that the forking frame will
     * join.  Because that join takes it back if no thief has, a backend
     * may hide it from thieves for a while (the deque pool does, see
     * WorkerPool::forkTask).  Foreign threads fall back to the
     * injection queue.
     */
    virtual void forkTask(RtTask *task) = 0;

    /**
     * Submit a heap task from *any* thread — the open-loop ingest path.
     * Thread-safe: the task lands in a mutex-guarded FIFO injection
     * queue that every worker drains alongside stealing, so a foreign
     * arrival thread can feed a running pool continuously, and a
     * sleeping worker is woken.
     */
    void enqueueTask(RtTask *task);

    /**
     * Take one unit of work, or nullptr when nothing was found this
     * attempt.  Drives the activity-hint hooks: the second consecutive
     * failed attempt signals waiting; the next success signals active.
     */
    virtual RtTask *tryTakeTask() = 0;

    /** Total successful steals (statistics; includes mugs). */
    uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

    /** Mug-policy-directed steal attempts by starved big workers. */
    uint64_t
    mugAttempts() const
    {
        return mug_attempts_.load(std::memory_order_relaxed);
    }

    /** Mug attempts that actually migrated a task. */
    uint64_t mugs() const { return mugs_.load(std::memory_order_relaxed); }

    /** The policy switches this pool was assembled from. */
    const sched::PolicyConfig &policyConfig() const { return policy_config_; }

    /**
     * Run work until `done()` holds: the productive blocking join.  The
     * caller takes a task and runs it, or yields when none was found.
     * Any thread may help; a foreign one reaches only the work its
     * backend lets it take (see tryTakeTask).
     */
    template <class Done>
    void
    helpUntil(const Done &done)
    {
        while (!done()) {
            if (RtTask *task = tryTakeTask())
                task->invoke(task);
            else
                std::this_thread::yield();
        }
    }

    /** Spawn a closure as a stealable heap task on the current worker. */
    template <typename F>
    void
    spawn(F &&fn)
    {
        spawnTask(new detail::ClosureTask<std::decay_t<F>>(
            std::forward<F>(fn)));
    }

    /** Submit a closure as a heap task from any thread (see enqueueTask). */
    template <typename F>
    void
    enqueue(F &&fn)
    {
        enqueueTask(new detail::ClosureTask<std::decay_t<F>>(
            std::forward<F>(fn)));
    }

  protected:
    /**
     * The state the body keeps per worker.  Each backend embeds one in
     * its own cache-line-aligned per-worker block, so the hint writes
     * of every spawn/pop land on the worker's own line.
     */
    struct WorkerHint
    {
        /** Consecutive failed take attempts (owner-thread only). */
        int failed = 0;
        /** Activity hint bit read by the concurrent census. */
        std::atomic<bool> waiting{false};
        /** The worker's victim selector (owner-thread only). */
        sched::VictimSelector victim;
    };

    /**
     * @param threads Total workers including the master (>= 1).
     * @param options Policy assembly + core-type split + hooks.
     */
    RuntimeBackend(int threads, const PoolOptions &options);

    /**
     * Register the next worker's hint (call once per worker, in index
     * order) and give it its own victim selector, seeded
     * `kDefaultSeed + index` so random streams are decorrelated.
     */
    void adoptWorker(WorkerHint &hint);

    /** Start workers 1..n-1; every worker's hint must be adopted. */
    void startWorkers();

    /**
     * Stop and join the worker threads.  Every backend's destructor
     * calls this first, while its per-worker blocks still exist.
     */
    void stopWorkers();

    /** Worker `self` is about to make a task stealable. */
    void
    noteSpawn(int self)
    {
        if (hooks_)
            hooks_->onSpawn(self);
    }

    /** Worker `self` found work: reset its streak, raise its hint. */
    void
    noteFound(int self)
    {
        // Foreign threads carry no hint.
        if (self >= 0)
            noteFound(self, *hints_[self]);
    }

    /**
     * noteFound for a worker whose block is already in hand: the
     * own-queue pop path skips the hint-table lookup.
     */
    void
    noteFound(int self, WorkerHint &hint)
    {
        hint.failed = 0;
        if (hint.waiting.load(std::memory_order_relaxed)) {
            hint.waiting.store(false, std::memory_order_relaxed);
            cluster_active_[topo_.clusterOf(self)].fetch_add(
                1, std::memory_order_relaxed);
            if (hooks_)
                hooks_->onWorkerActive(self);
        }
    }

    /** Worker `self` failed a take attempt. */
    void
    noteFailed(int self)
    {
        // Foreign threads carry no hint.
        if (self >= 0)
            noteFailed(self, *hints_[self]);
    }

    /**
     * noteFailed for a worker whose block is already in hand: the deque
     * pool's gated-out owner path skips the hint-table lookup, which
     * keeps the table index out of its pop fast path.
     */
    void
    noteFailed(int self, WorkerHint &hint)
    {
        // The paper toggles the activity bit on the *second* consecutive
        // failed steal attempt (Section III-A); the count keeps running
        // (saturating) so the mug trigger can read the starvation streak.
        hint.failed = std::min(hint.failed + 1, 1 << 20);
        if (hint.failed == 2 &&
            !hint.waiting.load(std::memory_order_relaxed)) {
            hint.waiting.store(true, std::memory_order_relaxed);
            cluster_active_[topo_.clusterOf(self)].fetch_sub(
                1, std::memory_order_relaxed);
            if (hooks_)
                hooks_->onWorkerWaiting(self);
        }
    }

    /** Wake one parked worker, if any: new work is available. */
    void
    wakeOne()
    {
        if (sleepers_.load(std::memory_order_acquire) > 0) {
            std::lock_guard<std::mutex> lock(sleep_mutex_);
            sleep_cv_.notify_one();
        }
    }

    /** Oldest injected task, or nullptr (lock-free when empty). */
    RtTask *
    tryTakeInjected()
    {
        if (injected_count_.load(std::memory_order_acquire) == 0)
            return nullptr;
        std::lock_guard<std::mutex> lock(inject_mutex_);
        if (injected_.empty())
            return nullptr;
        RtTask *task = injected_.front();
        injected_.pop_front();
        injected_count_.fetch_sub(1, std::memory_order_release);
        return task;
    }

    /**
     * Work-biasing: may worker `self` look beyond its own queue?  A
     * gated-out worker charges a failed attempt without touching
     * anyone's queue, exactly as the simulator does.  The explicit
     * SchedView binding keeps the pools on the generic virtual path —
     * parking and queue atomics dominate here, so the devirtualized
     * template binding the simulator uses buys nothing.
     */
    bool
    stealAllowed(int self) const
    {
        return gate_.allowSteal(static_cast<const sched::SchedView &>(*this),
                                self);
    }

    /**
     * Worker `self`'s policy-selected victim, or -1.  A foreign thread
     * (`self == -1`) has no selector of its own and takes the richest
     * queue.  Out of line, so the probe loops stay out of the inlined
     * pop fast path of the backends' tryTakeTask.
     */
    int pickVictim(int self);

    /**
     * Mug trigger: the slower worker a starved `self` should raid, or
     * -1.  A target is counted as a mug attempt and reported through
     * onStealAttempt.
     */
    int
    mugTarget(int self)
    {
        const sched::SchedView &view = *this;
        if (!mug_.wantsMug(view, self, hints_[self]->failed))
            return -1;
        int muggee = mug_.pickMuggee(view, topo_.clusterOf(self));
        if (muggee >= 0) {
            mug_attempts_.fetch_add(1, std::memory_order_relaxed);
            noteStealAttempt(self, muggee);
        }
        return muggee;
    }

    /** `thief` (-1 if foreign) is about to try `victim`'s queue. */
    void
    noteStealAttempt(int thief, int victim)
    {
        if (hooks_)
            hooks_->onStealAttempt(thief, victim);
    }

    /**
     * `thief` (-1 if foreign) took work from `victim`; `mug` marks a
     * mug-policy-directed steal.  Counts it, reports it (onMug before
     * onStealSuccess), and raises the thief's hint.
     */
    void
    noteSteal(int thief, int victim, bool mug)
    {
        steals_.fetch_add(1, std::memory_order_relaxed);
        if (mug) {
            mugs_.fetch_add(1, std::memory_order_relaxed);
            if (hooks_)
                hooks_->onMug(thief, victim);
        }
        if (hooks_)
            hooks_->onStealSuccess(thief, victim);
        noteFound(thief);
    }

    // --- sched::SchedView (concurrent snapshots) ------------------------

    sched::CoreActivity
    activity(int core) const override
    {
        return hints_[core]->waiting.load(std::memory_order_relaxed)
                   ? sched::CoreActivity::stealing
                   : sched::CoreActivity::running;
    }

    int numClusters() const override { return topo_.numClusters(); }

    int clusterOf(int core) const override { return topo_.clusterOf(core); }

    int
    clusterSize(int cluster) const override
    {
        return topo_.cluster(cluster).count;
    }

    int
    clusterActive(int cluster) const override
    {
        return cluster_active_[cluster].load(std::memory_order_relaxed);
    }

  private:
    friend void detail::panicOnTaskException();

    void workerLoop(int index);

    /** The pool the calling thread serves, and its index there. */
    static inline thread_local const RuntimeBackend *tls_pool_ = nullptr;
    static inline thread_local int tls_worker_ = -1;

    SchedulerHooks *hooks_ = nullptr;
    sched::PolicyConfig policy_config_{};
    sched::StealGate gate_;
    sched::MugTrigger mug_;
    /** Worker-cluster assignment (the n_big split). */
    CoreTopology topo_;
    /**
     * Hint-bit census per cluster (the biasing gate's input).  Array,
     * not vector: atomics are not movable.
     */
    std::unique_ptr<std::atomic<int>[]> cluster_active_;
    /** Each worker's hint, inside its backend's per-worker block. */
    std::vector<WorkerHint *> hints_;
    /** The constructing thread (worker 0). */
    std::thread::id master_;
    std::atomic<bool> stop_{false};

    std::atomic<uint64_t> steals_{0};
    std::atomic<uint64_t> mug_attempts_{0};
    std::atomic<uint64_t> mugs_{0};

    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    std::atomic<int> sleepers_{0};

    /**
     * Foreign-thread injection queue (enqueue()).  The count mirrors
     * the queue size so the take path can skip the mutex when empty —
     * the common case for closed-loop workloads.
     */
    std::mutex inject_mutex_;
    std::deque<RtTask *> injected_;
    std::atomic<size_t> injected_count_{0};

    /** Workers 1..n-1; declared last, after everything they use. */
    std::vector<std::thread> threads_;
};

} // namespace aaws

#endif // AAWS_RUNTIME_BACKEND_H
