/**
 * @file
 * The native work-stealing thread pool (Section IV-C analog).
 *
 * A library-based, child-stealing runtime in the spirit of Intel TBB:
 * per-worker Chase-Lev deques, pluggable victim selection, and
 * blocking-style joins in which the waiting thread keeps executing local
 * and stolen tasks.  Deliberately lightweight: no exceptions across
 * tasks, no cancellation — the paper credits the same omissions for its
 * runtime's competitive single-socket performance (Table II).
 *
 * Scheduling policy comes from the same `src/sched/` components the
 * simulator runs: `PoolOptions` carries a `sched::PolicyConfig` plus a
 * worker-cluster split (the `n_big` prefix count), and the pool
 * assembles victim selection, the work-biasing
 * steal gate, and the mug trigger from it.  Without hardware
 * preemption, a native "mug" is the policy-directed migration of
 * *queued* work: a starved fast-cluster worker targets the most loaded
 * busy slower worker's deque directly instead of whatever victim
 * selection would pick.
 */

#ifndef AAWS_RUNTIME_WORKER_POOL_H
#define AAWS_RUNTIME_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "model/topology.h"
#include "runtime/backend.h"
#include "runtime/chase_lev_deque.h"
#include "runtime/hooks.h"
#include "runtime/task.h"
#include "sched/policy_stack.h"
#include "sched/view.h"

namespace aaws {

class WorkerPool;

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
 * Fixed-size work-stealing pool.  The constructing thread is "worker 0"
 * (the master) and participates in execution whenever it waits on a
 * TaskGroup; `threads - 1` additional worker threads are spawned.
 *
 * Privately implements sched::SchedView with concurrent snapshots
 * (deque size estimates, relaxed census loads) so the shared policy
 * components can drive it.
 */
class WorkerPool : public RuntimeBackend, private sched::SchedView
{
  public:
    /**
     * @param threads Total workers including the master (>= 1).
     * @param hooks Optional activity observer (borrowed; must outlive
     *              the pool).  See runtime/hooks.h.
     */
    explicit WorkerPool(int threads, SchedulerHooks *hooks = nullptr);

    /**
     * @param threads Total workers including the master (>= 1).
     * @param options Policy assembly + core-type split + hooks.
     */
    WorkerPool(int threads, const PoolOptions &options);

    ~WorkerPool() override;

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Single final overrider for both RuntimeBackend and SchedView. */
    int numWorkers() const override
    {
        return static_cast<int>(workers_.size());
    }

    /** Total successful steals (statistics; includes mugs). */
    uint64_t steals() const override
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /** Mug-policy-directed steal attempts by starved big workers. */
    uint64_t mugAttempts() const override
    {
        return mug_attempts_.load(std::memory_order_relaxed);
    }

    /** Mug attempts that actually migrated a task. */
    uint64_t mugs() const override
    {
        return mugs_.load(std::memory_order_relaxed);
    }

    /** The policy switches this pool was assembled from. */
    const sched::PolicyConfig &policyConfig() const override
    {
        return policy_config_;
    }

    // Internal API used by TaskGroup / parallel algorithms ---------------

    /** Push a heap task on the current worker's deque. */
    void spawnTask(RtTask *task) override;

    /**
     * Type-erased enqueue(); thread-safe, wakes a sleeping worker.
     * Unlike spawnTask(), which requires a pool thread (deque pushes
     * are owner-only), the task lands in a mutex-guarded FIFO injection
     * queue that every worker drains alongside stealing, so a foreign
     * arrival thread can feed a running pool continuously.
     */
    void enqueueTask(RtTask *task) override;

    /**
     * Take one unit of work: own deque first, then a policy-selected
     * victim (gated by work-biasing), then — for a starved big worker
     * under work-mugging — a mug-targeted steal.  Returns nullptr when
     * nothing was found this attempt.  Drives the activity-hint hooks:
     * the second consecutive failed attempt signals waiting; the next
     * success signals active.
     */
    RtTask *tryTakeTask() override;

    /** Worker index of the calling thread (master = 0); -1 if foreign. */
    int currentWorker() const override;

  private:
    void workerLoop(int index);
    void wakeOne();
    void noteFound(int self);
    void noteFailed(int self);
    RtTask *tryMug(int self);
    RtTask *tryTakeInjected();

    // --- sched::SchedView (concurrent snapshots) ------------------------

    int64_t dequeSize(int worker) const override
    {
        return workers_[worker]->deque.sizeEstimate();
    }

    sched::CoreActivity activity(int core) const override
    {
        return workers_[core]->waiting.load(std::memory_order_relaxed)
                   ? sched::CoreActivity::stealing
                   : sched::CoreActivity::running;
    }

    int numClusters() const override { return topo_.numClusters(); }

    int clusterOf(int core) const override { return topo_.clusterOf(core); }

    int clusterSize(int cluster) const override
    {
        return topo_.cluster(cluster).count;
    }

    int clusterActive(int cluster) const override
    {
        return cluster_active_[cluster].load(std::memory_order_relaxed);
    }

    /**
     * Everything one worker writes on its spawn/pop path, in a
     * cache-line-aligned block of its own: every successful pop
     * rewrites `failed`, so two workers' blocks must never share a
     * line.
     */
    struct alignas(kCacheLine) WorkerState
    {
        /** Owner pushes and pops the bottom; thieves steal the top. */
        ChaseLevDeque<RtTask *> deque;
        /** Consecutive failed take attempts (owner-thread only). */
        int failed = 0;
        /** Activity hint bit read by the concurrent census. */
        std::atomic<bool> waiting{false};
        /** Stateful victim selector (owner-thread only). */
        std::unique_ptr<sched::VictimSelector> victim;

        explicit WorkerState(std::unique_ptr<sched::VictimSelector> v)
            : victim(std::move(v))
        {
        }
    };
    static_assert(alignof(WorkerState) == kCacheLine,
                  "per-worker blocks must not share a cache line");

    std::vector<std::unique_ptr<WorkerState>> workers_;
    SchedulerHooks *hooks_ = nullptr;
    sched::PolicyConfig policy_config_{};
    sched::PolicyStack policy_;
    /** Stateless fallback for foreign threads (no own deque). */
    sched::OccupancyVictimSelector foreign_victim_;
    /** Worker-cluster assignment (the n_big split). */
    CoreTopology topo_;
    /**
     * Hint-bit census per cluster (the biasing gate's input).  Array,
     * not vector: atomics are not movable.
     */
    std::unique_ptr<std::atomic<int>[]> cluster_active_;
    std::vector<std::thread> threads_;
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
};

} // namespace aaws

#endif // AAWS_RUNTIME_WORKER_POOL_H
