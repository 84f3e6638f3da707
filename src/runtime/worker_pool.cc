#include "runtime/worker_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace aaws {

namespace {

/** Worker identity of the calling thread, keyed by pool. */
thread_local const WorkerPool *tls_pool = nullptr;
thread_local int tls_worker = -1;

} // namespace

WorkerPool::WorkerPool(int threads, SchedulerHooks *hooks)
    : WorkerPool(threads, PoolOptions{{}, 0, hooks})
{
}

WorkerPool::WorkerPool(int threads, const PoolOptions &options)
    : hooks_(options.hooks), policy_config_(options.policy),
      policy_(sched::makePolicyStack(options.policy))
{
    AAWS_ASSERT(threads >= 1, "pool needs at least one worker");
    // The first n_big workers form the fast cluster (parameters are
    // irrelevant to a native pool).
    const int n_big = std::clamp(options.n_big, 0, threads);
    topo_ = CoreTopology::bigLittle(n_big, threads - n_big, ModelParams{});
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i) {
        // Stateful selectors (random) must not be shared across
        // threads: one per worker, streams decorrelated by index.
        workers_.push_back(
            std::make_unique<WorkerState>(sched::makeVictimSelector(
                options.policy.victim,
                options.policy.victim_seed + static_cast<uint64_t>(i))));
    }
    // All hint bits power up active, as the paper's cores do.
    cluster_active_ =
        std::make_unique<std::atomic<int>[]>(topo_.numClusters());
    for (int k = 0; k < topo_.numClusters(); ++k)
        cluster_active_[k].store(topo_.cluster(k).count,
                                 std::memory_order_relaxed);
    // The constructing thread is the master (worker 0).
    tls_pool = this;
    tls_worker = 0;
    threads_.reserve(threads - 1);
    for (int i = 1; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

WorkerPool::~WorkerPool()
{
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        sleep_cv_.notify_all();
    }
    for (auto &thread : threads_)
        thread.join();
    // Drain any un-executed tasks so they do not leak.
    for (auto &worker : workers_) {
        RtTask *task = nullptr;
        while (worker->deque.steal(task))
            delete task;
    }
    while (RtTask *task = tryTakeInjected())
        delete task;
    if (tls_pool == this) {
        tls_pool = nullptr;
        tls_worker = -1;
    }
}

int
WorkerPool::currentWorker() const
{
    return tls_pool == this ? tls_worker : -1;
}

void
WorkerPool::spawnTask(RtTask *task)
{
    int w = currentWorker();
    // Foreign threads (including another pool's master) cannot touch a
    // deque's owner end; their spawns fall back to the cross-thread
    // injection queue, which workers — and the spawner's own
    // TaskGroup::wait loop — drain.
    if (w < 0) {
        enqueueTask(task);
        return;
    }
    if (hooks_)
        hooks_->onSpawn(w);
    workers_[w]->deque.push(task);
    wakeOne();
}

void
WorkerPool::enqueueTask(RtTask *task)
{
    {
        std::lock_guard<std::mutex> lock(inject_mutex_);
        injected_.push_back(task);
        injected_count_.fetch_add(1, std::memory_order_release);
    }
    wakeOne();
}

RtTask *
WorkerPool::tryTakeInjected()
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

RtTask *
WorkerPool::tryTakeTask()
{
    int self = currentWorker();
    RtTask *task = nullptr;
    if (self >= 0 && workers_[self]->deque.pop(task)) {
        noteFound(self);
        return task;
    }
    // Work-biasing: a gated-out little worker charges a failed attempt
    // without touching anyone's deque, exactly as the simulator does.
    // The explicit SchedView upcast keeps the pool on the generic
    // virtual path — parking and deque atomics dominate here, so the
    // devirtualized template binding the simulator uses buys nothing.
    const sched::SchedView &view = *this;
    if (self >= 0 && !policy_.gate.allowSteal(view, self)) {
        noteFailed(self);
        return nullptr;
    }
    // Injected (open-loop arrival) work sits behind the biasing gate
    // like any foreign deque: a gated-out little never grabs a root
    // request an idle big could start sooner.
    if ((task = tryTakeInjected())) {
        noteFound(self);
        return task;
    }
    int victim = self >= 0 ? workers_[self]->victim->pick(view, self)
                           : foreign_victim_.pick(view, self);
    if (victim >= 0) {
        if (hooks_)
            hooks_->onStealAttempt(self, victim);
        if (workers_[victim]->deque.steal(task)) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            if (hooks_)
                hooks_->onStealSuccess(self, victim);
            noteFound(self);
            return task;
        }
    }
    noteFailed(self);
    if (self >= 0 && (task = tryMug(self)))
        return task;
    return nullptr;
}

RtTask *
WorkerPool::tryMug(int self)
{
    // Work-mugging, native analog: without user-level interrupts a
    // library runtime cannot preempt a running task, so a starved
    // fast-cluster worker instead raids the *queued* work of the
    // busiest slower worker the mug policy singles out — bypassing
    // normal victim selection, which may have just failed on a stale
    // estimate.
    const sched::SchedView &view = *this;
    if (!policy_.mug.wantsMug(view, self, workers_[self]->failed))
        return nullptr;
    int muggee = policy_.mug.pickMuggee(view, topo_.clusterOf(self));
    if (muggee < 0)
        return nullptr;
    mug_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (hooks_)
        hooks_->onStealAttempt(self, muggee);
    RtTask *task = nullptr;
    if (!workers_[muggee]->deque.steal(task))
        return nullptr;
    mugs_.fetch_add(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    if (hooks_) {
        hooks_->onMug(self, muggee);
        hooks_->onStealSuccess(self, muggee);
    }
    noteFound(self);
    return task;
}

void
WorkerPool::noteFound(int self)
{
    if (self < 0)
        return;
    WorkerState &worker = *workers_[self];
    worker.failed = 0;
    if (worker.waiting.load(std::memory_order_relaxed)) {
        worker.waiting.store(false, std::memory_order_relaxed);
        cluster_active_[topo_.clusterOf(self)].fetch_add(
            1, std::memory_order_relaxed);
        if (hooks_)
            hooks_->onWorkerActive(self);
    }
}

void
WorkerPool::noteFailed(int self)
{
    if (self < 0)
        return;
    WorkerState &worker = *workers_[self];
    // The paper toggles the activity bit on the *second* consecutive
    // failed steal attempt (Section III-A); the count keeps running
    // (saturating) so the mug trigger can read the starvation streak.
    worker.failed = std::min(worker.failed + 1, 1 << 20);
    if (worker.failed == 2 &&
        !worker.waiting.load(std::memory_order_relaxed)) {
        worker.waiting.store(true, std::memory_order_relaxed);
        cluster_active_[topo_.clusterOf(self)].fetch_sub(
            1, std::memory_order_relaxed);
        if (hooks_)
            hooks_->onWorkerWaiting(self);
    }
}

void
WorkerPool::wakeOne()
{
    if (sleepers_.load(std::memory_order_acquire) > 0) {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        sleep_cv_.notify_one();
    }
}

void
WorkerPool::workerLoop(int index)
{
    tls_pool = this;
    tls_worker = index;
    int idle_spins = 0;
    while (!stop_.load(std::memory_order_acquire)) {
        RtTask *task = tryTakeTask();
        if (task) {
            idle_spins = 0;
            task->invoke(task);
            continue;
        }
        if (++idle_spins < 64) {
            std::this_thread::yield();
            continue;
        }
        // Deep sleep until new work arrives or shutdown: the rest
        // decision a software pacing governor maps to v_min.
        if (hooks_)
            hooks_->onRest(index);
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        sleepers_.fetch_add(1, std::memory_order_acq_rel);
        sleep_cv_.wait_for(lock, std::chrono::milliseconds(1));
        sleepers_.fetch_sub(1, std::memory_order_acq_rel);
        idle_spins = 0;
    }
    tls_pool = nullptr;
    tls_worker = -1;
}

} // namespace aaws
