#include "runtime/worker_pool.h"

namespace aaws {

WorkerPool::WorkerPool(int threads, SchedulerHooks *hooks)
    : WorkerPool(threads, PoolOptions{{}, 0, hooks})
{
}

WorkerPool::WorkerPool(int threads, const PoolOptions &options)
    : RuntimeBackend(threads, options)
{
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i) {
        workers_.push_back(std::make_unique<WorkerState>());
        adoptWorker(workers_.back()->hint);
    }
    startWorkers();
}

WorkerPool::~WorkerPool()
{
    stopWorkers();
    // Drain any un-executed tasks so they do not leak.
    for (auto &worker : workers_) {
        RtTask *task = nullptr;
        while (worker->deque.steal(task))
            delete task;
    }
}

void
WorkerPool::spawnTask(RtTask *task)
{
    int w = currentWorker();
    // Foreign threads (including another pool's workers) cannot touch a
    // deque's owner end; their spawns fall back to the cross-thread
    // injection queue, which workers — and the spawner's own join
    // (helpUntil) — drain.
    if (w < 0) {
        enqueueTask(task);
        return;
    }
    noteSpawn(w);
    workers_[w]->deque.push(task);
    wakeOne();
}

void
WorkerPool::forkTask(RtTask *task)
{
    int w = currentWorker();
    if (w < 0) {
        enqueueTask(task);
        return;
    }
    noteSpawn(w);
    // Private unless the public part has drained; the job's own join
    // pops it, so keeping it private cannot strand it.
    workers_[w]->deque.pushPrivate(task, [this] { wakeOne(); });
}

RtTask *
WorkerPool::tryTakeTask()
{
    int self = currentWorker();
    RtTask *task = nullptr;
    if (self >= 0) {
        WorkerState &w = *workers_[self];
        if (w.deque.pop(task, [this] { wakeOne(); })) {
            noteFound(self, w.hint);
            return task;
        }
        if (!stealAllowed(self)) {
            noteFailed(self, w.hint);
            return nullptr;
        }
    }
    // Injected (open-loop arrival) work sits behind the biasing gate
    // like any foreign deque: a gated-out little never grabs a root
    // request an idle big could start sooner.
    if ((task = tryTakeInjected())) {
        noteFound(self);
        return task;
    }
    int victim = pickVictim(self);
    if (victim >= 0) {
        noteStealAttempt(self, victim);
        if (workers_[victim]->deque.steal(task)) {
            noteSteal(self, victim, false);
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
    int muggee = mugTarget(self);
    if (muggee < 0)
        return nullptr;
    RtTask *task = nullptr;
    if (!workers_[muggee]->deque.steal(task))
        return nullptr;
    noteSteal(self, muggee, true);
    return task;
}

} // namespace aaws
