#include "chan/channel_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace aaws::chan {

const char *
stealKindName(StealKind kind)
{
    switch (kind) {
    case StealKind::one:
        return "one";
    case StealKind::half:
        return "half";
    case StealKind::adaptive:
        return "adaptive";
    }
    return "?";
}

ChannelPool::ChannelPool(int threads, const PoolOptions &options,
                         StealKind steal)
    : RuntimeBackend(threads, options), steal_kind_(steal)
{
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i) {
        workers_.push_back(std::make_unique<WorkerState>(threads));
        adoptWorker(workers_.back()->hint);
    }
    startWorkers();
}

ChannelPool::~ChannelPool()
{
    stopWorkers();
    // Drain un-executed tasks: private queues, plus any TaskBatch still
    // sitting in a task channel (granted but never received).
    for (auto &w : workers_) {
        while (!w->local.empty())
            delete w->local.popBack();
        TaskBatch batch;
        while (w->batches.tryRecv(batch) == ChanStatus::ok)
            for (int i = 0; i < batch.count; ++i)
                delete batch.tasks[i];
    }
}

void
ChannelPool::spawnTask(RtTask *task)
{
    int self = currentWorker();
    // Foreign threads (including another pool's workers) have no local
    // queue or task indicator; their spawns fall back to the
    // cross-thread injection queue, which workers — and the spawner's
    // own join (helpUntil) — drain.
    if (self < 0) {
        enqueueTask(task);
        return;
    }
    noteSpawn(self);
    WorkerState &w = *workers_[self];
    w.local.pushBack(task);
    w.publishSize();
    // Lifeline release: new work answers parked thieves directly (the
    // work-sharing half of the protocol).
    if (!w.held.empty())
        releaseHeld(self);
    wakeOne();
}

void
ChannelPool::forkTask(RtTask *task)
{
    ChannelPool::spawnTask(task);
}

RtTask *
ChannelPool::tryTakeTask()
{
    int self = currentWorker();
    // Foreign threads have no channels to be granted over; they may
    // only help with injected (root) work.
    if (self < 0)
        return tryTakeInjected();
    WorkerState &w = *workers_[self];
    // Answer pending steal requests before looking for own work: the
    // mailbox is only ever drained here, so service latency is one
    // task execution, and thieves must never wait on a busy victim
    // that found work every time.  An empty mailbox costs one load.
    if (w.requests.ready())
        serveRequests(self);
    // Lifeline release also covers work that arrived without a spawn
    // (extras of a granted batch): parked thieves must never wait on a
    // holder that has tasks in hand.
    if (!w.held.empty() && !w.local.empty())
        releaseHeld(self);
    if (!w.local.empty()) {
        RtTask *task = w.local.popBack();
        w.publishSize();
        noteFound(self, w.hint);
        return task;
    }
    // A reply to our outstanding request?  Received even when the
    // biasing gate has since closed: the victim already gave the tasks
    // up, so nobody else can run them.
    TaskBatch batch;
    if (w.batches.tryRecv(batch) == ChanStatus::ok) {
        w.outstanding = false;
        // Adaptive stealing switches on success history: a grant says
        // queues are deep enough to take half next time, a decline
        // says back off to single tasks.
        w.steal_half_next = batch.count > 0;
        if (batch.count > 0) {
            tasks_received_.fetch_add(
                static_cast<uint64_t>(batch.count),
                std::memory_order_relaxed);
            for (int i = 1; i < batch.count; ++i)
                w.local.pushBack(batch.tasks[i]);
            w.publishSize();
            noteSteal(self, batch.victim, batch.mug);
            return batch.tasks[0];
        }
    }
    // Work-biasing: a gated-out little worker charges a failed attempt
    // without posting any request, exactly as the deque backend does.
    if (!stealAllowed(self)) {
        noteFailed(self);
        return nullptr;
    }
    RtTask *task = tryTakeInjected();
    if (task) {
        noteFound(self);
        return task;
    }
    // A starving holder cannot answer its lifelines with work — release
    // the parked thieves (declines) so they can re-aim at live victims.
    if (!w.held.empty())
        releaseHeld(self);
    if (!w.outstanding)
        maybeSendRequest(self);
    noteFailed(self);
    return nullptr;
}

void
ChannelPool::serveRequests(int self)
{
    WorkerState &w = *workers_[self];
    StealRequest req;
    while (w.requests.tryRecv(req) == ChanStatus::ok)
        handleRequest(self, req);
}

void
ChannelPool::handleRequest(int self, StealRequest req)
{
    WorkerState &w = *workers_[self];
    // Our own request circled the whole ring back to us: spend it with
    // a self-decline (we are its current holder, so we are the task
    // channel's producer for this one send).
    if (req.thief == self) {
        decline(self, req);
        return;
    }
    if (!w.local.empty()) {
        grant(self, req);
        return;
    }
    // A mug is a policy-targeted raid on one specific victim; it is
    // never forwarded or parked — the starved big worker should re-aim
    // through the mug policy rather than have the message wander.
    if (req.mug) {
        decline(self, req);
        return;
    }
    // Unsatisfied requests travel the ring once; after that the last
    // victim parks them on a lifeline instead of bouncing them forever.
    if (static_cast<int>(req.tries) + 1 >= numWorkers()) {
        w.held.push_back(req);
        lifeline_holds_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    forward(self, req);
}

void
ChannelPool::grant(int self, const StealRequest &req)
{
    WorkerState &w = *workers_[self];
    int64_t size = static_cast<int64_t>(w.local.size());
    int give = 1;
    if (req.kind == StealKind::half)
        give = static_cast<int>(std::min<int64_t>(
            std::max<int64_t>(1, size / 2),
            std::min<int64_t>(size, kMaxBatch)));
    TaskBatch batch;
    batch.victim = self;
    batch.count = give;
    batch.mug = req.mug;
    // Hand off the *oldest* tasks (the FIFO end a deque thief would
    // take): coolest in cache, biggest subtrees first.
    for (int i = 0; i < give; ++i)
        batch.tasks[i] = w.local.popFront();
    w.publishSize();
    ChanStatus status = workers_[req.thief]->batches.trySend(batch);
    AAWS_ASSERT(status == ChanStatus::ok,
                "task channel full: thief had more than one outstanding "
                "steal request");
    (void)status;
    wakeOne();
}

void
ChannelPool::decline(int self, const StealRequest &req)
{
    TaskBatch batch;
    batch.victim = self;
    batch.count = 0;
    batch.mug = req.mug;
    ChanStatus status = workers_[req.thief]->batches.trySend(batch);
    AAWS_ASSERT(status == ChanStatus::ok,
                "task channel full: thief had more than one outstanding "
                "steal request");
    (void)status;
    declines_.fetch_add(1, std::memory_order_relaxed);
    wakeOne();
}

void
ChannelPool::forward(int self, StealRequest req)
{
    int n = numWorkers();
    req.tries = static_cast<uint8_t>(req.tries + 1);
    int target = (self + 1) % n;
    if (target == req.thief)
        target = (target + 1) % n;
    if (target == self) {
        // Two-worker ring: nobody else to ask.
        decline(self, req);
        return;
    }
    ChanStatus status = workers_[target]->requests.trySend(req);
    AAWS_ASSERT(status == ChanStatus::ok, "request mailbox overflow");
    (void)status;
    forwards_.fetch_add(1, std::memory_order_relaxed);
    wakeOne();
}

void
ChannelPool::releaseHeld(int self)
{
    WorkerState &w = *workers_[self];
    while (!w.held.empty()) {
        StealRequest req = w.held.back();
        w.held.pop_back();
        if (!w.local.empty()) {
            lifeline_grants_.fetch_add(1, std::memory_order_relaxed);
            grant(self, req);
        } else {
            decline(self, req);
        }
    }
}

void
ChannelPool::maybeSendRequest(int self)
{
    StealRequest req;
    req.thief = self;
    req.kind = resolveKind(self);
    // Work-mugging as a message: when the mug trigger fires for this
    // starved fast-cluster worker, the request goes straight to the
    // policy's muggee with the mug flag set, bypassing victim selection.
    int victim = mugTarget(self);
    req.mug = victim >= 0;
    if (!req.mug) {
        victim = pickVictim(self);
        if (victim < 0 || victim == self)
            return;
        noteStealAttempt(self, victim);
    }
    ChanStatus status = workers_[victim]->requests.trySend(req);
    AAWS_ASSERT(status == ChanStatus::ok, "request mailbox overflow");
    (void)status;
    requests_sent_.fetch_add(1, std::memory_order_relaxed);
    workers_[self]->outstanding = true;
    wakeOne();
}

StealKind
ChannelPool::resolveKind(int self)
{
    switch (steal_kind_) {
    case StealKind::one:
        return StealKind::one;
    case StealKind::half:
        return StealKind::half;
    case StealKind::adaptive:
        return workers_[self]->steal_half_next ? StealKind::half
                                               : StealKind::one;
    }
    return StealKind::one;
}

} // namespace aaws::chan
