#include "runtime/backend.h"

#include <chrono>
#include <cstring>
#include <exception>

#include "common/logging.h"

namespace aaws {

namespace detail {

void
panicOnTaskException()
{
    int worker = RuntimeBackend::tls_worker_;
    try {
        throw;
    } catch (const std::exception &e) {
        panic("uncaught exception in a spawned task on pool worker %d: %s",
              worker, e.what());
    } catch (...) {
        panic("uncaught exception in a spawned task on pool worker %d: "
              "not a std::exception",
              worker);
    }
}

} // namespace detail

const char *
backendName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::deque:
        return "deque";
    case BackendKind::chan:
        return "chan";
    }
    return "?";
}

bool
parseBackendKind(const char *text, BackendKind &out)
{
    if (!text)
        return false;
    if (std::strcmp(text, "deque") == 0) {
        out = BackendKind::deque;
        return true;
    }
    if (std::strcmp(text, "chan") == 0) {
        out = BackendKind::chan;
        return true;
    }
    return false;
}

RuntimeBackend::RuntimeBackend(int threads, const PoolOptions &options)
    : hooks_(options.hooks), policy_config_(options.policy),
      gate_(options.policy.work_biasing), mug_(options.policy.work_mugging),
      master_(std::this_thread::get_id())
{
    AAWS_ASSERT(threads >= 1, "pool needs at least one worker");
    // The first n_big workers form the fast cluster (parameters are
    // irrelevant to a native pool).
    const int n_big = std::clamp(options.n_big, 0, threads);
    topo_ = CoreTopology::bigLittle(n_big, threads - n_big, ModelParams{});
    hints_.reserve(threads);
    // All hint bits power up active, as the paper's cores do.
    cluster_active_ =
        std::make_unique<std::atomic<int>[]>(topo_.numClusters());
    for (int k = 0; k < topo_.numClusters(); ++k)
        cluster_active_[k].store(topo_.cluster(k).count,
                                 std::memory_order_relaxed);
    // The constructing thread is the master (worker 0).  A thread that
    // already serves a pool keeps that membership in its TLS slot; this
    // pool recognizes it by master_ instead.
    if (!tls_pool_) {
        tls_pool_ = this;
        tls_worker_ = 0;
    }
}

RuntimeBackend::~RuntimeBackend()
{
    AAWS_ASSERT(threads_.empty(),
                "a backend's destructor must stopWorkers() first");
    // Drain foreign submissions nobody ran so they do not leak.
    while (RtTask *task = tryTakeInjected())
        delete task;
    if (tls_pool_ == this) {
        tls_pool_ = nullptr;
        tls_worker_ = -1;
    }
}

void
RuntimeBackend::adoptWorker(WorkerHint &hint)
{
    // Stateful selectors (random) must not be shared across threads:
    // one per worker, streams decorrelated by index.
    hint.victim = sched::VictimSelector(
        policy_config_.victim,
        sched::VictimSelector::kDefaultSeed + hints_.size());
    hints_.push_back(&hint);
}

int
RuntimeBackend::pickVictim(int self)
{
    // Bound to SchedView, like stealAllowed.
    const sched::SchedView &view = *this;
    if (self < 0)
        return sched::VictimSelector().pick(view, self);
    return hints_[self]->victim.pick(view, self);
}

void
RuntimeBackend::startWorkers()
{
    AAWS_ASSERT(static_cast<int>(hints_.size()) == numWorkers(),
                "%zu of %d worker hints adopted", hints_.size(),
                numWorkers());
    threads_.reserve(numWorkers() - 1);
    for (int i = 1; i < numWorkers(); ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

void
RuntimeBackend::stopWorkers()
{
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        sleep_cv_.notify_all();
    }
    for (auto &thread : threads_)
        thread.join();
    threads_.clear();
}

void
RuntimeBackend::enqueueTask(RtTask *task)
{
    {
        std::lock_guard<std::mutex> lock(inject_mutex_);
        injected_.push_back(task);
        injected_count_.fetch_add(1, std::memory_order_release);
    }
    wakeOne();
}

void
RuntimeBackend::workerLoop(int index)
{
    tls_pool_ = this;
    tls_worker_ = index;
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
        // Deep sleep until new work arrives or shutdown (the rest state
        // that hooks see as onRest).  The 1 ms backstop bounds how long
        // a parked worker goes without polling even if every wakeup
        // went to another worker — which is what keeps a parked channel
        // victim answering its mailbox.
        if (hooks_)
            hooks_->onRest(index);
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        sleepers_.fetch_add(1, std::memory_order_acq_rel);
        sleep_cv_.wait_for(lock, std::chrono::milliseconds(1));
        sleepers_.fetch_sub(1, std::memory_order_acq_rel);
        idle_spins = 0;
    }
    tls_pool_ = nullptr;
    tls_worker_ = -1;
}

} // namespace aaws
