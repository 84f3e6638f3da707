#include "exp/engine.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "kernels/registry.h"
#include "runtime/task_group.h"
#include "runtime/worker_pool.h"

namespace aaws {
namespace exp {

bool
parseJobs(const char *text, int &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max())
        return false;
    out = static_cast<int>(parsed);
    return true;
}

int
resolveJobs(int requested, size_t batch_size)
{
    int jobs = requested;
    if (jobs <= 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0)
        jobs = 1;
    // More workers than specs only adds pool churn.
    if (batch_size > 0 && static_cast<size_t>(jobs) > batch_size)
        jobs = static_cast<int>(batch_size);
    return jobs;
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Throttled done/ETA reporting on stderr. */
class ProgressReporter
{
  public:
    ProgressReporter(bool enabled, size_t total)
        : enabled_(enabled), total_(total), start_(Clock::now())
    {
    }

    void
    onRunDone()
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        done_++;
        if (done_ == total_)
            return; // the final line comes from summary()
        double elapsed = secondsSince(start_);
        if (elapsed - last_print_ < 0.2)
            return;
        last_print_ = elapsed;
        double eta = elapsed * static_cast<double>(total_ - done_) /
                     static_cast<double>(done_);
        std::fprintf(stderr,
                     "[aaws-exp] %zu/%zu done, %.1fs elapsed, eta %.1fs\n",
                     done_, total_, elapsed, eta);
    }

    void
    summary(const BatchStats &stats)
    {
        if (!enabled_)
            return;
        std::fprintf(stderr,
                     "[aaws-exp] batch complete: %zu runs, %d jobs, "
                     "%.3fs, %llu events\n",
                     total_, stats.jobs, stats.elapsed_seconds,
                     static_cast<unsigned long long>(stats.sim_events));
    }

    Clock::time_point start() const { return start_; }

  private:
    bool enabled_;
    size_t total_;
    Clock::time_point start_;
    std::mutex mutex_;
    double last_print_ = 0.0;
    size_t done_ = 0;
};

/**
 * Per-batch kernel memo: a sweep simulates the same (kernel, seed) DAG
 * under many configs, so each unique pair is generated at most once per
 * batch -- lazily, by the first simulation that needs it -- and the
 * sealed, immutable DAG is shared by every concurrent simulation.
 */
class KernelPool
{
  public:
    explicit KernelPool(const std::vector<RunSpec> &specs)
    {
        // Pre-create every slot serially so workers never mutate the
        // map; they only resolve keys and race on the per-slot once.
        for (const RunSpec &spec : specs)
            slots_[{spec.kernel, spec.seed}];
    }

    const Kernel &
    get(const RunSpec &spec)
    {
        Slot &slot = slots_.at({spec.kernel, spec.seed});
        std::call_once(slot.once, [&] {
            slot.kernel.emplace(makeKernel(spec.kernel, spec.seed));
        });
        return *slot.kernel;
    }

  private:
    struct Slot
    {
        std::once_flag once;
        std::optional<Kernel> kernel;
    };

    std::map<std::pair<std::string, uint64_t>, Slot> slots_;
};

} // namespace

std::vector<RunResult>
runBatch(const std::vector<RunSpec> &specs, const EngineOptions &options,
         BatchStats *stats_out)
{
    std::vector<RunResult> results(specs.size());
    std::atomic<uint64_t> sim_events{0};
    ProgressReporter progress(options.progress, specs.size());
    KernelPool kernels(specs);

    int jobs = resolveJobs(options.jobs, specs.size());
    if (options.progress)
        std::fprintf(stderr, "[aaws-exp] running %zu specs on %d jobs\n",
                     specs.size(), jobs);

    auto runOne = [&](size_t i) {
        RunResult result = executeSpec(specs[i], kernels.get(specs[i]));
        sim_events.fetch_add(result.sim.sim_events,
                             std::memory_order_relaxed);
        results[i] = std::move(result);
        progress.onRunDone();
    };

    if (jobs <= 1 || specs.size() <= 1) {
        for (size_t i = 0; i < specs.size(); ++i)
            runOne(i);
    } else {
        // Dogfood the native runtime: one simulation per stealable
        // task; the master participates through the blocking join.
        WorkerPool pool(jobs);
        TaskGroup group(pool);
        for (size_t i = 0; i < specs.size(); ++i)
            group.run([&runOne, i] { runOne(i); });
        group.wait();
    }

    BatchStats stats;
    stats.jobs = jobs;
    stats.elapsed_seconds = secondsSince(progress.start());
    stats.sim_events = sim_events.load(std::memory_order_relaxed);
    progress.summary(stats);
    if (stats_out)
        *stats_out = stats;
    return results;
}

} // namespace exp
} // namespace aaws
