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
#include "exp/cache.h"
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

/** Throttled done/hit/miss/ETA reporting on stderr. */
class ProgressReporter
{
  public:
    ProgressReporter(bool enabled, size_t total)
        : enabled_(enabled), total_(total), start_(Clock::now())
    {
    }

    void
    onRunDone(bool hit)
    {
        if (!enabled_)
            return;
        // The three counters only change together under this mutex, so
        // every printed line satisfies hits + misses == done (sampling
        // the engine's atomics after incrementing `done` could not
        // guarantee that).
        std::lock_guard<std::mutex> lock(mutex_);
        done_++;
        (hit ? hits_ : misses_)++;
        if (done_ == total_)
            return; // the final line comes from summary()
        double elapsed = secondsSince(start_);
        if (elapsed - last_print_ < 0.2)
            return;
        last_print_ = elapsed;
        double eta = elapsed * static_cast<double>(total_ - done_) /
                     static_cast<double>(done_);
        std::fprintf(stderr,
                     "[aaws-exp] %llu/%zu done, %llu hits, %llu misses, "
                     "%.1fs elapsed, eta %.1fs\n",
                     static_cast<unsigned long long>(done_), total_,
                     static_cast<unsigned long long>(hits_),
                     static_cast<unsigned long long>(misses_), elapsed,
                     eta);
    }

    void
    summary(const BatchStats &stats)
    {
        if (!enabled_)
            return;
        uint64_t runs = stats.hits + stats.misses;
        double cached = runs > 0 ? 100.0 * static_cast<double>(stats.hits) /
                                       static_cast<double>(runs)
                                 : 0.0;
        std::fprintf(stderr,
                     "[aaws-exp] batch complete: %llu runs, %llu hits, "
                     "%llu misses (%.1f%% cached), %d jobs, %.3fs, "
                     "%llu events\n",
                     static_cast<unsigned long long>(runs),
                     static_cast<unsigned long long>(stats.hits),
                     static_cast<unsigned long long>(stats.misses),
                     cached, stats.jobs, stats.elapsed_seconds,
                     static_cast<unsigned long long>(stats.sim_events));
    }

    Clock::time_point start() const { return start_; }

  private:
    bool enabled_;
    size_t total_;
    Clock::time_point start_;
    std::mutex mutex_;
    double last_print_ = 0.0;
    uint64_t done_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Per-batch kernel memo: a sweep simulates the same (kernel, seed) DAG
 * under many configs, so each unique pair is generated at most once per
 * batch -- lazily, on the first cache miss that needs it -- and the
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
    ResultCache cache(options.use_cache, options.cache_dir);
    std::vector<RunResult> results(specs.size());
    std::atomic<uint64_t> sim_events{0};
    ProgressReporter progress(options.progress, specs.size());
    KernelPool kernels(specs);

    // Pass 1 (serial): resolve cache hits and collect the miss set, so
    // the hit/miss split never depends on which simulations finish
    // first (a duplicate spec misses in both of its slots).
    uint64_t hits = 0;
    std::vector<size_t> miss;
    miss.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        if (cache.lookup(specs[i], results[i])) {
            hits++;
            progress.onRunDone(true);
        } else {
            miss.push_back(i);
        }
    }

    int jobs = resolveJobs(options.jobs, miss.size());
    if (options.progress)
        std::fprintf(stderr,
                     "[aaws-exp] running %zu specs (%zu cached, %zu to "
                     "simulate) on %d jobs\n",
                     specs.size(), static_cast<size_t>(hits), miss.size(),
                     jobs);

    // Pass 2: one executeSpec() per miss.
    auto runOne = [&](size_t i) {
        RunResult result = executeSpec(specs[i], kernels.get(specs[i]));
        sim_events.fetch_add(result.sim.sim_events,
                             std::memory_order_relaxed);
        cache.store(specs[i], result);
        results[i] = std::move(result);
        progress.onRunDone(false);
    };

    if (jobs <= 1 || miss.size() <= 1) {
        for (size_t i : miss)
            runOne(i);
    } else {
        // Dogfood the native runtime: one simulation per stealable
        // task; the master participates through the blocking join.
        WorkerPool pool(jobs);
        TaskGroup group(pool);
        for (size_t i : miss)
            group.run([&runOne, i] { runOne(i); });
        group.wait();
    }

    BatchStats stats;
    stats.hits = hits;
    stats.misses = miss.size();
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
