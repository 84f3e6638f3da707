/**
 * @file
 * The native-runtime workloads, one backend per workload so each
 * backend's numbers stand alone.
 *
 * forkjoin_{deque,chan}: repeated fib(36) (serial below n = 12) via
 * parallelInvoke on busyThreads() workers, base+psm with one "big"
 * worker.  Bound by spawn, pop and steal.  throughput_per_s is tasks per
 * second; latency is the time of one fib(36), tail = p95.  The seed is
 * unused: fib has no input.
 *
 * One pool is alive at a time.  A traced run passes a SchedulerHooks
 * observer through PoolOptions::hooks and reads the public pool
 * counters.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "aaws/variant.h"
#include "chan/channel_pool.h"
#include "common/logging.h"
#include "common/stats.h"
#include "e2e.h"
#include "runtime/hooks.h"
#include "runtime/parallel_invoke.h"
#include "runtime/worker_pool.h"

namespace aaws::e2e {
namespace {

// --- pools and the traced observer ---------------------------------------

/** Per-worker scheduler counters, written only by the worker itself. */
class HookCounters final : public SchedulerHooks
{
  public:
    explicit HookCounters(int workers)
        : slots_(static_cast<size_t>(workers)), start_(Clock::now())
    {
    }

    void
    onStealAttempt(int thief, int) override
    {
        if (thief >= 0)
            ++slots_[thief].attempts;
    }

    void
    onStealSuccess(int thief, int) override
    {
        if (thief >= 0)
            ++slots_[thief].successes;
    }

    void onMug(int mugger, int) override { ++slots_[mugger].mugs; }

    void onSpawn(int worker) override { ++slots_[worker].spawns; }

    void onRest(int worker) override { ++slots_[worker].rests; }

    void
    onWorkerWaiting(int worker) override
    {
        slots_[worker].waiting_since = Clock::now();
        slots_[worker].waiting = true;
    }

    void
    onWorkerActive(int worker) override
    {
        Slot &slot = slots_[worker];
        if (slot.waiting)
            slot.waiting_s += secondsSince(slot.waiting_since);
        slot.waiting = false;
    }

    struct Totals
    {
        uint64_t attempts = 0;
        uint64_t successes = 0;
        uint64_t mugs = 0;
        uint64_t spawns = 0;
        uint64_t rests = 0;
        /** Share of worker time spent signalling waiting (or resting). */
        double waiting_frac = 0.0;
        /** Seconds from construction to the totals() call. */
        double lifetime_s = 0.0;
    };

    /** Sum the slots.  Call only after the pool's threads are joined. */
    Totals
    totals() const
    {
        Totals t;
        Clock::time_point end = Clock::now();
        double waiting = 0.0;
        for (const Slot &slot : slots_) {
            t.attempts += slot.attempts;
            t.successes += slot.successes;
            t.mugs += slot.mugs;
            t.spawns += slot.spawns;
            t.rests += slot.rests;
            waiting += slot.waiting_s;
            if (slot.waiting)
                waiting += secondsBetween(slot.waiting_since, end);
        }
        t.lifetime_s = secondsBetween(start_, end);
        t.waiting_frac = waiting / (static_cast<double>(slots_.size()) *
                                    t.lifetime_s);
        return t;
    }

  private:
    struct alignas(64) Slot
    {
        uint64_t attempts = 0;
        uint64_t successes = 0;
        uint64_t mugs = 0;
        uint64_t spawns = 0;
        uint64_t rests = 0;
        double waiting_s = 0.0;
        Clock::time_point waiting_since{};
        bool waiting = false;
    };

    std::vector<Slot> slots_;
    Clock::time_point start_;
};

/** base+psm with worker 0 as the one big worker. */
std::unique_ptr<RuntimeBackend>
makePool(bool chan, int workers, SchedulerHooks *hooks)
{
    PoolOptions options;
    options.policy = policyConfigFor(Variant::base_psm);
    options.n_big = 1;
    options.hooks = hooks;
    if (chan)
        return std::make_unique<chan::ChannelPool>(
            workers, options, chan::StealKind::adaptive);
    return std::make_unique<WorkerPool>(workers, options);
}

/**
 * Destroy a traced pool and report its scheduler counters.  The
 * channel pool's protocol counters are atomics read while it still
 * runs; the observer's plain per-worker slots only after the pool
 * joined its workers.
 */
void
closeTracedPool(Report &report, std::unique_ptr<RuntimeBackend> pool,
                const HookCounters &hooks)
{
    const auto *chan = dynamic_cast<const chan::ChannelPool *>(pool.get());
    const double steals = std::max<double>(
        1.0, static_cast<double>(chan ? chan->steals() : 0));
    const double requests =
        chan ? static_cast<double>(chan->requestsSent()) : 0.0;
    const double received =
        chan ? static_cast<double>(chan->tasksReceived()) : 0.0;
    const double declines =
        chan ? static_cast<double>(chan->declines()) : 0.0;
    pool.reset();

    const HookCounters::Totals t = hooks.totals();
    const double tasks = std::max<double>(1.0, static_cast<double>(t.spawns));
    report.layer("runtime.steal_success_ratio", "ratio",
                 static_cast<double>(t.successes) /
                     std::max<double>(1.0, static_cast<double>(t.attempts)));
    report.layer("runtime.steal_attempts_per_ktask", "count",
                 1e3 * static_cast<double>(t.attempts) / tasks);
    report.layer("runtime.mugs_per_ktask", "count",
                 1e3 * static_cast<double>(t.mugs) / tasks);
    report.layer("runtime.waiting_frac", "ratio", t.waiting_frac);
    report.layer("runtime.rests_per_s", "1/s",
                 static_cast<double>(t.rests) / t.lifetime_s);
    if (chan) {
        report.layer("chan.requests_per_steal", "ratio", requests / steals);
        report.layer("chan.tasks_per_steal", "ratio", received / steals);
        report.layer("chan.declines_per_steal", "ratio", declines / steals);
    }
}

// --- fork-join ----------------------------------------------------------

/** Below this n, fib runs serially inside one task. */
constexpr int kFibSerialBelow = 12;

uint64_t
fibSerial(int n)
{
    uint64_t a = 0, b = 1;
    for (int i = 0; i < n; ++i) {
        uint64_t next = a + b;
        a = b;
        b = next;
    }
    return a;
}

uint64_t
fib(RuntimeBackend &pool, int n)
{
    if (n < kFibSerialBelow)
        return fibSerial(n);
    uint64_t left = 0, right = 0;
    parallelInvoke(pool, [&] { left = fib(pool, n - 1); },
                   [&] { right = fib(pool, n - 2); });
    return left + right;
}

/** Binet's formula, exact in double precision for n <= 70. */
uint64_t
fibClosedForm(int n)
{
    const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
    return static_cast<uint64_t>(std::llround(std::pow(phi, n) /
                                              std::sqrt(5.0)));
}

/** Tasks one fib(n) spawns: one per parallelInvoke. */
uint64_t
fibTasks(int n)
{
    if (n < kFibSerialBelow)
        return 0;
    return 1 + fibTasks(n - 1) + fibTasks(n - 2);
}

} // namespace

Report
runForkJoin(const Options &options, Trace *trace)
{
    const int n = options.smoke ? 30 : 36;
    const int workers = busyThreads();
    const uint64_t expected = fibClosedForm(n);
    const double tasks_per_rep = static_cast<double>(fibTasks(n));
    const bool chan = options.workload == "forkjoin_chan";

    std::optional<HookCounters> hooks;
    if (trace)
        hooks.emplace(workers);
    Report report;
    std::unique_ptr<RuntimeBackend> pool =
        makePool(chan, workers, hooks ? &*hooks : nullptr);
    // One untimed rep finishes lazy set-up (thread start, first touch).
    if (fib(*pool, n) != expected)
        fatal("fib(%d) is wrong on the warm-up rep", n);
    markReady();
    if (options.setup_only)
        return report;

    std::vector<double> rep_s;
    double total_s = 0.0;
    Clock::time_point window = Clock::now();
    while (secondsSince(window) < options.seconds) {
        Clock::time_point t0 = Clock::now();
        uint64_t value = fib(*pool, n);
        Clock::time_point t1 = Clock::now();
        rep_s.push_back(secondsBetween(t0, t1));
        total_s += rep_s.back();
        ++report.ops;
        if (trace)
            trace->span("runtime.fib", t0, t1, 0, report.ops);
        if (value != expected) {
            ++report.failed_ops;
            std::fprintf(stderr, "e2e: fib(%d) = %llu, expected %llu\n", n,
                         static_cast<unsigned long long>(value),
                         static_cast<unsigned long long>(expected));
        }
    }

    report.metric("throughput_per_s", "1/s",
                  tasks_per_rep * static_cast<double>(rep_s.size()) / total_s);
    report.metric("latency_p50_us", "us", 1e6 * percentile(rep_s, 50));
    // A run has 1000-5000 reps: its p95 rests on 50 or more of them.
    report.metric("latency_tail_us", "us", 1e6 * percentile(rep_s, 95));
    report.metric("peak_rss_mb", "MB", peakRssMb());
    if (hooks)
        closeTracedPool(report, std::move(pool), *hooks);
    return report;
}

} // namespace aaws::e2e
