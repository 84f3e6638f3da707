#include "serve/native_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "energy/accountant.h"
#include "model/first_order.h"
#include "chan/backend_factory.h"
#include "runtime/task_group.h"
#include "runtime/worker_pool.h"
#include "serve/arrival.h"

namespace aaws {
namespace serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

/**
 * Maps the runtime's activity-hint transitions onto EnergyAccountant
 * power states: found work = active at v_nom, hinting waiting = still
 * spinning at v_nom, parked = resting at v_min (the work-sprinting
 * rest decision).  The accountant requires per-core non-decreasing
 * times, so every report passes through one mutex with a monotone
 * clamp; after stop() closes the timelines, late callbacks from
 * still-parking workers become no-ops.
 */
class EnergyHooks final : public SchedulerHooks
{
  public:
    EnergyHooks(EnergyAccountant &accountant, const ModelParams &params,
                int workers, SchedulerHooks *inner)
        : accountant_(accountant), params_(params), inner_(inner),
          origin_(SteadyClock::now())
    {
        for (int w = 0; w < workers; ++w)
            accountant_.setState(w, 0.0, PowerState::active,
                                 params_.v_nom);
    }

    void
    onWorkerActive(int worker) override
    {
        report(worker, PowerState::active, params_.v_nom);
        if (inner_)
            inner_->onWorkerActive(worker);
    }

    void
    onWorkerWaiting(int worker) override
    {
        report(worker, PowerState::waiting, params_.v_nom);
        if (inner_)
            inner_->onWorkerWaiting(worker);
    }

    void
    onRest(int worker) override
    {
        report(worker, PowerState::waiting, params_.v_min);
        if (inner_)
            inner_->onRest(worker);
    }

    void
    onStealAttempt(int thief, int victim) override
    {
        if (inner_)
            inner_->onStealAttempt(thief, victim);
    }

    void
    onSpawn(int worker) override
    {
        if (inner_)
            inner_->onSpawn(worker);
    }

    void
    onStealSuccess(int thief, int victim) override
    {
        if (inner_)
            inner_->onStealSuccess(thief, victim);
    }

    void
    onMug(int mugger, int muggee) override
    {
        if (inner_)
            inner_->onMug(mugger, muggee);
    }

    /** Close all timelines; returns the accounting end time. */
    double
    stop()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
        double end = clampedNow();
        accountant_.finish(end);
        return end;
    }

  private:
    /** Monotone wall seconds since construction; callers hold mutex_. */
    double
    clampedNow()
    {
        double t = std::chrono::duration<double>(SteadyClock::now() -
                                                 origin_)
                       .count();
        last_ = std::max(last_, t);
        return last_;
    }

    void
    report(int worker, PowerState state, double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopped_)
            return;
        accountant_.setState(worker, clampedNow(), state, v);
    }

    EnergyAccountant &accountant_;
    ModelParams params_;
    SchedulerHooks *inner_;
    SteadyClock::time_point origin_;
    std::mutex mutex_;
    double last_ = 0.0;
    bool stopped_ = false;
};

/** One scheduled arrival, fully determined before the clock starts. */
struct Request
{
    double arrival = 0.0;
    uint32_t tenant = 0;
    uint64_t iters = 0;
};

/** xorshift-style spin kernel; the result defeats dead-code removal. */
uint64_t
spinWork(uint64_t iters)
{
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t i = 0; i < iters; ++i) {
        x ^= x >> 13;
        x *= 0x2545F4914F6CDD1Dull;
        x += i;
    }
    return x;
}

/** Per-request work draw: uniform on [0.75, 1.25] x the mean. */
uint64_t
scaledIters(uint64_t mean, double u)
{
    double scaled = static_cast<double>(mean) * (0.75 + 0.5 * u);
    return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

/**
 * The native request body: a fork-join spin tree.  Runs on a pool
 * thread; the blocking wait() keeps that worker productive (it steals
 * other requests' chunks, or whole requests, while its own finish).
 */
uint64_t
runRequest(RuntimeBackend &pool, uint64_t iters, uint32_t fanout)
{
    if (fanout <= 1)
        return spinWork(iters);
    std::vector<uint64_t> parts(fanout, 0);
    uint64_t chunk = iters / fanout;
    {
        TaskGroup group(pool);
        for (uint32_t c = 1; c < fanout; ++c)
            group.run([&parts, c, chunk] {
                parts[c] = spinWork(chunk + c);
            });
        parts[0] = spinWork(iters - chunk * (fanout - 1));
    }
    uint64_t sum = 0;
    for (uint64_t part : parts)
        sum ^= part;
    return sum;
}

/**
 * Merge the per-tenant arrival streams into one schedule, drawing each
 * request's work at build time.  Uses the shared seed salts, so for a
 * given (spec, seed) this is the exact arrival-time sequence the sim
 * engine serves.
 */
std::vector<Request>
buildSchedule(const ServeSpec &spec, uint64_t seed,
              uint64_t work_per_request)
{
    std::vector<ArrivalGenerator> tenants;
    std::vector<double> next_arrival;
    tenants.reserve(spec.tenants);
    for (uint32_t t = 0; t < spec.tenants; ++t) {
        tenants.emplace_back(spec.arrival,
                             deriveSeed(seed, kTenantSeedSalt + t));
        next_arrival.push_back(tenants.back().next());
    }
    Rng work_rng(deriveSeed(seed, kServiceSeedSalt));

    std::vector<Request> schedule;
    schedule.reserve(spec.requests);
    while (schedule.size() < spec.requests) {
        uint32_t tenant = 0;
        for (uint32_t t = 1; t < spec.tenants; ++t)
            if (next_arrival[t] < next_arrival[tenant])
                tenant = t;
        Request req;
        req.arrival = next_arrival[tenant];
        req.tenant = tenant;
        req.iters = scaledIters(work_per_request, work_rng.uniform());
        next_arrival[tenant] = tenants[tenant].next();
        schedule.push_back(req);
    }
    return schedule;
}

/** Per-tenant completion counts that fit in one cache line. */
constexpr uint32_t kCountsPerLine = kCacheLine / sizeof(uint64_t);

/** One cache line of per-tenant completion counts. */
struct alignas(kCacheLine) CountLine
{
    uint64_t count[kCountsPerLine] = {};
};

/**
 * Per-worker measurement slot, padded against false sharing: the slot
 * starts on its own cache line, and so does its heap buffer of
 * per-tenant counts, which is whole cache lines long.  (The latency
 * histogram's 2.5 KB bucket buffer is only written far from its ends.)
 */
struct alignas(kCacheLine) WorkerSlot
{
    LatencyHistogram latency;
    uint64_t completed = 0;
    uint64_t deadline_misses = 0;
    uint64_t checksum = 0;
    double last_completion = 0.0;
    std::vector<CountLine> tenant_lines;

    uint64_t &
    tenantCompleted(uint32_t tenant)
    {
        return tenant_lines[tenant / kCountsPerLine]
            .count[tenant % kCountsPerLine];
    }
};

} // namespace

NativeServeResult
runNativeService(const NativeServeOptions &options)
{
    const ServeSpec &spec = options.spec;
    AAWS_ASSERT(options.threads >= 1, "pool needs at least one worker");
    AAWS_ASSERT(spec.tenants >= 1, "need at least one tenant");
    AAWS_ASSERT(spec.queue_cap >= 1, "queue capacity must be positive");

    uint64_t work = std::max<uint64_t>(1, options.work_per_request);
    std::vector<Request> schedule =
        buildSchedule(spec, options.seed, work);

    int n_big = std::clamp(options.n_big, 0, options.threads);
    FirstOrderModel model;
    EnergyAccountant accountant(
        model, CoreTopology::bigLittle(n_big, options.threads - n_big,
                                       model.params()));
    EnergyHooks energy_hooks(accountant, model.params(), options.threads,
                             options.hooks);

    PoolOptions pool_options;
    pool_options.policy = policyConfigFor(options.variant);
    pool_options.n_big = n_big;
    pool_options.hooks = &energy_hooks;
    std::unique_ptr<RuntimeBackend> backend =
        chan::makeBackend(options.backend, options.threads, pool_options);
    RuntimeBackend &pool = *backend;

    std::vector<WorkerSlot> slots(options.threads);
    for (WorkerSlot &slot : slots)
        slot.tenant_lines.resize((spec.tenants + kCountsPerLine - 1) /
                                 kCountsPerLine);

    // Admission census: requests admitted but not yet completed.  The
    // ingest thread is the only admitter, so check-then-increment can
    // never overshoot queue_cap; workers only decrement.
    std::atomic<uint32_t> in_system{0};
    std::atomic<uint32_t> peak{0};
    std::atomic<bool> ingest_done{false};
    std::vector<uint64_t> tenant_shed(spec.tenants, 0);
    uint64_t shed = 0;

    SteadyClock::time_point t0 = SteadyClock::now();
    auto wallNow = [t0] {
        return std::chrono::duration<double>(SteadyClock::now() - t0)
            .count();
    };

    std::thread ingest([&] {
        for (const Request &req : schedule) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration<double>(req.arrival));
            if (in_system.load(std::memory_order_acquire) >=
                spec.queue_cap) {
                ++shed;
                ++tenant_shed[req.tenant];
                continue;
            }
            uint32_t occupancy =
                in_system.fetch_add(1, std::memory_order_acq_rel) + 1;
            uint32_t prev = peak.load(std::memory_order_relaxed);
            while (occupancy > prev &&
                   !peak.compare_exchange_weak(
                       prev, occupancy, std::memory_order_relaxed)) {
            }
            pool.enqueue([&, req] {
                uint64_t sum =
                    runRequest(pool, req.iters, options.fanout);
                double done = wallNow();
                int self = pool.currentWorker();
                AAWS_ASSERT(self >= 0,
                            "request completed off the pool");
                WorkerSlot &slot = slots[self];
                double latency = done - req.arrival;
                slot.latency.record(latency);
                if (spec.deadline_s > 0.0 && latency > spec.deadline_s)
                    ++slot.deadline_misses;
                ++slot.completed;
                ++slot.tenantCompleted(req.tenant);
                slot.checksum ^= sum;
                if (done > slot.last_completion)
                    slot.last_completion = done;
                in_system.fetch_sub(1, std::memory_order_acq_rel);
            });
        }
        ingest_done.store(true, std::memory_order_release);
    });

    // The master (worker 0) helps until ingest has submitted the whole
    // schedule and every admitted request has drained.
    pool.helpUntil([&] {
        return ingest_done.load(std::memory_order_acquire) &&
               in_system.load(std::memory_order_acquire) == 0;
    });
    ingest.join();

    NativeServeResult result;
    result.wall_seconds = wallNow();
    double accounting_end = energy_hooks.stop();
    (void)accounting_end;

    ServeStats &stats = result.stats;
    stats.enabled = true;
    stats.submitted = schedule.size();
    stats.shed = shed;
    stats.peak_queue = peak.load(std::memory_order_relaxed);
    stats.tenant_shed = tenant_shed;
    stats.tenant_completed.assign(spec.tenants, 0);
    double last_completion = 0.0;
    for (WorkerSlot &slot : slots) {
        stats.latency.merge(slot.latency);
        stats.completed += slot.completed;
        stats.deadline_misses += slot.deadline_misses;
        for (uint32_t t = 0; t < spec.tenants; ++t)
            stats.tenant_completed[t] += slot.tenantCompleted(t);
        last_completion = std::max(last_completion,
                                   slot.last_completion);
        result.checksum ^= slot.checksum;
    }
    stats.makespan_seconds = last_completion;
    stats.energy = accountant.totalEnergy();
    stats.finalizeQuantiles();
    result.steals = pool.steals();
    result.mug_attempts = pool.mugAttempts();
    result.mugs = pool.mugs();
    return result;
}

double
measureNativeServiceSeconds(const NativeServeOptions &options,
                            uint32_t reps)
{
    AAWS_ASSERT(reps >= 1, "calibration needs at least one rep");
    AAWS_ASSERT(options.threads >= 1, "pool needs at least one worker");

    PoolOptions pool_options;
    pool_options.policy = policyConfigFor(options.variant);
    pool_options.n_big = std::clamp(options.n_big, 0, options.threads);
    pool_options.hooks = options.hooks;
    std::unique_ptr<RuntimeBackend> backend =
        chan::makeBackend(options.backend, options.threads, pool_options);
    RuntimeBackend &pool = *backend;

    uint64_t work = std::max<uint64_t>(1, options.work_per_request);
    Rng work_rng(deriveSeed(options.seed, kServiceSeedSalt));
    uint64_t sum = 0;
    SteadyClock::time_point start = SteadyClock::now();
    for (uint32_t r = 0; r < reps; ++r) {
        uint64_t iters = scaledIters(work, work_rng.uniform());
        sum ^= runRequest(pool, iters, options.fanout);
    }
    double total =
        std::chrono::duration<double>(SteadyClock::now() - start)
            .count();
    static std::atomic<uint64_t> sink{0};
    sink.fetch_xor(sum, std::memory_order_relaxed);
    return total / static_cast<double>(reps);
}

} // namespace serve
} // namespace aaws
