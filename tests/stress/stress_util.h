/**
 * @file
 * Shared machinery of the stress suite: environment-tunable iteration
 * counts with sanitizer-aware defaults, seed plumbing so every failure
 * is reproducible from its logged seed, and the schedule shaker that
 * perturbs thread interleavings through the SchedulerHooks interface.
 *
 * Reproducing a failure: every stress test logs the seed it ran with
 * (SCOPED_TRACE / test output).  Re-run the single test with the seed
 * pinned, e.g.
 *
 *   AAWS_STRESS_SEED=0x1234 ./tests/stress/stress_schedule_shaker \
 *       --gtest_filter='*Seed/7'
 */

#ifndef AAWS_TESTS_STRESS_UTIL_H
#define AAWS_TESTS_STRESS_UTIL_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "runtime/hooks.h"

namespace aaws {
namespace stress {

/**
 * Integer knob from the environment, with separate defaults for plain
 * and sanitizer builds (sanitizers cost 3-15x; CI additionally lowers
 * the knobs to keep the matrix time-boxed).
 */
inline int64_t
envKnob(const char *name, [[maybe_unused]] int64_t plain_default,
        [[maybe_unused]] int64_t sanitizer_default)
{
#ifdef AAWS_SANITIZER_BUILD
    int64_t value = sanitizer_default;
#else
    int64_t value = plain_default;
#endif
    if (const char *s = std::getenv(name)) {
        char *end = nullptr;
        long long parsed = std::strtoll(s, &end, 0);
        if (end != s && parsed > 0)
            value = parsed;
    }
    return value;
}

/** Base seed of this process's stress runs (AAWS_STRESS_SEED to pin). */
inline uint64_t
baseSeed()
{
    if (const char *s = std::getenv("AAWS_STRESS_SEED")) {
        char *end = nullptr;
        unsigned long long parsed = std::strtoull(s, &end, 0);
        if (end != s)
            return parsed;
    }
    return 0xAA57'C0DE'5EEDull;
}

/** Derive the i-th independent seed from a base seed (splitmix64 step). */
inline uint64_t
nthSeed(uint64_t base, uint64_t i)
{
    uint64_t z = base + (i + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Schedule shaker: a SchedulerHooks implementation that injects
 * pseudo-random yields and busy spins at every instrumentation point
 * (spawn, steal attempt, activity transitions) to shake the runtime
 * through interleavings a free-running scheduler rarely produces.
 *
 * Each worker draws from its own deterministic stream, so a given seed
 * always issues the same per-worker perturbation *sequence*; the OS
 * still owns preemption, but failures reproduce readily by re-running
 * the same seed (see the file comment).
 */
class ScheduleShaker : public SchedulerHooks
{
  public:
    ScheduleShaker(uint64_t seed, int workers)
    {
        streams_.reserve(workers);
        for (int w = 0; w < workers; ++w)
            streams_.emplace_back(nthSeed(seed, w));
    }

    void onWorkerActive(int worker) override { shake(worker); }
    void onWorkerWaiting(int worker) override { shake(worker); }
    void onSpawn(int worker) override { shake(worker); }
    void onRest(int worker) override { shake(worker); }

    void
    onStealAttempt(int thief, int victim) override
    {
        (void)victim;
        // A foreign (non-pool) thread helping at a join has index -1 and
        // no stream; leave it unperturbed.
        if (thief >= 0)
            shake(thief);
    }

    void
    onStealSuccess(int thief, int victim) override
    {
        (void)victim;
        // Stretching the window between the committed steal and the
        // task's execution is exactly where stale-occupancy and mug
        // races hide.
        if (thief >= 0)
            shake(thief);
    }

    void
    onMug(int mugger, int muggee) override
    {
        (void)muggee;
        if (mugger >= 0)
            shake(mugger);
    }

    /** Total perturbations injected so far (yields + spins). */
    uint64_t
    perturbations() const
    {
        return perturbations_.load(std::memory_order_relaxed);
    }

  private:
    void
    shake(int worker)
    {
        Rng &rng = streams_[worker].rng;
        double u = rng.uniform();
        if (u < 0.25) {
            perturbations_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
        } else if (u < 0.35) {
            perturbations_.fetch_add(1, std::memory_order_relaxed);
            volatile uint64_t sink = 0;
            uint64_t spins = 32 + rng.below(512);
            for (uint64_t i = 0; i < spins; ++i)
                sink = sink + i;
        }
    }

    /** Per-worker stream, padded against false sharing. */
    struct alignas(64) Stream
    {
        explicit Stream(uint64_t seed) : rng(seed) {}
        Rng rng;
    };

    std::vector<Stream> streams_;
    std::atomic<uint64_t> perturbations_{0};
};

} // namespace stress
} // namespace aaws

#endif // AAWS_TESTS_STRESS_UTIL_H
