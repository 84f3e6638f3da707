/**
 * @file
 * The experiment engine: parallel fan-out of simulations on the native
 * work-stealing runtime, backed by the content-addressed result cache.
 *
 * runBatch() takes a declarative list of RunSpecs and returns one
 * RunResult per spec *in spec order*: every cache miss is one task on a
 * WorkerPool/TaskGroup that runs executeSpec() and writes into its
 * pre-sized slot, so output is independent of scheduling interleavings
 * and `--jobs=N` is byte-identical to `--jobs=1`.  Cache hits skip
 * simulation entirely.
 *
 * Observability: progress lines on stderr (done/total, hit/miss
 * counts, elapsed, ETA) plus a final batch summary that also gives the
 * elapsed time to the millisecond and the executed simulations' event
 * count, so sims/s and events/s read off it.
 *
 * The engine reads no environment variable: callers set every knob
 * through EngineOptions (the benches from their flags, exp/cli.h).
 */

#ifndef AAWS_EXP_ENGINE_H
#define AAWS_EXP_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "exp/run_spec.h"

namespace aaws {
namespace exp {

/** Knobs of one runBatch() call. */
struct EngineOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    int jobs = 0;
    /** Master cache switch. */
    bool use_cache = true;
    /** Cache directory ("" = .aaws-cache). */
    std::string cache_dir;
    /** Progress/summary lines on stderr. */
    bool progress = true;
};

/** What a batch did (for tests, CI assertions, and callers' logging). */
struct BatchStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    int jobs = 1;
    double elapsed_seconds = 0.0;
    /** Discrete events processed across executed (non-cached) sims. */
    uint64_t sim_events = 0;
};

/**
 * Strict base-10 parse of a `--jobs` value: rejects empty strings,
 * trailing garbage ("4x"), and anything outside int range (including
 * strtol ERANGE overflows, which a bare cast would silently truncate).
 * On success `out` holds the value (which may be <= 0, meaning "auto").
 */
bool parseJobs(const char *text, int &out);

/** Resolve the effective worker count for a batch of the given size. */
int resolveJobs(int requested, size_t batch_size);

/**
 * Run every spec (cache-first) and return results in spec order.
 * Duplicate specs in one batch are legal; each slot gets its own
 * result object.
 */
std::vector<RunResult> runBatch(const std::vector<RunSpec> &specs,
                                const EngineOptions &options = {},
                                BatchStats *stats_out = nullptr);

} // namespace exp
} // namespace aaws

#endif // AAWS_EXP_ENGINE_H
