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
 * counts, elapsed, ETA) plus a final batch summary.
 *
 * Environment:
 *   AAWS_EXP_JOBS       worker count when options.jobs == 0
 *                       (default: hardware concurrency)
 *   AAWS_EXP_CACHE_DIR / AAWS_EXP_NO_CACHE  resolved by the CLI layer
 *                       (exp/cli.h) into use_cache/cache_dir; the
 *                       engine and cache honor the options as given
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
    /** Worker threads; 0 = AAWS_EXP_JOBS, then hardware concurrency. */
    int jobs = 0;
    /** Master cache switch; honored as given (env is the CLI's job). */
    bool use_cache = true;
    /** Cache directory ("" = .aaws-cache; env is the CLI's job). */
    std::string cache_dir;
    /** Progress/summary lines on stderr. */
    bool progress = true;
    /** Print a sims/sec + events/sec self-report line on stderr. */
    bool time_report = false;
    /** When non-empty, write a BENCH_sim.json perf record to this path. */
    std::string bench_json;
    /** Bench name recorded in the BENCH_sim.json record. */
    std::string bench_name;
    /**
     * Topology tag recorded in the bench-JSON record ("" = untagged,
     * the default full sweep).  BenchCli sets it when a --topology
     * restriction narrows the run, so tools/bench_compare.py can
     * refuse to diff perf records measured on different machine
     * shapes.
     */
    std::string topology_tag;
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
 * Strict base-10 parse of a worker-count value, shared by `--jobs` and
 * AAWS_EXP_JOBS so both reject the same inputs: empty strings, trailing
 * garbage ("4x"), and anything outside int range (including strtol
 * ERANGE overflows, which a bare cast would silently truncate).  On
 * success `out` holds the value (which may be <= 0, meaning "auto").
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
