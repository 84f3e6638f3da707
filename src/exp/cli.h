/**
 * @file
 * Shared command-line plumbing for the engine-backed benches.
 *
 * Every ported bench accepts the same knobs so CI and humans can run a
 * cheap, parallel, cached subset of any sweep:
 *
 *   --jobs=N        worker threads (env AAWS_EXP_JOBS; 0 = auto)
 *   --filter=SUB    only kernels whose name contains SUB
 *                   (env AAWS_KERNEL_FILTER)
 *   --topology=T    restrict topology sweeps to one preset, e.g.
 *                   "1b7l" or "2b2m4l:pc" (env AAWS_TOPOLOGY)
 *   --no-cache      disable the result cache for this run
 *                   (env AAWS_EXP_NO_CACHE)
 *   --cache-dir=D   cache directory (env AAWS_EXP_CACHE_DIR)
 *   --no-progress   suppress the engine's stderr progress lines
 *   --time          print a sims/sec + events/sec self-report line
 *   --bench-json=F  write a machine-readable perf record to F
 *                   (env AAWS_BENCH_JSON)
 *   --results-json=F  write the aaws-results/v1 datapoint artifact to F
 *                   (env AAWS_RESULTS_JSON; see exp/results.h)
 *   --help          print usage and exit
 *
 * Precedence: flags always beat their environment counterparts.  parse()
 * reads the whole command line first and consults the environment only
 * for knobs no flag set, so e.g. `AAWS_EXP_NO_CACHE=1 bench --no-cache`
 * and an explicit `--cache-dir=` are never silently overridden.  (An
 * earlier version resolved cache env vars inside ResultCache itself,
 * which inverted this for the cache knobs; see exp/cache.h.)
 *
 * `--jobs` accepts 0 and negative values as "auto" (clamped, with a
 * warning, to the engine's hardware-concurrency detection); the engine
 * reports the effective worker count in its stderr header.  Malformed
 * `--jobs` values (trailing garbage, out-of-int-range) are fatal; the
 * same strict parser guards AAWS_EXP_JOBS (see exp/engine.h).
 */

#ifndef AAWS_EXP_CLI_H
#define AAWS_EXP_CLI_H

#include <string>
#include <vector>

#include "exp/engine.h"
#include "exp/results.h"
#include "runtime/backend.h"

namespace aaws {
namespace exp {

/** Which native runtime backends a bench run should cover. */
enum class BackendSelection
{
    /** Every backend the bench supports (the default). */
    all,
    /** Only runtime::WorkerPool (Chase-Lev deques). */
    deque,
    /** Only chan::ChannelPool (steal-request messages). */
    chan,
};

/**
 * Strict parse of a --backend= value ("all", "deque", "chan").
 * Returns false (leaving `out` untouched) on anything else — callers
 * decide whether that is fatal (flag) or a warning (environment),
 * mirroring parseJobs.
 */
bool parseBackendSelection(const char *text, BackendSelection &out);

/**
 * Resolve the bench-JSON output path from AAWS_BENCH_JSON; nullptr when
 * it is unset or empty.  Callers apply this only when no --bench-json
 * flag was given (flag-beats-env).
 */
const char *benchJsonEnv();

/** Parsed common bench options. */
struct BenchCli
{
    EngineOptions engine;
    /** Kernel-name substring filter; empty matches everything. */
    std::string filter;
    /**
     * Structured-results sink, opened by --results-json=F (or
     * AAWS_RESULTS_JSON) and written at scope exit; disabled (add()
     * is a no-op) when neither is given, so benches record datapoints
     * unconditionally.
     */
    ResultsWriter results;

    /**
     * Native-backend restriction for shootout-style benches, from
     * --backend= (strict; fatal on unknown) or AAWS_BACKEND (malformed
     * values warn and fall back to `all`).  Benches that run exactly
     * one pool use backendEnabled() to skip the other side of a
     * comparison; sim-only benches ignore it.
     */
    BackendSelection backend = BackendSelection::all;

    /**
     * Topology preset restriction for topology-sweeping benches
     * (ext_asymmetry), from --topology= (strict; fatal on names
     * parseTopologyName rejects) or AAWS_TOPOLOGY (malformed values
     * warn and are ignored).  Empty = the bench's default preset
     * sweep.  Benches that simulate a single fixed shape ignore it.
     */
    std::string topology;

    /**
     * Parse the shared flags; fatal() on unknown arguments (benches
     * take no positional operands).  --help prints usage and exits 0.
     */
    void parse(int argc, char **argv);

    /** Does a kernel name pass the filter? */
    bool matches(const std::string &name) const;

    /** Should a run on this backend be part of the sweep? */
    bool backendEnabled(BackendKind kind) const;

    /** Filtered copy of a kernel-name list (warns when empty). */
    std::vector<std::string>
    filterNames(const std::vector<std::string> &names) const;
};

} // namespace exp
} // namespace aaws

#endif // AAWS_EXP_CLI_H
