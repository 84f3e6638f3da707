/**
 * @file
 * Shared command-line plumbing for the engine-backed benches.
 *
 * Every bench accepts the same flags, so CI and humans can run a cheap,
 * parallel subset of any sweep:
 *
 *   --jobs=N        worker threads (0 = auto)
 *   --filter=SUB    only kernels whose name contains SUB
 *   --backend=B     restrict native runs to one backend (all|deque|chan)
 *   --topology=T    restrict topology sweeps to one preset, e.g.
 *                   "1b7l" or "2b2m4l:pc"
 *   --no-cache      disable the result cache for this run
 *   --cache-dir=D   cache directory
 *   --no-progress   suppress the engine's stderr progress lines
 *   --results-json=F  write the aaws-results/v1 datapoint artifact to F
 *                   (see exp/results.h)
 *   --help          print usage and exit
 *
 * The flags are the benches' only shared inputs: no environment
 * variable stands in for one.
 *
 * `--jobs` accepts 0 and negative values as "auto" (clamped, with a
 * warning, to the engine's hardware-concurrency detection); the engine
 * reports the effective worker count in its stderr header.  Malformed
 * `--jobs` values (trailing garbage, out-of-int-range) are fatal (see
 * parseJobs, exp/engine.h).
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
 * Returns false (leaving `out` untouched) on anything else.
 */
bool parseBackendSelection(const char *text, BackendSelection &out);

/** Parsed common bench options. */
struct BenchCli
{
    EngineOptions engine;
    /** Kernel-name substring filter; empty matches everything. */
    std::string filter;
    /**
     * Structured-results sink, opened by --results-json=F and written
     * at scope exit; disabled (add() is a no-op) without the flag, so
     * benches record datapoints unconditionally.
     */
    ResultsWriter results;

    /**
     * Native-backend restriction for shootout-style benches, from
     * --backend= (strict; fatal on unknown).  Benches that run exactly
     * one pool use backendEnabled() to skip the other side of a
     * comparison; sim-only benches ignore it.
     */
    BackendSelection backend = BackendSelection::all;

    /**
     * Topology preset restriction for topology-sweeping benches
     * (ext_asymmetry), from --topology= (strict; fatal on names
     * parseTopologyName rejects).  Empty = the bench's default preset
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
