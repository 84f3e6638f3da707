/**
 * @file
 * Declarative simulation specs for the experiment engine.
 *
 * A RunSpec names everything that determines one simulation's result:
 * kernel, runtime variant, workload seed, tracing, and the handful of
 * machine-config overrides the sweeps use — the machine itself is the
 * `overrides.topology` preset, "4b4l" when unset.  Specs have a
 * canonical string form; FNV-1a over that string (salted with an engine
 * schema version) is the content address under which the result cache
 * stores the run.
 */

#ifndef AAWS_EXP_RUN_SPEC_H
#define AAWS_EXP_RUN_SPEC_H

#include <cstdint>
#include <optional>
#include <string>

#include "aaws/experiment.h"
#include "common/json.h"
#include "serve/spec.h"

namespace aaws {
namespace exp {

/**
 * Cache schema version: participates in every spec hash, so bumping it
 * invalidates all previously cached results.  Bump whenever the
 * simulator's numeric behaviour, the RunSpec fields, or the result
 * serialization format change.
 *
 * v3: RunSpec grew the optional open-loop serving dimension (`serve`),
 * and SimResult grew the ServeStats block those runs fill.
 *
 * v4: the engine briefly gained alternative execution paths (shared
 * event queues across simulations, prefix replay across sweep values).
 * They were bit-identical to serial runs, but the bump retired every
 * record of the engine before them so no result could be served that
 * the new paths were never checked against.  The paths are gone again;
 * results are unchanged, so the version stays.
 *
 * v5: the big/little dichotomy generalized into an N-cluster
 * CoreTopology threaded through every layer (machine, census, DVFS
 * table, energy accounting), and SpecOverrides grew the `topology`
 * dimension.  The legacy two-cluster path is proven bit-identical
 * (tests/test_topology.cc, the Table III golden), but the bump retires
 * pre-topology records so nothing produced by the old code can be
 * served to the new engine unchecked.
 *
 * v6: the topology preset became the only machine description.  The
 * canonical form always names the topology (an unset one as "4b4l")
 * and lost the `system=` field and the n_big/n_little overrides, and
 * serialized RunResults lost their "system" member.
 */
inline constexpr uint32_t kCacheSchemaVersion = 6;

/** Default workload-synthesis seed (same as kernels/registry.h). */
inline constexpr uint64_t kDefaultSeed = 0xA57'5EEDull;

/**
 * Optional machine-config overrides applied after configFor().  Only
 * the knobs the existing benches sweep are spec-addressable; anything
 * else would silently alias cache entries, so new sweep dimensions must
 * be added here (and to the canonical form) first.
 */
struct SpecOverrides
{
    /**
     * Topology preset name (parseTopologyName), e.g. "1b7l" or
     * "2b2m4l"; unset means MachineConfig's default, "4b4l".
     */
    std::optional<std::string> topology;
    /** Steal-attempt cost in cycles (sens_steal_cost). */
    std::optional<uint64_t> steal_attempt_cycles;
    /** Mug interrupt latency in cycles (sens_mug_latency). */
    std::optional<uint64_t> mug_interrupt_cycles;
    /** Regulator transition latency in ns/step (sens_dvfs_transition). */
    std::optional<double> regulator_ns_per_step;
};

/** One simulation the engine should produce a RunResult for. */
struct RunSpec
{
    RunSpec() = default;
    RunSpec(std::string kernel_name, Variant run_variant,
            uint64_t workload_seed = kDefaultSeed, bool trace = false)
        : kernel(std::move(kernel_name)), variant(run_variant),
          seed(workload_seed), collect_trace(trace)
    {
    }

    std::string kernel;
    Variant variant = Variant::base;
    uint64_t seed = kDefaultSeed;
    bool collect_trace = false;
    SpecOverrides overrides;
    /**
     * Open-loop serving dimension: when set, executeSpec() runs the
     * request-level serving simulation (serve/sim_server.h) over a
     * service table sampled on configForSpec()'s machine, instead of
     * one closed-loop Machine::run(), and the result's `sim.serve`
     * block is filled.  Every field participates in the canonical form
     * — a serving sweep can never alias a closed-loop cache entry.
     */
    std::optional<serve::ServeSpec> serve;
};

/**
 * Canonical serialization: a stable, human-readable one-liner that is
 * both the hash input and the integrity check stored inside each cache
 * record (a hash collision can therefore never return a wrong result,
 * only a miss).
 */
std::string canonicalSpec(const RunSpec &spec);

/** FNV-1a (64-bit) over canonicalSpec(); the cache filename stem. */
uint64_t specHash(const RunSpec &spec);

/** Apply the spec's overrides to an already-built machine config. */
void applyOverrides(MachineConfig &config, const SpecOverrides &overrides);

/** configFor() + overrides: the exact config executeSpec() simulates. */
MachineConfig configForSpec(const Kernel &kernel, const RunSpec &spec);

/** Run the simulation a spec describes (no caching at this layer). */
RunResult executeSpec(const RunSpec &spec);

/**
 * Same, against an already-instantiated kernel (must be the product of
 * makeKernel(spec.kernel, spec.seed)).  The engine memoizes kernels per
 * batch -- a sweep simulates each (kernel, seed) DAG many times under
 * different configs -- and sealed DAGs are safely shared across
 * concurrently running simulations.
 */
RunResult executeSpec(const RunSpec &spec, const Kernel &kernel);

// --- RunResult JSON round-tripping --------------------------------------

/** Append kernel/variant plus the full SimResult to `out` (one line). */
void appendRunResultJson(std::string &out, const RunResult &result);

/** appendRunResultJson into a new string. */
std::string runResultToJson(const RunResult &result);

/**
 * Rebuild a RunResult; strict and lenient-on-garbage like the SimResult
 * parser (false on any malformed/unknown content, never fatal()).
 */
bool runResultFromJson(const std::string &text, RunResult &out);

/** Same, from an already-parsed JSON value (cache-record embedding). */
bool runResultFromJson(const json::Value &value, RunResult &out);

} // namespace exp
} // namespace aaws

#endif // AAWS_EXP_RUN_SPEC_H
