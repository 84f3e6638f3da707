/**
 * @file
 * Declarative simulation specs for the experiment engine.
 *
 * A RunSpec names everything that determines one simulation's result:
 * kernel, runtime variant, workload seed, tracing, and the handful of
 * machine-config overrides the sweeps use — the machine itself is the
 * `overrides.topology` preset, "4b4l" when unset.  executeSpec() turns
 * a spec into its result; the engine (exp/engine.h) runs many of them.
 */

#ifndef AAWS_EXP_RUN_SPEC_H
#define AAWS_EXP_RUN_SPEC_H

#include <cstdint>
#include <optional>
#include <string>

#include "aaws/experiment.h"
#include "serve/spec.h"

namespace aaws {
namespace exp {

/** Default workload-synthesis seed (same as kernels/registry.h). */
inline constexpr uint64_t kDefaultSeed = 0xA57'5EEDull;

/**
 * Optional machine-config overrides applied after configFor().  Only
 * the knobs the existing benches sweep are spec-addressable; a new
 * sweep dimension is added here and to applyOverrides().
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
     * block is filled.
     */
    std::optional<serve::ServeSpec> serve;
};

/** Apply the spec's overrides to an already-built machine config. */
void applyOverrides(MachineConfig &config, const SpecOverrides &overrides);

/** configFor() + overrides: the exact config executeSpec() simulates. */
MachineConfig configForSpec(const Kernel &kernel, const RunSpec &spec);

/** Run the simulation a spec describes. */
RunResult executeSpec(const RunSpec &spec);

/**
 * Same, against an already-instantiated kernel (must be the product of
 * makeKernel(spec.kernel, spec.seed)).  The engine memoizes kernels per
 * batch -- a sweep simulates each (kernel, seed) DAG many times under
 * different configs -- and sealed DAGs are safely shared across
 * concurrently running simulations.
 */
RunResult executeSpec(const RunSpec &spec, const Kernel &kernel);

// --- RunResult JSON ------------------------------------------------------

/** Append kernel/variant plus the full SimResult to `out` (one line). */
void appendRunResultJson(std::string &out, const RunResult &result);

/** appendRunResultJson into a new string. */
std::string runResultToJson(const RunResult &result);

} // namespace exp
} // namespace aaws

#endif // AAWS_EXP_RUN_SPEC_H
