#include "exp/run_spec.h"

#include "common/json.h"
#include "serve/sim_server.h"
#include "sim/machine.h"
#include "sim/result_json.h"

namespace aaws {
namespace exp {

void
applyOverrides(MachineConfig &config, const SpecOverrides &overrides)
{
    if (overrides.topology)
        config.topology = *overrides.topology;
    if (overrides.steal_attempt_cycles)
        config.costs.steal_attempt_cycles = *overrides.steal_attempt_cycles;
    if (overrides.mug_interrupt_cycles)
        config.costs.mug_interrupt_cycles = *overrides.mug_interrupt_cycles;
    if (overrides.regulator_ns_per_step)
        config.regulator_ns_per_step = *overrides.regulator_ns_per_step;
}

MachineConfig
configForSpec(const Kernel &kernel, const RunSpec &spec)
{
    MachineConfig config =
        configFor(kernel, spec.variant, spec.collect_trace);
    applyOverrides(config, spec.overrides);
    return config;
}

RunResult
executeSpec(const RunSpec &spec)
{
    Kernel kernel = makeKernel(spec.kernel, spec.seed);
    return executeSpec(spec, kernel);
}

RunResult
executeSpec(const RunSpec &spec, const Kernel &kernel)
{
    RunResult result;
    result.kernel = spec.kernel;
    result.variant = spec.variant;
    MachineConfig config = configForSpec(kernel, spec);
    if (spec.serve) {
        // Serving runs simulate their own kernel instances (one per
        // service-table sample, each under a derived seed) on the
        // spec's machine; the batch-memoized DAG is not used here.
        result.sim = serve::simulateService(
            serve::sampleServiceTable(config, spec.kernel, spec.seed,
                                      spec.serve->service_samples),
            spec.seed, *spec.serve);
        return result;
    }
    result.sim = Machine(config, kernel.dag).run();
    return result;
}

void
appendRunResultJson(std::string &out, const RunResult &result)
{
    out += "{\"kernel\":";
    json::appendString(out, result.kernel);
    out += ",\"variant\":";
    json::appendString(out, variantName(result.variant));
    out += ",\"sim\":";
    appendSimResultJson(out, result.sim);
    out.push_back('}');
}

std::string
runResultToJson(const RunResult &result)
{
    std::string out;
    appendRunResultJson(out, result);
    return out;
}

} // namespace exp
} // namespace aaws
