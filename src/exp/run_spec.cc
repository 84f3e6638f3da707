#include "exp/run_spec.h"

#include "common/json.h"
#include "common/logging.h"
#include "serve/sim_server.h"
#include "sim/machine.h"
#include "sim/result_json.h"

namespace aaws {
namespace exp {

std::string
canonicalSpec(const RunSpec &spec)
{
    const SpecOverrides &o = spec.overrides;
    std::string out = strfmt(
        "aaws-exp/v%u;kernel=%s;topology=%s;variant=%s;seed=0x%llx;"
        "trace=%d",
        kCacheSchemaVersion, spec.kernel.c_str(),
        o.topology.value_or(MachineConfig().topology).c_str(),
        variantName(spec.variant),
        static_cast<unsigned long long>(spec.seed),
        spec.collect_trace ? 1 : 0);
    // The remaining overrides append in a fixed order, and only when
    // set, so a spec without them hashes identically across engine
    // versions that add new override knobs.
    if (o.steal_attempt_cycles) {
        out += ";steal_attempt_cycles=";
        json::appendU64(out, *o.steal_attempt_cycles);
    }
    if (o.mug_interrupt_cycles) {
        out += ";mug_interrupt_cycles=";
        json::appendU64(out, *o.mug_interrupt_cycles);
    }
    if (o.regulator_ns_per_step) {
        out += ";regulator_ns_per_step=";
        json::appendDouble(out, *o.regulator_ns_per_step);
    }
    if (spec.serve)
        out += serve::canonicalServeFragment(*spec.serve);
    return out;
}

uint64_t
specHash(const RunSpec &spec)
{
    // FNV-1a, 64-bit.
    uint64_t hash = 14695981039346656037ull;
    for (char c : canonicalSpec(spec)) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

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

namespace {

bool
variantFromNameLenient(const std::string &name, Variant &out)
{
    for (Variant v : allVariants()) {
        if (name == variantName(v)) {
            out = v;
            return true;
        }
    }
    return false;
}

} // namespace

bool
runResultFromJson(const std::string &text, RunResult &out)
{
    json::Value value;
    return json::parse(text, value) && runResultFromJson(value, out);
}

bool
runResultFromJson(const json::Value &value, RunResult &out)
{
    if (value.kind != json::Value::Kind::object)
        return false;
    const json::Value *kernel = value.find("kernel");
    const json::Value *variant = value.find("variant");
    const json::Value *sim = value.find("sim");
    std::string variant_name;
    if (!kernel || !kernel->getString(out.kernel) || !variant ||
        !variant->getString(variant_name) || !sim)
        return false;
    if (!variantFromNameLenient(variant_name, out.variant))
        return false;
    return simResultFromJson(*sim, out.sim);
}

} // namespace exp
} // namespace aaws
