#include "aaws/experiment.h"

#include "common/logging.h"

namespace aaws {

namespace {

/** The kernel's own model parameters (Table III columns). */
ModelParams
kernelParams(const Kernel &kernel)
{
    ModelParams params;
    params.alpha = kernel.stats.alpha;
    params.beta = kernel.stats.beta;
    params.ipc_little = kernel.stats.ipcLittle();
    return params;
}

/** Serial instruction count: total work minus the parallel overhead. */
double
serialInstructions(const Kernel &kernel)
{
    return 0.92 * static_cast<double>(kernel.dag.totalWork());
}

} // namespace

MachineConfig
configFor(const Kernel &kernel, Variant variant, bool collect_trace)
{
    MachineConfig config;
    // Per-application core behaviour.
    config.app_params = kernelParams(kernel);
    config.mpki = kernel.stats.mpki;
    // The lookup table keeps the designer's system-wide estimates
    // (ModelParams defaults: alpha = 3, beta = 2).
    config.policy = policyConfigFor(variant);
    config.collect_trace = collect_trace;
    return config;
}

double
serialSeconds(const Kernel &kernel, char kind)
{
    ModelParams params = kernelParams(kernel);
    FirstOrderModel model(params);
    double ips = model.ips(clusterParamsFor(kind, params), params.v_nom);
    AAWS_ASSERT(ips > 0.0, "non-positive serial throughput");
    return serialInstructions(kernel) / ips;
}

double
speedupOver(const SimResult &base, const SimResult &opt)
{
    AAWS_ASSERT(opt.exec_seconds > 0.0, "non-positive execution time");
    return base.exec_seconds / opt.exec_seconds;
}

double
efficiencyGain(const SimResult &base, const SimResult &opt)
{
    AAWS_ASSERT(opt.energy > 0.0, "non-positive energy");
    return speedupOver(base, opt) * base.energy / opt.energy;
}

double
serialEnergy(const Kernel &kernel, char kind)
{
    ModelParams params = kernelParams(kernel);
    FirstOrderModel model(params);
    return model.activePower(clusterParamsFor(kind, params),
                             params.v_nom) *
           serialSeconds(kernel, kind);
}

} // namespace aaws
