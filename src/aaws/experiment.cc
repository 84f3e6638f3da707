#include "aaws/experiment.h"

#include "common/logging.h"

namespace aaws {

MachineConfig
configFor(const Kernel &kernel, Variant variant, bool collect_trace)
{
    MachineConfig config;
    // Per-application core behaviour (Table III columns).
    config.app_params.alpha = kernel.stats.alpha;
    config.app_params.beta = kernel.stats.beta;
    config.app_params.ipc_little = kernel.stats.ipcLittle();
    config.mpki = kernel.stats.mpki;
    // The lookup table keeps the designer's system-wide estimates
    // (ModelParams defaults: alpha = 3, beta = 2).
    config.policy = policyConfigFor(variant);
    config.collect_trace = collect_trace;
    return config;
}

namespace {

/** Serial instruction count: total work minus the parallel overhead. */
double
serialInstructions(const Kernel &kernel)
{
    return 0.92 * static_cast<double>(kernel.dag.totalWork());
}

} // namespace

double
serialSeconds(const Kernel &kernel, CoreType type)
{
    ModelParams params;
    params.alpha = kernel.stats.alpha;
    params.beta = kernel.stats.beta;
    params.ipc_little = kernel.stats.ipcLittle();
    FirstOrderModel model(params);
    double ips = model.ips(type, params.v_nom);
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
serialEnergy(const Kernel &kernel, CoreType type)
{
    ModelParams params;
    params.alpha = kernel.stats.alpha;
    params.beta = kernel.stats.beta;
    params.ipc_little = kernel.stats.ipcLittle();
    FirstOrderModel model(params);
    return model.activePower(type, params.v_nom) *
           serialSeconds(kernel, type);
}

} // namespace aaws
