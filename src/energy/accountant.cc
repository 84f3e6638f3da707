#include "energy/accountant.h"

#include "common/logging.h"

namespace aaws {

EnergyAccountant::EnergyAccountant(const FirstOrderModel &model,
                                   const CoreTopology &topology)
    : model_(model)
{
    core_params_.reserve(topology.numCores());
    for (const CoreCluster &cluster : topology.clusters())
        for (int i = 0; i < cluster.count; ++i)
            core_params_.push_back(cluster.params);
    size_t n = core_params_.size();
    AAWS_ASSERT(n > 0, "no cores to account for");
    energy_.resize(n);
    state_.assign(n, PowerState::off);
    voltage_.assign(n, model_.params().v_nom);
    last_time_.assign(n, 0.0);
}

void
EnergyAccountant::charge(int core, double until)
{
    double dt = until - last_time_[core];
    AAWS_ASSERT(dt >= -1e-15, "core %d time went backwards by %g s", core,
                -dt);
    if (dt <= 0.0)
        return;
    const ClusterParams &params = core_params_[core];
    switch (state_[core]) {
      case PowerState::active:
        energy_[core].active +=
            model_.activePower(params, voltage_[core]) * dt;
        break;
      case PowerState::waiting:
        energy_[core].waiting +=
            model_.waitingPower(params, voltage_[core]) * dt;
        break;
      case PowerState::off:
        break;
    }
    last_time_[core] = until;
}

void
EnergyAccountant::setState(int core, double now, PowerState state, double v)
{
    AAWS_ASSERT(core >= 0 && core < static_cast<int>(state_.size()),
                "bad core id %d", core);
    AAWS_ASSERT(!finished_, "accountant already finished");
    charge(core, now);
    state_[core] = state;
    voltage_[core] = v;
}

void
EnergyAccountant::finish(double now)
{
    AAWS_ASSERT(!finished_, "accountant already finished");
    for (size_t i = 0; i < state_.size(); ++i)
        charge(static_cast<int>(i), now);
    end_time_ = now;
    finished_ = true;
}

const CoreEnergy &
EnergyAccountant::coreEnergy(int core) const
{
    AAWS_ASSERT(core >= 0 && core < static_cast<int>(energy_.size()),
                "bad core id %d", core);
    return energy_[core];
}

double
EnergyAccountant::totalEnergy() const
{
    double sum = 0.0;
    for (const auto &e : energy_)
        sum += e.total();
    return sum;
}

double
EnergyAccountant::waitingEnergy() const
{
    double sum = 0.0;
    for (const auto &e : energy_)
        sum += e.waiting;
    return sum;
}

double
EnergyAccountant::averagePower() const
{
    AAWS_ASSERT(finished_, "averagePower before finish()");
    return end_time_ > 0.0 ? totalEnergy() / end_time_ : 0.0;
}

} // namespace aaws
