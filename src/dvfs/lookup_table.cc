#include "dvfs/lookup_table.h"

#include "common/logging.h"

namespace aaws {

DvfsLookupTable::DvfsLookupTable(const FirstOrderModel &model,
                                 const CoreTopology &topology)
    : topology_(topology)
{
    AAWS_ASSERT(!topology_.empty() && topology_.numCores() > 0,
                "bad machine topology");
    generate(model);
}

void
DvfsLookupTable::generate(const FirstOrderModel &model)
{
    const bool big_little = topology_.isBigLittle(model.params());
    ClusterOptimizer opt(model, topology_);
    const int n = topology_.numClusters();
    const double v_nom = model.params().v_nom;
    entries_.resize(topology_.censusCells());
    ClusterActivity act;
    act.active.assign(n, 0);
    act.waiting.assign(n, 0);
    for (int index = 0; index < topology_.censusCells(); ++index) {
        DvfsTableEntry &entry = entries_[index];
        topology_.censusFromIndex(index, act.active);
        bool any_active = false;
        for (int k = 0; k < n; ++k) {
            act.waiting[k] = topology_.cluster(k).count - act.active[k];
            any_active = any_active || act.active[k] > 0;
        }
        if (!any_active) {
            // Nothing active: voltages are unused; keep nominal.
            entry.v.assign(n, v_nom);
            entry.speedup = 1.0;
            continue;
        }
        double target = opt.targetPower(act);
        ClusterOperatingPoint point =
            big_little ? opt.solveTwoCluster(act, target, /*feasible=*/true)
                       : opt.solve(act, target);
        entry.v.resize(n);
        for (int k = 0; k < n; ++k)
            entry.v[k] = act.active[k] > 0 ? point.v[k] : v_nom;
        entry.speedup = point.speedup;
    }
}

const DvfsTableEntry &
DvfsLookupTable::atCounts(const std::vector<int> &counts) const
{
    return entries_[topology_.censusIndex(counts)];
}

} // namespace aaws
