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
    if (topology_.isBigLittle(model.params())) {
        generateBigLittle(model);
        return;
    }
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
        ClusterOperatingPoint point =
            opt.solve(act, opt.targetPower(act));
        entry.v.resize(n);
        for (int k = 0; k < n; ++k)
            entry.v[k] = act.active[k] > 0 ? point.v[k] : v_nom;
        entry.speedup = point.speedup;
    }
}

void
DvfsLookupTable::generateBigLittle(const FirstOrderModel &model)
{
    const int n_big = topology_.cluster(0).count;
    const int n_little = topology_.cluster(1).count;
    MarginalUtilityOptimizer opt(model);
    double v_nom = model.params().v_nom;
    entries_.resize((n_big + 1) * (n_little + 1));
    for (int ba = 0; ba <= n_big; ++ba) {
        for (int la = 0; la <= n_little; ++la) {
            DvfsTableEntry &entry =
                entries_[ba * (n_little + 1) + la];
            if (ba == 0 && la == 0) {
                // Nothing active: voltages are unused; keep nominal.
                entry = DvfsTableEntry::bigLittle(v_nom, v_nom, 1.0);
                continue;
            }
            CoreActivity act;
            act.n_big_active = ba;
            act.n_little_active = la;
            act.n_big_waiting = n_big - ba;
            act.n_little_waiting = n_little - la;
            OperatingPoint point =
                opt.solve(act, opt.targetPower(act), /*feasible=*/true);
            entry.v = {ba > 0 ? point.v_big : v_nom,
                       la > 0 ? point.v_little : v_nom};
            entry.speedup = point.speedup;
        }
    }
}

void
DvfsLookupTable::setEntryAt(int index, const DvfsTableEntry &entry)
{
    AAWS_ASSERT(index >= 0 && index < size(),
                "entry index %d outside table of %d", index, size());
    AAWS_ASSERT(static_cast<int>(entry.v.size()) ==
                    topology_.numClusters(),
                "entry arity %zu does not match %d clusters",
                entry.v.size(), topology_.numClusters());
    entries_[index] = entry;
}

const DvfsTableEntry &
DvfsLookupTable::atCounts(const std::vector<int> &counts) const
{
    return entries_[topology_.censusIndex(counts)];
}

} // namespace aaws
