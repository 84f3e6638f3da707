#include "dvfs/controller.h"

#include <algorithm>

#include "common/logging.h"

namespace aaws {

DvfsController::DvfsController(const DvfsLookupTable &table,
                               const sched::PolicyConfig &policy,
                               const ModelParams &mp)
    : table_(table),
      rest_(policy.serial_sprinting, policy.work_pacing,
            policy.work_sprinting),
      v_nom_(mp.v_nom), v_min_(mp.v_min), v_max_(mp.v_max)
{
}

std::vector<double>
DvfsController::decide(const std::vector<bool> &active,
                       int serial_core) const
{
    std::vector<double> v;
    decideInto(active, serial_core, v);
    return v;
}

void
DvfsController::decideInto(const std::vector<bool> &active,
                           int serial_core,
                           std::vector<double> &out) const
{
    sched::ActivityCensus census(table_.topology());
    census.recount(active, table_.topology().coreClusters());
    decideInto(active, census, serial_core, out);
}

void
DvfsController::decideInto(const std::vector<bool> &active,
                           const sched::ActivityCensus &census,
                           int serial_core,
                           std::vector<double> &out) const
{
    AAWS_ASSERT(static_cast<int>(active.size()) == numCores(),
                "activity vector size mismatch");
    const CoreTopology &topo = table_.topology();
    const std::vector<int> &cluster_of = topo.coreClusters();
#ifdef AAWS_SANITIZER_BUILD
    sched::ActivityCensus recount(topo);
    recount.recount(active, cluster_of);
    for (int k = 0; k < topo.numClusters(); ++k) {
        AAWS_ASSERT(census.clusterActive(k) == recount.clusterActive(k),
                    "activity census counts %d active cores in cluster %d "
                    "but the activity bits hold %d",
                    census.clusterActive(k), k, recount.clusterActive(k));
    }
#endif
    out.assign(active.size(), v_nom_);

    const bool serial_hinted = serial_core >= 0;
    const bool all_active = census.allActive();
    // The table entry every sprint_table intent maps to: the census
    // cell (all-active pacing is just the full cell).
    const DvfsTableEntry *entry = nullptr;
    for (size_t i = 0; i < out.size(); ++i) {
        sched::VoltageIntent intent =
            rest_.intentFor(active[i], static_cast<int>(i) == serial_core,
                            serial_hinted, all_active);
        switch (intent) {
          case sched::VoltageIntent::nominal:
            break;
          case sched::VoltageIntent::rest:
            out[i] = v_min_;
            break;
          case sched::VoltageIntent::sprint_max:
            out[i] = v_max_;
            break;
          case sched::VoltageIntent::sprint_table:
            if (!entry)
                entry = &table_.atCounts(census.counts());
            out[i] = entry->v[cluster_of[i]];
            break;
        }
    }

    // Shared-rail clusters get one voltage: the max of their cores'
    // individual targets (a shared rail cannot rest one core while
    // another sprints).  Per-core-rail clusters — the paper's machine —
    // skip this entirely.
    for (int k = 0; k < topo.numClusters(); ++k) {
        if (topo.cluster(k).domain != DvfsDomain::per_cluster ||
            topo.cluster(k).count == 0)
            continue;
        const int begin = topo.clusterBegin(k);
        const int end = begin + topo.cluster(k).count;
        double rail = out[begin];
        for (int i = begin + 1; i < end; ++i)
            rail = std::max(rail, out[i]);
        for (int i = begin; i < end; ++i)
            out[i] = rail;
    }
}

} // namespace aaws
