/**
 * @file
 * Activity census: the per-cluster active-core counts every AAWS
 * policy keys on.
 *
 * This is the software mirror of the paper's per-core activity bits
 * (Section III-A), generalized from the original (active-big,
 * active-little) pair to one count per CoreTopology cluster: the DVFS
 * controller indexes its lookup table by the census tuple, work-biasing
 * asks whether every faster cluster is busy, and the simulator's
 * occupancy accounting banks time per census cell.  The counts are
 * deliberately plain incremental counters so engines can maintain them
 * in O(1) on each transition; `recount()` recomputes from a bit vector
 * for callers that only have the raw bits.
 */

#ifndef AAWS_SCHED_CENSUS_H
#define AAWS_SCHED_CENSUS_H

#include <cstddef>
#include <vector>

#include "model/topology.h"

namespace aaws {
namespace sched {

/** Incremental count of active cores, one count per cluster. */
class ActivityCensus
{
  public:
    ActivityCensus() = default;

    /**
     * Census over the topology's clusters, fastest first.
     *
     * @param all_active Start with every core counted active (the
     *        paper's cores boot with their activity bits raised).
     */
    explicit ActivityCensus(const CoreTopology &topology,
                            bool all_active = false)
    {
        sizes_.reserve(topology.numClusters());
        for (const CoreCluster &cluster : topology.clusters())
            sizes_.push_back(cluster.count);
        counts_.assign(sizes_.size(), 0);
        if (all_active) {
            counts_ = sizes_;
            active_ = topology.numCores();
        }
    }

    /** Record one core's activity transition. */
    void
    note(int cluster, bool becomes_active)
    {
        int delta = becomes_active ? 1 : -1;
        counts_[cluster] += delta;
        active_ += delta;
    }

    /** Recompute the counts from per-core activity bits. */
    void
    recount(const std::vector<bool> &active,
            const std::vector<int> &cluster_of)
    {
        counts_.assign(sizes_.size(), 0);
        active_ = 0;
        for (std::size_t i = 0; i < active.size(); ++i) {
            if (active[i])
                note(cluster_of[i], true);
        }
    }

    int numClusters() const { return static_cast<int>(sizes_.size()); }
    int clusterActive(int cluster) const { return counts_[cluster]; }
    int clusterSize(int cluster) const { return sizes_[cluster]; }
    /** The census tuple itself (CoreTopology::censusIndex input). */
    const std::vector<int> &counts() const { return counts_; }
    int active() const { return active_; }

    /** Work-pacing predicate: is the whole machine busy? */
    bool
    allActive() const
    {
        for (std::size_t k = 0; k < sizes_.size(); ++k)
            if (counts_[k] != sizes_[k])
                return false;
        return true;
    }

    /** Are clusters [0, cluster) — everything faster — fully active? */
    bool
    allFasterActive(int cluster) const
    {
        for (int k = 0; k < cluster; ++k)
            if (counts_[k] != sizes_[k])
                return false;
        return true;
    }

  private:
    std::vector<int> sizes_;
    std::vector<int> counts_;
    int active_ = 0;
};

} // namespace sched
} // namespace aaws

#endif // AAWS_SCHED_CENSUS_H
