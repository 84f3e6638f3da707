/**
 * @file
 * Lookup-table DVFS policy (Section III-A), generalized to N clusters.
 *
 * The controller maps the activity census — how many cores of each
 * cluster are active — to per-cluster supply voltages.  For the
 * paper's 4B4L system the census is the (active-big, active-little)
 * pair and the table has 25 entries; an N-cluster topology gets one
 * cell per census tuple, prod_k (count_k + 1) in total, indexed by the
 * topology's mixed-radix censusIndex() (fastest cluster most
 * significant).
 *
 * Entries are generated offline from the marginal-utility optimizer
 * (model/cluster_opt.h) using a single system-wide parameter estimate;
 * waiting cores rest at v_min and the power target is the all-nominal
 * system power (Eq. 6).  One loop visits every census cell.  The
 * paper's big/little topologies (CoreTopology::isBigLittle) take the
 * two-cluster search, the paper's Fig. 3/5 method; everything else
 * takes the equi-marginal search.  Table generation is
 * DVFS-domain-agnostic: a per_cluster shared rail constrains how the
 * controller *applies* voltages (dvfs/controller.h), not which
 * operating points the designer tabulates.
 */

#ifndef AAWS_DVFS_LOOKUP_TABLE_H
#define AAWS_DVFS_LOOKUP_TABLE_H

#include <vector>

#include "model/cluster_opt.h"
#include "model/topology.h"

namespace aaws {

/** One census tuple -> per-cluster voltages entry. */
struct DvfsTableEntry
{
    /** Voltage for the active cores of each cluster, fastest first. */
    std::vector<double> v;
    /** Model-predicted speedup of the entry. */
    double speedup = 1.0;
};

/**
 * The full per-census voltage table for one machine topology.
 *
 * A table is immutable once built: it has no mutator, so machines with
 * the same designer parameters and shape share one (the simulator's
 * `sharedDvfsTable`), across threads, without locking.
 */
class DvfsLookupTable
{
  public:
    /**
     * Generate the table for an arbitrary topology with the
     * marginal-utility optimizer.
     *
     * @param model First-order model with the system-wide parameter
     *              estimates used by the hardware designer.
     * @param topology Machine shape; class parameters should be derived
     *              from the *same* model (CoreTopology::retargeted).
     */
    DvfsLookupTable(const FirstOrderModel &model,
                    const CoreTopology &topology);

    /** Entry for a census tuple (one active count per cluster). */
    const DvfsTableEntry &atCounts(const std::vector<int> &counts) const;

    /** Entry by mixed-radix census index. */
    const DvfsTableEntry &
    atIndex(int index) const
    {
        return entries_[index];
    }

    /** The topology the table was generated for. */
    const CoreTopology &topology() const { return topology_; }

    int numClusters() const { return topology_.numClusters(); }

    /** Number of entries (prod (count_k + 1); 25 for 4B4L). */
    int size() const { return static_cast<int>(entries_.size()); }

  private:
    void generate(const FirstOrderModel &model);

    CoreTopology topology_;
    std::vector<DvfsTableEntry> entries_;
};

} // namespace aaws

#endif // AAWS_DVFS_LOOKUP_TABLE_H
