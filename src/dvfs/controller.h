/**
 * @file
 * Global lookup-table DVFS controller (Section III-A, Figure 6).
 *
 * The controller reads per-core activity bits (toggled by runtime hint
 * instructions) plus a serial-region hint and produces a target supply
 * voltage for every core:
 *
 *  - work-pacing: when every core is active, apply the marginal-utility
 *    table entry for the fully active system (big cores slow down, little
 *    cores speed up);
 *  - work-sprinting: when some cores wait in the steal loop, rest them at
 *    v_min and sprint the active cores with the table entry for the
 *    current activity census;
 *  - serial-sprinting: during a truly serial region, sprint the single
 *    active core to v_max (included in the paper's *baseline* runtime).
 *
 * The machine shape comes from the lookup table's CoreTopology: table
 * entries carry one voltage per cluster and each core receives its
 * cluster's voltage.  Clusters with a shared rail
 * (DvfsDomain::per_cluster) are then collapsed to the maximum of their
 * cores' individual targets — a shared rail cannot rest one core while
 * sprinting its neighbor.  The paper's per-core-rail machines never hit
 * that pass.
 *
 * Timing (transition latency, decision locking) is handled by the
 * simulator; this class is a pure activity -> voltages function.  The
 * *decision* half (which cores rest, sprint, or pace) is the
 * `sched::RestPolicy` component, and this class only maps the
 * resulting intents to volts through the lookup table.
 */

#ifndef AAWS_DVFS_CONTROLLER_H
#define AAWS_DVFS_CONTROLLER_H

#include <vector>

#include "dvfs/lookup_table.h"
#include "sched/census.h"
#include "sched/policy_stack.h"
#include "sched/rest_policy.h"

namespace aaws {

/**
 * Pure decision function of the global DVFS controller.
 */
class DvfsController
{
  public:
    /**
     * @param table Borrowed lookup table; must outlive the controller.
     *              Its topology defines the machine shape.
     * @param policy The policy assembly; only its voltage techniques
     *               (serial-sprinting, work-pacing, work-sprinting) apply.
     */
    DvfsController(const DvfsLookupTable &table,
                   const sched::PolicyConfig &policy, const ModelParams &mp);

    /**
     * Compute target voltages from the activity bits.
     *
     * @param active Activity bit per core (true = executing a task).
     * @param serial_core Core executing a hinted truly-serial region, or
     *                    -1 when no serial hint is raised.
     */
    std::vector<double> decide(const std::vector<bool> &active,
                               int serial_core) const;

    /**
     * Allocation-free variant of decide(): writes the target voltages
     * into `out` (resized/overwritten).  Recounts the census from the
     * activity bits.
     */
    void decideInto(const std::vector<bool> &active, int serial_core,
                    std::vector<double> &out) const;

    /**
     * Census-supplied variant: the caller maintains the activity
     * census incrementally (the simulator does, one update per hint
     * toggle) and `census` must equal a recount of `active`; sanitizer
     * builds (AAWS_SANITIZER_BUILD) assert that contract.  The
     * simulator calls this once per hint change, so it reuses one
     * buffer across the whole run.
     */
    void decideInto(const std::vector<bool> &active,
                    const sched::ActivityCensus &census, int serial_core,
                    std::vector<double> &out) const;

    int numCores() const { return table_.topology().numCores(); }

  private:
    const DvfsLookupTable &table_;
    sched::RestPolicy rest_;
    double v_nom_;
    double v_min_;
    double v_max_;
};

} // namespace aaws

#endif // AAWS_DVFS_CONTROLLER_H
