/**
 * @file
 * Per-core energy accounting (Section IV-E analog).
 *
 * Integrates the first-order power model (Eq. 4) over the timeline of
 * every core of a CoreTopology, each at its cluster's class parameters,
 * split by power state: executing useful work, busy-waiting in the
 * steal loop at nominal voltage, or resting in the steal loop at v_min.
 * The breakdown is what the paper's "detailed energy breakdown data"
 * discussion in Section V-C relies on (e.g. work-mugging reduces
 * busy-waiting energy).
 */

#ifndef AAWS_ENERGY_ACCOUNTANT_H
#define AAWS_ENERGY_ACCOUNTANT_H

#include <vector>

#include "model/first_order.h"

namespace aaws {

/** Power state of a core for energy-integration purposes. */
enum class PowerState
{
    active,  ///< Executing a task (full dynamic activity).
    waiting, ///< Spinning in the steal loop (reduced dynamic activity).
    off      ///< Before boot / after completion (leakage ignored).
};

/** Energy totals for one core, in model units (joules if powers are W). */
struct CoreEnergy
{
    double active = 0.0;
    double waiting = 0.0;

    double total() const { return active + waiting; }
};

/**
 * Timeline integrator: cores report (state, voltage) changes and the
 * accountant charges the elapsed interval at the previous setting.
 */
class EnergyAccountant
{
  public:
    /**
     * Account for the topology's cores (fastest cluster first, the
     * engine core numbering).  @param model Borrowed; must outlive the
     * accountant.
     */
    EnergyAccountant(const FirstOrderModel &model,
                     const CoreTopology &topology);

    /**
     * Record that `core` is in `state` at voltage `v` from time `now`
     * (seconds) onward; the interval since its previous report is charged
     * at the previous setting.  Times must be non-decreasing per core.
     */
    void setState(int core, double now, PowerState state, double v);

    /** Close all timelines at `now` and charge the final intervals. */
    void finish(double now);

    /** Per-core totals (valid after finish()). */
    const CoreEnergy &coreEnergy(int core) const;

    /** Whole-system energy. */
    double totalEnergy() const;

    /** System energy spent busy-waiting in steal loops. */
    double waitingEnergy() const;

    /** Average power over [0, end] given the finish() time. */
    double averagePower() const;

  private:
    void charge(int core, double until);

    const FirstOrderModel &model_;
    /** Class parameters of the cluster each core belongs to. */
    std::vector<ClusterParams> core_params_;
    std::vector<CoreEnergy> energy_;
    std::vector<PowerState> state_;
    std::vector<double> voltage_;
    std::vector<double> last_time_;
    double end_time_ = 0.0;
    bool finished_ = false;
};

} // namespace aaws

#endif // AAWS_ENERGY_ACCOUNTANT_H
