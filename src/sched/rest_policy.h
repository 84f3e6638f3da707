/**
 * @file
 * Rest/sprint intent policy: the decision half of the DVFS controller.
 *
 * The paper's controller (Section III-A, Figure 6) reads the activity
 * census plus a serial-region hint and decides, per core, whether to
 * rest it at V_min, sprint it from the marginal-utility lookup table,
 * sprint it flat-out at V_max, or leave it at nominal.  Those four
 * *intents* are pure scheduling policy — serial-sprinting,
 * work-pacing, and work-sprinting are exactly which intents are
 * reachable — while the voltage each intent maps to is the lookup
 * table's business.  `RestPolicy` computes the intents, and the DVFS
 * controller (dvfs/controller.h) maps them to volts.
 */

#ifndef AAWS_SCHED_REST_POLICY_H
#define AAWS_SCHED_REST_POLICY_H

#include <cstdint>

namespace aaws {
namespace sched {

/** Per-core voltage intent; the lookup table maps intents to volts. */
enum class VoltageIntent : uint8_t
{
    nominal,      ///< Stay at V_nom (asymmetry-oblivious).
    rest,         ///< Rest at V_min (work-sprinting's waiting cores).
    sprint_table, ///< Marginal-utility table entry for the census.
    sprint_max,   ///< Flat-out V_max (serial-sprinting).
};

/** Decides each core's voltage intent from the activity census. */
class RestPolicy
{
  public:
    /**
     * @param serial_sprinting Sprint the lone core of a truly serial
     *        region (part of the paper's aggressive baseline).
     * @param work_pacing Apply the marginal-utility table when every
     *        core is active.
     * @param work_sprinting Rest waiting cores and sprint active ones
     *        in low-parallel regions.
     */
    RestPolicy(bool serial_sprinting, bool work_pacing,
               bool work_sprinting)
        : serial_sprinting_(serial_sprinting), work_pacing_(work_pacing),
          work_sprinting_(work_sprinting)
    {
    }

    /**
     * Intent for one core.
     *
     * @param core_active The core's activity-hint bit.
     * @param is_serial_core This core raised the serial-region hint.
     * @param serial_hinted Any core raised the serial-region hint.
     * @param all_active Every core's activity bit is high.
     */
    VoltageIntent
    intentFor(bool core_active, bool is_serial_core, bool serial_hinted,
              bool all_active) const
    {
        if (serial_hinted && serial_sprinting_) {
            if (is_serial_core)
                return VoltageIntent::sprint_max;
            // The paper's controller only rests the idlers when
            // work-sprinting is available; otherwise they spin at
            // nominal.
            return work_sprinting_ ? VoltageIntent::rest
                                   : VoltageIntent::nominal;
        }
        if (all_active) {
            return work_pacing_ ? VoltageIntent::sprint_table
                                : VoltageIntent::nominal;
        }
        if (!work_sprinting_)
            return VoltageIntent::nominal;
        return core_active ? VoltageIntent::sprint_table
                           : VoltageIntent::rest;
    }

  private:
    bool serial_sprinting_;
    bool work_pacing_;
    bool work_sprinting_;
};

} // namespace sched
} // namespace aaws

#endif // AAWS_SCHED_REST_POLICY_H
