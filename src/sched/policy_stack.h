/**
 * @file
 * `PolicyConfig`: the one description of a scheduling-policy assembly.
 *
 * An AAWS runtime variant (base, base+p, ..., base+psm) is nothing but
 * a particular assembly of the policy components in this directory:
 * which victim selector, whether the steal gate biases, whether the mug
 * trigger is armed, and which voltage intents the rest policy may
 * emit.  `PolicyConfig` is that switch set, and every engine reads it
 * directly: `policyConfigFor` (src/aaws/) produces it, the simulator
 * holds it as `MachineConfig::policy`, the DVFS controller takes it,
 * and the native pools take it as `PoolOptions::policy`.  Both engines
 * build their `VictimSelector`, `StealGate` and `MugTrigger` values
 * from it; the `RestPolicy` is the simulator DVFS controller's alone,
 * since no native run drives a voltage.
 */

#ifndef AAWS_SCHED_POLICY_STACK_H
#define AAWS_SCHED_POLICY_STACK_H

#include "sched/victim.h"

namespace aaws {
namespace sched {

/** Flat description of a scheduling-policy assembly. */
struct PolicyConfig
{
    /**
     * Victim selection: occupancy (the baseline, following [Contreras &
     * Martonosi]) or random (the classic Cilk policy, kept for the
     * ablation bench).
     */
    VictimPolicy victim = VictimPolicy::occupancy;
    /** Work-biasing: little cores steal only when all bigs are busy. */
    bool work_biasing = true;
    /** Work-mugging: preemptive little-to-big migration. */
    bool work_mugging = false;
    /** Serial-sprinting: V_max the lone core of serial regions. */
    bool serial_sprinting = true;
    /** Work-pacing: marginal-utility voltages when fully active. */
    bool work_pacing = false;
    /** Work-sprinting: rest waiters, sprint workers in LP regions. */
    bool work_sprinting = false;
};

} // namespace sched
} // namespace aaws

#endif // AAWS_SCHED_POLICY_STACK_H
