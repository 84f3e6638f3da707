/**
 * @file
 * AAWS runtime variants (the configurations of Figures 7-9).
 *
 * Every variant builds on the paper's aggressive baseline, which already
 * includes the two simple asymmetry-aware techniques of Section III-C
 * (serial-sprinting and work-biasing):
 *
 *   base      : baseline work-stealing runtime
 *   base+p    : + work-pacing
 *   base+ps   : + work-pacing + work-sprinting
 *   base+psm  : + work-pacing + work-sprinting + work-mugging (full AAWS)
 *   base+m    : + work-mugging only (no marginal-utility techniques)
 */

#ifndef AAWS_AAWS_VARIANT_H
#define AAWS_AAWS_VARIANT_H

#include <string>
#include <vector>

#include "sched/policy_stack.h"

namespace aaws {

/** Which subset of the AAWS techniques a run enables. */
enum class Variant
{
    base,
    base_p,
    base_ps,
    base_psm,
    base_m,
};

/** All variants in the paper's presentation order. */
const std::vector<Variant> &allVariants();

/** Display name ("base", "base+p", ...). */
const char *variantName(Variant v);

/** Parse a display name; fatal() on unknown names. */
Variant variantFromName(const std::string &name);

/**
 * The variant as a scheduling-policy assembly — what a simulated
 * machine (`MachineConfig::policy`) or a native pool
 * (`PoolOptions::policy`) consumes.
 * Victim selection stays at its default (occupancy); the ablation
 * benches override it separately.
 */
sched::PolicyConfig policyConfigFor(Variant v);

} // namespace aaws

#endif // AAWS_AAWS_VARIANT_H
