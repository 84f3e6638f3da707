/**
 * @file
 * Per-application instruction mixes and the component-level
 * energy-per-instruction model built on them.
 *
 * This completes the paper's Section IV-E method: the microbenchmark
 * table (energy/microbench.h) gives per-event energies; an
 * application's instruction mix converts them into an average energy
 * per instruction for each core type, and the big/little ratio of
 * those is an independently derived alpha that can be cross-checked
 * against the ERatio column of Table III.
 */

#ifndef AAWS_ENERGY_INSTR_MIX_H
#define AAWS_ENERGY_INSTR_MIX_H

#include <string>

#include "energy/microbench.h"

namespace aaws {

/**
 * Dynamic instruction-class fractions of one application.  Fractions
 * are of all retired instructions; the remainder (1 - sum of the
 * class fractions) is plain integer ALU work.
 */
struct InstrMix
{
    double loads = 0.2;
    double stores = 0.1;
    double int_mul = 0.0;
    double int_div = 0.0;
    double fp_add = 0.0;
    double fp_mul = 0.0;
    double fp_div = 0.0;
    double branches = 0.15;

    /** Fraction left for plain integer ALU operations. */
    double aluFraction() const;

    /** Panic unless all fractions are sane and sum to <= 1. */
    void validate() const;
};

/**
 * Representative instruction mix for a Table III kernel (by name);
 * fatal() on unknown kernels.  Mixes are assigned by algorithm class:
 * pointer-chasing graph kernels are load/branch heavy, sorting is
 * compare/branch heavy, numerical kernels are FP heavy, and so on.
 */
const InstrMix &instrMixFor(const std::string &kernel);

/**
 * Average energy per instruction in picojoules at nominal voltage on
 * the table's core, composing the per-event energies with the mix.
 */
double energyPerInstrPj(const EventEnergyTable &table, const InstrMix &mix);

/**
 * The big/little energy-per-instruction ratio the component model
 * implies for this mix -- an independently derived alpha.
 */
double componentAlpha(const EventEnergyTable &big,
                      const EventEnergyTable &little, const InstrMix &mix);

} // namespace aaws

#endif // AAWS_ENERGY_INSTR_MIX_H
