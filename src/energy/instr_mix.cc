#include "energy/instr_mix.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace aaws {

double
InstrMix::aluFraction() const
{
    return 1.0 - (loads + stores + int_mul + int_div + fp_add + fp_mul +
                  fp_div + branches);
}

void
InstrMix::validate() const
{
    for (double f : {loads, stores, int_mul, int_div, fp_add, fp_mul,
                     fp_div, branches}) {
        AAWS_ASSERT(f >= 0.0 && f <= 1.0, "fraction %f out of range", f);
    }
    AAWS_ASSERT(aluFraction() >= -1e-9,
                "instruction-class fractions exceed 1");
}

namespace {

/** Named mixes by algorithm class. */
InstrMix
graphMix()
{
    // Pointer chasing: load/branch dominated, no FP.
    InstrMix mix;
    mix.loads = 0.34;
    mix.stores = 0.10;
    mix.branches = 0.22;
    return mix;
}

InstrMix
sortMix()
{
    // Compare-and-swap loops: loads, stores, branches.
    InstrMix mix;
    mix.loads = 0.28;
    mix.stores = 0.14;
    mix.branches = 0.20;
    return mix;
}

InstrMix
hashMix()
{
    // Hashing: multiplies plus memory traffic.
    InstrMix mix;
    mix.loads = 0.26;
    mix.stores = 0.12;
    mix.int_mul = 0.06;
    mix.branches = 0.14;
    return mix;
}

InstrMix
fpMix()
{
    // Dense numerical kernels.
    InstrMix mix;
    mix.loads = 0.24;
    mix.stores = 0.10;
    mix.fp_add = 0.16;
    mix.fp_mul = 0.16;
    mix.branches = 0.08;
    return mix;
}

InstrMix
fpDivMix()
{
    // Black-Scholes-style: transcendental approximations with divides.
    InstrMix mix;
    mix.loads = 0.20;
    mix.stores = 0.08;
    mix.fp_add = 0.14;
    mix.fp_mul = 0.16;
    mix.fp_div = 0.04;
    mix.branches = 0.08;
    return mix;
}

InstrMix
searchMix()
{
    // Branch-and-bound / tree search: branch heavy, light memory.
    InstrMix mix;
    mix.loads = 0.18;
    mix.stores = 0.06;
    mix.branches = 0.26;
    return mix;
}

const std::vector<std::pair<const char *, InstrMix>> &
mixTable()
{
    static const std::vector<std::pair<const char *, InstrMix>> table = {
        {"bfs-d", graphMix()},    {"bfs-nd", graphMix()},
        {"qsort-1", sortMix()},   {"qsort-2", sortMix()},
        {"sampsort", sortMix()},  {"dict", hashMix()},
        {"hull", fpMix()},        {"radix-1", sortMix()},
        {"radix-2", sortMix()},   {"knn", fpMix()},
        {"mis", graphMix()},      {"nbody", fpMix()},
        {"rdups", hashMix()},     {"sarray", sortMix()},
        {"sptree", graphMix()},   {"clsky", fpMix()},
        {"cilksort", sortMix()},  {"heat", fpMix()},
        {"ksack", searchMix()},   {"matmul", fpMix()},
        {"bscholes", fpDivMix()}, {"uts", hashMix()},
    };
    return table;
}

} // namespace

const InstrMix &
instrMixFor(const std::string &kernel)
{
    for (const auto &[name, mix] : mixTable()) {
        if (kernel == name)
            return mix;
    }
    fatal("no instruction mix for kernel '%s'", kernel.c_str());
}

double
energyPerInstrPj(const EventEnergyTable &table, const InstrMix &mix)
{
    mix.validate();
    auto event = [&](EnergyEvent e) { return table.energyPj(e); };

    // Every instruction: fetch, pipeline control, and (big only, where
    // the table is non-zero) rename/ROB/branch-predictor bookkeeping.
    double pj = event(EnergyEvent::icache_access) +
                event(EnergyEvent::pipeline_ctrl) +
                event(EnergyEvent::rename_dispatch) +
                event(EnergyEvent::rob_lsq) + event(EnergyEvent::bpred);
    // Register traffic: ~1.6 reads and ~0.8 writes per instruction.
    pj += 1.6 * event(EnergyEvent::regfile_read) +
          0.8 * event(EnergyEvent::regfile_write);
    // Class-specific functional/memory events.
    pj += (mix.loads + mix.stores) * event(EnergyEvent::dcache_access);
    pj += mix.int_mul * event(EnergyEvent::int_mul);
    pj += mix.int_div * event(EnergyEvent::int_div);
    pj += mix.fp_add * event(EnergyEvent::fp_add);
    pj += mix.fp_mul * event(EnergyEvent::fp_mul);
    pj += mix.fp_div * event(EnergyEvent::fp_div);
    pj += mix.branches * event(EnergyEvent::branch);
    // Address generation / plain ALU work.
    pj += (mix.aluFraction() + mix.loads + mix.stores) *
          event(EnergyEvent::int_alu);
    return pj;
}

double
componentAlpha(const EventEnergyTable &big, const EventEnergyTable &little,
               const InstrMix &mix)
{
    return energyPerInstrPj(big, mix) / energyPerInstrPj(little, mix);
}

} // namespace aaws
