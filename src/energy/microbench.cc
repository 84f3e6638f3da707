#include "energy/microbench.h"

#include "common/logging.h"

namespace aaws {

namespace {

constexpr int kNumEvents = static_cast<int>(EnergyEvent::num_events);

const char *const kEventNames[kNumEvents] = {
    "icache_access", "dcache_access", "regfile_read", "regfile_write",
    "int_alu",       "int_mul",       "int_div",      "fp_add",
    "fp_mul",        "fp_div",        "branch",       "pipeline_ctrl",
    "rename_dispatch", "rob_lsq",     "bpred",
};

} // namespace

const char *
energyEventName(EnergyEvent event)
{
    int idx = static_cast<int>(event);
    AAWS_ASSERT(idx >= 0 && idx < kNumEvents, "bad event %d", idx);
    return kEventNames[idx];
}

EventEnergyTable
EventEnergyTable::littleCore()
{
    // Per-event energies (pJ at 1.0 V) representative of a 65 nm LP
    // single-issue in-order scalar core with 16 KB L1s, in the spirit of
    // the paper's placed-and-routed measurements.
    EventEnergyTable table;
    auto set_l = [&](EnergyEvent e, double pj) {
        table.pj_[static_cast<int>(e)] = pj;
    };
    set_l(EnergyEvent::icache_access, 8.0);
    set_l(EnergyEvent::dcache_access, 10.0);
    set_l(EnergyEvent::regfile_read, 1.0);
    set_l(EnergyEvent::regfile_write, 1.5);
    set_l(EnergyEvent::int_alu, 2.0);
    set_l(EnergyEvent::int_mul, 8.0);
    set_l(EnergyEvent::int_div, 20.0);
    set_l(EnergyEvent::fp_add, 6.0);
    set_l(EnergyEvent::fp_mul, 10.0);
    set_l(EnergyEvent::fp_div, 25.0);
    set_l(EnergyEvent::branch, 1.0);
    set_l(EnergyEvent::pipeline_ctrl, 4.0);
    // The little in-order core has no rename/ROB/branch-predictor energy.
    set_l(EnergyEvent::rename_dispatch, 0.0);
    set_l(EnergyEvent::rob_lsq, 0.0);
    set_l(EnergyEvent::bpred, 0.0);
    return table;
}

EventEnergyTable
EventEnergyTable::bigCore()
{
    // Shared components scaled by port/associativity factors (the paper
    // normalizes McPAT components against the shared ALU and register
    // file), plus out-of-order-only structures.
    EventEnergyTable table;
    auto set_b = [&](EnergyEvent e, double pj) {
        table.pj_[static_cast<int>(e)] = pj;
    };
    set_b(EnergyEvent::icache_access, 9.5);   // wider fetch
    set_b(EnergyEvent::dcache_access, 13.0);  // 2-way, LSQ-facing
    set_b(EnergyEvent::regfile_read, 2.2);    // more ports, 128 regs
    set_b(EnergyEvent::regfile_write, 3.0);
    set_b(EnergyEvent::int_alu, 2.0);         // normalization anchor
    set_b(EnergyEvent::int_mul, 8.0);
    set_b(EnergyEvent::int_div, 20.0);
    set_b(EnergyEvent::fp_add, 6.5);
    set_b(EnergyEvent::fp_mul, 11.0);
    set_b(EnergyEvent::fp_div, 27.0);
    set_b(EnergyEvent::branch, 1.2);
    set_b(EnergyEvent::pipeline_ctrl, 13.0);  // 4-wide control/bypass
    set_b(EnergyEvent::rename_dispatch, 11.0);
    set_b(EnergyEvent::rob_lsq, 9.0);
    set_b(EnergyEvent::bpred, 4.0);
    return table;
}

double
EventEnergyTable::energyPj(EnergyEvent event) const
{
    int idx = static_cast<int>(event);
    AAWS_ASSERT(idx >= 0 && idx < kNumEvents, "bad event %d", idx);
    return pj_[idx];
}

double
EventEnergyTable::scaleToVoltage(double pj_nominal, double v, double v_nom)
{
    return pj_nominal * (v * v) / (v_nom * v_nom);
}

std::vector<Microbench>
makeMicrobenchSuite()
{
    // Every microbenchmark isolates one instruction class executed from a
    // warm instruction cache (paper Section IV-E).  Counts are events per
    // instruction.  All instructions pay fetch, pipeline control, and the
    // big-only OoO bookkeeping events; class-specific events on top.
    auto base = [](const char *name) {
        Microbench mb;
        mb.name = name;
        auto at = [&mb](EnergyEvent e) -> double & {
            return mb.counts[static_cast<int>(e)];
        };
        at(EnergyEvent::icache_access) = 1.0;
        at(EnergyEvent::pipeline_ctrl) = 1.0;
        at(EnergyEvent::rename_dispatch) = 1.0;
        at(EnergyEvent::rob_lsq) = 1.0;
        at(EnergyEvent::bpred) = 1.0;
        return mb;
    };
    auto with = [](Microbench mb,
                   std::initializer_list<std::pair<EnergyEvent, double>>
                       extra) {
        for (auto [e, c] : extra)
            mb.counts[static_cast<int>(e)] += c;
        return mb;
    };
    using E = EnergyEvent;

    std::vector<Microbench> suite;
    suite.push_back(with(base("addiu"), {{E::regfile_read, 1.0},
                                         {E::regfile_write, 1.0},
                                         {E::int_alu, 1.0}}));
    suite.push_back(with(base("addu"), {{E::regfile_read, 2.0},
                                        {E::regfile_write, 1.0},
                                        {E::int_alu, 1.0}}));
    suite.push_back(with(base("mul"), {{E::regfile_read, 2.0},
                                       {E::regfile_write, 1.0},
                                       {E::int_mul, 1.0}}));
    suite.push_back(with(base("div"), {{E::regfile_read, 2.0},
                                       {E::regfile_write, 1.0},
                                       {E::int_div, 1.0}}));
    suite.push_back(with(base("lw"), {{E::regfile_read, 1.0},
                                      {E::regfile_write, 1.0},
                                      {E::int_alu, 1.0},
                                      {E::dcache_access, 1.0}}));
    suite.push_back(with(base("sw"), {{E::regfile_read, 2.0},
                                      {E::int_alu, 1.0},
                                      {E::dcache_access, 1.0}}));
    suite.push_back(with(base("fadd"), {{E::regfile_read, 2.0},
                                        {E::regfile_write, 1.0},
                                        {E::fp_add, 1.0}}));
    suite.push_back(with(base("fmul"), {{E::regfile_read, 2.0},
                                        {E::regfile_write, 1.0},
                                        {E::fp_mul, 1.0}}));
    suite.push_back(with(base("fdiv"), {{E::regfile_read, 2.0},
                                        {E::regfile_write, 1.0},
                                        {E::fp_div, 1.0}}));
    suite.push_back(with(base("beq"), {{E::regfile_read, 2.0},
                                       {E::int_alu, 1.0},
                                       {E::branch, 1.0}}));
    suite.push_back(with(base("jal"), {{E::regfile_write, 1.0},
                                       {E::branch, 1.0}}));
    suite.push_back(with(base("nop"), {}));
    return suite;
}

double
microbenchEnergyPj(const EventEnergyTable &table, const Microbench &mb)
{
    double pj = 0.0;
    for (int i = 0; i < kNumEvents; ++i)
        pj += mb.counts[i] * table.energyPj(static_cast<EnergyEvent>(i));
    return pj;
}

double
deriveAlpha(const EventEnergyTable &big, const EventEnergyTable &little,
            const std::vector<Microbench> &suite)
{
    AAWS_ASSERT(!suite.empty(), "empty microbenchmark suite");
    double total_big = 0.0;
    double total_little = 0.0;
    for (const auto &mb : suite) {
        total_big += microbenchEnergyPj(big, mb);
        total_little += microbenchEnergyPj(little, mb);
    }
    return total_big / total_little;
}

} // namespace aaws
