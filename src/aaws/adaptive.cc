#include "aaws/adaptive.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aaws {

namespace {

/** Metrics of one evaluation run. */
struct Eval
{
    double seconds = 0.0;
    double power = 0.0;
    double edp = 0.0;
    std::vector<double> occupancy;
};

Eval
evaluate(const Kernel &kernel, MachineConfig config,
         const DvfsLookupTable &table)
{
    config.table_override = &table;
    SimResult result = Machine(config, kernel.dag).run();
    Eval eval;
    eval.seconds = result.exec_seconds;
    eval.power = result.avg_power;
    eval.edp = result.energy * result.exec_seconds;
    eval.occupancy = result.occupancy_seconds;
    return eval;
}

bool
sameVoltages(const DvfsTableEntry &a, const DvfsTableEntry &b)
{
    for (size_t k = 0; k < a.v.size(); ++k)
        if (std::abs(a.v[k] - b.v[k]) >= 1e-9)
            return false;
    return true;
}

} // namespace

AdaptiveReport
adaptDvfsTable(const Kernel &kernel, const MachineConfig &config,
               const AdaptiveOptions &options)
{
    AAWS_ASSERT(options.voltage_step > 0.0 && options.max_accepted >= 0,
                "bad adaptive options");
    FirstOrderModel designer(config.table_params);
    const double v_min = config.table_params.v_min;
    const double v_max = config.table_params.v_max;

    AdaptiveReport report{
        DvfsLookupTable(designer,
                        makeTopology(config.topology, config.table_params)),
        0, 0, 0, 0, 0, 0, {}};
    const CoreTopology &topo = report.table.topology();

    Eval best = evaluate(kernel, config, report.table);
    report.static_seconds = best.seconds;
    report.static_edp = best.edp;
    report.static_power = best.power;
    double power_cap = best.power * options.power_slack;

    std::vector<int> counts;
    while (static_cast<int>(report.accepted.size()) <
           options.max_accepted) {
        // Rank entries by observed occupancy time (the counters a real
        // adaptive controller samples).  Cell 0 is the all-idle census,
        // whose voltages are unused.
        std::vector<std::pair<double, int>> ranked;
        for (size_t i = 1; i < best.occupancy.size(); ++i) {
            if (best.occupancy[i] > 1e-9)
                ranked.push_back({best.occupancy[i],
                                  static_cast<int>(i)});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        if (ranked.size() >
            static_cast<size_t>(options.entries_per_pass)) {
            ranked.resize(options.entries_per_pass);
        }

        bool improved = false;
        for (const auto &[occ, cell] : ranked) {
            (void)occ;
            const DvfsTableEntry current = report.table.atIndex(cell);
            // Two axis-aligned voltage perturbations per cluster; skip
            // clusters with no active core in this entry.
            topo.censusFromIndex(cell, counts);
            std::vector<DvfsTableEntry> trials;
            for (int k = 0; k < topo.numClusters(); ++k) {
                if (counts[k] == 0)
                    continue;
                for (double step :
                     {options.voltage_step, -options.voltage_step}) {
                    trials.push_back(current);
                    trials.back().v[k] =
                        std::clamp(current.v[k] + step, v_min, v_max);
                }
            }
            for (const DvfsTableEntry &entry : trials) {
                if (sameVoltages(entry, current))
                    continue; // clamped to the same point
                report.table.setEntryAt(cell, entry);
                Eval trial = evaluate(kernel, config, report.table);
                bool better = trial.edp < best.edp * 0.999 &&
                              trial.power <= power_cap;
                if (better) {
                    best = trial;
                    report.accepted.push_back({cell, entry.v, trial.edp});
                    improved = true;
                    break; // greedy: re-rank with fresh counters
                }
                report.table.setEntryAt(cell, current); // revert
            }
            if (improved)
                break;
        }
        if (!improved)
            break;
    }

    report.tuned_seconds = best.seconds;
    report.tuned_edp = best.edp;
    report.tuned_power = best.power;
    return report;
}

} // namespace aaws
