#include "model/pareto.h"

#include <cmath>

#include "common/logging.h"

namespace aaws {

ParetoSweep
paretoSweep(const FirstOrderModel &model, const CoreTopology &topology,
            int steps)
{
    AAWS_ASSERT(steps >= 2, "need at least a 2x2 grid");
    AAWS_ASSERT(topology.numClusters() == 2,
                "Figure 2 sweeps a two-cluster machine");

    const ModelParams &p = model.params();
    ClusterOptimizer opt(model, topology);
    // Fully busy: with no waiting core, the power sum is the two active
    // clusters' terms in either order.
    ClusterActivity busy{{topology.cluster(0).count,
                          topology.cluster(1).count},
                         {0, 0}};

    double ips_nom = opt.activeIps(busy, {p.v_nom, p.v_nom});
    double power_nom = opt.systemPower(busy, {p.v_nom, p.v_nom});

    ParetoSweep sweep;
    for (int i = 0; i <= steps; ++i) {
        double v_b = p.v_min + (p.v_max - p.v_min) * i / steps;
        for (int j = 0; j <= steps; ++j) {
            double v_l = p.v_min + (p.v_max - p.v_min) * j / steps;
            ParetoSample s;
            s.v_big = v_b;
            s.v_little = v_l;
            double ips = opt.activeIps(busy, {v_b, v_l});
            double power = opt.systemPower(busy, {v_b, v_l});
            s.perf = ips / ips_nom;
            s.efficiency = (ips / power) / (ips_nom / power_nom);
            s.power = power / power_nom;
            sweep.samples.push_back(s);
        }
    }

    // Mark the pareto frontier in (perf, efficiency) space.
    for (auto &s : sweep.samples) {
        s.pareto_optimal = true;
        for (const auto &other : sweep.samples) {
            bool dominates = other.perf >= s.perf &&
                             other.efficiency >= s.efficiency &&
                             (other.perf > s.perf ||
                              other.efficiency > s.efficiency);
            if (dominates) {
                s.pareto_optimal = false;
                break;
            }
        }
    }

    // Best isopower point: maximize perf among pareto points with
    // power <= nominal (the paper's open circle on the diagonal).
    double best_perf = -1.0;
    for (const auto &s : sweep.samples) {
        if (s.pareto_optimal && s.power <= 1.0 + 1e-9 &&
            s.perf > best_perf) {
            best_perf = s.perf;
            sweep.best_isopower = s;
        }
    }
    return sweep;
}

} // namespace aaws
