#include "model/surface.h"

#include "common/logging.h"

namespace aaws {

std::vector<SurfaceCell>
speedupSurface(const ModelParams &base, const CoreTopology &topology,
               double alpha_lo, double alpha_hi, int alpha_steps,
               double beta_lo, double beta_hi, int beta_steps)
{
    AAWS_ASSERT(alpha_steps >= 1 && beta_steps >= 1, "bad step counts");
    AAWS_ASSERT(topology.numClusters() == 2,
                "Figure 4 sweeps a two-cluster machine");
    ClusterActivity busy{{topology.cluster(0).count,
                          topology.cluster(1).count},
                         {0, 0}};
    std::vector<SurfaceCell> cells;
    cells.reserve((alpha_steps + 1) * (beta_steps + 1));
    for (int i = 0; i <= alpha_steps; ++i) {
        double alpha = alpha_lo + (alpha_hi - alpha_lo) * i / alpha_steps;
        for (int j = 0; j <= beta_steps; ++j) {
            double beta = beta_lo + (beta_hi - beta_lo) * j / beta_steps;
            ModelParams p = base;
            p.alpha = alpha;
            p.beta = beta;
            FirstOrderModel model(p);
            CoreTopology shape = topology.retargeted(p);
            ClusterOptimizer opt(model, shape);
            double target = opt.targetPower(busy);
            SurfaceCell cell;
            cell.alpha = alpha;
            cell.beta = beta;
            cell.optimal_speedup =
                opt.solveTwoCluster(busy, target, /*feasible=*/false)
                    .speedup;
            cell.feasible_speedup =
                opt.solveTwoCluster(busy, target, /*feasible=*/true)
                    .speedup;
            cells.push_back(cell);
        }
    }
    return cells;
}

} // namespace aaws
