/**
 * @file
 * Figure 5 reproduction: the low-parallel-region counterpart of
 * Figure 3 -- a 4B4L system with 2 big + 2 little cores active and the
 * waiting cores resting at V_min, freeing power slack for the active
 * cores.
 */

#include <cstdio>

#include "exp/cli.h"
#include "model/cluster_opt.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    FirstOrderModel model;
    CoreTopology machine = makeTopology("4b4l", model.params());
    const ClusterParams &big = machine.cluster(0).params;
    const ClusterParams &little = machine.cluster(1).params;
    ClusterOptimizer opt(model, machine);
    ClusterActivity lp{{2, 2}, {2, 2}};
    double target = opt.targetPower(ClusterActivity{{4, 4}, {0, 0}});

    std::printf("=== Figure 5: 4B4L with 2B2L active, waiters resting "
                "at V_min ===\n\n");
    std::printf("v_big,v_little,ips_norm,dP/dIPS_big,dP/dIPS_little\n");
    double ips_nom = opt.activeIps(lp, {1.0, 1.0});
    for (double v_big = 0.80; v_big <= 1.21; v_big += 0.02) {
        double lo = 0.56;
        double hi = 8.0;
        for (int i = 0; i < 60; ++i) {
            double mid = 0.5 * (lo + hi);
            (opt.systemPower(lp, {v_big, mid}) < target ? lo : hi) = mid;
        }
        double v_little = 0.5 * (lo + hi);
        std::printf("%.2f,%.3f,%.4f,%.4g,%.4g\n", v_big, v_little,
                    opt.activeIps(lp, {v_big, v_little}) / ips_nom,
                    model.marginalCost(big, v_big),
                    model.marginalCost(little, v_little));
    }

    ClusterOperatingPoint star =
        opt.solveTwoCluster(lp, target, /*feasible=*/false);
    ClusterOperatingPoint dot =
        opt.solveTwoCluster(lp, target, /*feasible=*/true);
    cli.results.add("lp_operating_point", "optimal_v_big", star.v[0]);
    cli.results.add("lp_operating_point", "optimal_v_little", star.v[1]);
    cli.results.add("lp_operating_point", "optimal_speedup",
                    star.speedup);
    cli.results.add("lp_operating_point", "feasible_v_big", dot.v[0]);
    cli.results.add("lp_operating_point", "feasible_v_little", dot.v[1]);
    cli.results.add("lp_operating_point", "feasible_speedup",
                    dot.speedup);
    std::printf("\noptimal  (star): V_B=%.2f V V_L=%.2f V speedup=%.2fx"
                "   [paper: 1.02 / 1.70 / 1.55]\n",
                star.v[0], star.v[1], star.speedup);
    std::printf("feasible (dot) : V_B=%.2f V V_L=%.2f V speedup=%.2fx"
                "   [paper: 1.16 / 1.30 / 1.45]\n",
                dot.v[0], dot.v[1], dot.speedup);

    // Single-remaining-task comparison from Section II-D.
    ClusterActivity one_little{{0, 1}, {4, 3}};
    ClusterActivity one_big{{1, 0}, {3, 4}};
    auto solve = [&](const ClusterActivity &act, bool feasible) {
        return opt.solveTwoCluster(act, target, feasible);
    };
    ClusterOperatingPoint l_opt = solve(one_little, false);
    ClusterOperatingPoint l_fea = solve(one_little, true);
    ClusterOperatingPoint b_opt = solve(one_big, false);
    ClusterOperatingPoint b_fea = solve(one_big, true);
    double ips_little_nom = model.ips(little, 1.0);
    cli.results.add("single_task", "little_optimal_v", l_opt.v[1]);
    cli.results.add("single_task", "little_speedup",
                    l_fea.ips / ips_little_nom);
    cli.results.add("single_task", "big_optimal_v", b_opt.v[0]);
    cli.results.add("single_task", "big_speedup",
                    b_fea.ips / ips_little_nom);
    std::printf("\nsingle remaining task:\n");
    std::printf("  on little: optimal V_L=%.2f V, feasible %.2f V -> "
                "%.2fx vs little@V_N   [paper: 2.59 / 1.3 / 1.6]\n",
                l_opt.v[1], l_fea.v[1], l_fea.ips / ips_little_nom);
    std::printf("  on big   : optimal V_B=%.2f V, feasible %.2f V -> "
                "%.2fx vs little@V_N   [paper: 1.51 / 1.3 / 3.3]\n",
                b_opt.v[0], b_fea.v[0], b_fea.ips / ips_little_nom);
    return 0;
}
