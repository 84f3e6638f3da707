/**
 * @file
 * Figure 3 reproduction: power vs performance curves of each core type
 * across the DVFS range (a), and total throughput plus per-type
 * marginal costs along the isopower constraint of the fully busy 4B4L
 * system (b), with the optimal (star) and feasible (dot) points.
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

    std::printf("=== Figure 3a: per-core power vs performance ===\n");
    std::printf("voltage,ips_little,power_little,ips_big,power_big\n");
    for (double v = 0.7; v <= 1.305; v += 0.05) {
        std::printf("%.2f,%.4g,%.4g,%.4g,%.4g\n", v,
                    model.ips(little, v), model.activePower(little, v),
                    model.ips(big, v), model.activePower(big, v));
    }

    std::printf("\n=== Figure 3b: IPS_tot and marginal costs along the "
                "isopower constraint ===\n");
    ClusterActivity hp{{4, 4}, {0, 0}};
    double target = opt.targetPower(hp);
    std::printf("v_big,v_little,ips_norm,dP/dIPS_big,dP/dIPS_little\n");
    double ips_nom = opt.activeIps(hp, {1.0, 1.0});
    for (double v_big = 0.70; v_big <= 1.001; v_big += 0.02) {
        // Solve V_L for the isopower constraint by bisection.
        double lo = 0.56;
        double hi = 8.0;
        for (int i = 0; i < 60; ++i) {
            double mid = 0.5 * (lo + hi);
            (opt.systemPower(hp, {v_big, mid}) < target ? lo : hi) = mid;
        }
        double v_little = 0.5 * (lo + hi);
        std::printf("%.2f,%.3f,%.4f,%.4g,%.4g\n", v_big, v_little,
                    opt.activeIps(hp, {v_big, v_little}) / ips_nom,
                    model.marginalCost(big, v_big),
                    model.marginalCost(little, v_little));
    }

    ClusterOperatingPoint star =
        opt.solveTwoCluster(hp, target, /*feasible=*/false);
    ClusterOperatingPoint dot =
        opt.solveTwoCluster(hp, target, /*feasible=*/true);
    cli.results.add("hp_operating_point", "optimal_v_big", star.v[0]);
    cli.results.add("hp_operating_point", "optimal_v_little", star.v[1]);
    cli.results.add("hp_operating_point", "optimal_speedup",
                    star.speedup);
    cli.results.add("hp_operating_point", "feasible_v_big", dot.v[0]);
    cli.results.add("hp_operating_point", "feasible_v_little", dot.v[1]);
    cli.results.add("hp_operating_point", "feasible_speedup",
                    dot.speedup);
    std::printf("\noptimal  (star): V_B=%.2f V V_L=%.2f V speedup=%.2fx"
                "   [paper: 0.86 / 1.44 / 1.12]\n",
                star.v[0], star.v[1], star.speedup);
    std::printf("feasible (dot) : V_B=%.2f V V_L=%.2f V speedup=%.2fx"
                "   [paper: 0.93 / 1.30 / 1.10]\n",
                dot.v[0], dot.v[1], dot.speedup);
    return 0;
}
