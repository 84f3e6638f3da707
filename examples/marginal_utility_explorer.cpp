/**
 * @file
 * Domain example: explore the Section II marginal-utility model for
 * your own core parameters.
 *
 * Usage: marginal_utility_explorer [alpha] [beta] [n_big] [n_little]
 *
 * Prints the optimal and feasible operating points for every
 * (big-active, little-active) occupancy of the machine -- i.e. the DVFS
 * lookup table an AAWS controller would be built from -- plus the
 * predicted speedups.
 */

#include <cstdio>
#include <cstdlib>

#include "model/cluster_opt.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    ModelParams params;
    if (argc > 1)
        params.alpha = std::atof(argv[1]);
    if (argc > 2)
        params.beta = std::atof(argv[2]);
    int n_big = argc > 3 ? std::atoi(argv[3]) : 4;
    int n_little = argc > 4 ? std::atoi(argv[4]) : 4;
    if (params.alpha <= 0 || params.beta <= 0 || n_big < 0 ||
        n_little < 0 || n_big + n_little == 0) {
        std::fprintf(stderr,
                     "usage: %s [alpha>0] [beta>0] [n_big] [n_little]\n",
                     argv[0]);
        return 1;
    }

    FirstOrderModel model(params);
    CoreTopology machine = CoreTopology::bigLittle(n_big, n_little, params);
    ClusterOptimizer opt(model, machine);
    std::printf("machine: %dB%dL, alpha=%.2f beta=%.2f, V in "
                "[%.2f, %.2f]\n\n", n_big, n_little, params.alpha,
                params.beta, params.v_min, params.v_max);

    std::printf("%-12s %22s %22s\n", "(bigA,litA)",
                "optimal (VB, VL, x)", "feasible (VB, VL, x)");
    for (int ba = 0; ba <= n_big; ++ba) {
        for (int la = 0; la <= n_little; ++la) {
            if (ba == 0 && la == 0)
                continue;
            ClusterActivity act{{ba, la}, {n_big - ba, n_little - la}};
            double target = opt.targetPower(act);
            ClusterOperatingPoint o =
                opt.solveTwoCluster(act, target, /*feasible=*/false);
            ClusterOperatingPoint f =
                opt.solveTwoCluster(act, target, /*feasible=*/true);
            std::printf("  (%d,%d)     (%5.2f, %5.2f, %5.2fx)   "
                        "(%5.2f, %5.2f, %5.2fx)\n", ba, la, o.v[0],
                        o.v[1], o.speedup, f.v[0], f.v[1], f.speedup);
        }
    }
    std::printf("\n'x' columns are throughput gains over running the "
                "same active cores at nominal voltage.\n");
    return 0;
}
