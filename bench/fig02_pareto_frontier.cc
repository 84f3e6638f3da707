/**
 * @file
 * Figure 2 reproduction: projected energy efficiency vs performance of
 * a fully busy 4B4L system across (V_B, V_L) pairs, normalized to the
 * nominal (1.0 V, 1.0 V) system.  Prints the sample grid as CSV plus
 * the pareto-optimal isopower point (the paper's open circle).
 */

#include <cstdio>

#include "exp/cli.h"
#include "model/pareto.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    std::printf("=== Figure 2: pareto frontier, 4B4L all busy "
                "(alpha=3, beta=2) ===\n\n");
    FirstOrderModel model;
    ParetoSweep sweep =
        paretoSweep(model, makeTopology("4b4l", model.params()), 12);

    std::printf("v_big,v_little,perf,efficiency,power,pareto\n");
    for (const auto &s : sweep.samples) {
        std::printf("%.3f,%.3f,%.4f,%.4f,%.4f,%d\n", s.v_big,
                    s.v_little, s.perf, s.efficiency, s.power,
                    s.pareto_optimal ? 1 : 0);
    }
    const ParetoSample &best = sweep.best_isopower;
    cli.results.add("best_isopower", "v_big", best.v_big);
    cli.results.add("best_isopower", "v_little", best.v_little);
    cli.results.add("best_isopower", "perf", best.perf);
    cli.results.add("best_isopower", "efficiency", best.efficiency);
    cli.results.add("best_isopower", "power", best.power);
    std::printf("\nbest isopower point (open circle): V_B=%.3f V "
                "V_L=%.3f V perf=%.3fx eff=%.3fx power=%.3fx\n",
                best.v_big, best.v_little, best.perf, best.efficiency,
                best.power);
    std::printf("paper: careful (V_B down, V_L up) tuning improves "
                "both performance and efficiency at isopower\n");
    return 0;
}
