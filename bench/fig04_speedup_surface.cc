/**
 * @file
 * Figure 4 reproduction: theoretical speedup of the fully busy 4B4L
 * system as a function of alpha (big/little energy ratio) and beta
 * (big/little IPC ratio): (a) unconstrained optimum, (b) feasible
 * within [V_min, V_max].
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "exp/cli.h"
#include "model/surface.h"

using namespace aaws;

namespace {

void
printGrid(const std::vector<SurfaceCell> &cells, int beta_cells,
          bool feasible)
{
    std::printf("%-6s", "a\\b");
    for (int j = 0; j < beta_cells; ++j)
        std::printf("%8.2f", cells[j].beta);
    std::printf("\n");
    for (size_t i = 0; i < cells.size(); i += beta_cells) {
        std::printf("%-6.2f", cells[i].alpha);
        for (int j = 0; j < beta_cells; ++j) {
            const SurfaceCell &cell = cells[i + j];
            std::printf("%8.3f", feasible ? cell.feasible_speedup
                                          : cell.optimal_speedup);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    ModelParams base;
    constexpr int kAlphaSteps = 8;
    constexpr int kBetaSteps = 6;
    auto cells = speedupSurface(base, makeTopology("4b4l", base), 1.0, 5.0,
                                kAlphaSteps, 1.0, 4.0, kBetaSteps);

    // The designer point (alpha=3, beta=2) anchors the paper's "~1.10x
    // feasible speedup" claim; export it for repro_check.
    for (const SurfaceCell &cell : cells) {
        if (std::abs(cell.alpha - 3.0) < 1e-9 &&
            std::abs(cell.beta - 2.0) < 1e-9) {
            cli.results.add("designer_point", "optimal_speedup",
                            cell.optimal_speedup);
            cli.results.add("designer_point", "feasible_speedup",
                            cell.feasible_speedup);
        }
    }

    std::printf("=== Figure 4a: optimal speedup vs alpha (rows) and "
                "beta (cols) ===\n");
    printGrid(cells, kBetaSteps + 1, /*feasible=*/false);
    std::printf("\n=== Figure 4b: feasible speedup within [0.7 V, "
                "1.3 V] ===\n");
    printGrid(cells, kBetaSteps + 1, /*feasible=*/true);
    std::printf("\npaper: benefit is largest when alpha/beta > 1 "
                "(expensive big core, moderate speedup);\n"
                "at the designer point (alpha=3, beta=2) the feasible "
                "speedup is ~1.10x\n");
    return 0;
}
