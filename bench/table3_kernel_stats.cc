/**
 * @file
 * Table III reproduction: per-kernel statistics of the generated
 * workloads and their measured speedups on the simulated 1B7L and 4B4L
 * systems (baseline runtime), printed side by side with the paper's
 * published values.
 *
 * The two baseline simulations per kernel run through the experiment
 * engine (parallel + cached); the serial-IO baselines are closed-form
 * model evaluations and stay inline.
 */

#include <cstdio>
#include <vector>

#include "aaws/experiment.h"
#include "exp/cli.h"
#include "exp/engine.h"

using namespace aaws;

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    const std::vector<std::string> names = cli.filterNames(kernelNames());

    std::vector<exp::RunSpec> specs;
    for (const auto &name : names) {
        for (const char *topology : {"1b7l", "4b4l"}) {
            exp::RunSpec spec{name, Variant::base};
            spec.overrides.topology = topology;
            specs.push_back(std::move(spec));
        }
    }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("=== Table III: application kernels (measured | paper) "
                "===\n\n");
    std::printf("%-9s %5s %-5s | %8s %8s | %8s %8s | %8s %8s | "
                "%5s %5s | %9s %9s | %9s %9s\n",
                "name", "suite", "pm", "DInst(M)", "paper", "tasks",
                "paper", "task(K)", "paper", "beta", "alpha",
                "1B7LvsIO", "paper", "4B4LvsIO", "paper");
    size_t idx = 0;
    for (const auto &name : names) {
        Kernel kernel = makeKernel(name);
        const PaperKernelStats &s = kernel.stats;

        double serial_io = serialSeconds(kernel, 'l');
        double t_1b7l = results[idx++].sim.exec_seconds;
        double t_4b4l = results[idx++].sim.exec_seconds;

        std::printf("%-9s %5s %-5s | %8.1f %8.1f | %8zu %8d | "
                    "%8.1f %8.1f | %5.1f %5.1f | %9.1f %9.1f | "
                    "%9.1f %9.1f\n",
                    s.name, s.suite, s.pm,
                    kernel.dag.totalWork() / 1e6, s.dinsts_m,
                    kernel.dag.numTasks(), s.num_tasks,
                    kernel.dag.avgTaskWork() / 1e3, s.task_kinstr,
                    s.beta, s.alpha, serial_io / t_1b7l,
                    s.speedup_1b7l_vs_io, serial_io / t_4b4l,
                    s.speedup_4b4l_vs_io);
        cli.results.add({.series = "workload",
                         .kernel = name,
                         .metric = "dinsts_m",
                         .value = kernel.dag.totalWork() / 1e6});
        cli.results.add({.series = "workload",
                         .kernel = name,
                         .metric = "tasks",
                         .value = static_cast<double>(
                             kernel.dag.numTasks())});
        cli.results.add({.series = "vs_serial_io",
                         .kernel = name,
                         .shape = "1B7L",
                         .variant = "base",
                         .metric = "speedup",
                         .value = serial_io / t_1b7l});
        cli.results.add({.series = "vs_serial_io",
                         .kernel = name,
                         .shape = "4B4L",
                         .variant = "base",
                         .metric = "speedup",
                         .value = serial_io / t_4b4l});
    }
    std::printf("\npm: p = parallel_for, np = nested, rss = recursive "
                "spawn-and-sync.  beta/alpha columns are inputs\n"
                "taken from the paper (per-kernel core models); the "
                "speedup columns are measured on this simulator.\n");
    return 0;
}
