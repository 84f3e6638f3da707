/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *  - occupancy-based vs random victim selection (Section IV-C follows
 *    Contreras & Martonosi's occupancy policy);
 *  - work-biasing on/off (Section III-C: ~1% benefit, never hurts);
 *  - serial-sprinting on/off (Section III-C: ~1-2% benefit).
 */

#include <cstdio>
#include <functional>

#include "aaws/experiment.h"
#include "common/stats.h"
#include "exp/cli.h"
#include "exp/run_spec.h"

using namespace aaws;

namespace {

double
runWith(const Kernel &kernel,
        const std::function<void(MachineConfig &)> &tweak)
{
    MachineConfig config = exp::configForSpec(
        kernel, {kernel.stats.name, Variant::base_psm});
    tweak(config);
    return Machine(config, kernel.dag).run().exec_seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);
    std::printf("=== Ablations on base+psm / 4B4L (numbers are "
                "slowdowns vs the default design) ===\n\n");
    std::printf("%-9s %14s %12s %14s\n", "kernel", "random-victim",
                "no-biasing", "no-serial-spr");
    std::vector<double> rv, nb, ns;
    for (const auto &name : kernelNames()) {
        Kernel kernel = makeKernel(name);
        double base = runWith(kernel, [](MachineConfig &) {});
        double random_pick = runWith(kernel, [](MachineConfig &c) {
            c.policy.victim = sched::VictimPolicy::random;
        });
        double no_biasing = runWith(kernel, [](MachineConfig &c) {
            c.policy.work_biasing = false;
        });
        double no_serial = runWith(kernel, [](MachineConfig &c) {
            c.policy.serial_sprinting = false;
        });
        rv.push_back(random_pick / base);
        nb.push_back(no_biasing / base);
        ns.push_back(no_serial / base);
        auto addSlowdown = [&](const char *metric, double value) {
            cli.results.add({.series = "slowdown",
                             .kernel = name,
                             .shape = "4B4L",
                             .variant = "base+psm",
                             .metric = metric,
                             .value = value});
        };
        addSlowdown("random_victim", random_pick / base);
        addSlowdown("no_biasing", no_biasing / base);
        addSlowdown("no_serial_sprint", no_serial / base);
        std::printf("%-9s %13.3fx %11.3fx %13.3fx\n", name.c_str(),
                    random_pick / base, no_biasing / base,
                    no_serial / base);
    }
    cli.results.add("summary", "median_random_victim", median(rv));
    cli.results.add("summary", "median_no_biasing", median(nb));
    cli.results.add("summary", "median_no_serial_sprint", median(ns));
    std::printf("\nmedians: random-victim %.3fx, no-biasing %.3fx, "
                "no-serial-sprint %.3fx\n", median(rv), median(nb),
                median(ns));
    std::printf("(paper: biasing ~1%% and serial-sprinting ~1-2%% "
                "benefits; occupancy victim selection from [15])\n");
    return 0;
}
