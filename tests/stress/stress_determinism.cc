/**
 * @file
 * Simulator-determinism fuzzing: every registered kernel is generated
 * and simulated twice per seed across many seeds (default 50, knob
 * AAWS_DETERMINISM_SEEDS), rotating through all runtime variants and
 * every topology preset, and the two runs must produce bit-identical
 * SimResult statistics.  Any divergence is hidden nondeterminism --
 * iteration-order dependence, uninitialized state, or real-time leakage
 * into the simulation -- and reproduces from the kernel name + seed
 * printed in the failure trace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/run_spec.h"
#include "model/topology.h"
#include "sim_compare.h"
#include "stress_util.h"

namespace aaws {
namespace {

using stress::envKnob;

class KernelDeterminism : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelDeterminism, BitIdenticalAcrossSeeds)
{
    const std::string &name = GetParam();
    const int64_t seeds = envKnob("AAWS_DETERMINISM_SEEDS", 50, 50);
    const auto variants = allVariants();
    const std::vector<std::string> &topologies = topologyPresets();
    const uint64_t base = stress::baseSeed();

    for (int64_t i = 0; i < seeds; ++i) {
        uint64_t seed = stress::nthSeed(base, static_cast<uint64_t>(i));
        Variant variant = variants[i % variants.size()];
        const std::string &topology = topologies[i % topologies.size()];
        // Collect the activity trace on a slice of the seeds so the
        // record-for-record replay check sees real traffic without
        // inflating every run.
        bool trace = i % 10 == 0;
        SCOPED_TRACE(testing::Message()
                     << name << " seed 0x" << std::hex << seed
                     << std::dec << " variant " << variantName(variant)
                     << " topology " << topology);

        // Generate the kernel twice from the same seed: workload
        // synthesis itself must be deterministic...
        Kernel first = makeKernel(name, seed);
        Kernel second = makeKernel(name, seed);
        ASSERT_EQ(first.dag.numTasks(), second.dag.numTasks());
        ASSERT_EQ(first.dag.totalWork(), second.dag.totalWork());
        ASSERT_EQ(first.dag.criticalPathWork(),
                  second.dag.criticalPathWork());

        // ...and so must the simulation of it.
        exp::RunSpec spec{name, variant, seed, trace};
        spec.overrides.topology = topology;
        SimResult a = exp::executeSpec(spec, first).sim;
        SimResult b = exp::executeSpec(spec, second).sim;
        stress::expectIdenticalResults(a, b);
        if (HasFatalFailure() || HasNonfatalFailure())
            return; // one seed's dump is enough
    }
}

class TopologyDeterminism : public ::testing::TestWithParam<std::string>
{
};

/**
 * A spec that names no topology runs the default machine, the paper's
 * 4B4L: it must simulate bit for bit like a spec naming the "4b4l"
 * preset.  Seeds rotate through every variant, so the whole policy
 * stack crosses the census/DVFS plumbing.
 */
TEST_P(TopologyDeterminism, PresetRunsMatchLegacyBitIdentically)
{
    const std::string &name = GetParam();
    const int64_t seeds = envKnob("AAWS_DETERMINISM_SEEDS", 50, 50);
    const auto variants = allVariants();
    const uint64_t base = stress::baseSeed() ^ 0x707'0107'07ull;

    for (int64_t i = 0; i < seeds; ++i) {
        uint64_t seed = stress::nthSeed(base, static_cast<uint64_t>(i));
        Variant variant = variants[i % variants.size()];
        bool trace = i % 10 == 0;
        SCOPED_TRACE(testing::Message()
                     << name << " seed 0x" << std::hex << seed
                     << std::dec << " variant " << variantName(variant));

        Kernel kernel = makeKernel(name, seed);
        exp::RunSpec unnamed{name, variant, seed, trace};
        exp::RunSpec named = unnamed;
        named.overrides.topology = "4b4l";
        stress::expectIdenticalResults(
            exp::executeSpec(named, kernel).sim,
            exp::executeSpec(unnamed, kernel).sim);
        if (HasFatalFailure() || HasNonfatalFailure())
            return; // one seed's dump is enough
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelDeterminism, ::testing::ValuesIn(kernelNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TopologyDeterminism, ::testing::ValuesIn(kernelNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace aaws
