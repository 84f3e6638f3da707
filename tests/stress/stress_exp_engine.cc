/**
 * @file
 * Stress tests for the experiment engine's parallel fan-out.
 *
 * The engine's contract is that orchestration is *invisible* in the
 * numbers: the same batch must produce bit-identical result arrays in
 * spec order whether it runs on 1, 2, or N workers, and every slot must
 * equal executeSpec() on its own spec.  The golden cross-check drives
 * the committed Table III statistics dump through the engine and
 * requires byte-for-byte equality with
 * tests/stress/golden/table3_stats.txt, proving the bench ports changed
 * orchestration only.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "exp/engine.h"
#include "sim/machine.h"
#include "sim/stats_writer.h"
#include "sim_compare.h"
#include "stress_util.h"

namespace aaws {
namespace {

/**
 * A small but heterogeneous batch: shapes, variants, and overrides,
 * plus the shapes a sweep throws at the engine: one kernel's twelve
 * sens_* one-knob values (whose simulations share a long common
 * prefix), a three-cluster topology, and a spec that appears twice.
 */
std::vector<exp::RunSpec>
sampleBatch()
{
    std::vector<exp::RunSpec> specs;
    for (const char *name : {"dict", "qsort-1"}) {
        for (const char *topology : {"4b4l", "1b7l"}) {
            for (Variant v : {Variant::base, Variant::base_psm}) {
                specs.emplace_back(name, v);
                specs.back().overrides.topology = topology;
            }
        }
    }
    // One traced spec and one override spec so every result field sees
    // traffic.
    exp::RunSpec traced("dict", Variant::base_m, exp::kDefaultSeed,
                        /*trace=*/true);
    specs.push_back(std::move(traced));
    exp::RunSpec scaled("qsort-1", Variant::base_psm);
    scaled.overrides.topology = "2b6l";
    specs.push_back(std::move(scaled));

    auto sens = [&]() -> exp::SpecOverrides & {
        specs.emplace_back("dict", Variant::base_psm);
        return specs.back().overrides;
    };
    for (uint64_t cycles : {20, 100, 400, 1000})
        sens().mug_interrupt_cycles = cycles;
    for (uint64_t cycles : {10, 30, 60, 120})
        sens().steal_attempt_cycles = cycles;
    for (double ns : {40.0, 100.0, 175.0, 250.0})
        sens().regulator_ns_per_step = ns;

    exp::RunSpec three_cluster("qsort-1", Variant::base_psm);
    three_cluster.overrides.topology = "2b2m4l";
    specs.push_back(three_cluster);
    specs.push_back(std::move(three_cluster));
    return specs;
}

void
expectBatchesIdentical(const std::vector<RunResult> &a,
                       const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "spec slot " << i);
        EXPECT_EQ(a[i].kernel, b[i].kernel);
        EXPECT_EQ(a[i].variant, b[i].variant);
        stress::expectIdenticalResults(a[i].sim, b[i].sim);
    }
}

exp::EngineOptions
quietOptions(int jobs)
{
    exp::EngineOptions options;
    options.jobs = jobs;
    options.progress = false;
    return options;
}

TEST(ExpEngine, ThreadCountAndCacheStateNeverChangeResults)
{
    const std::vector<exp::RunSpec> specs = sampleBatch();

    // Reference: serial, and every slot equals executeSpec() on its
    // own spec.
    exp::BatchStats stats;
    std::vector<RunResult> reference =
        exp::runBatch(specs, quietOptions(1), &stats);
    ASSERT_EQ(reference.size(), specs.size());
    EXPECT_EQ(stats.jobs, 1);
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "spec slot " << i);
        stress::expectIdenticalResults(exp::executeSpec(specs[i]).sim,
                                       reference[i].sim);
    }

    // 2 and N workers.
    std::vector<RunResult> two =
        exp::runBatch(specs, quietOptions(2), &stats);
    EXPECT_EQ(stats.jobs, 2);
    expectBatchesIdentical(reference, two);

    const int n = static_cast<int>(
        stress::envKnob("AAWS_EXP_STRESS_JOBS", 8, 4));
    std::vector<RunResult> many =
        exp::runBatch(specs, quietOptions(n), &stats);
    EXPECT_EQ(stats.jobs, exp::resolveJobs(n, specs.size()));
    expectBatchesIdentical(reference, many);
}

/**
 * Golden cross-check: the engine-driven Table III batch must reproduce
 * the committed golden statistics dump byte-for-byte.
 */
TEST(ExpEngineGolden, EngineBatchReproducesTable3GoldenFile)
{
    std::ifstream in(AAWS_GOLDEN_FILE);
    ASSERT_TRUE(in) << "missing golden file " << AAWS_GOLDEN_FILE;
    std::string golden((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());

    std::vector<exp::RunSpec> specs;
    for (const auto &name : kernelNames())
        specs.emplace_back(name, Variant::base_psm);

    auto render = [&](const std::vector<RunResult> &results) {
        std::string out;
        for (size_t i = 0; i < specs.size(); ++i) {
            Kernel kernel = makeKernel(specs[i].kernel, specs[i].seed);
            MachineConfig config = exp::configForSpec(kernel, specs[i]);
            out += "==== kernel " + specs[i].kernel + " ====\n";
            out += formatStats(config, results[i].sim);
        }
        return out;
    };

    EXPECT_EQ(render(exp::runBatch(specs, quietOptions(0))), golden)
        << "engine-driven Table III drifted from the golden file; the "
           "port must change orchestration only";
}

} // namespace
} // namespace aaws
