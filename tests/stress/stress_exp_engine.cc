/**
 * @file
 * Stress tests for the experiment engine's parallel fan-out and result
 * cache.
 *
 * The engine's contract is that orchestration is *invisible* in the
 * numbers: the same batch must produce bit-identical result arrays in
 * spec order whether it runs on 1, 2, or N workers, from a cold cache
 * (every spec simulated) or a warm one (every spec loaded), and a
 * corrupted cache must only ever cost re-simulation, never wrong
 * results or a crash.  Every slot must also equal executeSpec() on its
 * own spec.  The golden cross-check drives the committed Table III
 * statistics dump through the engine and requires byte-for-byte
 * equality with tests/stress/golden/table3_stats.txt, proving the bench
 * ports changed orchestration only.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/cache.h"
#include "exp/engine.h"
#include "sim/machine.h"
#include "sim/stats_writer.h"
#include "sim_compare.h"
#include "stress_util.h"

namespace aaws {
namespace {

namespace fs = std::filesystem;

fs::path
scratchDir(const char *name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   (std::string("aaws_exp_stress_") + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

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
    // One traced spec and one override spec so every cache field sees
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
quietOptions(int jobs, const fs::path &cache_dir, bool use_cache = true)
{
    exp::EngineOptions options;
    options.jobs = jobs;
    options.use_cache = use_cache;
    options.cache_dir = cache_dir.string();
    options.progress = false;
    return options;
}

TEST(ExpEngine, ThreadCountAndCacheStateNeverChangeResults)
{
    const std::vector<exp::RunSpec> specs = sampleBatch();
    fs::path cache_dir = scratchDir("determinism");

    // Reference: serial, cache disabled.
    exp::BatchStats stats;
    std::vector<RunResult> reference =
        exp::runBatch(specs, quietOptions(1, cache_dir, false), &stats);
    ASSERT_EQ(reference.size(), specs.size());
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "spec slot " << i);
        stress::expectIdenticalResults(exp::executeSpec(specs[i]).sim,
                                       reference[i].sim);
    }

    // Cold cache, 2 workers.
    std::vector<RunResult> cold2 =
        exp::runBatch(specs, quietOptions(2, cache_dir), &stats);
    EXPECT_EQ(stats.misses, specs.size());
    expectBatchesIdentical(reference, cold2);

    // Warm cache, N workers: pure cache load.
    const int n = static_cast<int>(
        stress::envKnob("AAWS_EXP_STRESS_JOBS", 8, 4));
    std::vector<RunResult> warm_n =
        exp::runBatch(specs, quietOptions(n, cache_dir), &stats);
    EXPECT_EQ(stats.hits, specs.size()) << "warm cache must be all hits";
    EXPECT_EQ(stats.misses, 0u);
    expectBatchesIdentical(reference, warm_n);

    // Warm cache, serial: load path is jobs-independent too.
    std::vector<RunResult> warm1 =
        exp::runBatch(specs, quietOptions(1, cache_dir), &stats);
    EXPECT_EQ(stats.hits, specs.size());
    expectBatchesIdentical(reference, warm1);
}

TEST(ExpEngine, CorruptCacheFilesAreResimulatedAndRewritten)
{
    const std::vector<exp::RunSpec> specs = sampleBatch();
    fs::path cache_dir = scratchDir("corruption");

    exp::BatchStats stats;
    std::vector<RunResult> reference =
        exp::runBatch(specs, quietOptions(2, cache_dir), &stats);
    ASSERT_EQ(stats.misses, specs.size());

    // Vandalize three distinct entries: truncate, garbage, delete.
    exp::ResultCache cache(true, cache_dir.string());
    std::string truncated = cache.pathFor(specs[0]);
    std::string garbage = cache.pathFor(specs[1]);
    std::string removed = cache.pathFor(specs[2]);
    {
        std::ifstream in(truncated, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        ASSERT_GT(text.size(), 10u);
        std::ofstream out(truncated,
                          std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 3);
    }
    {
        std::ofstream out(garbage, std::ios::binary | std::ios::trunc);
        out << "{\"schema\":1,\"spec\":\"nonsense\",\"result\":[1,2";
    }
    ASSERT_TRUE(fs::remove(removed));

    // The batch silently re-simulates exactly the vandalized specs...
    std::vector<RunResult> repaired =
        exp::runBatch(specs, quietOptions(2, cache_dir), &stats);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, specs.size() - 3);
    expectBatchesIdentical(reference, repaired);

    // ...and rewrites them: the next run is all hits again.
    std::vector<RunResult> warm =
        exp::runBatch(specs, quietOptions(2, cache_dir), &stats);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.hits, specs.size());
    expectBatchesIdentical(reference, warm);
}

/**
 * Golden cross-check: the engine-driven Table III batch must reproduce
 * the committed golden statistics dump byte-for-byte -- through a cold
 * cache (simulated results) *and* a warm one (deserialized results),
 * so serialization provably preserves every statistic the dump prints.
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

    fs::path cache_dir = scratchDir("golden");
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

    exp::BatchStats stats;
    std::vector<RunResult> cold =
        exp::runBatch(specs, quietOptions(0, cache_dir), &stats);
    EXPECT_EQ(stats.misses, specs.size());
    EXPECT_EQ(render(cold), golden)
        << "engine-driven Table III drifted from the golden file; the "
           "port must change orchestration only";

    std::vector<RunResult> warm =
        exp::runBatch(specs, quietOptions(0, cache_dir), &stats);
    EXPECT_EQ(stats.hits, specs.size());
    EXPECT_EQ(render(warm), golden)
        << "cache round trip changed rendered statistics";
}

} // namespace
} // namespace aaws
