/**
 * @file
 * Serving-simulation determinism fuzzer, extending the closed-loop
 * fuzzer of stress_determinism.cc to the open-loop path: a batch of
 * randomized serving RunSpecs (arrival kind, rate spanning deep
 * underload to heavy overload, tenants, queue bound, deadline, service
 * sampling) must produce byte-identical results
 *
 *  - between --jobs=1 and --jobs=4 (slot-ordered engine), and
 *  - between two independent runs of the same batch (no hidden state).
 *
 * Comparison is the full bit-exact predicate of sim_compare.h plus the
 * serialized JSON, so quantiles, the whole latency histogram, and the
 * per-tenant tallies all participate.  Seed count reads
 * AAWS_SERVE_DETERMINISM_SEEDS (sanitizer-aware default).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "exp/engine.h"
#include "exp/run_spec.h"
#include "sim_compare.h"
#include "stress_util.h"

namespace aaws {
namespace {

/** One randomized serving spec; everything derives from the seed. */
exp::RunSpec
fuzzedServeSpec(uint64_t seed)
{
    Rng knobs(seed);
    const char *topology = knobs.below(2) ? "1b7l" : "4b4l";
    Variant variant = allVariants()[knobs.below(allVariants().size())];
    exp::RunSpec spec("dict", variant, seed);
    spec.overrides.topology = topology;

    serve::ServeSpec serve;
    serve.arrival.kind = knobs.below(2) ? serve::ArrivalKind::mmpp
                                        : serve::ArrivalKind::poisson;
    // Log-uniform rate over 3.5 decades: some points are nearly idle,
    // some are far past saturation and shed most of the stream.  The
    // determinism contract holds everywhere.
    serve.arrival.rate_hz = std::pow(10.0, 1.0 + 3.5 * knobs.uniform());
    serve.arrival.burst_factor = 2.0 + 6.0 * knobs.uniform();
    serve.arrival.mean_burst_s = 0.002 + 0.02 * knobs.uniform();
    serve.arrival.mean_idle_s = 0.01 + 0.08 * knobs.uniform();
    serve.requests = 800 + knobs.below(1200);
    serve.tenants = 1 + static_cast<uint32_t>(knobs.below(4));
    serve.queue_cap = 4u << knobs.below(4); // 4..32
    serve.deadline_s = knobs.below(2) ? 0.0 : 0.05 * knobs.uniform();
    serve.service_samples = 1 + static_cast<uint32_t>(knobs.below(3));
    spec.serve = serve;
    // A third of the points run the three-cluster preset, so the
    // serving engine's determinism contract covers more than the
    // paper's two machines.
    if (knobs.below(3) == 0)
        spec.overrides.topology = "2b2m4l";
    return spec;
}

TEST(StressServeDeterminism, BatchesReplayByteIdentically)
{
    const int64_t seeds =
        stress::envKnob("AAWS_SERVE_DETERMINISM_SEEDS", 50, 12);
    std::vector<exp::RunSpec> specs;
    specs.reserve(static_cast<size_t>(seeds));
    for (int64_t i = 0; i < seeds; ++i)
        specs.push_back(
            fuzzedServeSpec(stress::nthSeed(stress::baseSeed(), i)));

    exp::EngineOptions options;
    options.progress = false;
    options.jobs = 1;
    std::vector<RunResult> serial = exp::runBatch(specs, options);
    options.jobs = 4;
    std::vector<RunResult> parallel = exp::runBatch(specs, options);
    std::vector<RunResult> replay = exp::runBatch(specs, options);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    ASSERT_EQ(replay.size(), specs.size());
    uint64_t shedding_points = 0;
    uint64_t mostly_served_points = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(testing::Message()
                     << "slot " << i << " seed 0x" << std::hex
                     << specs[i].seed);
        ASSERT_TRUE(serial[i].sim.serve.enabled);
        std::string canonical = exp::runResultToJson(serial[i]);
        EXPECT_EQ(exp::runResultToJson(parallel[i]), canonical)
            << "--jobs=4 differs from --jobs=1";
        EXPECT_EQ(exp::runResultToJson(replay[i]), canonical)
            << "second --jobs=4 run differs from the first";
        stress::expectIdenticalResults(serial[i].sim, parallel[i].sim);
        stress::expectIdenticalResults(serial[i].sim, replay[i].sim);
        const ServeStats &stats = serial[i].sim.serve;
        if (stats.shed > 0)
            ++shedding_points;
        if (stats.completed * 10 >= stats.submitted * 9)
            ++mostly_served_points;
    }
    // The rate span is wide enough that the fuzz must have exercised
    // both regimes — some points shedding, some serving >= 90% of the
    // stream (a burst can shed a handful of requests even at light
    // load, so "zero shed" would be too strict a notion of underload).
    EXPECT_GT(shedding_points, 0u);
    EXPECT_GT(mostly_served_points, 0u);
}

} // namespace
} // namespace aaws
