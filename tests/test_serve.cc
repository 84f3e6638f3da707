/**
 * @file
 * Unit tests for the open-loop serving subsystem: the log-scale
 * latency histogram (bucket math, merge/quantile exactness against a
 * sorted-sample oracle, bit-exact JSON round-trips), the arrival
 * generators (seeded statistical tests — chi-squared GOF for Poisson
 * inter-arrivals, MMPP dwell means and long-run rate; every acceptance
 * band is at least 4 sigma wide so a correct implementation never
 * flakes), the request-level serving simulation (conservation,
 * determinism, load monotonicity, shedding, deadlines), and a native
 * WorkerPool serving smoke test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "exp/run_spec.h"
#include "serve/arrival.h"
#include "serve/native_server.h"
#include "serve/sim_server.h"
#include "serve/spec.h"
#include "sim/result_json.h"
#include "stress/sim_compare.h"

namespace aaws {
namespace {

// --- LatencyHistogram ------------------------------------------------

TEST(Histogram, BucketEdgesRoundTripExactly)
{
    using H = LatencyHistogram;
    // Every regular bucket's lower edge indexes back to that bucket,
    // and the largest double below it lands one bucket down.
    for (int i = 1; i <= H::kRegularBuckets; ++i) {
        double edge = H::bucketLowerEdge(i);
        EXPECT_EQ(H::bucketIndex(edge), i) << "edge of bucket " << i;
        double below = std::nextafter(edge, 0.0);
        EXPECT_EQ(H::bucketIndex(below), i - 1)
            << "just below edge of bucket " << i;
        if (i < H::kRegularBuckets) {
            EXPECT_EQ(H::bucketUpperEdge(i), H::bucketLowerEdge(i + 1));
        }
    }
    // Underflow: zero, negatives, NaN, and sub-range values.
    EXPECT_EQ(H::bucketIndex(0.0), 0);
    EXPECT_EQ(H::bucketIndex(-1.0), 0);
    EXPECT_EQ(H::bucketIndex(std::nan("")), 0);
    EXPECT_EQ(H::bucketIndex(std::ldexp(1.0, H::kMinExp - 1)), 0);
    // Overflow: 2^kMaxExp and infinity.
    EXPECT_EQ(H::bucketIndex(std::ldexp(1.0, H::kMaxExp)),
              H::kNumBuckets - 1);
    EXPECT_EQ(H::bucketIndex(std::numeric_limits<double>::infinity()),
              H::kNumBuckets - 1);
    EXPECT_TRUE(std::isinf(H::bucketUpperEdge(H::kNumBuckets - 1)));
}

TEST(Histogram, QuantilesMatchSortedSampleOracle)
{
    // The histogram promises: quantile(q) is the lower edge of the
    // bucket holding the nearest-rank sample.  Check against a sorted
    // copy of the raw stream, exactly, over several seeds.
    for (uint64_t seed : {1ull, 7ull, 42ull}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        LatencyHistogram hist;
        std::vector<double> raw;
        for (int i = 0; i < 20000; ++i) {
            // Log-uniform over [1us, 10s]: spans 23 octaves.
            double v = std::exp(std::log(1e-6) +
                                rng.uniform() *
                                    (std::log(10.0) - std::log(1e-6)));
            raw.push_back(v);
            hist.record(v);
        }
        std::sort(raw.begin(), raw.end());
        for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
            size_t rank = static_cast<size_t>(
                std::ceil(q * static_cast<double>(raw.size())));
            double oracle = raw[rank - 1];
            double expected = LatencyHistogram::bucketLowerEdge(
                LatencyHistogram::bucketIndex(oracle));
            EXPECT_EQ(hist.quantile(q), expected) << "q=" << q;
        }
        EXPECT_EQ(hist.minValue(), raw.front());
        EXPECT_EQ(hist.maxValue(), raw.back());
    }
}

TEST(Histogram, MergeEqualsWholeStream)
{
    Rng rng(99);
    LatencyHistogram whole, a, b;
    for (int i = 0; i < 5000; ++i) {
        double v = rng.exponential(0.01);
        whole.record(v);
        (i % 2 ? a : b).record(v);
    }
    LatencyHistogram merged = a;
    merged.merge(b);
    EXPECT_TRUE(merged == whole);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_EQ(merged.counts(), whole.counts());
    for (double q : {0.5, 0.95, 0.99, 0.999})
        EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
    EXPECT_EQ(merged.minValue(), whole.minValue());
    EXPECT_EQ(merged.maxValue(), whole.maxValue());
    EXPECT_EQ(std::bit_cast<uint64_t>(merged.mean()),
              std::bit_cast<uint64_t>(whole.mean()));
}

TEST(Histogram, EmptyHistogramIsWellDefined)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.quantile(0.99), 0.0);
    EXPECT_EQ(hist.mean(), 0.0);
    EXPECT_EQ(hist.minValue(), 0.0);
    EXPECT_EQ(hist.maxValue(), 0.0);
}

TEST(Histogram, JsonRoundTripIsBitExact)
{
    Rng rng(1234);
    LatencyHistogram hist;
    for (int i = 0; i < 3000; ++i)
        hist.record(rng.exponential(0.003));
    hist.record(0.0);                                    // underflow
    hist.record(std::ldexp(1.0, LatencyHistogram::kMaxExp)); // overflow

    std::string text = hist.toJson();
    EXPECT_EQ(text.find('\n'), std::string::npos);
    LatencyHistogram parsed;
    ASSERT_TRUE(LatencyHistogram::fromJson(text, parsed));
    EXPECT_TRUE(parsed == hist);
    // Serialize-parse-serialize is a fixed point (byte identity).
    EXPECT_EQ(parsed.toJson(), text);

    LatencyHistogram empty, empty_parsed;
    ASSERT_TRUE(LatencyHistogram::fromJson(empty.toJson(), empty_parsed));
    EXPECT_TRUE(empty_parsed == empty);
}

TEST(Histogram, JsonParserFailsClosed)
{
    LatencyHistogram out;
    // Not JSON / wrong shape.
    EXPECT_FALSE(LatencyHistogram::fromJson("nonsense", out));
    EXPECT_FALSE(LatencyHistogram::fromJson("[1,2,3]", out));
    // Bucket index out of range.
    EXPECT_FALSE(LatencyHistogram::fromJson(
        "{\"count\":1,\"min\":1.0,\"max\":1.0,\"buckets\":[[999,1]]}",
        out));
    // Totals disagree with the bucket sum.
    EXPECT_FALSE(LatencyHistogram::fromJson(
        "{\"count\":2,\"min\":1.0,\"max\":1.0,\"buckets\":[[5,1]]}",
        out));
    // Indices must be strictly increasing.
    EXPECT_FALSE(LatencyHistogram::fromJson(
        "{\"count\":2,\"min\":1.0,\"max\":1.0,"
        "\"buckets\":[[5,1],[5,1]]}",
        out));
    // Zero-count buckets are not representable output.
    EXPECT_FALSE(LatencyHistogram::fromJson(
        "{\"count\":0,\"min\":0.0,\"max\":0.0,\"buckets\":[[5,0]]}",
        out));
}

// --- Arrival generators ----------------------------------------------

TEST(Arrival, PoissonInterArrivalsPassChiSquared)
{
    // Equal-probability binning under Exponential(rate): expected
    // count per bin is N/k, chi2 ~ chi2(k-1).  The acceptance bound is
    // mean + 4 sigma of that distribution (df + 4*sqrt(2 df)); the
    // test is seeded, so this can only fail if the generator drifts.
    const double rate = 1000.0;
    const int N = 200000;
    const int k = 32;
    serve::ArrivalSpec spec;
    spec.rate_hz = rate;
    serve::ArrivalGenerator gen(spec, 0xC0FFEEull);

    std::vector<int64_t> observed(k, 0);
    double prev = 0.0;
    double sum = 0.0;
    for (int i = 0; i < N; ++i) {
        double t = gen.next();
        ASSERT_GT(t, prev) << "arrival times must strictly increase";
        double gap = t - prev;
        prev = t;
        sum += gap;
        // CDF bin: floor(F(gap) * k) with F(x) = 1 - exp(-rate x).
        double cdf = 1.0 - std::exp(-rate * gap);
        int bin = std::min(k - 1, static_cast<int>(cdf * k));
        observed[bin]++;
    }
    double expected = static_cast<double>(N) / k;
    double chi2 = 0.0;
    for (int64_t count : observed) {
        double d = static_cast<double>(count) - expected;
        chi2 += d * d / expected;
    }
    double df = k - 1;
    EXPECT_LT(chi2, df + 4.0 * std::sqrt(2.0 * df)) << "chi2 = " << chi2;

    // Sample mean of the gaps: 1/rate within 5 sigma of the mean.
    double mean = sum / N;
    double sigma = (1.0 / rate) / std::sqrt(static_cast<double>(N));
    EXPECT_NEAR(mean, 1.0 / rate, 5.0 * sigma);
}

TEST(Arrival, PoissonGapsAreUncorrelated)
{
    serve::ArrivalSpec spec;
    spec.rate_hz = 500.0;
    serve::ArrivalGenerator gen(spec, 0xFEEDull);
    const int N = 100000;
    std::vector<double> gaps;
    double prev = 0.0;
    for (int i = 0; i < N; ++i) {
        double t = gen.next();
        gaps.push_back(t - prev);
        prev = t;
    }
    double mean = 0.0;
    for (double g : gaps)
        mean += g;
    mean /= N;
    double var = 0.0, cov = 0.0;
    for (int i = 0; i < N; ++i) {
        var += (gaps[i] - mean) * (gaps[i] - mean);
        if (i + 1 < N)
            cov += (gaps[i] - mean) * (gaps[i + 1] - mean);
    }
    double r = cov / var;
    // Under independence r ~ N(0, 1/N); 5/sqrt(N) is a >4-sigma band.
    EXPECT_LT(std::abs(r), 5.0 / std::sqrt(static_cast<double>(N)));
}

TEST(Arrival, MmppRatesSolveTheMeanRateIdentity)
{
    serve::ArrivalSpec spec;
    spec.kind = serve::ArrivalKind::mmpp;
    spec.rate_hz = 1000.0;
    spec.burst_factor = 4.0;
    spec.mean_burst_s = 0.01;
    spec.mean_idle_s = 0.04;
    serve::MmppRates rates = serve::mmppRates(spec);
    EXPECT_GT(rates.idle_hz, 0.0);
    EXPECT_NEAR(rates.burst_hz, spec.burst_factor * rates.idle_hz,
                1e-9 * rates.burst_hz);
    // Time-weighted mean over the two states equals rate_hz.
    double p_burst =
        spec.mean_burst_s / (spec.mean_burst_s + spec.mean_idle_s);
    double mean =
        p_burst * rates.burst_hz + (1.0 - p_burst) * rates.idle_hz;
    EXPECT_NEAR(mean, spec.rate_hz, 1e-9 * spec.rate_hz);
}

TEST(Arrival, MmppDwellMeansMatchTheSpec)
{
    // Dwell means are observed through arrival-time proxies: with
    // per-state rates far above 1/dwell, the first arrival after a
    // state switch trails the switch by ~1/rate, a <0.2% bias here.
    // The acceptance band is 5 sigma of the episode-mean estimator
    // (the 4-sigma floor plus margin for that proxy bias).
    serve::ArrivalSpec spec;
    spec.kind = serve::ArrivalKind::mmpp;
    spec.rate_hz = 1e5;
    spec.burst_factor = 4.0;
    spec.mean_burst_s = 0.01;
    spec.mean_idle_s = 0.04;
    serve::ArrivalGenerator gen(spec, 0xB00B5ull);

    const int target_episodes = 600;
    std::vector<double> burst_dwells, idle_dwells;
    bool prev_burst = false;
    double episode_start = 0.0;
    double total_time = 0.0;
    uint64_t arrivals = 0;
    while (burst_dwells.size() <
               static_cast<size_t>(target_episodes) ||
           idle_dwells.size() < static_cast<size_t>(target_episodes)) {
        double t = gen.next();
        ++arrivals;
        total_time = t;
        bool in_burst = gen.inBurst();
        if (in_burst != prev_burst) {
            (prev_burst ? burst_dwells : idle_dwells)
                .push_back(t - episode_start);
            episode_start = t;
            prev_burst = in_burst;
        }
        ASSERT_LT(arrivals, 100000000ull) << "generator never switches";
    }
    auto meanOf = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return sum / static_cast<double>(v.size());
    };
    double burst_mean = meanOf(burst_dwells);
    double idle_mean = meanOf(idle_dwells);
    double burst_sigma =
        spec.mean_burst_s / std::sqrt(double(burst_dwells.size()));
    double idle_sigma =
        spec.mean_idle_s / std::sqrt(double(idle_dwells.size()));
    EXPECT_NEAR(burst_mean, spec.mean_burst_s, 5.0 * burst_sigma);
    EXPECT_NEAR(idle_mean, spec.mean_idle_s, 5.0 * idle_sigma);

    // Long-run rate sanity: dwell randomness dominates the variance of
    // the empirical rate; +-15% is far looser than 4 sigma here.
    double empirical = static_cast<double>(arrivals) / total_time;
    EXPECT_NEAR(empirical, spec.rate_hz, 0.15 * spec.rate_hz);
}

TEST(Arrival, StreamsAreSeedDeterministic)
{
    serve::ArrivalSpec spec;
    spec.kind = serve::ArrivalKind::mmpp;
    spec.rate_hz = 2000.0;
    serve::ArrivalGenerator a(spec, 7), b(spec, 7), c(spec, 8);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        double ta = a.next(), tb = b.next(), tc = c.next();
        EXPECT_EQ(std::bit_cast<uint64_t>(ta),
                  std::bit_cast<uint64_t>(tb))
            << "same seed diverged at arrival " << i;
        diverged = diverged || ta != tc;
    }
    EXPECT_TRUE(diverged) << "different seeds produced equal streams";
}

// --- Serve spec plumbing ---------------------------------------------

TEST(ServeSpec, ArrivalKindNamesRoundTrip)
{
    for (serve::ArrivalKind kind :
         {serve::ArrivalKind::poisson, serve::ArrivalKind::mmpp}) {
        serve::ArrivalKind parsed{};
        ASSERT_TRUE(serve::arrivalKindFromName(
            serve::arrivalKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    serve::ArrivalKind parsed{};
    EXPECT_FALSE(serve::arrivalKindFromName("bursty", parsed));
    EXPECT_FALSE(serve::arrivalKindFromName("", parsed));
}

TEST(ServeSpec, DerivedSeedsAreDistinctAndStable)
{
    EXPECT_EQ(serve::deriveSeed(1, 2), serve::deriveSeed(1, 2));
    EXPECT_NE(serve::deriveSeed(1, 2), serve::deriveSeed(1, 3));
    EXPECT_NE(serve::deriveSeed(1, 2), serve::deriveSeed(2, 2));
    EXPECT_NE(serve::deriveSeed(1, serve::kTenantSeedSalt),
              serve::deriveSeed(1, serve::kServiceSeedSalt));
}

// --- Simulator-side serving ------------------------------------------

std::vector<serve::ServiceSample>
syntheticTable()
{
    return {{0.001, 5.0, 1000}, {0.002, 9.0, 1800}};
}

serve::ServeSpec
syntheticSpec(double utilization)
{
    serve::ServeSpec spec;
    double mean_service = serve::meanServiceSeconds(syntheticTable());
    spec.arrival.rate_hz = utilization / mean_service / 2.0;
    spec.tenants = 2;
    spec.requests = 20000;
    spec.queue_cap = 64;
    spec.deadline_s = 0.0;
    return spec;
}

/** Conservation and internal consistency of one serving result. */
void
expectWellFormed(const SimResult &result, const serve::ServeSpec &spec)
{
    const ServeStats &stats = result.serve;
    ASSERT_TRUE(stats.enabled);
    EXPECT_EQ(stats.submitted, spec.requests);
    EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
    EXPECT_LE(stats.peak_queue, spec.queue_cap);
    EXPECT_EQ(stats.latency.count(), stats.completed);
    ASSERT_EQ(stats.tenant_completed.size(), spec.tenants);
    ASSERT_EQ(stats.tenant_shed.size(), spec.tenants);
    uint64_t tenant_completed = 0, tenant_shed = 0;
    for (uint32_t t = 0; t < spec.tenants; ++t) {
        tenant_completed += stats.tenant_completed[t];
        tenant_shed += stats.tenant_shed[t];
    }
    EXPECT_EQ(tenant_completed, stats.completed);
    EXPECT_EQ(tenant_shed, stats.shed);
    EXPECT_LE(stats.p50, stats.p95);
    EXPECT_LE(stats.p95, stats.p99);
    EXPECT_LE(stats.p99, stats.p999);
    EXPECT_GT(stats.makespan_seconds, 0.0);
    EXPECT_EQ(std::bit_cast<uint64_t>(result.exec_seconds),
              std::bit_cast<uint64_t>(stats.makespan_seconds));
    EXPECT_EQ(result.tasks_executed, stats.completed);
}

TEST(SimServer, ConservesRequestsAndIsDeterministic)
{
    serve::ServeSpec spec = syntheticSpec(0.7);
    SimResult a = serve::simulateService(syntheticTable(), 42, spec);
    expectWellFormed(a, spec);
    EXPECT_EQ(a.serve.shed, 0u) << "no shedding expected at 70% load";

    // Energy/instructions are bounded by the table extremes.
    double n = static_cast<double>(a.serve.completed);
    EXPECT_GE(a.serve.energy, 5.0 * n);
    EXPECT_LE(a.serve.energy, 9.0 * n);
    EXPECT_GE(a.instructions, 1000u * a.serve.completed);
    EXPECT_LE(a.instructions, 1800u * a.serve.completed);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.serve.energy_per_request),
              std::bit_cast<uint64_t>(a.serve.energy / n));

    // Same (table, seed, spec) replays bit-identically.
    SimResult b = serve::simulateService(syntheticTable(), 42, spec);
    stress::expectIdenticalResults(a, b);

    // A different seed is a genuinely different run.
    SimResult c = serve::simulateService(syntheticTable(), 43, spec);
    EXPECT_NE(std::bit_cast<uint64_t>(a.serve.makespan_seconds),
              std::bit_cast<uint64_t>(c.serve.makespan_seconds));
}

TEST(SimServer, HigherUtilizationHasHeavierTails)
{
    SimResult light =
        serve::simulateService(syntheticTable(), 7, syntheticSpec(0.3));
    SimResult heavy =
        serve::simulateService(syntheticTable(), 7, syntheticSpec(0.9));
    EXPECT_GE(heavy.serve.p99, light.serve.p99);
    EXPECT_GT(heavy.serve.mean_latency, light.serve.mean_latency);
}

TEST(SimServer, OverloadShedsAtTheQueueBound)
{
    serve::ServeSpec spec = syntheticSpec(3.0); // 3x capacity
    spec.queue_cap = 8;
    SimResult result = serve::simulateService(syntheticTable(), 11, spec);
    expectWellFormed(result, spec);
    EXPECT_GT(result.serve.shed, 0u);
    EXPECT_EQ(result.serve.peak_queue, spec.queue_cap)
        << "sustained overload must pin the queue at its bound";
}

TEST(SimServer, DeadlineMissesAreCounted)
{
    serve::ServeSpec spec = syntheticSpec(0.5);
    spec.deadline_s = 0.0005; // below the smallest service time
    SimResult result = serve::simulateService(syntheticTable(), 3, spec);
    expectWellFormed(result, spec);
    EXPECT_EQ(result.serve.deadline_misses, result.serve.completed);

    spec.deadline_s = 1e6; // unreachable
    result = serve::simulateService(syntheticTable(), 3, spec);
    EXPECT_EQ(result.serve.deadline_misses, 0u);
}

TEST(SimServer, MachineSampledServiceTableWorksEndToEnd)
{
    serve::ServeSpec spec;
    spec.arrival.rate_hz = 20.0;
    spec.requests = 300;
    spec.service_samples = 2;
    Kernel kernel = makeKernel("dict", 5);
    SimResult result = serve::simulateService(
        serve::sampleServiceTable(configFor(kernel, Variant::base_psm),
                                  "dict", 5, spec.service_samples),
        5, spec);
    expectWellFormed(result, spec);
    EXPECT_GT(result.serve.energy, 0.0);
    EXPECT_GT(result.serve.p50, 0.0);
}

TEST(SimServer, SpecOverridesReachTheServiceTable)
{
    // A serving spec samples its service table on configForSpec's
    // machine, so every override reaches it, the topology included.
    serve::ServeSpec serving;
    serving.arrival.rate_hz = 20.0;
    serving.requests = 300;
    serving.service_samples = 2;
    exp::RunSpec plain{"dict", Variant::base_psm, 5};
    plain.serve = serving;
    Kernel kernel = makeKernel(plain.kernel, plain.seed);
    auto sampled = [&](const exp::RunSpec &spec) {
        return serve::simulateService(
            serve::sampleServiceTable(exp::configForSpec(kernel, spec),
                                      spec.kernel, spec.seed,
                                      serving.service_samples),
            spec.seed, serving);
    };
    const SimResult on_4b4l = sampled(plain);

    exp::RunSpec small = plain;
    small.overrides.topology = "1b7l";
    exp::RunSpec costly = plain;
    costly.overrides.steal_attempt_cycles = 1000;
    for (const exp::RunSpec *spec : {&small, &costly}) {
        SCOPED_TRACE(exp::canonicalSpec(*spec));
        SimResult served = exp::executeSpec(*spec).sim;
        stress::expectIdenticalResults(served, sampled(*spec));
        EXPECT_NE(served.exec_seconds, on_4b4l.exec_seconds);
    }
}

TEST(SimServer, ServeStatsSurviveResultJsonRoundTrip)
{
    serve::ServeSpec spec = syntheticSpec(0.8);
    spec.deadline_s = 0.004;
    SimResult result = serve::simulateService(syntheticTable(), 21, spec);
    std::string text = simResultToJson(result);
    SimResult parsed;
    ASSERT_TRUE(simResultFromJson(text, parsed));
    stress::expectIdenticalResults(result, parsed);
    EXPECT_EQ(simResultToJson(parsed), text) << "round trip must be a "
                                                "byte-level fixed point";
}

// --- Native serving smoke (full sweep lives in the stress suite) -----

TEST(NativeServer, ServesAnOpenLoopStreamAndConserves)
{
    serve::NativeServeOptions options;
    options.threads = 2;
    options.n_big = 1;
    options.variant = Variant::base_psm;
    options.seed = 17;
    options.work_per_request = 2000;
    options.fanout = 3;
    options.spec.arrival.rate_hz = 10000.0;
    options.spec.tenants = 2;
    options.spec.requests = 300;
    options.spec.queue_cap = 64;
    options.spec.deadline_s = 0.05;

    serve::NativeServeResult result = serve::runNativeService(options);
    const ServeStats &stats = result.stats;
    ASSERT_TRUE(stats.enabled);
    EXPECT_EQ(stats.submitted, options.spec.requests);
    EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
    EXPECT_LE(stats.peak_queue, options.spec.queue_cap);
    EXPECT_EQ(stats.latency.count(), stats.completed);
    EXPECT_GT(stats.completed, 0u);
    uint64_t tenant_total = 0;
    for (uint64_t n : stats.tenant_completed)
        tenant_total += n;
    for (uint64_t n : stats.tenant_shed)
        tenant_total += n;
    EXPECT_EQ(tenant_total, stats.submitted);
    EXPECT_GT(stats.p50, 0.0);
    EXPECT_LE(stats.p50, stats.p99);
    EXPECT_GT(stats.makespan_seconds, 0.0);
    EXPECT_GT(stats.energy, 0.0);
    EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(NativeServer, OverloadShedsButNeverExceedsTheBound)
{
    serve::NativeServeOptions options;
    options.threads = 2;
    options.n_big = 1;
    options.variant = Variant::base;
    options.seed = 23;
    options.work_per_request = 50000;
    options.fanout = 2;
    options.spec.arrival.rate_hz = 1e6; // flood
    options.spec.tenants = 2;
    options.spec.requests = 300;
    options.spec.queue_cap = 4;

    serve::NativeServeResult result = serve::runNativeService(options);
    const ServeStats &stats = result.stats;
    EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
    EXPECT_GT(stats.shed, 0u) << "a 4-deep queue must shed a flood";
    EXPECT_LE(stats.peak_queue, options.spec.queue_cap);
}

TEST(NativeServer, CalibrationReturnsAPositiveServiceTime)
{
    serve::NativeServeOptions options;
    options.threads = 2;
    options.n_big = 1;
    options.work_per_request = 2000;
    options.fanout = 3;
    double s = serve::measureNativeServiceSeconds(options, 16);
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0) << "16 tiny requests cannot take a second each";
}

} // namespace
} // namespace aaws
