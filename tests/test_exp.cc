/**
 * @file
 * Unit tests for the experiment engine: the JSON number and string
 * writers, how a spec becomes a machine config, the batch's stats and
 * summary line (and that a batch writes no file), the shared bench
 * CLI, and the aaws-results/v1 artifacts.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/json.h"
#include "exp/cli.h"
#include "exp/engine.h"
#include "exp/results.h"
#include "exp/run_spec.h"
#include "sim/machine.h"
#include "stress/sim_compare.h"

namespace aaws {
namespace {

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const char *name)
{
    fs::path dir = fs::path(::testing::TempDir()) /
                   (std::string("aaws_exp_") + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

exp::RunSpec
sampleSpec()
{
    return exp::RunSpec("dict", Variant::base_psm);
}

TEST(Json, NumbersKeepFullIntegerPrecision)
{
    // 2^63 + 27 is not representable as a double; the parse must keep
    // its raw token exactly.
    uint64_t big = (1ull << 63) + 27;
    json::Value value;
    ASSERT_TRUE(json::parse(std::to_string(big), value));
    EXPECT_EQ(value.kind, json::Value::Kind::number);
    EXPECT_EQ(value.scalar, std::to_string(big));
}

/** `value` as printf spells it with `format`. */
template <typename T>
std::string
printed(const char *format, T value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

TEST(Json, AppendersSpellNumbersAsPrintf)
{
    using dlim = std::numeric_limits<double>;
    using flim = std::numeric_limits<float>;
    std::vector<double> doubles = {
        0.0, -0.0, 0.1, -0.1, 1.0, 1e21, -1e21, 1e16, 1e17, 123456789.0,
        dlim::infinity(), -dlim::infinity(), dlim::quiet_NaN(),
        -dlim::quiet_NaN(), dlim::denorm_min(), -dlim::denorm_min(),
        dlim::min() / 3, dlim::min(), dlim::max(), -dlim::max(),
        dlim::epsilon()};
    // Random bit patterns cover every exponent, NaN payloads included.
    uint64_t bits = 0x243F6A8885A308D3ull;
    for (int i = 0; i < 4096; ++i) {
        bits ^= bits << 13;
        bits ^= bits >> 7;
        bits ^= bits << 17;
        doubles.push_back(std::bit_cast<double>(bits));
        doubles.push_back(static_cast<double>(bits % 1000003) / 1000.0);
    }
    for (double value : doubles) {
        std::string out = "x";
        json::appendDouble(out, value);
        EXPECT_EQ(out, "x" + printed("%.17g", value));
        EXPECT_EQ(json::encodeDouble(value), printed("%.17g", value));

        float narrow = static_cast<float>(value);
        out.clear();
        json::appendFloat(out, narrow);
        EXPECT_EQ(out, printed("%.9g", static_cast<double>(narrow)));
    }
    for (float value : {flim::denorm_min(), flim::min(), flim::max(),
                        -flim::max(), 0.1f, 3.3f}) {
        std::string out;
        json::appendFloat(out, value);
        EXPECT_EQ(out, printed("%.9g", static_cast<double>(value)));
    }
    for (uint64_t value :
         {uint64_t{0}, uint64_t{9}, uint64_t{10}, uint64_t{4294967295},
          uint64_t{4294967296}, ~uint64_t{0}}) {
        std::string out;
        json::appendU64(out, value);
        EXPECT_EQ(out, printed("%llu",
                               static_cast<unsigned long long>(value)));
    }
}

TEST(Json, StringsEscapeControlCharacters)
{
    std::string out;
    json::appendString(out, std::string("a\"b\\c\n\r\t\x01\x1f"));
    EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\"");
    json::Value value;
    ASSERT_TRUE(json::parse(out, value));
    std::string back;
    ASSERT_TRUE(value.getString(back));
    EXPECT_EQ(back, std::string("a\"b\\c\n\r\t\x01\x1f"));
}

TEST(RunSpec, CanonicalFormAlwaysNamesTheTopology)
{
    // An unset topology is the default 4b4l machine.
    exp::RunSpec spec = sampleSpec();
    Kernel kernel = makeKernel(spec.kernel, spec.seed);
    EXPECT_EQ(exp::configForSpec(kernel, spec).topology, "4b4l");

    // The preset name is the machine config's shape.
    spec.overrides.topology = "2b2m4l";
    MachineConfig config = exp::configForSpec(kernel, spec);
    EXPECT_EQ(config.topology, "2b2m4l");
    Machine machine(config, kernel.dag);
    EXPECT_EQ(machine.numClusters(), 3);
    EXPECT_EQ(machine.numCores(), 8);
}

TEST(BenchCli, FilterMatchesSubstrings)
{
    exp::BenchCli cli;
    EXPECT_TRUE(cli.matches("dict")) << "empty filter matches all";
    cli.filter = "radix";
    EXPECT_TRUE(cli.matches("radix-1"));
    EXPECT_TRUE(cli.matches("radix-2"));
    EXPECT_FALSE(cli.matches("dict"));
    std::vector<std::string> filtered =
        cli.filterNames({"radix-1", "dict", "radix-2"});
    EXPECT_EQ(filtered,
              (std::vector<std::string>{"radix-1", "radix-2"}));
}

TEST(BenchCli, ParseReadsSharedFlags)
{
    const char *argv[] = {"bench", "--jobs=3", "--filter=uts",
                          "--no-progress"};
    exp::BenchCli cli;
    cli.parse(4, const_cast<char **>(argv));
    EXPECT_EQ(cli.engine.jobs, 3);
    EXPECT_EQ(cli.filter, "uts");
    EXPECT_FALSE(cli.engine.progress);
}

TEST(BenchCli, ParseClampsNonPositiveJobsToAuto)
{
    // 0 and negatives mean "auto" (hardware concurrency via the
    // engine), not an error: sweep drivers pass --jobs straight
    // through from environment math that can go non-positive.
    {
        const char *argv[] = {"bench", "--jobs=0"};
        exp::BenchCli cli;
        cli.parse(2, const_cast<char **>(argv));
        EXPECT_EQ(cli.engine.jobs, 0);
    }
    {
        const char *argv[] = {"bench", "--jobs=-4"};
        exp::BenchCli cli;
        cli.parse(2, const_cast<char **>(argv));
        EXPECT_EQ(cli.engine.jobs, 0);
    }
}

TEST(BenchCli, UnknownArgumentsAreFatal)
{
    // Perf switches are not bench options: like any argument the CLI
    // does not define, they are fatal.
    auto parse = [](const char *arg) {
        const char *argv[] = {"bench", arg};
        exp::BenchCli cli;
        cli.parse(2, const_cast<char **>(argv));
    };
    EXPECT_EXIT(parse("--time"), ::testing::ExitedWithCode(1),
                "unknown argument '--time'");
    EXPECT_EXIT(parse("--bench-json=perf.json"),
                ::testing::ExitedWithCode(1),
                "unknown argument '--bench-json=perf.json'");
}

TEST(BenchCli, ParseBackendSelectionIsStrict)
{
    exp::BackendSelection out = exp::BackendSelection::deque;
    EXPECT_TRUE(exp::parseBackendSelection("all", out));
    EXPECT_EQ(out, exp::BackendSelection::all);
    EXPECT_TRUE(exp::parseBackendSelection("deque", out));
    EXPECT_EQ(out, exp::BackendSelection::deque);
    EXPECT_TRUE(exp::parseBackendSelection("chan", out));
    EXPECT_EQ(out, exp::BackendSelection::chan);

    // Near-misses fail instead of guessing, and leave `out` untouched.
    out = exp::BackendSelection::chan;
    EXPECT_FALSE(exp::parseBackendSelection("deques", out));
    EXPECT_FALSE(exp::parseBackendSelection("Chan", out));
    EXPECT_FALSE(exp::parseBackendSelection("chan ", out));
    EXPECT_FALSE(exp::parseBackendSelection("", out));
    EXPECT_FALSE(exp::parseBackendSelection(nullptr, out));
    EXPECT_EQ(out, exp::BackendSelection::chan);
}

TEST(BenchCli, ParseReadsBackendFlag)
{
    const char *argv[] = {"bench", "--backend=chan"};
    exp::BenchCli cli;
    cli.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(cli.backend, exp::BackendSelection::chan);
    EXPECT_TRUE(cli.backendEnabled(BackendKind::chan));
    EXPECT_FALSE(cli.backendEnabled(BackendKind::deque));
}

TEST(BenchCli, BackendDefaultsToAll)
{
    const char *argv[] = {"bench"};
    exp::BenchCli cli;
    cli.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(cli.backend, exp::BackendSelection::all);
    EXPECT_TRUE(cli.backendEnabled(BackendKind::deque));
    EXPECT_TRUE(cli.backendEnabled(BackendKind::chan));
}

TEST(BenchCli, ParseReadsTopologyFlag)
{
    const char *argv[] = {"bench", "--topology=2b2m4l"};
    exp::BenchCli cli;
    cli.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(cli.topology, "2b2m4l");
}

TEST(BenchCli, TopologyDefaultsToEmpty)
{
    const char *argv[] = {"bench"};
    exp::BenchCli cli;
    cli.parse(1, const_cast<char **>(argv));
    EXPECT_TRUE(cli.topology.empty());
}

TEST(Engine, ResolveJobsClampsToBatchSize)
{
    EXPECT_EQ(exp::resolveJobs(8, 3), 3);
    EXPECT_EQ(exp::resolveJobs(2, 100), 2);
    EXPECT_GE(exp::resolveJobs(0, 100), 1);
}

TEST(Engine, ParseJobsIsStrict)
{
    int out = -1;
    EXPECT_TRUE(exp::parseJobs("4", out));
    EXPECT_EQ(out, 4);
    EXPECT_TRUE(exp::parseJobs("0", out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(exp::parseJobs("-3", out));
    EXPECT_EQ(out, -3);
    EXPECT_TRUE(exp::parseJobs("  7", out)) << "strtol skips leading ws";
    EXPECT_EQ(out, 7);

    // Trailing garbage, empty, and non-numeric input all fail instead
    // of silently truncating ("4x" used to parse as 4).
    EXPECT_FALSE(exp::parseJobs("4x", out));
    EXPECT_FALSE(exp::parseJobs("", out));
    EXPECT_FALSE(exp::parseJobs(nullptr, out));
    EXPECT_FALSE(exp::parseJobs("jobs", out));
    EXPECT_FALSE(exp::parseJobs("4 ", out));
    EXPECT_FALSE(exp::parseJobs("0x10", out));

    // Out-of-range values fail via ERANGE / the int-range check
    // instead of saturating to LONG_MAX ("--jobs" used to accept
    // these and spawn LONG_MAX-clamped worker counts).
    EXPECT_FALSE(exp::parseJobs("99999999999999999999", out));
    EXPECT_FALSE(exp::parseJobs("-99999999999999999999", out));
    EXPECT_FALSE(exp::parseJobs("2147483648", out)) << "INT_MAX + 1";
    EXPECT_TRUE(exp::parseJobs("2147483647", out));
    EXPECT_EQ(out, std::numeric_limits<int>::max());
}

TEST(Results, PointRoundTripsThroughJson)
{
    exp::ResultPoint point;
    point.bench = "table3_kernel_stats";
    point.series = "vs_serial_io";
    point.kernel = "dict";
    point.shape = "4B4L";
    point.variant = "base";
    point.metric = "speedup";
    point.value = 9.3393216180100801;

    std::string line = exp::resultPointToJson(point);
    EXPECT_EQ(line.find('\n'), std::string::npos) << "one line";
    EXPECT_NE(line.find("\"schema\":\"aaws-results/v1\""),
              std::string::npos);

    exp::ResultPoint parsed;
    ASSERT_TRUE(exp::resultPointFromJson(line, parsed));
    EXPECT_TRUE(parsed.sameKey(point));
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed.value),
              std::bit_cast<uint64_t>(point.value))
        << "value must round-trip bit-identically";
    EXPECT_EQ(exp::resultPointToJson(parsed), line) << "fixed point";
}

TEST(Results, AggregatePointsOmitOptionalFields)
{
    exp::ResultPoint point;
    point.bench = "fig09_energy_vs_perf";
    point.series = "psm_summary";
    point.metric = "median_efficiency";
    point.value = 1.08;
    std::string line = exp::resultPointToJson(point);
    EXPECT_EQ(line.find("kernel"), std::string::npos);
    EXPECT_EQ(line.find("shape"), std::string::npos);
    EXPECT_EQ(line.find("variant"), std::string::npos);

    exp::ResultPoint parsed;
    ASSERT_TRUE(exp::resultPointFromJson(line, parsed));
    EXPECT_TRUE(parsed.sameKey(point));
}

TEST(Results, ParserRejectsMalformedLines)
{
    exp::ResultPoint out;
    EXPECT_FALSE(exp::resultPointFromJson("{", out));
    EXPECT_FALSE(exp::resultPointFromJson("{}", out));
    // Wrong or missing schema tag fails closed.
    EXPECT_FALSE(exp::resultPointFromJson(
        "{\"schema\":\"aaws-results/v2\",\"bench\":\"b\","
        "\"series\":\"s\",\"metric\":\"m\",\"value\":1}",
        out));
    EXPECT_FALSE(exp::resultPointFromJson(
        "{\"bench\":\"b\",\"series\":\"s\",\"metric\":\"m\","
        "\"value\":1}",
        out));
    // Missing required members.
    EXPECT_FALSE(exp::resultPointFromJson(
        "{\"schema\":\"aaws-results/v1\",\"bench\":\"b\","
        "\"series\":\"s\",\"metric\":\"m\"}",
        out));
    EXPECT_FALSE(exp::resultPointFromJson(
        "{\"schema\":\"aaws-results/v1\",\"series\":\"s\","
        "\"metric\":\"m\",\"value\":1}",
        out));
}

TEST(Results, WriterRoundTripsThroughLoadResults)
{
    fs::path dir = scratchDir("results_writer");
    fs::path artifact = dir / "points.jsonl";

    exp::ResultsWriter writer;
    EXPECT_FALSE(writer.enabled());
    writer.open(artifact.string(), "unit_bench");
    EXPECT_TRUE(writer.enabled());

    exp::ResultPoint full;
    full.series = "vs_base";
    full.kernel = "dict";
    full.shape = "4B4L";
    full.variant = "base+psm";
    full.metric = "speedup";
    full.value = 1.1078350112199999;
    writer.add(full);
    writer.add("summary", "median", 1.25);
    ASSERT_TRUE(writer.close());
    EXPECT_TRUE(writer.close()) << "close is idempotent";

    std::vector<exp::ResultPoint> loaded;
    ASSERT_TRUE(exp::loadResults(artifact.string(), loaded));
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].bench, "unit_bench")
        << "the writer stamps its bench name on every point";
    EXPECT_EQ(loaded[0].kernel, "dict");
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded[0].value),
              std::bit_cast<uint64_t>(full.value));
    EXPECT_EQ(loaded[1].bench, "unit_bench");
    EXPECT_EQ(loaded[1].series, "summary");
    EXPECT_EQ(loaded[1].kernel, "");
    EXPECT_EQ(loaded[1].value, 1.25);

    // A disabled writer swallows datapoints without touching disk.
    exp::ResultsWriter disabled;
    disabled.add(full);
    EXPECT_TRUE(disabled.close());
    EXPECT_TRUE(disabled.points().empty());
}

TEST(Results, LoadResultsRejectsCorruptArtifacts)
{
    fs::path dir = scratchDir("results_load");
    fs::path artifact = dir / "bad.jsonl";
    {
        std::ofstream out(artifact);
        out << "{\"schema\":\"aaws-results/v1\",\"bench\":\"b\","
               "\"series\":\"s\",\"metric\":\"m\",\"value\":1}\n"
            << "\n" // blank lines are fine
            << "this is not json\n";
    }
    std::vector<exp::ResultPoint> loaded;
    EXPECT_FALSE(exp::loadResults(artifact.string(), loaded));
    EXPECT_FALSE(
        exp::loadResults((dir / "nonexistent.jsonl").string(), loaded));
}

TEST(BenchCli, ResultsJsonFlagOpensWriter)
{
    fs::path dir = scratchDir("cli_results");
    fs::path artifact = dir / "out.jsonl";
    std::string flag = "--results-json=" + artifact.string();
    const char *argv[] = {"some/dir/my_bench", flag.c_str()};
    exp::BenchCli cli;
    cli.parse(2, const_cast<char **>(argv));
    ASSERT_TRUE(cli.results.enabled());
    cli.results.add("series_a", "metric_b", 2.0);
    ASSERT_TRUE(cli.results.close());

    std::vector<exp::ResultPoint> loaded;
    ASSERT_TRUE(exp::loadResults(artifact.string(), loaded));
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].bench, "my_bench")
        << "artifact bench field is argv[0]'s basename";
}

TEST(Engine, BatchStatsCountSimEvents)
{
    exp::EngineOptions options;
    options.jobs = 1;
    options.progress = false;
    exp::RunSpec other = sampleSpec();
    other.variant = Variant::base;
    std::vector<exp::RunSpec> specs = {sampleSpec(), other, sampleSpec()};

    // Every slot simulates, a duplicate spec included; events
    // accumulate over all of them.
    exp::BatchStats stats;
    std::vector<RunResult> results = exp::runBatch(specs, options, &stats);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(stats.jobs, 1);
    EXPECT_EQ(stats.sim_events, results[0].sim.sim_events +
                                    results[1].sim.sim_events +
                                    results[2].sim.sim_events);
    EXPECT_GT(stats.sim_events, 0u);
}

TEST(Engine, SummaryLineReportsExecutedEvents)
{
    exp::EngineOptions options;
    options.jobs = 1;

    ::testing::internal::CaptureStderr();
    exp::BatchStats stats;
    exp::runBatch({sampleSpec()}, options, &stats);
    std::string err = ::testing::internal::GetCapturedStderr();
    size_t at = err.rfind("[aaws-exp] batch complete: ");
    std::string line = at == std::string::npos ? err : err.substr(at);

    // The line ends with the elapsed time to the millisecond and the
    // simulations' event count.
    EXPECT_GT(stats.sim_events, 0u);
    EXPECT_TRUE(line.ends_with(strfmt(
        " 1 runs, 1 jobs, %.3fs, %llu events\n", stats.elapsed_seconds,
        static_cast<unsigned long long>(stats.sim_events))))
        << line;
}

TEST(Engine, BatchLeavesNoFileBehind)
{
    // A batch reads and writes nothing but its results: run one with
    // the default options from an empty directory, which must stay
    // empty.
    fs::path dir = scratchDir("engine_no_files");
    fs::path previous = fs::current_path();
    fs::current_path(dir);
    exp::RunSpec traced("qsort-1", Variant::base_psm, exp::kDefaultSeed,
                        /*trace=*/true);
    exp::RunSpec small = sampleSpec();
    small.overrides.topology = "1b7l";
    std::vector<RunResult> results =
        exp::runBatch({sampleSpec(), traced, small});
    fs::current_path(previous);
    EXPECT_EQ(results.size(), 3u);
    EXPECT_TRUE(fs::is_empty(dir))
        << fs::directory_iterator(dir)->path() << " was left behind";
}

// --- Open-loop serving dimension ------------------------------------

exp::RunSpec
serveSpecSample()
{
    exp::RunSpec spec("dict", Variant::base_ps);
    serve::ServeSpec serve_spec;
    serve_spec.arrival.kind = serve::ArrivalKind::mmpp;
    serve_spec.arrival.rate_hz = 40.0;
    serve_spec.requests = 2000;
    serve_spec.tenants = 3;
    serve_spec.queue_cap = 16;
    serve_spec.deadline_s = 0.5;
    serve_spec.service_samples = 2;
    spec.serve = serve_spec;
    return spec;
}

TEST(Engine, ServeBatchIsJobsInvariant)
{
    // Slot-ordered results: a serving sweep must be byte-identical
    // between --jobs=1 and --jobs=4, like every other batch.
    std::vector<exp::RunSpec> specs;
    for (Variant v : {Variant::base, Variant::base_psm}) {
        exp::RunSpec spec = serveSpecSample();
        spec.variant = v;
        spec.serve->requests = 1500;
        specs.push_back(spec);
    }
    exp::EngineOptions options;
    options.progress = false;
    options.jobs = 1;
    std::vector<RunResult> serial = exp::runBatch(specs, options);
    options.jobs = 4;
    std::vector<RunResult> parallel = exp::runBatch(specs, options);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "slot " << i);
        EXPECT_EQ(exp::runResultToJson(serial[i]),
                  exp::runResultToJson(parallel[i]));
        stress::expectIdenticalResults(serial[i].sim, parallel[i].sim);
    }
}

} // namespace
} // namespace aaws
