/**
 * @file
 * Unit tests for the experiment engine: JSON round-tripping of
 * simulation results (bit-identical, the same contract style as
 * stress_determinism), canonical spec hashing, result-cache hit/miss
 * semantics including corrupt-file tolerance, and the shared bench
 * CLI's kernel filter.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/json.h"
#include "exp/cache.h"
#include "exp/cli.h"
#include "exp/engine.h"
#include "exp/results.h"
#include "exp/run_spec.h"
#include "sim/result_json.h"
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

TEST(ResultJson, SimResultRoundTripsBitIdentically)
{
    // Trace enabled exercises every serialized field, including the
    // record array.
    RunResult run = exp::executeSpec(
        {"dict", Variant::base_psm, exp::kDefaultSeed, /*trace=*/true});
    std::string text = simResultToJson(run.sim);
    EXPECT_EQ(text.find('\n'), std::string::npos) << "must be one line";

    SimResult parsed;
    ASSERT_TRUE(simResultFromJson(text, parsed));
    stress::expectIdenticalResults(run.sim, parsed);
    EXPECT_EQ(run.sim.trace.enabled(), parsed.trace.enabled());
    EXPECT_EQ(run.sim.trace.end(), parsed.trace.end());

    // And the round trip is a fixed point: serializing the parsed
    // result reproduces the text byte-for-byte.
    EXPECT_EQ(text, simResultToJson(parsed));
}

TEST(ResultJson, RunResultRoundTripPreservesIdentity)
{
    exp::RunSpec spec{"qsort-1", Variant::base_m};
    spec.overrides.topology = "1b7l";
    RunResult run = exp::executeSpec(spec);
    std::string text = exp::runResultToJson(run);
    RunResult parsed;
    ASSERT_TRUE(exp::runResultFromJson(text, parsed));
    EXPECT_EQ(parsed.kernel, "qsort-1");
    EXPECT_EQ(parsed.variant, Variant::base_m);
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed.sim.exec_seconds),
              std::bit_cast<uint64_t>(run.sim.exec_seconds));
    stress::expectIdenticalResults(run.sim, parsed.sim);
}

TEST(ResultJson, RejectsMalformedInput)
{
    SimResult sim;
    EXPECT_FALSE(simResultFromJson(std::string("{"), sim));
    EXPECT_FALSE(simResultFromJson(std::string("{}"), sim));
    EXPECT_FALSE(simResultFromJson(std::string("not json at all"), sim));
    RunResult run;
    EXPECT_FALSE(exp::runResultFromJson("{\"kernel\":\"x\"}", run));
    // Unknown enum names fail closed instead of fatal()ing.
    EXPECT_FALSE(exp::runResultFromJson(
        "{\"kernel\":\"dict\",\"variant\":\"turbo\",\"sim\":{}}", run));
}

TEST(Json, NumbersKeepFullIntegerPrecision)
{
    // 2^63 + 27 is not representable as a double; the raw-token parse
    // must still recover it exactly.
    uint64_t big = (1ull << 63) + 27;
    json::Value value;
    ASSERT_TRUE(json::parse(std::to_string(big), value));
    uint64_t parsed = 0;
    ASSERT_TRUE(value.getU64(parsed));
    EXPECT_EQ(parsed, big);
}

TEST(RunSpec, CanonicalFormCoversEveryField)
{
    exp::RunSpec spec = sampleSpec();
    std::string canonical = exp::canonicalSpec(spec);
    EXPECT_NE(canonical.find("kernel=dict"), std::string::npos);
    EXPECT_NE(canonical.find(";topology=4b4l;"), std::string::npos);
    EXPECT_NE(canonical.find("variant=base+psm"), std::string::npos);
    // The topology is the only machine description.
    EXPECT_EQ(canonical.find("system="), std::string::npos);
    EXPECT_EQ(canonical.find("n_big="), std::string::npos);
    // Unset overrides stay out of the canonical form so hashes remain
    // stable when new override knobs are added.
    EXPECT_EQ(canonical.find("steal_attempt_cycles"), std::string::npos);

    spec.overrides.steal_attempt_cycles = 1000;
    EXPECT_NE(exp::canonicalSpec(spec).find(";steal_attempt_cycles=1000"),
              std::string::npos);
}

TEST(RunSpec, CanonicalFormAlwaysNamesTheTopology)
{
    // An unset topology is the default 4b4l machine: the two specs are
    // one cache entry.
    exp::RunSpec spec = sampleSpec();
    exp::RunSpec named = sampleSpec();
    named.overrides.topology = "4b4l";
    EXPECT_EQ(exp::canonicalSpec(spec), exp::canonicalSpec(named));
    EXPECT_EQ(exp::specHash(spec), exp::specHash(named));

    spec.overrides.topology = "2b2m4l";
    EXPECT_NE(exp::canonicalSpec(spec).find(";topology=2b2m4l;"),
              std::string::npos);
    EXPECT_NE(exp::specHash(spec), exp::specHash(sampleSpec()));

    // Different presets hash apart.
    exp::RunSpec other = sampleSpec();
    other.overrides.topology = "1b7l";
    EXPECT_NE(exp::specHash(spec), exp::specHash(other));

    // The preset name is the machine config's shape.
    Kernel kernel = makeKernel(spec.kernel, spec.seed);
    MachineConfig config = exp::configForSpec(kernel, spec);
    EXPECT_EQ(config.topology, "2b2m4l");
    Machine machine(config, kernel.dag);
    EXPECT_EQ(machine.numClusters(), 3);
    EXPECT_EQ(machine.numCores(), 8);
}

TEST(RunSpec, HashSeparatesSpecs)
{
    exp::RunSpec spec = sampleSpec();
    EXPECT_EQ(exp::specHash(spec), exp::specHash(sampleSpec()));

    exp::RunSpec other = sampleSpec();
    other.variant = Variant::base;
    EXPECT_NE(exp::specHash(spec), exp::specHash(other));

    other = sampleSpec();
    other.seed ^= 1;
    EXPECT_NE(exp::specHash(spec), exp::specHash(other));

    other = sampleSpec();
    other.overrides.steal_attempt_cycles = 30;
    EXPECT_NE(exp::specHash(spec), exp::specHash(other));

    other = sampleSpec();
    other.collect_trace = true;
    EXPECT_NE(exp::specHash(spec), exp::specHash(other));
}

TEST(ResultCache, StoreThenLookupRoundTrips)
{
    fs::path dir = scratchDir("cache_roundtrip");
    exp::ResultCache cache(true, dir.string());
    exp::RunSpec spec = sampleSpec();

    RunResult miss;
    EXPECT_FALSE(cache.lookup(spec, miss)) << "cold cache must miss";

    RunResult computed = exp::executeSpec(spec);
    ASSERT_TRUE(cache.store(spec, computed));
    RunResult hit;
    ASSERT_TRUE(cache.lookup(spec, hit));
    EXPECT_EQ(hit.kernel, computed.kernel);
    stress::expectIdenticalResults(computed.sim, hit.sim);

    // A different spec never sees that entry.
    exp::RunSpec other = sampleSpec();
    other.variant = Variant::base;
    EXPECT_FALSE(cache.lookup(other, miss));
}

TEST(ResultCache, CorruptOrTruncatedFilesReadAsMisses)
{
    fs::path dir = scratchDir("cache_corrupt");
    exp::ResultCache cache(true, dir.string());
    exp::RunSpec spec = sampleSpec();
    RunResult computed = exp::executeSpec(spec);
    ASSERT_TRUE(cache.store(spec, computed));
    std::string path = cache.pathFor(spec);

    // Truncate to half: unparsable, must miss (not crash).
    {
        std::ifstream in(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    RunResult out_result;
    EXPECT_FALSE(cache.lookup(spec, out_result));

    // Garbage bytes: miss.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "\x00\xff garbage {]";
    }
    EXPECT_FALSE(cache.lookup(spec, out_result));

    // Valid JSON recorded for a *different* canonical spec (as after a
    // schema change or hash collision): miss.
    {
        exp::RunSpec other = sampleSpec();
        other.seed ^= 1;
        std::string record = "{\"schema\":1,\"spec\":" +
                             json::encodeString(exp::canonicalSpec(other)) +
                             ",\"result\":" +
                             exp::runResultToJson(computed) + "}";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << record;
    }
    EXPECT_FALSE(cache.lookup(spec, out_result));

    // Re-storing repairs the entry.
    ASSERT_TRUE(cache.store(spec, computed));
    EXPECT_TRUE(cache.lookup(spec, out_result));
}

TEST(ResultCache, DisabledCacheNeverTouchesDisk)
{
    fs::path dir = scratchDir("cache_disabled");
    fs::remove_all(dir);
    exp::ResultCache cache(false, dir.string());
    EXPECT_FALSE(cache.enabled());
    exp::RunSpec spec = sampleSpec();
    RunResult computed = exp::executeSpec(spec);
    EXPECT_FALSE(cache.store(spec, computed));
    RunResult out_result;
    EXPECT_FALSE(cache.lookup(spec, out_result));
    EXPECT_FALSE(fs::exists(dir));
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
                          "--no-cache", "--cache-dir=/tmp/x",
                          "--no-progress"};
    exp::BenchCli cli;
    cli.parse(6, const_cast<char **>(argv));
    EXPECT_EQ(cli.engine.jobs, 3);
    EXPECT_EQ(cli.filter, "uts");
    EXPECT_FALSE(cli.engine.use_cache);
    EXPECT_EQ(cli.engine.cache_dir, "/tmp/x");
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

    // Near-misses fail instead of guessing, and leave `out` untouched
    // so env fallback keeps whatever was already resolved.
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

TEST(BenchCli, BackendEnvParsesAndMalformedIsIgnored)
{
    // AAWS_BACKEND follows the strict-flag / lenient-env split
    // parseJobs established: a malformed environment value warns and
    // falls back to the default instead of aborting the bench.
    const char *argv[] = {"bench"};
    ASSERT_EQ(setenv("AAWS_BACKEND", "deque", 1), 0);
    {
        exp::BenchCli cli;
        cli.parse(1, const_cast<char **>(argv));
        EXPECT_EQ(cli.backend, exp::BackendSelection::deque);
    }
    ASSERT_EQ(setenv("AAWS_BACKEND", "channel-based", 1), 0);
    {
        exp::BenchCli cli;
        cli.parse(1, const_cast<char **>(argv));
        EXPECT_EQ(cli.backend, exp::BackendSelection::all)
            << "malformed env ignored";
    }
    // An explicit flag beats even a well-formed environment value.
    ASSERT_EQ(setenv("AAWS_BACKEND", "deque", 1), 0);
    {
        const char *flag_argv[] = {"bench", "--backend=chan"};
        exp::BenchCli cli;
        cli.parse(2, const_cast<char **>(flag_argv));
        EXPECT_EQ(cli.backend, exp::BackendSelection::chan);
    }
    ASSERT_EQ(unsetenv("AAWS_BACKEND"), 0);
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

TEST(BenchCli, TopologyEnvParsesAndMalformedIsIgnored)
{
    // AAWS_TOPOLOGY follows the strict-flag / lenient-env split: a
    // malformed environment value warns and is ignored instead of
    // aborting the bench.
    const char *argv[] = {"bench"};
    ASSERT_EQ(setenv("AAWS_TOPOLOGY", "1b7l", 1), 0);
    {
        exp::BenchCli cli;
        cli.parse(1, const_cast<char **>(argv));
        EXPECT_EQ(cli.topology, "1b7l");
    }
    ASSERT_EQ(setenv("AAWS_TOPOLOGY", "4l4b", 1), 0);
    {
        // Kinds must run fastest-to-slowest; "4l4b" is rejected.
        exp::BenchCli cli;
        cli.parse(1, const_cast<char **>(argv));
        EXPECT_TRUE(cli.topology.empty()) << "malformed env ignored";
    }
    // An explicit flag beats even a well-formed environment value.
    ASSERT_EQ(setenv("AAWS_TOPOLOGY", "1b7l", 1), 0);
    {
        const char *flag_argv[] = {"bench", "--topology=4b4l"};
        exp::BenchCli cli;
        cli.parse(2, const_cast<char **>(flag_argv));
        EXPECT_EQ(cli.topology, "4b4l");
    }
    ASSERT_EQ(unsetenv("AAWS_TOPOLOGY"), 0);
}

TEST(ResultCache, ConstructorIgnoresEnvironment)
{
    // The cache honors exactly what it is constructed with; the
    // environment is resolved by BenchCli::parse.  (An earlier version
    // read AAWS_EXP_NO_CACHE/AAWS_EXP_CACHE_DIR in this constructor,
    // which let the environment override a caller's explicit choice.)
    ASSERT_EQ(setenv("AAWS_EXP_NO_CACHE", "1", 1), 0);
    ASSERT_EQ(setenv("AAWS_EXP_CACHE_DIR", "/tmp/env-cache-dir", 1), 0);
    exp::ResultCache cache(true, "/tmp/ctor-cache-dir");
    EXPECT_TRUE(cache.enabled())
        << "explicitly-enabled cache survives AAWS_EXP_NO_CACHE";
    EXPECT_EQ(cache.dir(), "/tmp/ctor-cache-dir");
    exp::ResultCache defaulted(true);
    EXPECT_EQ(defaulted.dir(), exp::kDefaultCacheDir)
        << "empty dir means the compiled-in default, not the env";
    ASSERT_EQ(unsetenv("AAWS_EXP_NO_CACHE"), 0);
    ASSERT_EQ(unsetenv("AAWS_EXP_CACHE_DIR"), 0);
}

TEST(BenchCli, CacheEnvFillsOnlyFlaglessKnobs)
{
    ASSERT_EQ(setenv("AAWS_EXP_NO_CACHE", "1", 1), 0);
    ASSERT_EQ(setenv("AAWS_EXP_CACHE_DIR", "/tmp/env-cache-dir", 1), 0);
    {
        const char *argv[] = {"bench"};
        exp::BenchCli cli;
        cli.parse(1, const_cast<char **>(argv));
        EXPECT_FALSE(cli.engine.use_cache) << "env fallback applies";
        EXPECT_EQ(cli.engine.cache_dir, "/tmp/env-cache-dir");
    }
    {
        // Flags beat the environment (the --jobs/AAWS_EXP_JOBS
        // contract, applied to the cache knobs too).
        const char *argv[] = {"bench", "--cache-dir=/tmp/flag-dir"};
        exp::BenchCli cli;
        cli.parse(2, const_cast<char **>(argv));
        EXPECT_EQ(cli.engine.cache_dir, "/tmp/flag-dir");
    }
    // Empty env values are "unset", not "enable with empty dir".
    ASSERT_EQ(setenv("AAWS_EXP_NO_CACHE", "", 1), 0);
    ASSERT_EQ(setenv("AAWS_EXP_CACHE_DIR", "", 1), 0);
    {
        const char *argv[] = {"bench"};
        exp::BenchCli cli;
        cli.parse(1, const_cast<char **>(argv));
        EXPECT_TRUE(cli.engine.use_cache);
        EXPECT_EQ(cli.engine.cache_dir, "");
    }
    ASSERT_EQ(unsetenv("AAWS_EXP_NO_CACHE"), 0);
    ASSERT_EQ(unsetenv("AAWS_EXP_CACHE_DIR"), 0);
}

TEST(BenchCli, FilterFlagBeatsEnvironment)
{
    ASSERT_EQ(setenv("AAWS_KERNEL_FILTER", "radix", 1), 0);
    {
        const char *argv[] = {"bench"};
        exp::BenchCli cli;
        cli.parse(1, const_cast<char **>(argv));
        EXPECT_EQ(cli.filter, "radix");
    }
    {
        const char *argv[] = {"bench", "--filter=dict"};
        exp::BenchCli cli;
        cli.parse(2, const_cast<char **>(argv));
        EXPECT_EQ(cli.filter, "dict");
    }
    ASSERT_EQ(unsetenv("AAWS_KERNEL_FILTER"), 0);
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

TEST(Engine, ResolveJobsIgnoresMalformedEnv)
{
    // AAWS_EXP_JOBS goes through the same strict parser as --jobs:
    // malformed values warn and fall back to auto-detection rather
    // than being truncated by a bare atoi.
    ASSERT_EQ(setenv("AAWS_EXP_JOBS", "3", 1), 0);
    EXPECT_EQ(exp::resolveJobs(0, 100), 3);
    ASSERT_EQ(setenv("AAWS_EXP_JOBS", "3 workers", 1), 0);
    EXPECT_GE(exp::resolveJobs(0, 100), 1) << "falls back to auto";
    EXPECT_EQ(exp::resolveJobs(5, 100), 5)
        << "explicit --jobs bypasses the env entirely";
    ASSERT_EQ(setenv("AAWS_EXP_JOBS", "99999999999999999999", 1), 0);
    EXPECT_GE(exp::resolveJobs(0, 100), 1);
    ASSERT_EQ(unsetenv("AAWS_EXP_JOBS"), 0);
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

TEST(BenchCli, ResultsJsonEnvOpensWriter)
{
    fs::path dir = scratchDir("cli_results_env");
    fs::path artifact = dir / "env.jsonl";
    ASSERT_EQ(setenv("AAWS_RESULTS_JSON", artifact.c_str(), 1), 0);
    const char *argv[] = {"env_bench"};
    exp::BenchCli cli;
    cli.parse(1, const_cast<char **>(argv));
    ASSERT_EQ(unsetenv("AAWS_RESULTS_JSON"), 0);
    ASSERT_TRUE(cli.results.enabled());
    cli.results.add("s", "m", 1.0);
    ASSERT_TRUE(cli.results.close());
    std::vector<exp::ResultPoint> loaded;
    ASSERT_TRUE(exp::loadResults(artifact.string(), loaded));
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].bench, "env_bench");
}

TEST(Engine, BatchStatsCountSimEvents)
{
    fs::path dir = scratchDir("engine_sim_events");
    exp::EngineOptions options;
    options.jobs = 1;
    options.cache_dir = dir.string();
    options.progress = false;
    // Distinct specs: a duplicate would hit the cache mid-batch.
    exp::RunSpec other = sampleSpec();
    other.variant = Variant::base;
    std::vector<exp::RunSpec> specs = {sampleSpec(), other};

    // Cold: both specs execute; events accumulate over executed sims.
    exp::BatchStats cold;
    std::vector<RunResult> results = exp::runBatch(specs, options, &cold);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(cold.misses, 2u);
    EXPECT_EQ(cold.sim_events,
              results[0].sim.sim_events + results[1].sim.sim_events);
    EXPECT_GT(cold.sim_events, 0u);

    // Warm: all hits, nothing simulated, so no events counted.
    exp::BatchStats warm;
    exp::runBatch(specs, options, &warm);
    EXPECT_EQ(warm.hits, 2u);
    EXPECT_EQ(warm.sim_events, 0u);
}

TEST(Engine, SummaryLineReportsExecutedEvents)
{
    fs::path dir = scratchDir("engine_summary");
    exp::EngineOptions options;
    options.jobs = 1;
    options.cache_dir = dir.string();

    // Runs the batch with progress on; returns its summary line.
    auto summaryLine = [&](exp::BatchStats &stats) {
        ::testing::internal::CaptureStderr();
        exp::runBatch({sampleSpec()}, options, &stats);
        std::string err = ::testing::internal::GetCapturedStderr();
        size_t at = err.rfind("[aaws-exp] batch complete: ");
        return at == std::string::npos ? err : err.substr(at);
    };
    // The line ends with the elapsed time to the millisecond and the
    // executed simulations' event count.
    auto tail = [](const exp::BatchStats &stats) {
        return strfmt(" 1 jobs, %.3fs, %llu events\n", stats.elapsed_seconds,
                      static_cast<unsigned long long>(stats.sim_events));
    };

    exp::BatchStats cold;
    std::string line = summaryLine(cold);
    EXPECT_GT(cold.sim_events, 0u);
    EXPECT_TRUE(line.ends_with(tail(cold))) << line;

    // Warm: served from the cache, so nothing executed.
    exp::BatchStats warm;
    line = summaryLine(warm);
    EXPECT_EQ(warm.hits, 1u);
    EXPECT_EQ(warm.sim_events, 0u);
    EXPECT_TRUE(line.ends_with(tail(warm))) << line;
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

TEST(RunSpec, CacheSchemaCoversServeDimension)
{
    // v3 made the serving fields spec-addressable; v4 retired every
    // record of an older engine; v5 retired pre-topology records; v6
    // made the topology the only machine description (see
    // kCacheSchemaVersion).  A tree that adds spec
    // dimensions or execution paths without bumping this would alias
    // stale entries (alias-miss test below).
    EXPECT_EQ(exp::kCacheSchemaVersion, 6u);
    std::string closed = exp::canonicalSpec(sampleSpec());
    EXPECT_NE(closed.find("aaws-exp/v6"), std::string::npos);
    // Closed-loop specs stay serve-free so their hashes are stable.
    EXPECT_EQ(closed.find("serve."), std::string::npos);

    std::string canonical = exp::canonicalSpec(serveSpecSample());
    EXPECT_NE(canonical.find("serve.kind=mmpp"), std::string::npos);
    EXPECT_NE(canonical.find("serve.rate_hz="), std::string::npos);
    EXPECT_NE(canonical.find("serve.burst_factor="), std::string::npos);
    EXPECT_NE(canonical.find("serve.requests=2000"), std::string::npos);
    EXPECT_NE(canonical.find("serve.tenants=3"), std::string::npos);
    EXPECT_NE(canonical.find("serve.queue_cap=16"), std::string::npos);
    EXPECT_NE(canonical.find("serve.deadline_s="), std::string::npos);
    EXPECT_NE(canonical.find("serve.service_samples=2"),
              std::string::npos);

    // Poisson streams have no dwell parameters; they stay out of the
    // canonical form so unused MMPP knobs can never split the cache.
    exp::RunSpec poisson = serveSpecSample();
    poisson.serve->arrival.kind = serve::ArrivalKind::poisson;
    EXPECT_EQ(exp::canonicalSpec(poisson).find("burst"),
              std::string::npos);
}

TEST(RunSpec, ServeFieldsSeparateHashes)
{
    exp::RunSpec spec = serveSpecSample();
    EXPECT_EQ(exp::specHash(spec), exp::specHash(serveSpecSample()));

    exp::RunSpec closed = serveSpecSample();
    closed.serve.reset();
    EXPECT_NE(exp::specHash(spec), exp::specHash(closed));

    auto mutated = [&](auto mutate) {
        exp::RunSpec other = serveSpecSample();
        mutate(*other.serve);
        return exp::specHash(other);
    };
    uint64_t hash = exp::specHash(spec);
    EXPECT_NE(hash, mutated([](serve::ServeSpec &s) {
                  s.arrival.kind = serve::ArrivalKind::poisson;
              }));
    EXPECT_NE(hash, mutated([](serve::ServeSpec &s) {
                  s.arrival.rate_hz *= 2.0;
              }));
    EXPECT_NE(hash, mutated([](serve::ServeSpec &s) {
                  s.arrival.burst_factor += 1.0;
              }));
    EXPECT_NE(hash, mutated([](serve::ServeSpec &s) {
                  s.arrival.mean_burst_s *= 2.0;
              }));
    EXPECT_NE(hash, mutated([](serve::ServeSpec &s) {
                  s.arrival.mean_idle_s *= 2.0;
              }));
    EXPECT_NE(hash,
              mutated([](serve::ServeSpec &s) { s.requests += 1; }));
    EXPECT_NE(hash,
              mutated([](serve::ServeSpec &s) { s.tenants += 1; }));
    EXPECT_NE(hash,
              mutated([](serve::ServeSpec &s) { s.queue_cap += 1; }));
    EXPECT_NE(hash, mutated([](serve::ServeSpec &s) {
                  s.deadline_s += 0.25;
              }));
    EXPECT_NE(hash, mutated([](serve::ServeSpec &s) {
                  s.service_samples += 1;
              }));
}

TEST(ResultCache, ServeResultRoundTripsThroughCache)
{
    fs::path dir = scratchDir("cache_serve");
    exp::ResultCache cache(true, dir.string());
    exp::RunSpec spec = serveSpecSample();

    RunResult computed = exp::executeSpec(spec);
    ASSERT_TRUE(computed.sim.serve.enabled);
    EXPECT_EQ(computed.sim.serve.submitted, spec.serve->requests);
    ASSERT_TRUE(cache.store(spec, computed));

    RunResult hit;
    ASSERT_TRUE(cache.lookup(spec, hit));
    stress::expectIdenticalResults(computed.sim, hit.sim);

    // The closed-loop twin of the same (kernel, variant, seed) must
    // not alias the serving entry in either direction.
    exp::RunSpec closed = serveSpecSample();
    closed.serve.reset();
    RunResult miss;
    EXPECT_FALSE(cache.lookup(closed, miss));
}

TEST(ResultCache, PreServeSchemaRecordReadsAsMiss)
{
    // Regression guard for the cache-key bug the schema bump fixes: a
    // record written by a v2 tree (no serving fields in the canonical
    // form) must never satisfy a serving lookup, even if it lands in
    // the right file (hash collision / copied cache dir).
    fs::path dir = scratchDir("cache_pre_serve");
    exp::ResultCache cache(true, dir.string());
    exp::RunSpec spec = serveSpecSample();
    RunResult computed = exp::executeSpec(spec);
    ASSERT_TRUE(cache.store(spec, computed));

    exp::RunSpec closed = serveSpecSample();
    closed.serve.reset();
    std::string v2_canonical = exp::canonicalSpec(closed);
    size_t tag = v2_canonical.find("aaws-exp/v6");
    ASSERT_NE(tag, std::string::npos);
    v2_canonical.replace(tag, 11, "aaws-exp/v2");
    {
        std::ofstream out(cache.pathFor(spec),
                          std::ios::binary | std::ios::trunc);
        out << "{\"schema\":2,\"spec\":"
            << json::encodeString(v2_canonical)
            << ",\"result\":" << exp::runResultToJson(computed) << "}";
    }
    RunResult out_result;
    EXPECT_FALSE(cache.lookup(spec, out_result));
}

TEST(ResultCache, V5RecordReadsAsMiss)
{
    // A record as the v5 engine wrote it (a `system=` machine in the
    // canonical form, a "system" member in the result) must not satisfy
    // a lookup, even at the path the current spec hashes to and even
    // under the current schema number.
    fs::path dir = scratchDir("cache_v5");
    exp::ResultCache cache(true, dir.string());
    exp::RunSpec spec = sampleSpec();
    RunResult computed = exp::executeSpec(spec);
    std::string v5_spec = strfmt(
        "aaws-exp/v5;kernel=dict;system=4B4L;variant=base+psm;"
        "seed=0x%llx;trace=0",
        static_cast<unsigned long long>(spec.seed));
    std::string v5_result = exp::runResultToJson(computed);
    v5_result.insert(v5_result.find(",\"variant\""),
                     ",\"system\":\"4B4L\"");
    for (unsigned schema : {5u, exp::kCacheSchemaVersion}) {
        {
            std::ofstream out(cache.pathFor(spec),
                              std::ios::binary | std::ios::trunc);
            out << "{\"schema\":" << schema
                << ",\"spec\":" << json::encodeString(v5_spec)
                << ",\"result\":" << v5_result << "}\n";
        }
        RunResult out_result;
        EXPECT_FALSE(cache.lookup(spec, out_result)) << "schema " << schema;
    }
    // The current engine's own record at that path is a hit.
    ASSERT_TRUE(cache.store(spec, computed));
    RunResult hit;
    EXPECT_TRUE(cache.lookup(spec, hit));
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
    options.use_cache = false;
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
