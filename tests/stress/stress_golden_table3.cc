/**
 * @file
 * Golden-file regressions for the simulator's results.
 *
 * StatsMatchGoldenFile: every registered kernel is simulated at the
 * default workload seed under the full AAWS variant (base+psm, 4B4L)
 * and its gem5-style stats dump is compared line-by-line against
 * tests/stress/golden/table3_stats.txt.  Any behavioural drift in the
 * simulator, cost model, DVFS controller, or workload generators shows
 * up here as a readable diff of exactly which statistic moved for which
 * kernel.
 *
 * SweepDigestsMatchGoldenFile: every simulation shape the reproduction
 * gate sweeps (22 kernels x 5 variants x {4b4l, 1b7l, 2b2m4l}, the 12
 * sens_* knob values on base+psm 4b4l, and random victim selection on
 * base+psm 4b4l: 616 simulations) reduces to one line holding an FNV-1a
 * digest of every SimResult number at full precision, sim_events and
 * the occupancy histogram included, compared against
 * tests/stress/golden/sweep_digests.txt.  The stats dump above rounds
 * to six digits and covers one shape; this one catches a change in the
 * last bit of any result, such as a slip in same-tick event order.
 *
 * DagDigestsMatchGoldenFile: every kernel's generated task DAG, at the
 * default workload seed and at seeds 1, 2, 3 and 12345 (110 DAGs),
 * reduces to one FNV-1a digest of its packed ops (kind and argument),
 * its per-task span offsets and its phases, compared against
 * tests/stress/golden/dag_digests.txt.  The two files above see a DAG
 * only through simulation and only at the default seed; this one pins
 * generation itself.
 *
 * DvfsTablesMatchGoldenFile: every DVFS lookup table the benches and
 * tests build (the 4b4l, 1b7l and 2b2m4l presets and their :pc forms,
 * the NbNl shapes ext_scaling sweeps, and the test shapes 2b6l, 6b2l,
 * 8b and 8l) writes one line per census cell, each voltage and the
 * speedup at %.17g, into tests/stress/golden/dvfs_tables.txt, next to
 * the Section II operating points of the two-cluster search (HP and
 * LP, one task on a big or a little core, optimal and feasible).  The
 * simulations above see only the three presets' tables, through
 * simulated time; this file pins every cell and both searches.
 *
 * ResultJsonDigestsMatchGoldenFile: the text runResultToJson writes
 * for every simulation the end-to-end sim_sweep workload runs (22
 * kernels x 5 variants x {4b4l, 1b7l, 2b2m4l}) at the default workload
 * seed, plus one traced result and one serving result (332 results),
 * reduces to one FNV-1a digest each, compared against
 * tests/stress/golden/result_json_digests.txt.  The digests above see
 * the numbers; this one pins their spelling, byte for byte, so a
 * change to the JSON writer cannot move the result cache's records or
 * --results-json artifacts unnoticed.
 *
 * After an *intentional* behaviour change, regenerate all five with
 *
 *   AAWS_UPDATE_GOLDEN=1 ./tests/stress/stress_golden_table3
 *
 * and commit the diff alongside the change that explains it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "aaws/experiment.h"
#include "dvfs/lookup_table.h"
#include "exp/run_spec.h"
#include "model/cluster_opt.h"
#include "serve/spec.h"
#include "sim/stats_writer.h"

namespace aaws {
namespace {

std::string
renderAllKernels()
{
    std::string out;
    for (const auto &name : kernelNames()) {
        Kernel kernel = makeKernel(name);
        MachineConfig config = configFor(kernel, Variant::base_psm);
        SimResult result = Machine(config, kernel.dag).run();
        out += "==== kernel " + name + " ====\n";
        out += formatStats(config, result);
    }
    return out;
}

TEST(GoldenTable3, StatsMatchGoldenFile)
{
    const char *path = AAWS_GOLDEN_FILE;
    std::string rendered = renderAllKernels();

    if (std::getenv("AAWS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with AAWS_UPDATE_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string golden = buffer.str();

    if (rendered == golden) {
        SUCCEED();
        return;
    }

    // Report the first diverging line with its kernel section so the
    // diff is actionable without running a local diff tool.
    std::istringstream got(rendered);
    std::istringstream want(golden);
    std::string got_line;
    std::string want_line;
    std::string section = "<preamble>";
    int line_no = 0;
    while (true) {
        bool more_got = static_cast<bool>(std::getline(got, got_line));
        bool more_want = static_cast<bool>(std::getline(want, want_line));
        if (!more_got && !more_want)
            break;
        line_no++;
        if (more_got && got_line.rfind("==== kernel", 0) == 0)
            section = got_line;
        if (!more_got || !more_want || got_line != want_line) {
            FAIL() << "stats drifted from golden file at line " << line_no
                   << " (" << section << ")\n  golden: "
                   << (more_want ? want_line : "<eof>")
                   << "\n  actual: " << (more_got ? got_line : "<eof>")
                   << "\nIf the change is intentional, regenerate with "
                      "AAWS_UPDATE_GOLDEN=1 and commit the diff.";
        }
    }
}

/**
 * FNV-1a over every number of a SimResult, each printed with %.17g (or
 * as an integer), so a difference in any bit of any field shows.
 */
std::string
simDigest(const SimResult &r)
{
    std::string text;
    char buf[64];
    auto real = [&](double v) {
        std::snprintf(buf, sizeof buf, "%.17g;", v);
        text += buf;
    };
    auto count = [&](uint64_t v) {
        std::snprintf(buf, sizeof buf, "%llu;",
                      static_cast<unsigned long long>(v));
        text += buf;
    };
    real(r.exec_seconds);
    real(r.energy);
    real(r.waiting_energy);
    real(r.avg_power);
    real(r.regions.serial);
    real(r.regions.hp);
    real(r.regions.lp_bi_lt_la);
    real(r.regions.lp_bi_ge_la);
    real(r.regions.lp_other);
    count(r.instructions);
    count(r.steals);
    count(r.failed_steals);
    count(r.mugs);
    count(r.aborted_mugs);
    count(r.transitions);
    count(r.tasks_executed);
    count(r.sim_events);
    for (const CoreStats &core : r.core_stats) {
        real(core.busy_seconds);
        real(core.waiting_seconds);
        real(core.energy);
        count(core.instructions);
    }
    for (double seconds : r.occupancy_seconds)
        real(seconds);
    uint64_t hash = 14695981039346656037ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** label -> digest for every simulation of the swept shapes. */
std::map<std::string, std::string>
renderSweepDigests()
{
    std::map<std::string, std::string> digests;
    for (const auto &name : kernelNames()) {
        Kernel kernel = makeKernel(name, exp::kDefaultSeed);
        auto spec = [&](Variant variant, const char *topology) {
            exp::RunSpec s{name, variant, exp::kDefaultSeed};
            s.overrides.topology = topology;
            return s;
        };
        auto run = [&](const std::string &label, const MachineConfig &config) {
            digests[name + "/" + label] =
                simDigest(Machine(config, kernel.dag).run());
        };
        for (const char *topology : {"4b4l", "1b7l", "2b2m4l"}) {
            for (Variant v : allVariants()) {
                run(std::string(variantName(v)) + "/" + topology,
                    exp::configForSpec(kernel, spec(v, topology)));
            }
        }
        for (uint64_t cycles : {20, 100, 400, 1000}) {
            exp::RunSpec s = spec(Variant::base_psm, "4b4l");
            s.overrides.mug_interrupt_cycles = cycles;
            run("base+psm/4b4l/mug=" + std::to_string(cycles),
                exp::configForSpec(kernel, s));
        }
        for (uint64_t cycles : {10, 30, 60, 120}) {
            exp::RunSpec s = spec(Variant::base_psm, "4b4l");
            s.overrides.steal_attempt_cycles = cycles;
            run("base+psm/4b4l/steal=" + std::to_string(cycles),
                exp::configForSpec(kernel, s));
        }
        for (int ns : {40, 100, 175, 250}) {
            exp::RunSpec s = spec(Variant::base_psm, "4b4l");
            s.overrides.regulator_ns_per_step = ns;
            run("base+psm/4b4l/reg=" + std::to_string(ns),
                exp::configForSpec(kernel, s));
        }
        MachineConfig random =
            exp::configForSpec(kernel, spec(Variant::base_psm, "4b4l"));
        random.policy.victim = sched::VictimPolicy::random;
        run("base+psm/4b4l/victim=random", random);
    }
    return digests;
}

/**
 * Compare label -> digest lines against the golden file at `path`, or
 * rewrite it (with `header` as its first line) under AAWS_UPDATE_GOLDEN.
 */
void
expectDigestsMatchGolden(const char *path,
                         const std::map<std::string, std::string> &rendered,
                         const char *header, const char *what)
{
    if (std::getenv("AAWS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << header << "\n";
        for (const auto &[label, digest] : rendered)
            out << label << " " << digest << "\n";
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with AAWS_UPDATE_GOLDEN=1)";
    std::map<std::string, std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label, digest;
        fields >> label >> std::ws;
        std::getline(fields, digest);
        golden[label] = digest;
    }

    int drifted = 0;
    for (const auto &[label, digest] : rendered) {
        auto it = golden.find(label);
        if (it == golden.end()) {
            ADD_FAILURE() << label << ": no line in " << path;
        } else if (it->second != digest) {
            ADD_FAILURE() << label << ": digest " << digest
                          << ", golden " << it->second;
        } else {
            continue;
        }
        if (++drifted == 20)
            FAIL() << "stopping after 20 drifted " << what;
    }
    for (const auto &[label, digest] : golden) {
        EXPECT_TRUE(rendered.count(label))
            << label << ": golden line without a match";
    }
    if (drifted > 0) {
        ADD_FAILURE() << drifted << " of " << rendered.size() << " "
                      << what << " drifted.  If the change is "
                         "intentional, regenerate with "
                         "AAWS_UPDATE_GOLDEN=1 and commit the diff.";
    }
}

TEST(GoldenTable3, SweepDigestsMatchGoldenFile)
{
    std::map<std::string, std::string> rendered = renderSweepDigests();
    ASSERT_EQ(rendered.size(), 616u);
    expectDigestsMatchGolden(
        AAWS_SWEEP_GOLDEN_FILE, rendered,
        "# label digest: FNV-1a of every SimResult number at %.17g "
        "(see simDigest in stress_golden_table3.cc)",
        "simulations");
}

/**
 * FNV-1a over a DAG's packed ops, span offsets and phases, each value
 * fed as its little-endian bytes so the digest is host-independent.
 */
std::string
dagDigest(const TaskDag &dag)
{
    uint64_t hash = 14695981039346656037ull;
    auto feed = [&hash](uint64_t value, int bytes) {
        for (int b = 0; b < bytes; ++b) {
            hash ^= (value >> (8 * b)) & 0xff;
            hash *= 1099511628211ull;
        }
    };
    size_t tasks = dag.numTasks();
    const uint32_t *spans = dag.opSpans();
    const TaskOp *ops = dag.packedOps();
    feed(tasks, 8);
    for (size_t t = 0; t <= tasks; ++t)
        feed(spans[t], 4);
    for (uint32_t i = 0; i < spans[tasks]; ++i) {
        feed(static_cast<uint8_t>(ops[i].kind), 1);
        feed(ops[i].arg, 8);
    }
    feed(dag.phases().size(), 8);
    for (const Phase &phase : dag.phases()) {
        feed(phase.serial_work, 8);
        feed(static_cast<uint32_t>(phase.root_task), 4);
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

TEST(GoldenTable3, DagDigestsMatchGoldenFile)
{
    std::map<std::string, std::string> rendered;
    for (const auto &name : kernelNames()) {
        for (uint64_t seed : {exp::kDefaultSeed, uint64_t{1}, uint64_t{2},
                              uint64_t{3}, uint64_t{12345}}) {
            rendered[name + "/seed=" + std::to_string(seed)] =
                dagDigest(makeKernel(name, seed).dag);
        }
    }
    ASSERT_EQ(rendered.size(), 110u);
    expectDigestsMatchGolden(
        AAWS_DAG_GOLDEN_FILE, rendered,
        "# label digest: FNV-1a of each generated DAG's packed ops, spans "
        "and phases (see dagDigest in stress_golden_table3.cc)",
        "DAGs");
}

/** `v` at %.17g, the precision that round-trips every double. */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** label -> "v=... speedup=..." for every cell of every table. */
std::map<std::string, std::string>
renderDvfsTables()
{
    ModelParams mp;
    FirstOrderModel model(mp);
    std::map<std::string, std::string> lines;
    for (const char *name :
         {"4b4l", "1b7l", "2b2m4l", "4b4l:pc", "1b7l:pc", "2b2m4l:pc",
          "1b1l", "2b2l", "6b6l", "8b8l", "2b6l", "6b2l", "8b", "8l"}) {
        DvfsLookupTable table(model, makeTopology(name, mp));
        std::vector<int> counts;
        for (int index = 0; index < table.size(); ++index) {
            table.topology().censusFromIndex(index, counts);
            std::string label = std::string("table/") + name + "/";
            for (size_t k = 0; k < counts.size(); ++k)
                label += (k ? "," : "") + std::to_string(counts[k]);
            const DvfsTableEntry &entry = table.atIndex(index);
            std::string value = "v=";
            for (size_t k = 0; k < entry.v.size(); ++k)
                value += (k ? "," : "") + exact(entry.v[k]);
            lines[label] = value + " speedup=" + exact(entry.speedup);
        }
    }

    // Section II's operating points on 4B4L, all under the all-nominal
    // power target (Eq. 6).
    CoreTopology machine = makeTopology("4b4l", mp);
    ClusterOptimizer opt(model, machine);
    const double target = opt.targetPower({{4, 4}, {0, 0}});
    const struct
    {
        const char *name;
        ClusterActivity activity;
    } points[] = {{"hp", {{4, 4}, {0, 0}}},
                  {"lp", {{2, 2}, {2, 2}}},
                  {"one_little", {{0, 1}, {4, 3}}},
                  {"one_big", {{1, 0}, {3, 4}}}};
    for (const auto &point : points) {
        for (bool feasible : {false, true}) {
            ClusterOperatingPoint op =
                opt.solveTwoCluster(point.activity, target, feasible);
            lines[std::string("point/") + point.name +
                  (feasible ? "/feasible" : "/optimal")] =
                "v=" + exact(op.v[0]) + "," + exact(op.v[1]) +
                " ips=" + exact(op.ips) + " power=" + exact(op.power) +
                " speedup=" + exact(op.speedup) +
                " clamped=" + (op.clamped ? "1" : "0");
        }
    }
    return lines;
}

TEST(GoldenTable3, DvfsTablesMatchGoldenFile)
{
    std::map<std::string, std::string> rendered = renderDvfsTables();
    ASSERT_EQ(rendered.size(), 383u);
    expectDigestsMatchGolden(
        AAWS_DVFS_GOLDEN_FILE, rendered,
        "# label values: every DVFS-table cell and Section II operating "
        "point at %.17g (see renderDvfsTables in stress_golden_table3.cc)",
        "table cells and operating points");
}

/** FNV-1a of `text`, as 16 hex digits. */
std::string
textDigest(const std::string &text)
{
    uint64_t hash = 14695981039346656037ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** label -> digest of runResultToJson's text (see the file comment). */
std::map<std::string, std::string>
renderResultJsonDigests()
{
    std::map<std::string, std::string> digests;
    auto add = [&](const std::string &label, const exp::RunSpec &spec,
                   const Kernel &kernel) {
        digests[label] = textDigest(
            exp::runResultToJson(exp::executeSpec(spec, kernel)));
    };
    for (const auto &name : kernelNames()) {
        Kernel kernel = makeKernel(name, exp::kDefaultSeed);
        for (const char *topology : {"4b4l", "1b7l", "2b2m4l"}) {
            for (Variant v : allVariants()) {
                exp::RunSpec spec{name, v, exp::kDefaultSeed};
                spec.overrides.topology = topology;
                add(name + "/" + variantName(v) + "/" + topology, spec,
                    kernel);
            }
        }
    }
    // The activity trace's rows carry the only float fields.
    exp::RunSpec traced{"hull", Variant::base_psm, exp::kDefaultSeed,
                        /*trace=*/true};
    add("hull/base+psm/4b4l/trace", traced,
        makeKernel("hull", exp::kDefaultSeed));
    // A serving result adds the serve object, its latency histogram
    // and the per-tenant arrays.
    exp::RunSpec served{"dict", Variant::base_psm, exp::kDefaultSeed};
    serve::ServeSpec serve_spec;
    serve_spec.arrival.kind = serve::ArrivalKind::mmpp;
    serve_spec.arrival.rate_hz = 40.0;
    serve_spec.requests = 2000;
    serve_spec.tenants = 3;
    serve_spec.queue_cap = 16;
    serve_spec.deadline_s = 0.5;
    serve_spec.service_samples = 2;
    served.serve = serve_spec;
    add("dict/base+psm/4b4l/serve", served,
        makeKernel("dict", exp::kDefaultSeed));
    return digests;
}

TEST(GoldenTable3, ResultJsonDigestsMatchGoldenFile)
{
    std::map<std::string, std::string> rendered = renderResultJsonDigests();
    ASSERT_EQ(rendered.size(), 332u);
    expectDigestsMatchGolden(
        AAWS_RESULT_JSON_GOLDEN_FILE, rendered,
        "# label digest: FNV-1a of runResultToJson's text (see "
        "renderResultJsonDigests in stress_golden_table3.cc)",
        "serialized results");
}

} // namespace
} // namespace aaws
