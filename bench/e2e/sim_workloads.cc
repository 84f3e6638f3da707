/**
 * @file
 * The simulator workloads: cold sweeps shaped like the repro gate's.
 *
 *  - sim_sweep: 22 kernels x 5 variants x {4b4l, 1b7l, 2b2m4l} (the
 *    fig08 + ext_asymmetry shape; every simulator layer and the engine's
 *    lane path).
 *  - sim_knob_sweep: 22 kernels x the 12 sens_* knob values on base+psm
 *    4b4l (where the engine forks and clones, and where the regulator
 *    and DVFS layers work hardest).
 *
 * A run's input is one pass: the sweep at the gate's DAG seed (see
 * kSweepSeed), in an order drawn from --seed.  Rounds repeat it until
 * the window closes, each running it twice: through exp::runBatch at one
 * job, one call per kernel, with the result cache on in a fresh
 * directory (throughput_per_s: simulated events per second), and
 * directly through configForSpec / Machine / run / runResultToJson on
 * J = busyThreads() threads (the latency of one simulation in a J-wide
 * sweep; tail = p90).  The two must agree sim for sim.  Each call's
 * time and each simulation's latency is the best of the rounds, so host
 * contention that spares one of them moves no metric.  A traced run
 * also runs the pass through one runBatch call at J jobs and records
 * spans around every call.  A separate --verify-only process checks the
 * pass against the per-simulation digests in golden/ and measures the
 * peak memory.
 *
 * Specs are built as RunSpec{} plus kernel, variant, seed and
 * overrides; nothing here names the engine's execution strategies, so
 * the engine can change how it runs a batch without edits here.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "aaws/experiment.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "e2e.h"
#include "exp/engine.h"
#include "exp/run_spec.h"
#include "kernels/registry.h"
#include "sim/machine.h"

namespace aaws::e2e {
namespace {

/** The topology presets of ext_asymmetry's sweep. */
const std::vector<std::string> kSweepTopologies = {"4b4l", "1b7l", "2b2m4l"};

/** The sens_* sweep values (mug latency, steal cost, regulator). */
const uint64_t kMugCycles[] = {20, 100, 400, 1000};
const uint64_t kStealCycles[] = {10, 30, 60, 120};
const double kRegulatorNsPerStep[] = {40.0, 100.0, 175.0, 250.0};

/**
 * The DAG seed of every simulation: the repro gate's default, at which
 * the goldens were recorded.  The benchmark's --seed only orders the
 * sweep.  Three kernels' DAGs swing with the DAG seed (ksack's from 0.8 k
 * to 174 k events, qsort-1's and qsort-2's by 2x); with a pass per seed,
 * the p90 of the points' simulated events spread 29% (IQR over median)
 * across ten seeds.
 */
constexpr uint64_t kSweepSeed = exp::kDefaultSeed;

/** One pass of a workload: the specs at one DAG seed. */
std::vector<exp::RunSpec>
passSpecs(bool knob_sweep, const std::vector<std::string> &kernels,
          uint64_t seed)
{
    std::vector<exp::RunSpec> specs;
    auto add = [&](const std::string &kernel, Variant variant,
                   const std::string &topology) -> exp::RunSpec & {
        exp::RunSpec spec{};
        spec.kernel = kernel;
        spec.variant = variant;
        spec.seed = seed;
        spec.overrides.topology = topology;
        specs.push_back(std::move(spec));
        return specs.back();
    };
    if (!knob_sweep) {
        for (const std::string &topology : kSweepTopologies)
            for (const std::string &kernel : kernels)
                for (Variant v : allVariants())
                    add(kernel, v, topology);
        return specs;
    }
    for (const std::string &kernel : kernels) {
        for (uint64_t cycles : kMugCycles)
            add(kernel, Variant::base_psm, "4b4l")
                .overrides.mug_interrupt_cycles = cycles;
        for (uint64_t cycles : kStealCycles)
            add(kernel, Variant::base_psm, "4b4l")
                .overrides.steal_attempt_cycles = cycles;
        for (double ns : kRegulatorNsPerStep)
            add(kernel, Variant::base_psm, "4b4l")
                .overrides.regulator_ns_per_step = ns;
    }
    return specs;
}

/** Stable name of a spec within a pass (the golden file's key). */
std::string
specLabel(const exp::RunSpec &spec)
{
    const exp::SpecOverrides &o = spec.overrides;
    std::string label = spec.kernel + "/" + variantName(spec.variant) +
                        "/" + o.topology.value_or("-");
    if (o.mug_interrupt_cycles)
        label += strfmt("/mug=%llu", static_cast<unsigned long long>(
                                         *o.mug_interrupt_cycles));
    if (o.steal_attempt_cycles)
        label += strfmt("/steal=%llu", static_cast<unsigned long long>(
                                           *o.steal_attempt_cycles));
    if (o.regulator_ns_per_step)
        label += strfmt("/reg=%g", *o.regulator_ns_per_step);
    return label;
}

/**
 * FNV-1a digest of the numeric SimResult fields, printed with %.17g so
 * any bit of difference shows.  The occupancy histogram is left out:
 * its indexing is an internal layout (ROADMAP item 2 changes it), and
 * what it drives already shows in exec_seconds and energy.
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
    uint64_t hash = 14695981039346656037ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return strfmt("%016llx", static_cast<unsigned long long>(hash));
}

/**
 * The conservation laws every simulation must satisfy: regions sum to
 * exec_seconds, core energy sums to energy, and every task of the DAG
 * ran.  Returns the first law broken, or nullptr.
 */
const char *
brokenLaw(const SimResult &r, size_t dag_tasks)
{
    if (std::fabs(r.regions.total() - r.exec_seconds) >
        1e-6 * r.exec_seconds)
        return "regions do not sum to exec_seconds";
    double core_energy = 0.0;
    for (const CoreStats &core : r.core_stats)
        core_energy += core.energy;
    if (std::fabs(core_energy - r.energy) > 1e-6 * r.energy)
        return "core energy does not sum to energy";
    if (r.tasks_executed != dag_tasks)
        return "tasks_executed differs from the DAG's task count";
    return nullptr;
}

/** label -> digest; fatal() when the file cannot be read. */
std::map<std::string, std::string>
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read golden file '%s'", path.c_str());
    std::map<std::string, std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label, digest;
        if (fields >> label >> digest)
            golden[label] = digest;
    }
    return golden;
}

/** The DAGs of one pass by kernel name, each (kernel, seed) made once. */
struct PassDags
{
    std::map<std::string, Kernel> kernels;
    /** What making them took. */
    double gen_s = 0.0;
};

PassDags
makePassDags(const std::vector<exp::RunSpec> &specs, Trace *trace)
{
    PassDags dags;
    for (const exp::RunSpec &spec : specs) {
        if (dags.kernels.count(spec.kernel))
            continue;
        Clock::time_point t0 = Clock::now();
        Kernel kernel = makeKernel(spec.kernel, spec.seed);
        Clock::time_point t1 = Clock::now();
        dags.gen_s += secondsBetween(t0, t1);
        if (trace)
            trace->span("kernels.makeKernel", t0, t1);
        dags.kernels.emplace(spec.kernel, std::move(kernel));
    }
    return dags;
}

/** Everything the direct replay of one pass measured. */
struct DirectPass
{
    std::vector<RunResult> results;
    /** Per simulation: configForSpec + Machine + run + runResultToJson. */
    std::vector<double> latency_s;
    std::vector<double> ctor_s;
    std::vector<double> run_s;
    std::vector<double> serialize_s;
    uint64_t events = 0;
};

/**
 * Replay a pass through the public single-simulation calls on `jobs`
 * threads, each taking the next spec in order, as a sweep runs them;
 * the DAGs are shared read-only, as the engine shares them.  Worker w
 * records its spans on trace lane w, with id first_id + (spec index).
 */
DirectPass
runDirect(const std::vector<exp::RunSpec> &specs, const PassDags &dags,
          int jobs, Trace *trace, uint64_t first_id)
{
    const size_t n = specs.size();
    DirectPass pass;
    pass.results.resize(n);
    pass.latency_s.resize(n);
    pass.ctor_s.resize(n);
    pass.run_s.resize(n);
    pass.serialize_s.resize(n);
    std::atomic<size_t> next{0};
    auto work = [&](int worker) {
        for (size_t i = next++; i < n; i = next++) {
            const exp::RunSpec &spec = specs[i];
            const Kernel &kernel = dags.kernels.at(spec.kernel);
            Clock::time_point t0 = Clock::now();
            MachineConfig config = exp::configForSpec(kernel, spec);
            Clock::time_point t1 = Clock::now();
            Machine machine(config, kernel.dag);
            Clock::time_point t2 = Clock::now();
            RunResult &result = pass.results[i];
            result.kernel = spec.kernel;
            result.variant = spec.variant;
            result.sim = machine.run();
            Clock::time_point t3 = Clock::now();
            exp::runResultToJson(result);
            Clock::time_point t4 = Clock::now();

            if (trace) {
                const uint64_t id = first_id + i;
                trace->span("exp.configForSpec", t0, t1, worker, id);
                trace->span("sim.Machine", t1, t2, worker, id);
                trace->span("sim.Machine::run", t2, t3, worker, id);
                trace->span("exp.runResultToJson", t3, t4, worker, id);
            }
            pass.latency_s[i] = secondsBetween(t0, t4);
            pass.ctor_s[i] = secondsBetween(t1, t2);
            pass.run_s[i] = secondsBetween(t2, t3);
            pass.serialize_s[i] = secondsBetween(t3, t4);
        }
    };
    // The first exception of any worker stops the others and is rethrown
    // once all have joined.
    std::exception_ptr failure;
    std::mutex failure_mutex;
    auto guarded = [&](int worker) {
        try {
            work(worker);
        } catch (...) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure)
                failure = std::current_exception();
            next = n;
        }
    };
    {
        std::vector<std::jthread> threads;
        for (int worker = 1; worker < jobs; ++worker)
            threads.emplace_back(guarded, worker);
        guarded(0);
    }
    if (failure)
        std::rethrow_exception(failure);
    for (const RunResult &result : pass.results)
        pass.events += result.sim.sim_events;
    return pass;
}

/** One runBatch call with the result cache on in a fresh directory. */
struct EnginePass
{
    std::vector<RunResult> results;
    double seconds = 0.0;
    /** Events the engine dispatched (a fork or clone skips some). */
    uint64_t events = 0;
    /** Events the results stand for, however the engine produced them. */
    uint64_t result_events = 0;
};

EnginePass
runEngine(const std::vector<exp::RunSpec> &specs, int jobs,
          const std::filesystem::path &scratch, uint64_t pass_id)
{
    std::filesystem::path dir =
        scratch / strfmt("cache-%d-%llu", static_cast<int>(getpid()),
                         static_cast<unsigned long long>(pass_id));
    std::filesystem::remove_all(dir);
    exp::EngineOptions engine;
    engine.jobs = jobs;
    engine.use_cache = true;
    engine.cache_dir = dir.string();
    engine.progress = false;
    exp::BatchStats stats;
    EnginePass pass;
    Clock::time_point t0 = Clock::now();
    pass.results = exp::runBatch(specs, engine, &stats);
    pass.seconds = secondsSince(t0);
    pass.events = stats.sim_events;
    for (const RunResult &result : pass.results)
        pass.result_events += result.sim.sim_events;
    std::filesystem::remove_all(dir);
    return pass;
}

} // namespace

Report
runSimWorkload(const Options &options, Trace *trace)
{
    const bool knob_sweep = options.workload == "sim_knob_sweep";
    std::vector<std::string> kernels = kernelNames();
    if (options.smoke)
        kernels.resize(1);
    const int jobs = busyThreads();
    const std::filesystem::path scratch =
        options.scratch_dir.empty()
            ? std::filesystem::temp_directory_path()
            : std::filesystem::path(options.scratch_dir);
    std::map<std::string, std::string> golden;
    if (options.verify_only && !options.write_golden)
        golden = loadGolden(options.golden_path);

    // Set-up: the first Machine of each topology builds the process-wide
    // DVFS lookup table every later simulation on that topology shares.
    // The table depends on the topology and the designer's parameters,
    // not on the kernel, so the cheapest DAG to generate stands in.
    std::vector<double> first_ctor_s;
    {
        const char *const kSetupKernel = "bscholes";
        Kernel kernel = makeKernel(kSetupKernel, kSweepSeed);
        for (const std::string &topology :
             knob_sweep ? std::vector<std::string>{"4b4l"}
                        : kSweepTopologies) {
            exp::RunSpec spec{};
            spec.kernel = kSetupKernel;
            spec.variant = Variant::base_psm;
            spec.seed = kSweepSeed;
            spec.overrides.topology = topology;
            MachineConfig config = exp::configForSpec(kernel, spec);
            Clock::time_point t0 = Clock::now();
            Machine machine(config, kernel.dag);
            Clock::time_point t1 = Clock::now();
            first_ctor_s.push_back(secondsBetween(t0, t1));
            if (trace)
                trace->span("sim.Machine(first)", t0, t1);
        }
    }
    Report report;

    // One checked simulation: conservation laws, then its digest
    // against the expected one (the direct replay's, or the golden).
    auto check = [&report](const SimResult &sim, size_t tasks,
                           const std::string &label,
                           const std::string &expected) {
        ++report.ops;
        const char *law = brokenLaw(sim, tasks);
        if (law == nullptr && simDigest(sim) == expected)
            return;
        ++report.failed_ops;
        std::fprintf(stderr, "e2e: %s: %s\n", label.c_str(),
                     law ? law : "digest mismatch");
    };

    // A --verify-only process runs the pass once, in sweep order, instead
    // of the window, checks it against the goldens, and reports the peak
    // memory up to its end.  It runs at one job: at J jobs the peak
    // depends on which simulations happen to overlap (56-66 MB over six
    // identical sim_knob_sweep runs).  run.py starts it with glibc's mmap
    // threshold fixed (see verify_env there), and it allocates nothing
    // that depends on --seed: the shuffled sweep below moved its peak
    // between 27 and 35 MB with the seed.
    if (options.verify_only) {
        markReady();
        const std::vector<exp::RunSpec> golden_specs =
            passSpecs(knob_sweep, kernels, kSweepSeed);
        EnginePass batch = runEngine(golden_specs, 1, scratch, ~0ull);
        std::map<std::string, size_t> tasks;
        for (const std::string &kernel : kernels)
            tasks[kernel] = makeKernel(kernel, kSweepSeed).dag.numTasks();
        std::FILE *out = nullptr;
        if (options.write_golden) {
            out = std::fopen(options.golden_path.c_str(), "w");
            if (!out)
                fatal("cannot write golden file '%s'",
                      options.golden_path.c_str());
            std::fprintf(out,
                         "# %s: per-simulation SimResult digests at seed "
                         "0x%llx (see simDigest in sim_workloads.cc)\n",
                         options.workload.c_str(),
                         static_cast<unsigned long long>(kSweepSeed));
        }
        for (size_t i = 0; i < golden_specs.size(); ++i) {
            const std::string label = specLabel(golden_specs[i]);
            if (out) {
                std::fprintf(out, "%s %s\n", label.c_str(),
                             simDigest(batch.results[i].sim).c_str());
                continue;
            }
            auto it = golden.find(label);
            check(batch.results[i].sim, tasks[golden_specs[i].kernel], label,
                  it == golden.end() ? "missing" : it->second);
        }
        if (out)
            std::fclose(out);
        report.metric("peak_rss_mb", "MB", peakRssMb());
        return report;
    }

    std::vector<exp::RunSpec> specs =
        passSpecs(knob_sweep, kernels, kSweepSeed);
    Rng order(options.seed);
    for (size_t i = specs.size(); i > 1; --i)
        std::swap(specs[i - 1], specs[order.below(i)]);
    // The batch is one runBatch call per kernel, in the order the sweep
    // first names them.  The engine plans a kernel's specs together
    // (lanes and forks group by kernel and seed), so the calls run the
    // same work units one call for the pass would, and each call's time
    // is the best of its rounds on its own: a spell of host contention
    // moves only the calls it overlaps.
    std::vector<std::vector<size_t>> chunk_index;
    std::vector<std::vector<exp::RunSpec>> chunk_specs;
    {
        std::map<std::string, size_t> chunk_of;
        for (size_t i = 0; i < specs.size(); ++i) {
            auto [it, added] =
                chunk_of.emplace(specs[i].kernel, chunk_index.size());
            if (added) {
                chunk_index.emplace_back();
                chunk_specs.emplace_back();
            }
            chunk_index[it->second].push_back(i);
            chunk_specs[it->second].push_back(specs[i]);
        }
    }
    markReady();
    if (options.setup_only)
        return report;

    // The DAGs (made in the first round), each batch call's best time,
    // and every simulation's best latency on the direct path.  A round
    // starts only if one as long as the last still fits in the window,
    // and the first always runs.
    constexpr double kNever = std::numeric_limits<double>::infinity();
    PassDags dags;
    std::vector<double> best_chunk_s(chunk_specs.size(), kNever);
    std::vector<double> best_latency_s(specs.size(), kNever);
    uint64_t pass_events = 0;
    std::vector<double> ctor_s, run_s, serialize_s;
    std::vector<double> overhead_frac, parallel_eff;
    double direct_run_total = 0.0;
    uint64_t direct_events = 0, direct_sims = 0;
    uint64_t engine1_events = 0, engine1_direct_events = 0;
    uint64_t next_id = 1;
    Clock::time_point window = Clock::now();
    double round_s = 0.0;
    for (uint64_t round = 0;
         round == 0 || secondsSince(window) + round_s <= options.seconds;
         ++round) {
        Clock::time_point t0 = Clock::now();
        std::vector<SimResult> batch(specs.size());
        double batch_s = 0.0;
        uint64_t batch_events = 0;
        for (size_t k = 0; k < chunk_specs.size(); ++k) {
            EnginePass part = runEngine(chunk_specs[k], 1, scratch,
                                        round * chunk_specs.size() + k);
            best_chunk_s[k] = std::min(best_chunk_s[k], part.seconds);
            batch_s += part.seconds;
            batch_events += part.events;
            if (round == 0)
                pass_events += part.result_events;
            for (size_t j = 0; j < part.results.size(); ++j)
                batch[chunk_index[k][j]] = std::move(part.results[j].sim);
        }
        if (trace)
            trace->span("exp.runBatch@1", t0, Clock::now(), jobs, round);

        if (round == 0)
            dags = makePassDags(specs, trace);
        DirectPass direct = runDirect(specs, dags, jobs, trace, next_id);
        next_id += specs.size();
        for (size_t i = 0; i < specs.size(); ++i)
            best_latency_s[i] =
                std::min(best_latency_s[i], direct.latency_s[i]);

        if (trace) {
            Clock::time_point t1 = Clock::now();
            EnginePass wide = runEngine(specs, jobs, scratch, ~round);
            trace->span("exp.runBatch@J", t1, Clock::now(), jobs, round);
            double direct_s = dags.gen_s;
            for (double s : direct.latency_s)
                direct_s += s;
            overhead_frac.push_back((batch_s - direct_s) / batch_s);
            parallel_eff.push_back(batch_s / (jobs * wide.seconds));
            engine1_events += batch_events;
            engine1_direct_events += direct.events;
            ctor_s.insert(ctor_s.end(), direct.ctor_s.begin(),
                          direct.ctor_s.end());
            run_s.insert(run_s.end(), direct.run_s.begin(),
                         direct.run_s.end());
            serialize_s.insert(serialize_s.end(),
                               direct.serialize_s.begin(),
                               direct.serialize_s.end());
            for (double s : direct.run_s)
                direct_run_total += s;
            direct_events += direct.events;
            direct_sims += specs.size();
        }

        for (size_t i = 0; i < specs.size(); ++i)
            check(batch[i], dags.kernels.at(specs[i].kernel).dag.numTasks(),
                  specLabel(specs[i]), simDigest(direct.results[i].sim));
        round_s = secondsSince(t0);
    }

    double best_batch_s = 0.0;
    for (double s : best_chunk_s)
        best_batch_s += s;
    report.metric("throughput_per_s", "1/s",
                  static_cast<double>(pass_events) / best_batch_s);
    report.metric("latency_p50_us", "us",
                  1e6 * percentile(best_latency_s, 50));
    report.metric("latency_tail_us", "us",
                  1e6 * percentile(best_latency_s, 90));
    if (!trace)
        return report;

    double table_build = 0.0;
    const double median_ctor = median(ctor_s);
    for (double s : first_ctor_s)
        table_build += s - median_ctor;
    report.layer("kernels.dag_gen_ms", "ms", 1e3 * dags.gen_s);
    report.layer("dvfs.table_build_ms", "ms", 1e3 * table_build);
    report.layer("sim.ctor_us", "us", 1e6 * median_ctor);
    report.layer("sim.run_ms.p50", "ms", 1e3 * percentile(run_s, 50));
    report.layer("sim.run_ms.p90", "ms", 1e3 * percentile(run_s, 90));
    report.layer("sim.ns_per_event", "ns",
                 1e9 * direct_run_total / static_cast<double>(direct_events));
    report.layer("sim.events_per_sim", "count",
                 static_cast<double>(direct_events) /
                     static_cast<double>(direct_sims));
    report.layer("exp.serialize_us", "us", 1e6 * median(serialize_s));
    report.layer("exp.overhead_frac", "ratio", median(overhead_frac));
    report.layer("exp.parallel_eff", "ratio", median(parallel_eff));
    report.layer("exp.events_executed_frac", "ratio",
                 static_cast<double>(engine1_events) /
                     static_cast<double>(engine1_direct_events));
    return report;
}

} // namespace aaws::e2e
