/**
 * @file
 * google-benchmark microbenchmarks of the simulator hot path: indexed
 * event-queue churn, full Machine::run throughput (events/sec) on small
 * kernels, and task-DAG generation.
 *
 * Custom main: after the registered benchmarks run, a small engine
 * batch produces the BENCH_sim.json perf record (sims/sec, events/sec)
 * when `--bench-json=PATH` or AAWS_BENCH_JSON is set, so CI can upload
 * one machine-readable artifact per run.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "aaws/experiment.h"
#include "exp/cli.h"
#include "exp/engine.h"
#include "kernels/registry.h"
#include "sim/event_queue.h"
#include "sim/machine.h"

using namespace aaws;

namespace {

/**
 * xorshift64: cheap deterministic tick jitter so heap shapes vary
 * without timing the RNG.
 */
uint64_t
nextRand(uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    const int slots = static_cast<int>(state.range(0));
    IndexedEventQueue queue(slots);
    uint64_t seq = 0;
    uint64_t rng = 0x9E3779B97F4A7C15ull;
    for (auto _ : state) {
        for (int s = 0; s < slots; ++s)
            queue.schedule(s, nextRand(rng) % 1000, seq++);
        for (int s = 0; s < slots; ++s)
            queue.cancel(s);
    }
    state.SetItemsProcessed(state.iterations() * slots * 2);
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(9)->Arg(17)->Arg(65);

void
BM_EventQueueReschedule(benchmark::State &state)
{
    // The simulator's dominant pattern: every slot live, one slot's
    // deadline moves, in place.
    const int slots = static_cast<int>(state.range(0));
    IndexedEventQueue queue(slots);
    uint64_t seq = 0;
    uint64_t rng = 0xD1B54A32D192ED03ull;
    for (int s = 0; s < slots; ++s)
        queue.schedule(s, nextRand(rng) % 1000, seq++);
    for (auto _ : state) {
        int slot = static_cast<int>(nextRand(rng) % slots);
        queue.schedule(slot, nextRand(rng) % 1000, seq++);
        benchmark::DoNotOptimize(queue.topSlot());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueReschedule)->Arg(9)->Arg(17)->Arg(65);

void
BM_EventQueuePopSchedule(benchmark::State &state)
{
    // Steady-state drain/refill, the main-loop shape of Machine::run.
    const int slots = static_cast<int>(state.range(0));
    IndexedEventQueue queue(slots);
    uint64_t seq = 0;
    uint64_t rng = 0xA0761D6478BD642Full;
    Tick now = 0;
    for (int s = 0; s < slots; ++s)
        queue.schedule(s, now + nextRand(rng) % 1000, seq++);
    for (auto _ : state) {
        now = queue.topTick();
        int slot = queue.pop();
        queue.schedule(slot, now + 1 + nextRand(rng) % 1000, seq++);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePopSchedule)->Arg(9)->Arg(17)->Arg(65);

void
BM_MachineRun(benchmark::State &state)
{
    // End-to-end simulation throughput; the kernel DAG is generated
    // once and shared, as the experiment engine does per batch.
    const char *names[] = {"dict", "radix-1", "qsort-1"};
    const char *name = names[state.range(0)];
    Kernel kernel = makeKernel(name);
    MachineConfig config =
        exp::configForSpec(kernel, {name, Variant::base_psm});
    uint64_t events = 0;
    for (auto _ : state) {
        SimResult result = Machine(config, kernel.dag).run();
        events += result.sim_events;
        benchmark::DoNotOptimize(result.exec_seconds);
    }
    state.SetLabel(name);
    state.counters["events"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MachineRun)->Arg(0)->Arg(1)->Arg(2);

void
BM_DagGeneration(benchmark::State &state)
{
    const char *names[] = {"dict", "radix-1", "qsort-1"};
    const char *name = names[state.range(0)];
    for (auto _ : state) {
        Kernel kernel = makeKernel(name);
        benchmark::DoNotOptimize(kernel.dag.numTasks());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_DagGeneration)->Arg(0)->Arg(1)->Arg(2);

/**
 * Timed engine batch (cache off, single job): 3 kernels x all variants
 * plus a seed fan-out and two mug-latency sweeps, which smoke-tests the
 * engine plumbing and yields the sims/sec + events/sec record CI
 * archives.
 */
void
emitBenchJson(const std::string &path)
{
    std::vector<exp::RunSpec> specs;
    for (const char *kernel : {"dict", "radix-1", "qsort-1"})
        for (Variant variant : allVariants())
            specs.emplace_back(kernel, variant);
    // Seed fan-out: same kernel/config under distinct seeds.
    for (uint64_t seed_offset = 1; seed_offset <= 4; ++seed_offset)
        specs.emplace_back("dict", Variant::base_psm,
                           exp::kDefaultSeed + seed_offset);
    // One-knob sweeps: dict reads the mug knob mid-run; radix-1 never
    // mugs, so its four results are identical.
    for (const char *kernel : {"dict", "radix-1"})
        for (uint64_t cycles : {100ull, 400ull, 700ull, 1000ull}) {
            exp::RunSpec spec(kernel, Variant::base_psm);
            spec.overrides.mug_interrupt_cycles = cycles;
            specs.push_back(spec);
        }

    exp::EngineOptions options;
    options.jobs = 1;
    options.use_cache = false;
    options.progress = false;
    options.time_report = true;
    options.bench_json = path;
    options.bench_name = "micro_sim";
    exp::runBatch(specs, options);
    std::fprintf(stderr, "[micro_sim] wrote perf record to %s\n",
                 path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench_json;
    if (const char *env = exp::benchJsonEnv())
        bench_json = env;
    // Peel off our flag before google-benchmark sees (and rejects) it.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--bench-json=", 13) == 0)
            bench_json = argv[i] + 13;
        else
            args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!bench_json.empty())
        emitBenchJson(bench_json);
    return 0;
}
