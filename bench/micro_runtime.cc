/**
 * @file
 * google-benchmark microbenchmarks of the native runtime primitives:
 * deque push/pop, steal, SPSC/MPSC channel send/recv, spawn+join
 * overhead on both backends, parallel_for scaling, and task-DAG
 * generation throughput.
 *
 * Custom main (mirroring micro_sim): after the registered benchmarks
 * run, a fixed parallel_for workload is timed on each backend and the
 * BENCH_runtime.json perf record (tasks/sec per backend) is written
 * when `--bench-json=PATH` or AAWS_BENCH_JSON is set, so CI can archive
 * and warn-compare one machine-readable artifact per run.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chan/channel.h"
#include "chan/channel_pool.h"
#include "kernels/registry.h"
#include "runtime/chase_lev_deque.h"
#include "runtime/parallel_for.h"
#include "runtime/task_group.h"
#include "runtime/worker_pool.h"

using namespace aaws;

namespace {

void
BM_DequePushPop(benchmark::State &state)
{
    ChaseLevDeque<int64_t> dq;
    int64_t out;
    for (auto _ : state) {
        dq.push(1);
        benchmark::DoNotOptimize(dq.pop(out));
    }
}
BENCHMARK(BM_DequePushPop);

void
BM_DequeSteal(benchmark::State &state)
{
    ChaseLevDeque<int64_t> dq;
    int64_t out;
    for (auto _ : state) {
        dq.push(1);
        benchmark::DoNotOptimize(dq.steal(out));
    }
}
BENCHMARK(BM_DequeSteal);

void
BM_SpscSendRecv(benchmark::State &state)
{
    // Uncontended single-thread round trip: the per-message floor of
    // the task-batch reply channel.
    chan::SpscChannel<int64_t> ch(64);
    int64_t out;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ch.trySend(1));
        benchmark::DoNotOptimize(ch.tryRecv(out));
    }
}
BENCHMARK(BM_SpscSendRecv);

void
BM_MpscSendRecv(benchmark::State &state)
{
    // Uncontended floor of the steal-request mailbox (Vyukov ring):
    // one CAS claim + seq handoff per message.
    chan::MpscChannel<int64_t> ch(64);
    int64_t out;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ch.trySend(1));
        benchmark::DoNotOptimize(ch.tryRecv(out));
    }
}
BENCHMARK(BM_MpscSendRecv);

void
BM_SpawnJoin(benchmark::State &state)
{
    WorkerPool pool(2);
    for (auto _ : state) {
        std::atomic<int> x{0};
        TaskGroup group(pool);
        group.run([&x] { x.fetch_add(1); });
        group.wait();
        benchmark::DoNotOptimize(x.load());
    }
}
BENCHMARK(BM_SpawnJoin);

void
BM_ChanSpawnJoin(benchmark::State &state)
{
    chan::ChannelPool pool(2);
    for (auto _ : state) {
        std::atomic<int> x{0};
        TaskGroup group(pool);
        group.run([&x] { x.fetch_add(1); });
        group.wait();
        benchmark::DoNotOptimize(x.load());
    }
}
BENCHMARK(BM_ChanSpawnJoin);

void
BM_ParallelForGrain(benchmark::State &state)
{
    WorkerPool pool(4);
    std::vector<int64_t> data(1 << 14);
    for (auto _ : state) {
        parallelFor(pool, 0, 1 << 14, state.range(0),
                    [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i)
                            data[i] = i;
                    });
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_ParallelForGrain)->Arg(64)->Arg(512)->Arg(4096);

void
BM_ChanParallelForGrain(benchmark::State &state)
{
    chan::ChannelPool pool(4);
    std::vector<int64_t> data(1 << 14);
    for (auto _ : state) {
        parallelFor(pool, 0, 1 << 14, state.range(0),
                    [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i)
                            data[i] = i;
                    });
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_ChanParallelForGrain)->Arg(64)->Arg(512)->Arg(4096);

void
BM_KernelGeneration(benchmark::State &state)
{
    // DAG synthesis throughput for the cheapest and priciest kernels.
    const char *names[] = {"mis", "bscholes", "uts"};
    const char *name = names[state.range(0)];
    for (auto _ : state) {
        Kernel kernel = makeKernel(name);
        benchmark::DoNotOptimize(kernel.dag.numTasks());
    }
    state.SetLabel(name);
}
BENCHMARK(BM_KernelGeneration)->Arg(0)->Arg(1)->Arg(2);

/** Tasks/sec of a fixed parallel_for workload on one backend. */
double
measureTasksPerSecond(RuntimeBackend &pool, uint64_t &tasks_out)
{
    const int64_t kItems = 1 << 15;
    const int64_t kGrain = 32;
    const int kPasses = 32;
    std::vector<int64_t> data(static_cast<size_t>(kItems));
    auto start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPasses; ++pass)
        parallelFor(pool, 0, kItems, kGrain,
                    [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i)
                            data[static_cast<size_t>(i)] = i;
                    });
    auto end = std::chrono::steady_clock::now();
    double elapsed =
        std::chrono::duration<double>(end - start).count();
    tasks_out = static_cast<uint64_t>(kPasses * (kItems / kGrain));
    return static_cast<double>(tasks_out) /
           (elapsed > 0.0 ? elapsed : 1e-9);
}

/**
 * One-line aaws-bench-runtime/v1 record: the same shape the simulator
 * bench emits (schema + bench + scalar throughput metrics), so
 * tools/bench_compare.py handles both.  The headline metric is
 * tasks_per_second on the deque backend; the channel backend rides
 * along as chan_tasks_per_second.
 */
void
emitBenchJson(const std::string &path)
{
    int threads =
        static_cast<int>(std::max(2u,
                                  std::thread::hardware_concurrency()));
    uint64_t tasks = 0;
    WorkerPool deque_pool(threads);
    double deque_rate = measureTasksPerSecond(deque_pool, tasks);
    chan::ChannelPool chan_pool(threads);
    double chan_rate = measureTasksPerSecond(chan_pool, tasks);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr,
                     "[micro_runtime] cannot write perf record %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f,
                 "{\"schema\":\"aaws-bench-runtime/v1\","
                 "\"bench\":\"micro_runtime\",\"threads\":%d,"
                 "\"tasks\":%llu,\"tasks_per_second\":%.1f,"
                 "\"chan_tasks_per_second\":%.1f}\n",
                 threads, static_cast<unsigned long long>(tasks),
                 deque_rate, chan_rate);
    std::fclose(f);
    std::fprintf(stderr, "[micro_runtime] wrote perf record to %s\n",
                 path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench_json;
    // (Mirrors exp::benchJsonEnv — this bench does not link the
    // experiment library.)
    if (const char *env = std::getenv("AAWS_BENCH_JSON"))
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
