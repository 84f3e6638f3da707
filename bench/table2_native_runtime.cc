/**
 * @file
 * Table II reproduction, grown into a backend shootout: the native
 * runtimes against alternative schedulers on real host hardware, using
 * real implementations of five PBBS-style kernels (dict, radix, rdups,
 * mis, nbody).
 *
 * Intel Cilk++ / Intel TBB are not available offline; the comparison
 * points are a centralized-queue work-*sharing* pool and a
 * std::async-per-chunk scheduler (see DESIGN.md).  The paper's claim to
 * check is that the baseline work-stealing runtime is competitive with
 * (within a few percent of) production alternatives; absolute speedups
 * depend on how many hardware threads this host has.
 *
 * On top of the Table II columns, the shootout compares the two native
 * backends behind the same RuntimeBackend seam: the Chase-Lev deque
 * pool (runtime/worker_pool.h) versus the channel-based steal-request
 * pool (chan/channel_pool.h) in its steal-one / steal-half / adaptive
 * configurations.  `--backend=deque|chan` restricts the sweep to one
 * side.  A fine-grained fib microkernel always runs
 * (independent of --filter) and emits the structural steal-protocol
 * metrics the reproduction gate checks: steal-one moves exactly one
 * task per successful steal, steal-half moves at least as many.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "chan/channel_pool.h"
#include "common/rng.h"
#include "exp/cli.h"
#include "runtime/central_queue.h"
#include "runtime/parallel_for.h"
#include "runtime/parallel_invoke.h"
#include "runtime/worker_pool.h"

using namespace aaws;

namespace {

double
timeIt(const std::function<void()> &fn, int trials = 3)
{
    double best = 1e30;
    for (int t = 0; t < trials; ++t) {
        auto start = std::chrono::steady_clock::now();
        fn();
        auto end = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(end - start).count());
    }
    return best;
}

// ---- dict: open-addressing hash insert + lookup --------------------------

struct DictKernel
{
    static constexpr int64_t kN = 400000;
    std::vector<uint64_t> keys;
    std::vector<std::atomic<uint64_t>> table;
    int64_t mask;

    DictKernel() : keys(kN), table(1 << 20), mask((1 << 20) - 1)
    {
        Rng rng(1);
        for (auto &k : keys)
            k = rng.next() | 1;
    }

    void reset()
    {
        for (auto &slot : table)
            slot.store(0, std::memory_order_relaxed);
    }

    void
    insertRange(int64_t lo, int64_t hi)
    {
        for (int64_t i = lo; i < hi; ++i) {
            uint64_t key = keys[i];
            int64_t slot = static_cast<int64_t>(key) & mask;
            while (true) {
                uint64_t cur = table[slot].load(std::memory_order_relaxed);
                if (cur == key)
                    break;
                if (cur == 0) {
                    uint64_t expected = 0;
                    if (table[slot].compare_exchange_weak(expected, key))
                        break;
                    continue;
                }
                slot = (slot + 1) & mask;
            }
        }
    }

    int64_t
    findRange(int64_t lo, int64_t hi) const
    {
        int64_t hits = 0;
        for (int64_t i = lo; i < hi; ++i) {
            uint64_t key = keys[i];
            int64_t slot = static_cast<int64_t>(key) & mask;
            while (true) {
                uint64_t cur = table[slot].load(std::memory_order_relaxed);
                if (cur == key) {
                    hits++;
                    break;
                }
                if (cur == 0)
                    break;
                slot = (slot + 1) & mask;
            }
        }
        return hits;
    }
};

// ---- radix: LSD radix sort over 8-bit digits ---------------------------

struct RadixKernel
{
    static constexpr int64_t kN = 1200000;
    std::vector<uint32_t> input;

    RadixKernel() : input(kN)
    {
        Rng rng(2);
        for (auto &v : input)
            v = static_cast<uint32_t>(rng.next());
    }

    /** One pass with per-block counting; runs blocks through `pf`. */
    static void
    sortWith(std::vector<uint32_t> data,
             const std::function<void(int64_t, int64_t,
                                      std::function<void(int64_t,
                                                         int64_t)>)> &pf,
             int blocks)
    {
        std::vector<uint32_t> out(data.size());
        auto n = static_cast<int64_t>(data.size());
        int64_t block = (n + blocks - 1) / blocks;
        std::vector<std::vector<int64_t>> hist(
            blocks, std::vector<int64_t>(256, 0));
        for (int shift = 0; shift < 32; shift += 8) {
            pf(0, blocks, [&](int64_t blo, int64_t bhi) {
                for (int64_t b = blo; b < bhi; ++b) {
                    auto &h = hist[b];
                    std::fill(h.begin(), h.end(), 0);
                    int64_t lo = b * block;
                    int64_t hi = std::min(n, lo + block);
                    for (int64_t i = lo; i < hi; ++i)
                        h[(data[i] >> shift) & 255]++;
                }
            });
            // Serial prefix over digit-major order.
            std::vector<std::vector<int64_t>> offset(
                blocks, std::vector<int64_t>(256, 0));
            int64_t run = 0;
            for (int d = 0; d < 256; ++d) {
                for (int b = 0; b < blocks; ++b) {
                    offset[b][d] = run;
                    run += hist[b][d];
                }
            }
            pf(0, blocks, [&](int64_t blo, int64_t bhi) {
                for (int64_t b = blo; b < bhi; ++b) {
                    auto off = offset[b];
                    int64_t lo = b * block;
                    int64_t hi = std::min(n, lo + block);
                    for (int64_t i = lo; i < hi; ++i)
                        out[off[(data[i] >> shift) & 255]++] = data[i];
                }
            });
            data.swap(out);
        }
        volatile uint32_t sink = data[0];
        (void)sink;
    }
};

// ---- rdups: remove duplicates via hash claiming --------------------------

struct RdupsKernel
{
    static constexpr int64_t kN = 800000;
    std::vector<uint64_t> keys;
    std::vector<std::atomic<uint64_t>> table;
    int64_t mask;

    RdupsKernel() : keys(kN), table(1 << 20), mask((1 << 20) - 1)
    {
        Rng rng(3);
        for (auto &k : keys)
            k = (rng.next() % (kN / 4)) + 1; // ~4x duplication
    }

    void reset()
    {
        for (auto &slot : table)
            slot.store(0, std::memory_order_relaxed);
    }

    int64_t
    claimRange(int64_t lo, int64_t hi)
    {
        int64_t uniques = 0;
        for (int64_t i = lo; i < hi; ++i) {
            uint64_t key = keys[i];
            int64_t slot = static_cast<int64_t>(key * 0x9E3779B9u) & mask;
            while (true) {
                uint64_t cur = table[slot].load(std::memory_order_relaxed);
                if (cur == key)
                    break;
                if (cur == 0) {
                    uint64_t expected = 0;
                    if (table[slot].compare_exchange_weak(expected, key)) {
                        uniques++;
                        break;
                    }
                    continue;
                }
                slot = (slot + 1) & mask;
            }
        }
        return uniques;
    }
};

// ---- nbody: direct O(n^2) forces -----------------------------------------

struct NbodyKernel
{
    static constexpr int64_t kN = 700;
    std::vector<double> x, y, z, fx, fy, fz;

    NbodyKernel()
        : x(kN), y(kN), z(kN), fx(kN), fy(kN), fz(kN)
    {
        Rng rng(4);
        for (int64_t i = 0; i < kN; ++i) {
            x[i] = rng.uniform();
            y[i] = rng.uniform();
            z[i] = rng.uniform();
        }
    }

    void
    forcesRange(int64_t lo, int64_t hi)
    {
        for (int64_t i = lo; i < hi; ++i) {
            double ax = 0, ay = 0, az = 0;
            for (int64_t j = 0; j < kN; ++j) {
                double dx = x[j] - x[i];
                double dy = y[j] - y[i];
                double dz = z[j] - z[i];
                double r2 = dx * dx + dy * dy + dz * dz + 1e-9;
                double inv = 1.0 / (r2 * std::sqrt(r2));
                ax += dx * inv;
                ay += dy * inv;
                az += dz * inv;
            }
            fx[i] = ax;
            fy[i] = ay;
            fz[i] = az;
        }
    }
};

// ---- mis: Luby rounds over a random local graph --------------------------

struct MisKernel
{
    static constexpr int64_t kN = 300000;
    std::vector<int32_t> offsets, neighbors;
    std::vector<double> priority;

    MisKernel()
    {
        Rng rng(5);
        std::vector<std::vector<int32_t>> adj(kN);
        for (int64_t u = 0; u < kN; ++u) {
            for (int d = 0; d < 4; ++d) {
                auto v = static_cast<int32_t>(
                    (u + 1 + rng.below(2000)) % kN);
                adj[u].push_back(v);
                adj[v].push_back(static_cast<int32_t>(u));
            }
        }
        offsets.resize(kN + 1);
        for (int64_t u = 0; u < kN; ++u)
            offsets[u + 1] = offsets[u] +
                             static_cast<int32_t>(adj[u].size());
        neighbors.resize(offsets[kN]);
        for (int64_t u = 0; u < kN; ++u)
            std::copy(adj[u].begin(), adj[u].end(),
                      neighbors.begin() + offsets[u]);
        priority.resize(kN);
        for (auto &p : priority)
            p = rng.uniform();
    }

    /** One MIS computation; statuses: 0 undecided, 1 in, 2 out. */
    int64_t
    run(const std::function<void(int64_t, int64_t,
                                 std::function<void(int64_t,
                                                    int64_t)>)> &pf)
    {
        std::vector<std::atomic<int8_t>> status(kN);
        for (auto &s : status)
            s.store(0, std::memory_order_relaxed);
        std::atomic<int64_t> in_set{0};
        for (int round = 0; round < 40; ++round) {
            std::atomic<int64_t> changed{0};
            pf(0, kN, [&](int64_t lo, int64_t hi) {
                int64_t local_in = 0;
                int64_t local_changed = 0;
                for (int64_t u = lo; u < hi; ++u) {
                    if (status[u].load(std::memory_order_relaxed) != 0)
                        continue;
                    bool is_min = true;
                    bool neighbor_in = false;
                    for (int32_t i = offsets[u]; i < offsets[u + 1];
                         ++i) {
                        int32_t v = neighbors[i];
                        int8_t sv =
                            status[v].load(std::memory_order_relaxed);
                        if (sv == 1) {
                            neighbor_in = true;
                            break;
                        }
                        if (sv == 0 && priority[v] < priority[u])
                            is_min = false;
                    }
                    if (neighbor_in) {
                        status[u].store(2, std::memory_order_relaxed);
                        local_changed++;
                    } else if (is_min) {
                        status[u].store(1, std::memory_order_relaxed);
                        local_in++;
                        local_changed++;
                    }
                }
                in_set.fetch_add(local_in, std::memory_order_relaxed);
                changed.fetch_add(local_changed,
                                  std::memory_order_relaxed);
            });
            if (changed.load() == 0)
                break;
        }
        return in_set.load();
    }
};

using PfFn = std::function<void(int64_t, int64_t,
                                std::function<void(int64_t, int64_t)>)>;

/** One contender in the shootout. */
struct Sched
{
    const char *name; ///< Column header / metric prefix.
    PfFn pf;
};

/** One kernel's times, parallel to the scheduler list (serial first). */
struct Row
{
    const char *name;
    std::vector<double> times;
};

/** Fine-grained fork-join fib: the steal-protocol torture workload. */
uint64_t
fib(RuntimeBackend &pool, int n)
{
    if (n < 2)
        return static_cast<uint64_t>(n);
    if (n < 12) {
        uint64_t a = 0;
        uint64_t b = 1;
        for (int i = 2; i <= n; ++i) {
            uint64_t next = a + b;
            a = b;
            b = next;
        }
        return b;
    }
    uint64_t left = 0;
    uint64_t right = 0;
    parallelInvoke(pool, [&] { left = fib(pool, n - 1); },
                   [&] { right = fib(pool, n - 2); });
    return left + right;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * The always-on steal-protocol microkernel: run fine-grained fib on
 * each channel steal kind and emit the structural metrics the claim
 * registry checks.  tasks-per-steal is defined as 1.0 when a run saw
 * no steals at all (a one-hardware-thread host can execute everything
 * on the spawning worker), so the invariants below hold on any host:
 *
 *   - steal-one grants carry exactly one task, so its tasks-per-steal
 *     is identically 1.0;
 *   - every grant carries at least one task, so steal-half's
 *     tasks-per-steal — and the half/one ratio — is >= 1.0.
 */
void
runFibProtocol(exp::BenchCli &cli, int threads)
{
    using chan::ChannelPool;
    using chan::StealKind;
    const int kFibN = 30;
    const uint64_t kFibExpected = 832040;
    const int kReps = 10; // keeps workers awake past the first run
    std::printf("\n--- steal-protocol microkernel: fib(%d) x%d, "
                "grain fib(12) ---\n", kFibN, kReps);
    std::printf("%-10s %10s %9s %9s %9s %11s\n", "kind", "time(ms)",
                "requests", "steals", "tasks", "tasks/steal");
    double tasks_per_steal[3] = {1.0, 1.0, 1.0};
    bool all_ok = true;
    const StealKind kinds[] = {StealKind::one, StealKind::half,
                               StealKind::adaptive};
    for (int k = 0; k < 3; ++k) {
        ChannelPool pool(threads, PoolOptions{}, kinds[k]);
        double elapsed = timeIt([&] {
            for (int rep = 0; rep < kReps; ++rep)
                all_ok = all_ok && fib(pool, kFibN) == kFibExpected;
        }, 1);
        uint64_t steals = pool.steals();
        uint64_t tasks = pool.tasksReceived();
        if (steals > 0)
            tasks_per_steal[k] = static_cast<double>(tasks) /
                                 static_cast<double>(steals);
        std::printf("%-10s %10.2f %9llu %9llu %9llu %11.2f\n",
                    chan::stealKindName(kinds[k]), elapsed * 1e3,
                    static_cast<unsigned long long>(pool.requestsSent()),
                    static_cast<unsigned long long>(steals),
                    static_cast<unsigned long long>(tasks),
                    tasks_per_steal[k]);
        auto add = [&](const char *metric, double value) {
            std::string name = std::string(chan::stealKindName(kinds[k]))
                               + "_" + metric;
            cli.results.add("fib", name, value);
        };
        add("requests", static_cast<double>(pool.requestsSent()));
        add("steals", static_cast<double>(steals));
        add("tasks_received", static_cast<double>(tasks));
        add("tasks_per_steal", tasks_per_steal[k]);
    }
    cli.results.add("fib", "result_ok", all_ok ? 1.0 : 0.0);
    cli.results.add("fib", "tasks_per_steal_one", tasks_per_steal[0]);
    cli.results.add("fib", "tasks_per_steal_ratio",
                    tasks_per_steal[1] / tasks_per_steal[0]);
    std::printf("result_ok=%d  tasks/steal ratio (half vs one) = %.2f\n",
                all_ok ? 1 : 0,
                tasks_per_steal[1] / tasks_per_steal[0]);
}

} // namespace

int
main(int argc, char **argv)
{
    using chan::ChannelPool;
    using chan::StealKind;

    aaws::exp::BenchCli cli;
    cli.parse(argc, argv);
    int threads = std::max(2u, std::thread::hardware_concurrency());
    bool with_deque = cli.backendEnabled(BackendKind::deque);
    bool with_chan = cli.backendEnabled(BackendKind::chan);
    std::printf("=== Table II shootout: native backends vs alternative "
                "schedulers (host: %d threads) ===\n\n", threads);

    WorkerPool ws_pool(threads);
    CentralQueuePool cq_pool(threads);
    ChannelPool chan_one(threads, PoolOptions{}, StealKind::one);
    ChannelPool chan_half(threads, PoolOptions{}, StealKind::half);
    ChannelPool chan_adapt(threads, PoolOptions{}, StealKind::adaptive);

    auto pool_pf = [](RuntimeBackend &pool) {
        return [&pool](int64_t lo, int64_t hi,
                       std::function<void(int64_t, int64_t)> body) {
            parallelFor(pool, lo, hi,
                        std::max<int64_t>(1, (hi - lo) / 64), body);
        };
    };

    // Scheduler order matters below: index 0 is the serial reference,
    // and the ws / chan_adaptive columns feed the chan-vs-deque
    // aggregate the claim registry checks.
    std::vector<Sched> scheds;
    scheds.push_back(
        {"serial", [](int64_t lo, int64_t hi,
                      std::function<void(int64_t, int64_t)> body) {
             body(lo, hi);
         }});
    int ws_col = -1;
    int chan_col = -1;
    if (with_deque) {
        ws_col = static_cast<int>(scheds.size());
        scheds.push_back({"ws", pool_pf(ws_pool)});
        scheds.push_back(
            {"cq", [&](int64_t lo, int64_t hi,
                       std::function<void(int64_t, int64_t)> body) {
                 cq_pool.parallelFor(
                     lo, hi, std::max<int64_t>(1, (hi - lo) / 64),
                     body);
             }});
        scheds.push_back(
            {"async", [&](int64_t lo, int64_t hi,
                          std::function<void(int64_t, int64_t)> body) {
                 asyncChunkedFor(lo, hi, threads, body);
             }});
    }
    if (with_chan) {
        scheds.push_back({"chan_one", pool_pf(chan_one)});
        scheds.push_back({"chan_half", pool_pf(chan_half)});
        chan_col = static_cast<int>(scheds.size());
        scheds.push_back({"chan_adaptive", pool_pf(chan_adapt)});
    }

    std::vector<Row> rows;
    auto run = [&](const char *name,
                   const std::function<double(const PfFn &)> &bench) {
        if (!cli.matches(name))
            return;
        Row row{name, {}};
        row.times.reserve(scheds.size());
        for (const Sched &sched : scheds)
            row.times.push_back(bench(sched.pf));
        rows.push_back(std::move(row));
    };

    {
        DictKernel dict;
        run("dict", [&](const PfFn &pf) {
            return timeIt([&] {
                dict.reset();
                pf(0, DictKernel::kN, [&](int64_t lo, int64_t hi) {
                    dict.insertRange(lo, hi);
                });
                std::atomic<int64_t> hits{0};
                pf(0, DictKernel::kN, [&](int64_t lo, int64_t hi) {
                    hits.fetch_add(dict.findRange(lo, hi));
                });
            });
        });
    }
    {
        RadixKernel radix;
        run("radix", [&](const PfFn &pf) {
            return timeIt([&] {
                RadixKernel::sortWith(radix.input, pf, 4 * threads);
            });
        });
    }
    {
        RdupsKernel rdups;
        run("rdups", [&](const PfFn &pf) {
            return timeIt([&] {
                rdups.reset();
                std::atomic<int64_t> uniques{0};
                pf(0, RdupsKernel::kN, [&](int64_t lo, int64_t hi) {
                    uniques.fetch_add(rdups.claimRange(lo, hi));
                });
            });
        });
    }
    {
        MisKernel mis;
        run("mis", [&](const PfFn &pf) {
            return timeIt([&] { (void)mis.run(pf); });
        });
    }
    {
        NbodyKernel nbody;
        run("nbody", [&](const PfFn &pf) {
            return timeIt([&] {
                pf(0, NbodyKernel::kN, [&](int64_t lo, int64_t hi) {
                    nbody.forcesRange(lo, hi);
                });
            });
        });
    }

    std::printf("%-8s %12s", "kernel", "serial(ms)");
    for (size_t s = 1; s < scheds.size(); ++s)
        std::printf(" %13s", scheds[s].name);
    std::printf("\n");
    cli.results.add("host", "threads", static_cast<double>(threads));
    std::vector<double> chan_vs_ws;
    for (const auto &row : rows) {
        double serial = row.times[0];
        std::printf("%-8s %12.2f", row.name, serial * 1e3);
        auto addHost = [&](const std::string &metric, double value) {
            cli.results.add({.series = "host",
                             .kernel = row.name,
                             .metric = metric,
                             .value = value});
        };
        for (size_t s = 1; s < scheds.size(); ++s) {
            std::printf(" %12.2fx", serial / row.times[s]);
            addHost(std::string(scheds[s].name) + "_speedup",
                    serial / row.times[s]);
        }
        std::printf("\n");
        if (ws_col >= 0 && chan_col >= 0) {
            double ratio = row.times[static_cast<size_t>(chan_col)] /
                           row.times[static_cast<size_t>(ws_col)];
            chan_vs_ws.push_back(ratio);
            addHost("chan_vs_ws_pct", 100.0 * (ratio - 1.0));
        }
        if (ws_col >= 0)
            addHost("ws_vs_cq_pct",
                    100.0 * (row.times[static_cast<size_t>(ws_col) + 1] /
                                 row.times[static_cast<size_t>(ws_col)] -
                             1.0));
    }
    if (!chan_vs_ws.empty()) {
        double med = median(chan_vs_ws);
        cli.results.add("summary", "median_chan_vs_ws", med);
        std::printf("\nmedian chan(adaptive) vs ws(deque) time ratio: "
                    "%.2f (1.0 = parity; lower is better for the "
                    "channel backend)\n", med);
    }
    std::printf("\ncolumns are speedups over the serial version.  ws = "
                "Chase-Lev deques, cq = centralized work-sharing\n"
                "queue, async = std::async per chunk, chan_* = the "
                "steal-request channel backend per steal kind\n"
                "(paper's analogous margin vs TBB: -3%% .. +14%%).  On "
                "a single-hardware-thread host all parallel\n"
                "speedups degenerate toward <= 1x; the backend *ratio* "
                "remains meaningful.\n");

    if (with_chan)
        runFibProtocol(cli, threads);
    return 0;
}
