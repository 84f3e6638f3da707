/**
 * @file
 * Shared pieces of the end-to-end benchmark: the options of one
 * benchmark process, the report every workload fills, and the in-memory
 * span recorder behind `--trace=FILE`.
 *
 * The benchmark measures the program from outside: it times calls into
 * the public functions of src/ and never reaches into a layer's
 * internals, so changes inside a layer need no edit here.
 */

#ifndef AAWS_BENCH_E2E_H
#define AAWS_BENCH_E2E_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace aaws::e2e {

using Clock = std::chrono::steady_clock;

/** Seconds from `start` to `end`. */
inline double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    /** The only workload input: every generated input derives from it. */
    uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10.0;
    /** Non-empty: traced run; spans go to this Chrome trace file. */
    std::string trace_path;
    /**
     * Sim workloads: instead of the window, run the pass once, check it
     * against golden_path and report the peak memory.
     */
    bool verify_only = false;
    /** Per-simulation digest goldens (sim workloads). */
    std::string golden_path;
    /** With verify_only: record the goldens instead of checking them. */
    bool write_golden = false;
    /** Where the result cache of each engine pass lives ("" = tmp). */
    std::string scratch_dir;
    /** Roughly 1/20 of the work per operation (selftest). */
    bool smoke = false;
    /** Stop right after set-up (set-up time probes). */
    bool setup_only = false;

    bool traced() const { return !trace_path.empty(); }
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** What one workload run measured and checked. */
struct Report
{
    /** Operations whose outputs were checked. */
    uint64_t ops = 0;
    /** Operations that produced a wrong output. */
    uint64_t failed_ops = 0;
    /** End-to-end metrics. */
    std::vector<Metric> metrics;
    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> layers;

    void
    metric(const std::string &name, const std::string &unit, double value)
    {
        metrics.push_back({name, unit, value});
    }

    void
    layer(const std::string &name, const std::string &unit, double value)
    {
        layers.push_back({name, unit, value});
    }
};

/**
 * In-memory span recorder.  Spans are kept until the run ends and then
 * written as Chrome trace-event JSON (the format Perfetto and
 * chrome://tracing load).  span() may be called from any thread.
 */
class Trace
{
  public:
    Trace() : origin_(Clock::now()) {}

    /**
     * Record the span [start, end) named `name` (a string literal) on
     * lane `tid`.  Spans of one operation share `id`; the enclosing
     * operation's span, when there is one, is its parent.
     */
    void
    span(const char *name, Clock::time_point start, Clock::time_point end,
         int tid = 0, uint64_t id = 0)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, toMicros(start), toMicros(end) -
                                                     toMicros(start),
                          tid, id});
    }

    /** Write every span; false (with a message) on an I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double ts_us;
        double dur_us;
        int tid;
        uint64_t id;
    };

    double
    toMicros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Processors this process may run on (what `nproc` prints). */
int availableCpus();

/**
 * Threads a workload keeps busy: one fewer than nproc, at most 4.  On a
 * shared 4-vCPU VM four always-runnable threads lost 0.6-20% of their
 * time to stalls of up to 24 ms, which swamps every tail metric; three
 * lost under 0.5%.
 */
inline int
busyThreads()
{
    int cpus = availableCpus();
    return cpus <= 1 ? 1 : (cpus - 1 < 4 ? cpus - 1 : 4);
}

/** Peak resident set size of the process so far (VmHWM), MB. */
double peakRssMb();

/**
 * End of set-up: prints the `ready` line the runner timestamps to
 * measure set-up time.  Every workload calls it exactly once, right
 * before its first timed operation.
 */
void markReady();

// --- workloads (sim_workloads.cc / native_workloads.cc) -------------------

/** sim_sweep and sim_knob_sweep. */
Report runSimWorkload(const Options &options, Trace *trace);

/** forkjoin_deque and forkjoin_chan. */
Report runForkJoin(const Options &options, Trace *trace);

} // namespace aaws::e2e

#endif // AAWS_BENCH_E2E_H
