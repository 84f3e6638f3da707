/**
 * @file
 * aaws_e2e: one benchmark process runs one workload and prints one JSON
 * line with every metric (name, unit, value), the operation counts and
 * the build's fingerprint.  run.py drives it; see README.md.
 *
 *   aaws_e2e --workload=NAME --seed=S [--seconds=T] [--trace=FILE]
 *            [--verify-only --golden=FILE [--write-golden]]
 *            [--scratch=DIR] [--smoke] [--setup-only]
 *
 * Set-up ends with a `ready` line on stdout; the result line is the
 * last line.  Exit status is 0 when the run completed, whatever its
 * checks found (they are reported as failed_ops), and 2 on bad usage.
 */

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "e2e.h"

namespace aaws::e2e {

bool
Trace::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "e2e: cannot write trace '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        return false;
    }
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                     i == 0 ? "" : ",", json::encodeString(s.name).c_str(),
                     s.tid, s.ts_us, s.dur_us,
                     static_cast<unsigned long long>(s.id));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    std::fprintf(stderr, "e2e: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

void
markReady()
{
    std::printf("ready\n");
    std::fflush(stdout);
}

namespace {

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "aaws_e2e: %s\n"
                 "usage: aaws_e2e --workload=NAME --seed=S [--seconds=T] "
                 "[--trace=FILE] [--verify-only --golden=FILE "
                 "[--write-golden]] [--scratch=DIR] [--smoke] "
                 "[--setup-only]\n"
                 "workloads: sim_sweep sim_knob_sweep forkjoin_deque "
                 "forkjoin_chan\n",
                 message);
    std::exit(2);
}

/** Value of `--name=value` when `arg` is that flag, else nullptr. */
const char *
flagValue(const char *arg, const char *name)
{
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

Options
parse(int argc, char **argv)
{
    Options options;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *v = nullptr;
        char *end = nullptr;
        if ((v = flagValue(arg, "--workload"))) {
            options.workload = v;
        } else if ((v = flagValue(arg, "--seed"))) {
            errno = 0;
            options.seed = std::strtoull(v, &end, 0);
            if (*v == '\0' || *end != '\0' || errno == ERANGE)
                usage("--seed needs an unsigned integer");
            have_seed = true;
        } else if ((v = flagValue(arg, "--seconds"))) {
            options.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 3600.0)
                usage("--seconds needs a number in (0, 3600]");
        } else if ((v = flagValue(arg, "--trace"))) {
            options.trace_path = v;
        } else if ((v = flagValue(arg, "--golden"))) {
            options.golden_path = v;
        } else if ((v = flagValue(arg, "--scratch"))) {
            options.scratch_dir = v;
        } else if (std::strcmp(arg, "--verify-only") == 0) {
            options.verify_only = true;
        } else if (std::strcmp(arg, "--write-golden") == 0) {
            options.write_golden = true;
        } else if (std::strcmp(arg, "--smoke") == 0) {
            options.smoke = true;
        } else if (std::strcmp(arg, "--setup-only") == 0) {
            options.setup_only = true;
        } else {
            usage((std::string("unknown argument '") + arg + "'").c_str());
        }
    }
    if (!have_seed)
        usage("--seed is required");
    return options;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? "," : "") + json::encodeString(m.name) +
               ":{\"value\":" + json::encodeDouble(m.value) +
               ",\"unit\":" + json::encodeString(m.unit) + "}";
    }
    return out + "}";
}

} // namespace
} // namespace aaws::e2e

int
main(int argc, char **argv)
{
    using namespace aaws::e2e;
    const Options options = parse(argc, argv);
    const std::string &w = options.workload;
    const bool sim = w == "sim_sweep" || w == "sim_knob_sweep";
    const bool forkjoin = w == "forkjoin_deque" || w == "forkjoin_chan";
    if (!sim && !forkjoin)
        usage(("unknown workload '" + w + "'").c_str());
    if (options.verify_only && (!sim || options.golden_path.empty()))
        usage("--verify-only takes a sim workload and --golden=FILE");
    if (options.write_golden && !options.verify_only)
        usage("--write-golden needs --verify-only");

    Trace trace;
    Trace *traced = options.traced() ? &trace : nullptr;
    // The workload runs on a thread of its own.  The main thread's stack
    // sits below argv and the environment, so their length moves every
    // frame on it: one extra 32-character argument made the deque pool's
    // fib(36), whose master's frames the other workers touch, 40% slower
    // (10.4 to 14.4 ms, median of six alternating runs each on a 4-vCPU
    // x86-64 VM).  A new thread's stack starts on a page boundary however
    // the process was started.
    Report report;
    std::thread([&] {
        report = sim ? runSimWorkload(options, traced)
                     : runForkJoin(options, traced);
    }).join();
    if (options.setup_only)
        return 0;
    if (traced && !trace.write(options.trace_path))
        return 1;

    std::printf(
        "{\"schema\":\"aaws-e2e/v2\",\"workload\":%s,\"seed\":%llu,"
        "\"seconds\":%s,\"smoke\":%s,\"traced\":%s,\"ops\":%llu,"
        "\"failed_ops\":%llu,\"build\":{\"compiler\":%s,"
        "\"build_type\":%s,\"cores\":%d},\"metrics\":%s,\"layers\":%s}\n",
        aaws::json::encodeString(w).c_str(),
        static_cast<unsigned long long>(options.seed),
        aaws::json::encodeDouble(options.seconds).c_str(),
        options.smoke ? "true" : "false", traced ? "true" : "false",
        static_cast<unsigned long long>(report.ops),
        static_cast<unsigned long long>(report.failed_ops),
        aaws::json::encodeString(AAWS_E2E_COMPILER).c_str(),
        aaws::json::encodeString(AAWS_E2E_BUILD_TYPE).c_str(),
        availableCpus(), metricsJson(report.metrics).c_str(),
        metricsJson(report.layers).c_str());
    return 0;
}
