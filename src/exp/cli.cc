#include "exp/cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "model/topology.h"

namespace aaws {
namespace exp {

namespace {

/** "--name=value" matcher; returns the value tail on a match. */
const char *
flagValue(const char *arg, const char *name)
{
    size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) == 0 && arg[len] == '=')
        return arg + len + 1;
    return nullptr;
}

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --jobs=N        worker threads (0 = auto; env AAWS_EXP_JOBS)\n"
        "  --filter=SUB    only kernels containing SUB "
        "(env AAWS_KERNEL_FILTER)\n"
        "  --backend=B     restrict native runs to one backend: "
        "all|deque|chan (env AAWS_BACKEND)\n"
        "  --topology=T    restrict topology sweeps to one preset, "
        "e.g. 1b7l or 2b2m4l:pc (env AAWS_TOPOLOGY)\n"
        "  --no-cache      disable the result cache "
        "(env AAWS_EXP_NO_CACHE)\n"
        "  --cache-dir=D   cache directory "
        "(env AAWS_EXP_CACHE_DIR; default .aaws-cache)\n"
        "  --no-progress   suppress engine progress lines on stderr\n"
        "  --time          print a sims/sec + events/sec line on stderr\n"
        "  --bench-json=F  write a machine-readable perf record to F "
        "(env AAWS_BENCH_JSON)\n"
        "  --results-json=F  write the aaws-results/v1 datapoint "
        "artifact to F (env AAWS_RESULTS_JSON)\n"
        "  --help          this message\n",
        prog);
}

/** argv[0] stripped to its basename: the bench name in perf records. */
const char *
progBasename(const char *prog)
{
    const char *base = prog;
    for (const char *p = prog; *p; ++p)
        if (*p == '/')
            base = p + 1;
    return base;
}

} // namespace

const char *
benchJsonEnv()
{
    const char *env = std::getenv("AAWS_BENCH_JSON");
    return env && *env ? env : nullptr;
}

bool
parseBackendSelection(const char *text, BackendSelection &out)
{
    if (!text)
        return false;
    if (std::strcmp(text, "all") == 0) {
        out = BackendSelection::all;
        return true;
    }
    BackendKind kind;
    if (parseBackendKind(text, kind)) {
        out = kind == BackendKind::deque ? BackendSelection::deque
                                         : BackendSelection::chan;
        return true;
    }
    return false;
}

void
BenchCli::parse(int argc, char **argv)
{
    std::string results_json;
    // Flags parse first; the environment fills in only the knobs no
    // flag set, so a flag always beats its env counterpart (the
    // --jobs/AAWS_EXP_JOBS contract, uniformly applied).
    bool filter_given = false;
    bool backend_given = false;
    bool topology_given = false;
    bool no_cache_given = false;
    bool cache_dir_given = false;
    bool bench_json_given = false;
    bool results_json_given = false;
    if (argc > 0)
        engine.bench_name = progBasename(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *value = flagValue(arg, "--jobs")) {
            int parsed = 0;
            if (!parseJobs(value, parsed))
                fatal("--jobs: expected an integer worker count, "
                      "got '%s'",
                      value);
            if (parsed <= 0) {
                // 0 and negatives mean "pick for me": fall through to
                // the engine's auto-detection rather than erroring out.
                warn("--jobs=%d clamped to auto (hardware concurrency)",
                     parsed);
                parsed = 0;
            }
            engine.jobs = parsed;
        } else if (const char *value = flagValue(arg, "--filter")) {
            filter = value;
            filter_given = true;
        } else if (const char *value = flagValue(arg, "--backend")) {
            if (!parseBackendSelection(value, backend))
                fatal("--backend: expected all, deque, or chan, "
                      "got '%s'",
                      value);
            backend_given = true;
        } else if (const char *value = flagValue(arg, "--topology")) {
            CoreTopology parsed;
            if (!parseTopologyName(value, ModelParams{}, parsed))
                fatal("--topology: expected a preset name like 4b4l, "
                      "1b7l, or 2b2m4l[:pc], got '%s'",
                      value);
            topology = value;
            topology_given = true;
        } else if (const char *value = flagValue(arg, "--cache-dir")) {
            engine.cache_dir = value;
            cache_dir_given = true;
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            engine.use_cache = false;
            no_cache_given = true;
        } else if (const char *value = flagValue(arg, "--bench-json")) {
            engine.bench_json = value;
            bench_json_given = true;
        } else if (const char *value = flagValue(arg, "--results-json")) {
            results_json = value;
            results_json_given = true;
        } else if (std::strcmp(arg, "--no-progress") == 0) {
            engine.progress = false;
        } else if (std::strcmp(arg, "--time") == 0) {
            engine.time_report = true;
        } else if (std::strcmp(arg, "--help") == 0) {
            printUsage(argv[0]);
            std::exit(0);
        } else {
            fatal("unknown argument '%s' (try --help)", arg);
        }
    }

    // Environment fallbacks (flag absent only).
    if (!filter_given)
        if (const char *env = std::getenv("AAWS_KERNEL_FILTER"))
            filter = env;
    if (!bench_json_given)
        if (const char *env = benchJsonEnv())
            engine.bench_json = env;
    if (!results_json_given)
        if (const char *env = std::getenv("AAWS_RESULTS_JSON"))
            results_json = env;
    if (!backend_given) {
        if (const char *env = std::getenv("AAWS_BACKEND")) {
            // Malformed environment warns and is ignored (the
            // strict-flag / lenient-env split parseJobs established).
            if (!parseBackendSelection(env, backend))
                warn("AAWS_BACKEND='%s' is not all/deque/chan; ignoring",
                     env);
        }
    }
    if (!topology_given) {
        if (const char *env = std::getenv("AAWS_TOPOLOGY")) {
            if (*env) {
                CoreTopology parsed;
                if (parseTopologyName(env, ModelParams{}, parsed))
                    topology = env;
                else
                    warn("AAWS_TOPOLOGY='%s' is not a topology preset "
                         "name; ignoring",
                         env);
            }
        }
    }
    if (!no_cache_given) {
        const char *env = std::getenv("AAWS_EXP_NO_CACHE");
        if (env && *env)
            engine.use_cache = false;
    }
    if (!cache_dir_given) {
        const char *env = std::getenv("AAWS_EXP_CACHE_DIR");
        if (env && *env)
            engine.cache_dir = env;
    }

    // A topology restriction narrows what a perf record measured, so
    // the record is tagged and bench_compare.py refuses cross-shape
    // diffs.
    engine.topology_tag = topology;

    if (!results_json.empty())
        results.open(results_json, engine.bench_name.empty()
                                       ? "bench"
                                       : engine.bench_name);
}

bool
BenchCli::matches(const std::string &name) const
{
    return filter.empty() || name.find(filter) != std::string::npos;
}

bool
BenchCli::backendEnabled(BackendKind kind) const
{
    switch (backend) {
    case BackendSelection::all:
        return true;
    case BackendSelection::deque:
        return kind == BackendKind::deque;
    case BackendSelection::chan:
        return kind == BackendKind::chan;
    }
    return true;
}

std::vector<std::string>
BenchCli::filterNames(const std::vector<std::string> &names) const
{
    std::vector<std::string> out;
    for (const std::string &name : names)
        if (matches(name))
            out.push_back(name);
    if (out.empty() && !names.empty())
        warn("kernel filter '%s' matches nothing", filter.c_str());
    return out;
}

} // namespace exp
} // namespace aaws
