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
        "  --jobs=N        worker threads (0 = auto)\n"
        "  --filter=SUB    only kernels containing SUB\n"
        "  --backend=B     restrict native runs to one backend: "
        "all|deque|chan\n"
        "  --topology=T    restrict topology sweeps to one preset, "
        "e.g. 1b7l or 2b2m4l:pc\n"
        "  --no-cache      disable the result cache\n"
        "  --cache-dir=D   cache directory (default .aaws-cache)\n"
        "  --no-progress   suppress engine progress lines on stderr\n"
        "  --results-json=F  write the aaws-results/v1 datapoint "
        "artifact to F\n"
        "  --help          this message\n",
        prog);
}

/** argv[0] stripped to its basename: the bench name in artifacts. */
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
    std::string bench_name;
    if (argc > 0)
        bench_name = progBasename(argv[0]);
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
        } else if (const char *value = flagValue(arg, "--backend")) {
            if (!parseBackendSelection(value, backend))
                fatal("--backend: expected all, deque, or chan, "
                      "got '%s'",
                      value);
        } else if (const char *value = flagValue(arg, "--topology")) {
            CoreTopology parsed;
            if (!parseTopologyName(value, ModelParams{}, parsed))
                fatal("--topology: expected a preset name like 4b4l, "
                      "1b7l, or 2b2m4l[:pc], got '%s'",
                      value);
            topology = value;
        } else if (const char *value = flagValue(arg, "--cache-dir")) {
            engine.cache_dir = value;
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            engine.use_cache = false;
        } else if (const char *value = flagValue(arg, "--results-json")) {
            results_json = value;
        } else if (std::strcmp(arg, "--no-progress") == 0) {
            engine.progress = false;
        } else if (std::strcmp(arg, "--help") == 0) {
            printUsage(argv[0]);
            std::exit(0);
        } else {
            fatal("unknown argument '%s' (try --help)", arg);
        }
    }

    if (!results_json.empty())
        results.open(results_json,
                     bench_name.empty() ? "bench" : bench_name);
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
