/**
 * @file
 * Open-loop serving bench: tail latency of an arrival-driven task
 * service across the AAWS variants, on both engines.
 *
 * The closed-loop benches answer "how fast does one kernel finish"; a
 * serving system cares about the latency *distribution* under a given
 * offered load.  This bench sweeps utilization (offered load over the
 * ASYM baseline's service capacity) from 30% to 90% and reports
 * p50/p95/p99/p999 latency, energy per request, and shedding for every
 * variant, under Poisson and bursty (MMPP) arrivals:
 *
 *  - sim engine: the two-level serving simulation of serve/sim_server.h
 *    driven through exp::runBatch, so points are cached, parallel, and
 *    byte-deterministic.  The offered load is anchored to the *base*
 *    variant's mean service time, so every variant faces the same
 *    arrival stream and differences are pure runtime policy.
 *  - native engine: a live WorkerPool fed by a wall-clock-paced ingest
 *    thread (serve/native_server.h), anchored to a measured native
 *    service time.  Native numbers are statistical (real clocks), so
 *    the machine-checked claims on them are conservation properties,
 *    not wall-clock comparisons.
 *
 * The scale is fixed (kKernel, kSimRequests, kNativeRequests, kUtils
 * below); the shared flags (exp/cli.h) still select the native
 * backend and the result artifact.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "exp/cli.h"
#include "exp/engine.h"
#include "serve/native_server.h"
#include "serve/sim_server.h"

using namespace aaws;

namespace {

/** The kernel whose tasks every request runs. */
constexpr const char *kKernel = "dict";
/** Requests per simulated sweep point. */
constexpr uint64_t kSimRequests = 200000;
/** Requests per native sweep point. */
constexpr uint64_t kNativeRequests = 240;
/** Utilizations swept, in percent; the serving claims read 30/50/70. */
constexpr int kUtils[] = {30, 50, 70, 90};

/** The serving workload at one (kind, utilization) sweep point. */
serve::ServeSpec
specFor(serve::ArrivalKind kind, int util_pct, uint64_t requests,
        double base_service_s)
{
    serve::ServeSpec spec;
    spec.arrival.kind = kind;
    double total_rate = (util_pct / 100.0) / base_service_s;
    spec.tenants = 2;
    spec.arrival.rate_hz = total_rate / spec.tenants;
    // MMPP dwells scale with the service time so a burst is long
    // enough (~50 services) to actually build a queue.
    spec.arrival.burst_factor = 4.0;
    spec.arrival.mean_burst_s = 50.0 * base_service_s;
    spec.arrival.mean_idle_s = 200.0 * base_service_s;
    spec.requests = requests;
    spec.queue_cap = 64;
    spec.deadline_s = 20.0 * base_service_s;
    spec.service_samples = 3;
    return spec;
}

/** Emit the standard per-point metric set for one serving result. */
void
emitPoint(exp::BenchCli &cli, const std::string &series,
          const std::string &kernel, const char *variant,
          const ServeStats &stats, double base_p99)
{
    auto add = [&](const char *metric, double value) {
        cli.results.add({.series = series,
                         .kernel = kernel,
                         .shape = "4B4L",
                         .variant = variant,
                         .metric = metric,
                         .value = value});
    };
    add("p50", stats.p50);
    add("p95", stats.p95);
    add("p99", stats.p99);
    add("p999", stats.p999);
    add("mean_latency", stats.mean_latency);
    add("energy_per_request", stats.energy_per_request);
    double submitted = static_cast<double>(stats.submitted);
    add("shed_fraction", static_cast<double>(stats.shed) / submitted);
    add("completed_fraction",
        static_cast<double>(stats.completed) / submitted);
    add("deadline_miss_fraction",
        stats.completed > 0
            ? static_cast<double>(stats.deadline_misses) /
                  static_cast<double>(stats.completed)
            : 0.0);
    add("accounting_gap",
        submitted - static_cast<double>(stats.completed) -
            static_cast<double>(stats.shed));
    add("tail_ratio", stats.p50 > 0.0 ? stats.p99 / stats.p50 : 0.0);
    add("p99_vs_base", base_p99 > 0.0 ? stats.p99 / base_p99 : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    exp::BenchCli cli;
    cli.parse(argc, argv);

    const std::string kernel = kKernel;
    uint64_t seed = exp::kDefaultSeed;

    // Anchor every sweep point to the base variant's mean service
    // time: all variants then face the identical offered load, and
    // latency differences are pure runtime policy.
    double s_base = serve::meanServiceSeconds(serve::sampleServiceTable(
        exp::configForSpec(makeKernel(kernel, seed),
                           {kernel, Variant::base, seed}),
        kernel, seed, 3));
    AAWS_ASSERT(s_base > 0.0, "base service time must be positive");
    std::printf("=== Open-loop serving: tail latency vs utilization "
                "(%s, 4B4L) ===\n", kernel.c_str());
    std::printf("base mean service time: %.6f sim-seconds\n\n", s_base);

    const serve::ArrivalKind kinds[] = {serve::ArrivalKind::poisson,
                                        serve::ArrivalKind::mmpp};

    std::vector<exp::RunSpec> specs;
    for (serve::ArrivalKind kind : kinds)
        for (int util : kUtils)
            for (Variant v : allVariants()) {
                exp::RunSpec spec(kernel, v, seed);
                spec.serve = specFor(kind, util, kSimRequests, s_base);
                specs.push_back(spec);
            }
    std::vector<RunResult> results = exp::runBatch(specs, cli.engine);

    std::printf("engine,arrivals,util,variant,p50,p99,p999,shed,"
                "energy/req\n");
    size_t idx = 0;
    double p99_by_kind_u50[2] = {0.0, 0.0};
    for (size_t k = 0; k < 2; ++k)
        for (int util : kUtils) {
            double base_p99 = 0.0;
            size_t block = idx;
            for (Variant v : allVariants()) {
                const ServeStats &stats = results[idx++].sim.serve;
                AAWS_ASSERT(stats.enabled, "serve stats missing");
                if (v == Variant::base) {
                    base_p99 = stats.p99;
                    if (util == 50)
                        p99_by_kind_u50[k] = stats.p99;
                }
            }
            idx = block;
            std::string series =
                strfmt("sim_%s_u%02d", arrivalKindName(kinds[k]), util);
            for (Variant v : allVariants()) {
                const ServeStats &stats = results[idx++].sim.serve;
                emitPoint(cli, series, kernel, variantName(v), stats,
                          base_p99);
                std::printf(
                    "sim,%s,%d%%,%s,%.6f,%.6f,%.6f,%.4f,%.4f\n",
                    arrivalKindName(kinds[k]), util, variantName(v),
                    stats.p50, stats.p99, stats.p999,
                    static_cast<double>(stats.shed) /
                        static_cast<double>(stats.submitted),
                    stats.energy_per_request);
            }
        }
    if (p99_by_kind_u50[0] > 0.0 && p99_by_kind_u50[1] > 0.0)
        cli.results.add("sim_summary", "mmpp_tail_vs_poisson_u50",
                        p99_by_kind_u50[1] / p99_by_kind_u50[0]);

    serve::NativeServeOptions nopt;
    nopt.threads = 2;
    nopt.n_big = 1;
    nopt.variant = Variant::base;
    nopt.seed = seed;
    nopt.work_per_request = 8000;
    nopt.fanout = 4;
    // Both native backends face the same offered load: one sweep
    // per backend behind the RuntimeBackend seam, anchored to that
    // backend's own measured service time so utilization means the
    // same thing on each.  --backend=deque|chan runs one side.
    const BackendKind backends[] = {BackendKind::deque, BackendKind::chan};
    for (BackendKind backend : backends) {
        if (!cli.backendEnabled(backend))
            continue;
        serve::NativeServeOptions bopt = nopt;
        bopt.backend = backend;
        double s_native = serve::measureNativeServiceSeconds(bopt, 64);
        AAWS_ASSERT(s_native > 0.0, "native service time must be positive");
        const char *bname = backendName(backend);
        std::printf("\nnative (%s) mean service time: %.1f us "
                    "(threads=2)\n", bname, s_native * 1e6);
        // The deque series keeps its historical name so committed
        // claims stay evaluable.
        std::string prefix = backend == BackendKind::deque
                                 ? "native"
                                 : std::string("native_") + bname;
        for (int util : kUtils) {
            double base_p99 = 0.0;
            std::string series =
                strfmt("%s_poisson_u%02d", prefix.c_str(), util);
            for (Variant v : allVariants()) {
                serve::NativeServeOptions opt = bopt;
                opt.variant = v;
                opt.spec = specFor(serve::ArrivalKind::poisson,
                                   util, kNativeRequests, s_native);
                serve::NativeServeResult out =
                    serve::runNativeService(opt);
                if (v == Variant::base)
                    base_p99 = out.stats.p99;
                emitPoint(cli, series, kernel, variantName(v),
                          out.stats, base_p99);
                std::printf(
                    "native-%s,poisson,%d%%,%s,%.6f,%.6f,%.6f,"
                    "%.4f,%.4f\n",
                    bname, util, variantName(v), out.stats.p50,
                    out.stats.p99, out.stats.p999,
                    static_cast<double>(out.stats.shed) /
                        static_cast<double>(out.stats.submitted),
                    out.stats.energy_per_request);
            }
        }
    }

    std::printf("\npaper context: open-loop serving is the natural "
                "deployment of a work-stealing runtime on an\n"
                "asymmetric SoC; the marginal-utility techniques "
                "shorten per-request critical paths, which\n"
                "compounds through the queue into tail-latency wins at "
                "high utilization.\n");
    return 0;
}
