/**
 * @file
 * Simulator-side open-loop service: a request-level discrete-event
 * simulation over Machine-sampled service times.
 *
 * Running the full multicore simulator once per request would cap a
 * sweep at a few hundred requests; tail percentiles need orders of
 * magnitude more.  The engine therefore splits the problem in two
 * exact layers (DESIGN.md §8):
 *
 *  1. Service table: `service_samples` complete Machine simulations of
 *     the kernel on the requested machine config (topology, variant,
 *     cost overrides), each from an independently derived workload
 *     seed.  Every sample carries the
 *     simulated execution time, energy, and instruction count of one
 *     whole kernel-DAG request — all of the AAWS machinery (pacing,
 *     sprinting, mugging, DVFS) is priced into these numbers by the
 *     cycle-approximate simulator itself.
 *  2. Request-level DES: tenant arrival streams (serve/arrival.h) feed
 *     a FCFS single-server queue — the machine serves one DAG at a
 *     time, exactly like the closed-loop runs — with a bounded
 *     admission queue (arrivals beyond queue_cap are shed) and
 *     per-request deadlines.  Each admitted request draws its service
 *     time from the table.  This layer is O(1) per request, so
 *     millions of simulated requests cost milliseconds.
 *
 * Everything is seeded and sequential: equal (kernel, config, seed,
 * spec) produce bit-identical ServeStats, independent of engine thread
 * count.
 */

#ifndef AAWS_SERVE_SIM_SERVER_H
#define AAWS_SERVE_SIM_SERVER_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/spec.h"
#include "sim/config.h"
#include "sim/result.h"

namespace aaws {
namespace serve {

/** One sampled whole-request service observation. */
struct ServiceSample
{
    double seconds = 0.0;
    double energy = 0.0;
    uint64_t instructions = 0;
};

/**
 * Run `samples` seeded Machine simulations of `kernel` on `config` (as
 * exp::configForSpec builds it for the kernel) and return their service
 * observations.  Sample k's workload seed is deriveSeed(seed, k), so
 * tables for different base seeds are independent while equal seeds
 * reproduce bit-identically.
 */
std::vector<ServiceSample>
sampleServiceTable(const MachineConfig &config, const std::string &kernel,
                   uint64_t seed, uint32_t samples);

/** Mean of the table's service times (the utilization anchor). */
double meanServiceSeconds(const std::vector<ServiceSample> &table);

/**
 * Sim-side serving run: push the spec's arrival streams through the
 * bounded FCFS queue, drawing service times from `table`.  Returns a
 * SimResult whose `serve` member is enabled and filled; the top-level
 * fields summarize the serving window (exec_seconds = makespan,
 * energy/instructions/tasks_executed = completed-request totals).
 */
SimResult simulateService(const std::vector<ServiceSample> &table,
                          uint64_t seed, const ServeSpec &spec);

} // namespace serve
} // namespace aaws

#endif // AAWS_SERVE_SIM_SERVER_H
