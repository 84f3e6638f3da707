#include "serve/sim_server.h"

#include <deque>

#include "common/logging.h"
#include "common/rng.h"
#include "kernels/registry.h"
#include "serve/arrival.h"
#include "sim/machine.h"

namespace aaws {
namespace serve {

std::vector<ServiceSample>
sampleServiceTable(const MachineConfig &config, const std::string &kernel,
                   uint64_t seed, uint32_t samples)
{
    AAWS_ASSERT(samples >= 1, "service table needs at least one sample");
    std::vector<ServiceSample> table;
    table.reserve(samples);
    for (uint32_t k = 0; k < samples; ++k) {
        Kernel instance = makeKernel(kernel, deriveSeed(seed, k));
        SimResult run = Machine(config, instance.dag).run();
        ServiceSample sample;
        sample.seconds = run.exec_seconds;
        sample.energy = run.energy;
        sample.instructions = run.instructions;
        table.push_back(sample);
    }
    return table;
}

double
meanServiceSeconds(const std::vector<ServiceSample> &table)
{
    if (table.empty())
        return 0.0;
    double sum = 0.0;
    for (const ServiceSample &sample : table)
        sum += sample.seconds;
    return sum / static_cast<double>(table.size());
}

SimResult
simulateService(const std::vector<ServiceSample> &table, uint64_t seed,
                const ServeSpec &spec)
{
    AAWS_ASSERT(!table.empty(), "empty service table");
    AAWS_ASSERT(spec.tenants >= 1, "need at least one tenant");
    AAWS_ASSERT(spec.queue_cap >= 1, "queue capacity must be positive");

    SimResult out;
    ServeStats &stats = out.serve;
    stats.enabled = true;
    stats.tenant_completed.assign(spec.tenants, 0);
    stats.tenant_shed.assign(spec.tenants, 0);

    // Independent per-tenant arrival streams plus one service-draw
    // stream; every stream derives from the spec seed, so the whole
    // run is a pure function of (table, seed, spec).
    std::vector<ArrivalGenerator> tenants;
    std::vector<double> next_arrival;
    tenants.reserve(spec.tenants);
    for (uint32_t t = 0; t < spec.tenants; ++t) {
        tenants.emplace_back(spec.arrival,
                             deriveSeed(seed, kTenantSeedSalt + t));
        next_arrival.push_back(tenants.back().next());
    }
    Rng service_rng(deriveSeed(seed, kServiceSeedSalt));

    // FCFS single server: the machine serves one request-DAG at a
    // time.  `in_system` holds the completion times of admitted
    // requests still queued or in service at the current arrival.
    std::deque<double> in_system;
    double busy_until = 0.0;
    uint64_t events = 0;

    while (stats.submitted < spec.requests) {
        // Earliest next arrival across tenants; ties resolve to the
        // lowest tenant id (a total, deterministic order).
        uint32_t tenant = 0;
        for (uint32_t t = 1; t < spec.tenants; ++t)
            if (next_arrival[t] < next_arrival[tenant])
                tenant = t;
        double now = next_arrival[tenant];
        next_arrival[tenant] = tenants[tenant].next();
        ++stats.submitted;
        ++events;

        while (!in_system.empty() && in_system.front() <= now) {
            in_system.pop_front();
            ++events;
        }
        if (in_system.size() >= spec.queue_cap) {
            ++stats.shed;
            ++stats.tenant_shed[tenant];
            continue;
        }

        const ServiceSample &sample =
            table[service_rng.below(table.size())];
        double start = busy_until > now ? busy_until : now;
        double done = start + sample.seconds;
        busy_until = done;
        in_system.push_back(done);
        if (in_system.size() > stats.peak_queue)
            stats.peak_queue = in_system.size();

        double latency = done - now;
        stats.latency.record(latency);
        if (spec.deadline_s > 0.0 && latency > spec.deadline_s)
            ++stats.deadline_misses;
        ++stats.completed;
        ++stats.tenant_completed[tenant];
        stats.energy += sample.energy;
        out.instructions += sample.instructions;
        stats.makespan_seconds = done;
    }

    stats.finalizeQuantiles();
    out.exec_seconds = stats.makespan_seconds;
    out.energy = stats.energy;
    out.avg_power = stats.makespan_seconds > 0.0
                        ? stats.energy / stats.makespan_seconds
                        : 0.0;
    out.tasks_executed = stats.completed;
    out.sim_events = events;
    return out;
}

} // namespace serve
} // namespace aaws
