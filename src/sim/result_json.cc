#include "sim/result_json.h"

#include "common/json.h"

namespace aaws {

namespace {

// Each writer appends the JSON text that comes before a value (its
// punctuation and key, spelled out) and then the value, so a field
// costs one literal append and one number.

void
putDouble(std::string &out, std::string_view before, double value)
{
    out += before;
    json::appendDouble(out, value);
}

void
putU64(std::string &out, std::string_view before, uint64_t value)
{
    out += before;
    json::appendU64(out, value);
}

/** `before`, then `values` as a JSON array. */
void
putU64Array(std::string &out, std::string_view before,
            const std::vector<uint64_t> &values)
{
    out += before;
    out.push_back('[');
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out.push_back(',');
        json::appendU64(out, values[i]);
    }
    out.push_back(']');
}

} // namespace

void
appendSimResultJson(std::string &out, const SimResult &result)
{
    out.reserve(out.size() + 640 + 112 * result.core_stats.size() +
                26 * result.occupancy_seconds.size() +
                40 * result.trace.records().size() +
                (result.serve.enabled ? 1024 : 0));
    putDouble(out, "{\"exec_seconds\":", result.exec_seconds);
    putDouble(out, ",\"energy\":", result.energy);
    putDouble(out, ",\"waiting_energy\":", result.waiting_energy);
    putDouble(out, ",\"avg_power\":", result.avg_power);

    putDouble(out, ",\"regions\":{\"serial\":", result.regions.serial);
    putDouble(out, ",\"hp\":", result.regions.hp);
    putDouble(out, ",\"lp_bi_lt_la\":", result.regions.lp_bi_lt_la);
    putDouble(out, ",\"lp_bi_ge_la\":", result.regions.lp_bi_ge_la);
    putDouble(out, ",\"lp_other\":", result.regions.lp_other);

    putU64(out, "},\"instructions\":", result.instructions);
    putU64(out, ",\"steals\":", result.steals);
    putU64(out, ",\"failed_steals\":", result.failed_steals);
    putU64(out, ",\"mugs\":", result.mugs);
    putU64(out, ",\"aborted_mugs\":", result.aborted_mugs);
    putU64(out, ",\"transitions\":", result.transitions);
    putU64(out, ",\"tasks_executed\":", result.tasks_executed);
    putU64(out, ",\"sim_events\":", result.sim_events);

    out += ",\"core_stats\":[";
    for (size_t i = 0; i < result.core_stats.size(); ++i) {
        const CoreStats &c = result.core_stats[i];
        putDouble(out, i ? ",{\"busy_seconds\":" : "{\"busy_seconds\":",
                  c.busy_seconds);
        putDouble(out, ",\"waiting_seconds\":", c.waiting_seconds);
        putDouble(out, ",\"energy\":", c.energy);
        putU64(out, ",\"instructions\":", c.instructions);
        out.push_back('}');
    }

    out += "],\"occupancy_seconds\":[";
    for (size_t i = 0; i < result.occupancy_seconds.size(); ++i)
        putDouble(out, i ? "," : "", result.occupancy_seconds[i]);

    // Activity trace: records as compact [tick, core, state, voltage]
    // rows; the state is the TraceState's underlying character code.
    out += result.trace.enabled() ? "],\"trace\":{\"enabled\":true"
                                  : "],\"trace\":{\"enabled\":false";
    putU64(out, ",\"end\":", result.trace.end());
    out += ",\"records\":[";
    for (size_t i = 0; i < result.trace.records().size(); ++i) {
        const TraceRecord &r = result.trace.records()[i];
        putU64(out, i ? ",[" : "[", r.tick);
        putU64(out, ",", static_cast<uint64_t>(r.core));
        putU64(out, ",", static_cast<uint64_t>(r.state));
        out.push_back(',');
        json::appendFloat(out, r.voltage);
        out.push_back(']');
    }
    out += "]}";

    // Serving statistics appear only on serving runs, so classic
    // closed-loop records keep their historical shape byte-for-byte.
    if (result.serve.enabled) {
        const ServeStats &s = result.serve;
        putU64(out, ",\"serve\":{\"submitted\":", s.submitted);
        putU64(out, ",\"completed\":", s.completed);
        putU64(out, ",\"shed\":", s.shed);
        putU64(out, ",\"deadline_misses\":", s.deadline_misses);
        putU64(out, ",\"peak_queue\":", s.peak_queue);
        putDouble(out, ",\"makespan_seconds\":", s.makespan_seconds);
        putDouble(out, ",\"energy\":", s.energy);
        putDouble(out, ",\"energy_per_request\":", s.energy_per_request);
        putDouble(out, ",\"p50\":", s.p50);
        putDouble(out, ",\"p95\":", s.p95);
        putDouble(out, ",\"p99\":", s.p99);
        putDouble(out, ",\"p999\":", s.p999);
        putDouble(out, ",\"mean_latency\":", s.mean_latency);
        out += ",\"latency\":";
        s.latency.appendJson(out);
        putU64Array(out, ",\"tenant_completed\":", s.tenant_completed);
        putU64Array(out, ",\"tenant_shed\":", s.tenant_shed);
        out.push_back('}');
    }

    out.push_back('}');
}

std::string
simResultToJson(const SimResult &result)
{
    std::string out;
    appendSimResultJson(out, result);
    return out;
}

} // namespace aaws
