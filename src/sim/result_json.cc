#include "sim/result_json.h"

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

bool
readDouble(const json::Value &obj, const char *name, double &out)
{
    const json::Value *v = obj.find(name);
    return v && v->getDouble(out);
}

bool
readU64(const json::Value &obj, const char *name, uint64_t &out)
{
    const json::Value *v = obj.find(name);
    return v && v->getU64(out);
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

bool
simResultFromJson(const json::Value &value, SimResult &out)
{
    if (value.kind != json::Value::Kind::object)
        return false;
    out = SimResult{};

    if (!readDouble(value, "exec_seconds", out.exec_seconds) ||
        !readDouble(value, "energy", out.energy) ||
        !readDouble(value, "waiting_energy", out.waiting_energy) ||
        !readDouble(value, "avg_power", out.avg_power))
        return false;

    const json::Value *regions = value.find("regions");
    if (!regions ||
        !readDouble(*regions, "serial", out.regions.serial) ||
        !readDouble(*regions, "hp", out.regions.hp) ||
        !readDouble(*regions, "lp_bi_lt_la", out.regions.lp_bi_lt_la) ||
        !readDouble(*regions, "lp_bi_ge_la", out.regions.lp_bi_ge_la) ||
        !readDouble(*regions, "lp_other", out.regions.lp_other))
        return false;

    if (!readU64(value, "instructions", out.instructions) ||
        !readU64(value, "steals", out.steals) ||
        !readU64(value, "failed_steals", out.failed_steals) ||
        !readU64(value, "mugs", out.mugs) ||
        !readU64(value, "aborted_mugs", out.aborted_mugs) ||
        !readU64(value, "transitions", out.transitions) ||
        !readU64(value, "tasks_executed", out.tasks_executed) ||
        !readU64(value, "sim_events", out.sim_events))
        return false;

    const json::Value *cores = value.find("core_stats");
    if (!cores || cores->kind != json::Value::Kind::array)
        return false;
    out.core_stats.reserve(cores->items.size());
    for (const json::Value &item : cores->items) {
        CoreStats stats;
        if (!readDouble(item, "busy_seconds", stats.busy_seconds) ||
            !readDouble(item, "waiting_seconds", stats.waiting_seconds) ||
            !readDouble(item, "energy", stats.energy) ||
            !readU64(item, "instructions", stats.instructions))
            return false;
        out.core_stats.push_back(stats);
    }

    const json::Value *occ = value.find("occupancy_seconds");
    if (!occ || occ->kind != json::Value::Kind::array)
        return false;
    out.occupancy_seconds.reserve(occ->items.size());
    for (const json::Value &item : occ->items) {
        double seconds = 0.0;
        if (!item.getDouble(seconds))
            return false;
        out.occupancy_seconds.push_back(seconds);
    }

    const json::Value *trace = value.find("trace");
    if (!trace || trace->kind != json::Value::Kind::object)
        return false;
    bool enabled = false;
    const json::Value *enabled_v = trace->find("enabled");
    if (!enabled_v || !enabled_v->getBool(enabled))
        return false;
    if (enabled)
        out.trace.enable();
    uint64_t end = 0;
    if (!readU64(*trace, "end", end))
        return false;
    out.trace.setEnd(static_cast<Tick>(end));
    const json::Value *records = trace->find("records");
    if (!records || records->kind != json::Value::Kind::array)
        return false;
    for (const json::Value &row : records->items) {
        if (row.kind != json::Value::Kind::array ||
            row.items.size() != 4)
            return false;
        uint64_t tick = 0;
        int64_t core = 0;
        int64_t state = 0;
        float voltage = 0.0f;
        if (!row.items[0].getU64(tick) || !row.items[1].getI64(core) ||
            !row.items[2].getI64(state) ||
            !row.items[3].getFloat(voltage))
            return false;
        // record() drops entries on a disabled trace; route around it
        // so a disabled-but-nonempty record set (not produced by the
        // writer) still fails closed instead of silently shrinking.
        if (!out.trace.enabled())
            return false;
        out.trace.record(static_cast<Tick>(tick),
                         static_cast<int>(core),
                         static_cast<TraceState>(state),
                         static_cast<double>(voltage));
    }
    out.trace.setEnd(static_cast<Tick>(end));

    // "serve" is optional (absent on closed-loop records) but strict
    // when present.
    if (const json::Value *serve = value.find("serve")) {
        if (serve->kind != json::Value::Kind::object)
            return false;
        ServeStats &s = out.serve;
        s.enabled = true;
        if (!readU64(*serve, "submitted", s.submitted) ||
            !readU64(*serve, "completed", s.completed) ||
            !readU64(*serve, "shed", s.shed) ||
            !readU64(*serve, "deadline_misses", s.deadline_misses) ||
            !readU64(*serve, "peak_queue", s.peak_queue) ||
            !readDouble(*serve, "makespan_seconds",
                        s.makespan_seconds) ||
            !readDouble(*serve, "energy", s.energy) ||
            !readDouble(*serve, "energy_per_request",
                        s.energy_per_request) ||
            !readDouble(*serve, "p50", s.p50) ||
            !readDouble(*serve, "p95", s.p95) ||
            !readDouble(*serve, "p99", s.p99) ||
            !readDouble(*serve, "p999", s.p999) ||
            !readDouble(*serve, "mean_latency", s.mean_latency))
            return false;
        const json::Value *latency = serve->find("latency");
        if (!latency || !LatencyHistogram::fromJson(*latency, s.latency))
            return false;
        auto readU64Array = [&](const char *name,
                                std::vector<uint64_t> &dst) {
            const json::Value *array = serve->find(name);
            if (!array || array->kind != json::Value::Kind::array)
                return false;
            dst.reserve(array->items.size());
            for (const json::Value &item : array->items) {
                uint64_t n = 0;
                if (!item.getU64(n))
                    return false;
                dst.push_back(n);
            }
            return true;
        };
        if (!readU64Array("tenant_completed", s.tenant_completed) ||
            !readU64Array("tenant_shed", s.tenant_shed))
            return false;
    }
    return true;
}

bool
simResultFromJson(const std::string &text, SimResult &out)
{
    json::Value value;
    return json::parse(text, value) && simResultFromJson(value, out);
}

} // namespace aaws
