#include "sim/stats_writer.h"

#include "common/logging.h"
#include "model/topology.h"

namespace aaws {

namespace {

void
line(std::string &out, const char *name, double value, const char *desc)
{
    out += strfmt("%-40s %18.6g  # %s\n", name, value, desc);
}

void
line(std::string &out, const std::string &name, double value,
     const char *desc)
{
    line(out, name.c_str(), value, desc);
}

} // namespace

std::string
formatStats(const MachineConfig &config, const SimResult &result)
{
    std::string out;
    out += "---------- Begin Simulation Statistics ----------\n";
    line(out, "sim_seconds", result.exec_seconds,
         "Number of seconds simulated");
    line(out, "sim_ticks", result.exec_seconds * kTicksPerSecond,
         "Number of ticks simulated (ps)");
    line(out, "sim_insts", static_cast<double>(result.instructions),
         "Number of instructions committed (all cores)");
    line(out, "system.energy", result.energy,
         "Total energy (model units)");
    line(out, "system.avg_power", result.avg_power,
         "Average power over the run");
    line(out, "system.waiting_energy", result.waiting_energy,
         "Energy spent busy-waiting in steal loops");

    line(out, "scheduler.tasks_executed",
         static_cast<double>(result.tasks_executed), "Tasks executed");
    line(out, "scheduler.steals", static_cast<double>(result.steals),
         "Successful steals");
    line(out, "scheduler.failed_steals",
         static_cast<double>(result.failed_steals),
         "Failed steal attempts");
    line(out, "scheduler.mugs", static_cast<double>(result.mugs),
         "Completed work-mugs");
    line(out, "scheduler.aborted_mugs",
         static_cast<double>(result.aborted_mugs),
         "Aborted mug attempts");
    line(out, "dvfs.transitions",
         static_cast<double>(result.transitions),
         "Per-core voltage transitions started");

    const RegionBreakdown &g = result.regions;
    line(out, "regions.serial_seconds", g.serial,
         "Time in truly serial regions");
    line(out, "regions.hp_seconds", g.hp,
         "Time with every core active (HP)");
    line(out, "regions.lp_bi_lt_la_seconds", g.lp_bi_lt_la,
         "LP time with big-inactive < little-active");
    line(out, "regions.lp_bi_ge_la_seconds", g.lp_bi_ge_la,
         "LP time with big-inactive >= little-active");
    line(out, "regions.lp_other_seconds", g.lp_other,
         "LP time where mugging is impossible (oLP)");

    const CoreTopology topo =
        makeTopology(config.topology, config.app_params);
    for (size_t c = 0; c < result.core_stats.size(); ++c) {
        const CoreStats &stats = result.core_stats[c];
        const char *type = clusterKindName(
            topo.cluster(topo.clusterOf(static_cast<int>(c))).kind);
        std::string prefix = strfmt("system.core%zu", c);
        line(out, prefix + ".busy_seconds", stats.busy_seconds,
             strfmt("Core %zu (%s) time executing", c, type).c_str());
        line(out, prefix + ".waiting_seconds", stats.waiting_seconds,
             strfmt("Core %zu (%s) time in the steal loop", c, type)
                 .c_str());
        line(out, prefix + ".insts",
             static_cast<double>(stats.instructions),
             strfmt("Core %zu (%s) instructions committed", c, type)
                 .c_str());
        line(out, prefix + ".energy", stats.energy,
             strfmt("Core %zu (%s) energy", c, type).c_str());
    }
    out += "---------- End Simulation Statistics   ----------\n";
    return out;
}

} // namespace aaws
