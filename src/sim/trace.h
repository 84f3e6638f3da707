/**
 * @file
 * Activity-profile tracing (Figures 1 and 7).
 *
 * Records per-core (time, state, voltage) transitions and renders them
 * as an ASCII activity profile: one row per core showing what the core
 * is doing over time, and one row showing its DVFS operating mode.
 */

#ifndef AAWS_SIM_TRACE_H
#define AAWS_SIM_TRACE_H

#include <string>
#include <vector>

#include "sim/ticks.h"

namespace aaws {

/** Coarse core activity classes for the profile. */
enum class TraceState : char
{
    idle = '.',    ///< Not yet started / after completion.
    task = '#',    ///< Executing task work.
    serial = 'S',  ///< Executing a truly serial region.
    steal = ' ',   ///< Spinning in the work-stealing loop.
    mug = 'M',     ///< Executing the mug state-swap protocol.
};

/** One recorded transition. */
struct TraceRecord
{
    Tick tick;
    int16_t core;
    TraceState state;
    float voltage;
};

/**
 * Accumulates transitions and renders ASCII profiles.
 */
class ActivityTrace
{
  public:
    /** Enable recording (disabled traces drop records). */
    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Record a transition of `core` at `tick`. */
    void record(Tick tick, int core, TraceState state, double voltage);

    /** Final timestamp used as the right edge when rendering. */
    void setEnd(Tick end) { end_ = end; }
    Tick end() const { return end_; }

    const std::vector<TraceRecord> &records() const { return records_; }

    /**
     * Render the profile as text: for each core, an activity row (see
     * TraceState glyphs) and a voltage row ('-' = nominal, '+'/'^' =
     * boosted, 'v'/'_' = reduced), `width` columns wide.
     *
     * @param num_cores Number of core rows.
     * @param width Number of time buckets (columns).
     * @param v_nom Nominal voltage for the voltage-row glyph thresholds.
     */
    std::string renderAscii(int num_cores, int width, double v_nom) const;

  private:
    bool enabled_ = false;
    Tick end_ = 0;
    std::vector<TraceRecord> records_;
};

} // namespace aaws

#endif // AAWS_SIM_TRACE_H
