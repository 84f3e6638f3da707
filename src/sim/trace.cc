#include "sim/trace.h"

#include <algorithm>

#include "common/logging.h"

namespace aaws {

void
ActivityTrace::record(Tick tick, int core, TraceState state, double voltage)
{
    if (!enabled_)
        return;
    records_.push_back({tick, static_cast<int16_t>(core), state,
                        static_cast<float>(voltage)});
}

namespace {

/** Voltage-row glyph for one bucket (idle buckets render blank). */
char
voltageGlyph(TraceState state, double v, double v_nom)
{
    if (state == TraceState::idle)
        return ' ';
    if (v > v_nom + 0.20)
        return '^';
    if (v > v_nom + 0.05)
        return '+';
    if (v < v_nom - 0.20)
        return '_';
    if (v < v_nom - 0.05)
        return 'v';
    return '-';
}

} // namespace

std::string
ActivityTrace::renderAscii(int num_cores, int width, double v_nom) const
{
    AAWS_ASSERT(num_cores > 0 && width > 0, "bad render geometry");
    Tick end = std::max<Tick>(end_, 1);

    // One bucketed pass over the time-ordered records: each core keeps
    // a cursor (current state/voltage and the next column to paint);
    // every record paints the columns its predecessor still covers and
    // then advances the cursor.  O(records + cores * width), no
    // per-core record copies.
    struct Cursor
    {
        TraceState state = TraceState::idle;
        double v;
        int col = 0;
    };
    std::vector<std::string> activity(
        num_cores, std::string(width, static_cast<char>(TraceState::idle)));
    std::vector<std::string> volts(num_cores, std::string(width, ' '));
    std::vector<Cursor> cursors(num_cores, {TraceState::idle, v_nom, 0});

    auto paintTo = [&](int c, int limit) {
        Cursor &cur = cursors[c];
        char act = static_cast<char>(cur.state);
        char vg = voltageGlyph(cur.state, cur.v, v_nom);
        for (; cur.col < limit; ++cur.col) {
            activity[c][cur.col] = act;
            volts[c][cur.col] = vg;
        }
    };

    for (const auto &rec : records_) {
        int c = rec.core;
        if (c < 0 || c >= num_cores)
            continue;
        // Column `col` samples time end*col/width, so this record first
        // shows at the smallest col with end*col/width >= tick.
        Tick first = (rec.tick * static_cast<Tick>(width) + end - 1) / end;
        paintTo(c, static_cast<int>(std::min<Tick>(first, width)));
        cursors[c].state = rec.state;
        cursors[c].v = rec.voltage;
    }

    std::string out;
    for (int c = 0; c < num_cores; ++c) {
        paintTo(c, width);
        out += strfmt("core%-2d act  |%s|\n", c, activity[c].c_str());
        out += strfmt("       dvfs |%s|\n", volts[c].c_str());
    }
    return out;
}

} // namespace aaws
