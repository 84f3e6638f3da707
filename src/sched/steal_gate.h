/**
 * @file
 * Work-biasing steal gate (Section III-C).
 *
 * Under work-biasing, a core may only steal when every *faster* cluster
 * is already busy: otherwise a slow core racing a faster one to the
 * same task would strand the work on the slower core.  Cores of the
 * fastest cluster are never gated.  On the two-cluster big/little
 * machine this is exactly the paper's rule — little cores steal only
 * when all bigs are active.  The decision reads the engine's activity
 * census through `SchedView`.
 */

#ifndef AAWS_SCHED_STEAL_GATE_H
#define AAWS_SCHED_STEAL_GATE_H

#include "sched/view.h"

namespace aaws {
namespace sched {

/** Gate on steal attempts implementing work-biasing. */
class StealGate
{
  public:
    explicit StealGate(bool work_biasing) : work_biasing_(work_biasing) {}

    /**
     * May `thief_core` attempt a steal right now?  A gated-out attempt
     * counts as a failed steal (the thief backs off and may toggle its
     * activity hint), exactly as if every deque had been empty.
     *
     * Templated on the view so a final engine class binding `*this`
     * gets the census reads inlined; passing a `SchedView &` keeps the
     * generic virtual path.
     */
    template <SchedViewLike View>
    bool
    allowSteal(const View &view, int thief_core) const
    {
        if (!work_biasing_)
            return true;
        // A faster core not counted active is stealing or done, so
        // there is slack work a faster core should pick up first.
        const int mine = view.clusterOf(thief_core);
        for (int k = 0; k < mine; ++k)
            if (view.clusterActive(k) != view.clusterSize(k))
                return false;
        return true;
    }

  private:
    bool work_biasing_;
};

} // namespace sched
} // namespace aaws

#endif // AAWS_SCHED_STEAL_GATE_H
