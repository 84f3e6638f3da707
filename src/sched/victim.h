/**
 * @file
 * Victim selection for the work-stealing loop.
 *
 * The paper's baseline runtime follows Contreras & Martonosi's
 * occupancy-based selection (steal from the richest deque); classic
 * Cilk-style uniform-random selection is kept for the ablation bench.
 * Both live in one value type, `VictimSelector`, whose `pick` is a
 * template over the engine view: the simulator binds its final
 * `Machine` and gets the probe loop inlined (its steal path runs
 * millions of picks per second), while the native pools bind the
 * abstract `SchedView` and read concurrent size estimates.  The
 * selector itself is not polymorphic: engines hold it by value.
 */

#ifndef AAWS_SCHED_VICTIM_H
#define AAWS_SCHED_VICTIM_H

#include <cstdint>

#include "sched/view.h"

namespace aaws {
namespace sched {

/** Which victim-selection policy to run. */
enum class VictimPolicy
{
    occupancy, ///< Richest deque wins (the paper's baseline).
    random,    ///< Uniform among non-empty deques (Cilk ablation).
};

/**
 * Chooses which worker a thief should steal from.
 *
 * `pick` is non-const because the random policy advances its xorshift64*
 * stream; one instance must only be used by one thread at a time
 * (engines keep one per thief).
 */
class VictimSelector final
{
  public:
    /** Default seed matches the simulator's historical stream. */
    static constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

    /** A zero seed would pin xorshift at zero; substitute the default. */
    explicit VictimSelector(VictimPolicy policy = VictimPolicy::occupancy,
                            uint64_t seed = kDefaultSeed)
        : policy_(policy), rng_(seed ? seed : kDefaultSeed)
    {
    }

    /**
     * @param view Engine state.
     * @param thief Worker doing the stealing (excluded), or -1 for a
     *        foreign thread with no own deque.
     * @return Victim worker id, or -1.  On an exact view -1 means every
     *         other deque is empty (the simulator's parked thieves rely
     *         on this); on a racing native view it also covers a
     *         candidate that emptied mid-pick.
     */
    template <SchedViewLike View>
    int
    pick(const View &view, int thief)
    {
        return policy_ == VictimPolicy::random ? pickRandom(view, thief)
                                               : pickRichest(view, thief);
    }

  private:
    /** The strictly richest non-empty deque; ties to the lowest id. */
    template <SchedViewLike View>
    static int
    pickRichest(const View &view, int thief)
    {
        int best = -1;
        int64_t best_occ = 0;
        const int n = view.numWorkers();
        for (int w = 0; w < n; ++w) {
            if (w == thief)
                continue;
            int64_t occ = view.dequeSize(w);
            if (occ > best_occ) {
                best_occ = occ;
                best = w;
            }
        }
        return best;
    }

    /**
     * Uniform among the non-empty deques: count them, draw once, then
     * walk to the drawn one.  No candidate buffer, so any worker count
     * works.
     */
    template <SchedViewLike View>
    int
    pickRandom(const View &view, int thief)
    {
        const int workers = view.numWorkers();
        uint64_t candidates = 0;
        for (int w = 0; w < workers; ++w)
            candidates += w != thief && view.dequeSize(w) > 0;
        // The stream only advances when there is a choice to make, so
        // an empty machine does not perturb later draws (the
        // simulator's bit-identical replay depends on this).
        if (candidates == 0)
            return -1;
        rng_ ^= rng_ >> 12;
        rng_ ^= rng_ << 25;
        rng_ ^= rng_ >> 27;
        uint64_t k = (rng_ * 0x2545F4914F6CDD1Dull >> 33) % candidates;
        for (int w = 0; w < workers; ++w) {
            if (w != thief && view.dequeSize(w) > 0 && k-- == 0)
                return w;
        }
        // A racing view emptied a candidate between the two passes.
        return -1;
    }

    VictimPolicy policy_;
    uint64_t rng_;
};

} // namespace sched
} // namespace aaws

#endif // AAWS_SCHED_VICTIM_H
