/**
 * @file
 * Victim selection policies for the work-stealing loop.
 *
 * The paper's baseline runtime follows Contreras & Martonosi's
 * occupancy-based selection (steal from the richest deque); classic
 * Cilk-style uniform-random selection is kept for the ablation bench.
 * Both are engine-agnostic: the simulator calls them with exact deque
 * sizes, the native pool with concurrent size estimates.
 *
 * Each selector exposes the algorithm twice: the virtual `pick` takes
 * the abstract `SchedView` (one indirect call per worker probed), and
 * the `pickIn<View>` template binds the concrete view type so a final
 * engine class gets the probe loop fully inlined — the simulator's
 * steal path runs millions of picks per second and cannot afford a
 * vtable hop per deque-size read.
 */

#ifndef AAWS_SCHED_VICTIM_H
#define AAWS_SCHED_VICTIM_H

#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "sched/view.h"

namespace aaws {
namespace sched {

/** Which victim-selection policy to assemble. */
enum class VictimPolicy
{
    occupancy,   ///< Richest deque wins (the paper's baseline).
    random,      ///< Uniform among non-empty deques (Cilk ablation).
    criticality, ///< Fastest-cluster victims first (Costero-style).
};

/**
 * Chooses which worker a thief should steal from.
 *
 * `pick` is non-const because stateful selectors (the seeded random
 * one) advance internal state; it must only be called by one thread at
 * a time per instance (engines keep one selector per thief or use the
 * stateless occupancy selector).
 */
class VictimSelector
{
  public:
    virtual ~VictimSelector() = default;

    /**
     * @param view Engine state.
     * @param thief Worker doing the stealing (excluded), or -1 for a
     *        foreign thread with no own deque.
     * @return Victim worker id, or -1 when no deque is worth trying.
     */
    virtual int pick(const SchedView &view, int thief) = 0;
};

/** Occupancy-based selection: the strictly richest non-empty deque. */
class OccupancyVictimSelector final : public VictimSelector
{
  public:
    int pick(const SchedView &view, int thief) override
    {
        return pickIn(view, thief);
    }

    /** Statically-dispatched pick for hot engine loops. */
    template <SchedViewLike View>
    int
    pickIn(const View &view, int thief) const
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
};

/**
 * Criticality-aware selection in the style of the Costero et al.
 * big.LITTLE schedulers: work queued behind a fast core drains
 * soonest, so steal it first — it is the most likely to sit on the
 * critical path and the least likely to strand on a slow core.  Among
 * non-empty deques the victim with the fastest cluster wins; within a
 * cluster the richest deque; ties break to the lowest worker id.  On a
 * single-cluster machine this degenerates to occupancy selection.
 */
class CriticalityVictimSelector final : public VictimSelector
{
  public:
    int pick(const SchedView &view, int thief) override
    {
        return pickIn(view, thief);
    }

    /** Statically-dispatched pick for hot engine loops. */
    template <SchedViewLike View>
    int
    pickIn(const View &view, int thief) const
    {
        int best = -1;
        int best_cluster = 0;
        int64_t best_occ = 0;
        const int n = view.numWorkers();
        for (int w = 0; w < n; ++w) {
            if (w == thief)
                continue;
            int64_t occ = view.dequeSize(w);
            if (occ <= 0)
                continue;
            int cluster = view.workerCluster(w);
            if (best < 0 || cluster < best_cluster ||
                (cluster == best_cluster && occ > best_occ)) {
                best = w;
                best_cluster = cluster;
                best_occ = occ;
            }
        }
        return best;
    }
};

/**
 * Uniform-random selection among non-empty deques via a deterministic
 * xorshift64* stream (one stream per selector instance).
 */
class RandomVictimSelector final : public VictimSelector
{
  public:
    /** Default seed matches the simulator's historical stream. */
    static constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

    /** A zero seed would pin xorshift at zero; substitute the default. */
    explicit RandomVictimSelector(uint64_t seed = kDefaultSeed)
        : rng_(seed ? seed : kDefaultSeed)
    {
    }

    int pick(const SchedView &view, int thief) override
    {
        return pickIn(view, thief);
    }

    /** Statically-dispatched pick for hot engine loops. */
    template <SchedViewLike View>
    int
    pickIn(const View &view, int thief)
    {
        int candidates[64];
        int n = 0;
        const int workers = view.numWorkers();
        AAWS_ASSERT(workers <= 64, "unsupported worker count %d",
                    workers);
        for (int w = 0; w < workers; ++w) {
            if (w != thief && view.dequeSize(w) > 0)
                candidates[n++] = w;
        }
        // The stream only advances when there is a choice to make, so
        // an empty machine does not perturb later draws (the
        // simulator's bit-identical replay depends on this).
        if (n == 0)
            return -1;
        rng_ ^= rng_ >> 12;
        rng_ ^= rng_ << 25;
        rng_ ^= rng_ >> 27;
        return candidates[(rng_ * 0x2545F4914F6CDD1Dull >> 33) %
                          static_cast<uint64_t>(n)];
    }

  private:
    uint64_t rng_;
};

/** Assemble a selector for the given policy. */
std::unique_ptr<VictimSelector>
makeVictimSelector(VictimPolicy policy,
                   uint64_t seed = RandomVictimSelector::kDefaultSeed);

} // namespace sched
} // namespace aaws

#endif // AAWS_SCHED_VICTIM_H
