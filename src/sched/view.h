/**
 * @file
 * The narrow engine interface the scheduler-policy components see.
 *
 * AAWS policies (victim selection, work-biasing, mug targeting, rest
 * decisions) are *runtime* policies, not simulator features: the same
 * decision code must drive both the deterministic discrete-event
 * simulator (`sim::Machine`) and the genuinely concurrent native
 * pools (`RuntimeBackend`).  `SchedView` is the seam: each
 * engine exposes its worker/core state through this read-only
 * interface, and every policy component in `src/sched/` is written
 * against it alone.
 *
 * Core classes are *cluster indices* into the engine's CoreTopology
 * (model/topology.h), ordered fastest to slowest: cluster 0 is the
 * fastest ("big") class, numClusters()-1 the slowest.  The paper's
 * big/little machine is simply the two-cluster special case; policies
 * ask "is there a faster cluster with slack?", whatever the number of
 * classes.
 *
 * The view distinguishes *workers* (logical deque owners) from *cores*
 * (physical execution contexts) because work-mugging swaps the two in
 * the simulator; engines without mugging (the native pool) identify
 * them and inherit the default core-level mappings.
 *
 * Concurrency contract: the simulator calls the view single-threaded;
 * the native pool calls it from many threads at once, so its overrides
 * return racy-but-safe snapshots (deque size estimates, relaxed census
 * loads).  Policy components must therefore treat every answer as a
 * hint that may be stale by the time it is acted on.
 */

#ifndef AAWS_SCHED_VIEW_H
#define AAWS_SCHED_VIEW_H

#include <concepts>
#include <cstdint>

namespace aaws {
namespace sched {

/**
 * What a core is currently doing, as far as scheduling policy cares.
 * The simulator's core state machine uses this enum directly.
 */
enum class CoreActivity
{
    stealing, ///< Spinning in the work-stealing loop.
    running,  ///< Executing task work (or runtime overhead).
    serial,   ///< Executing a truly serial region (thread 0 only).
    mugging,  ///< Engaged in the mug swap protocol.
    done,     ///< Program finished.
};

/**
 * Read-only engine state for policy decisions.  Implemented by
 * `sim::Machine` (exact state) and `RuntimeBackend`, the body of both
 * native pools (concurrent snapshots).
 */
class SchedView
{
  public:
    virtual ~SchedView() = default;

    /** Number of logical workers (deque owners). */
    virtual int numWorkers() const = 0;

    /** Occupancy of a worker's deque (estimates may be stale/negative). */
    virtual int64_t dequeSize(int worker) const = 0;

    /** Current activity of a physical core. */
    virtual CoreActivity activity(int core) const = 0;

    /** Number of core clusters, fastest first. */
    virtual int numClusters() const = 0;

    /** Cluster index of a physical core. */
    virtual int clusterOf(int core) const = 0;

    /** Total cores in a cluster. */
    virtual int clusterSize(int cluster) const = 0;

    /**
     * Cores of the cluster currently counted active by the engine's
     * census (activity hints, not exact state).
     */
    virtual int clusterActive(int cluster) const = 0;

    /** Number of physical cores; defaults to one core per worker. */
    virtual int
    numCores() const
    {
        return numWorkers();
    }

    /**
     * Cluster of the core a *worker* currently runs on; identity
     * mapping unless the engine migrates workers across cores
     * (mugging).  Victim policies that weigh a victim's speed use
     * this, since deques belong to workers, not cores.
     */
    virtual int
    workerCluster(int worker) const
    {
        return clusterOf(worker);
    }

    /**
     * Occupancy of the deque owned by the worker currently running on
     * `core`; identity mapping unless the engine migrates workers.
     */
    virtual int64_t
    coreDequeSize(int core) const
    {
        return dequeSize(core);
    }

    /**
     * Whether the core is already engaged in a mug handshake (as mugger
     * or reserved muggee); engines without mugging never are.
     */
    virtual bool
    mugEngaged(int core) const
    {
        (void)core;
        return false;
    }
};

/**
 * The compile-time face of the same contract.  The policy components
 * are templates over any `SchedViewLike` type: engines that need
 * runtime polymorphism derive from `SchedView` (which satisfies the
 * concept), while hot single-threaded engines like `sim::Machine`
 * model the concept directly and get every probe inlined.
 */
template <typename V>
concept SchedViewLike = requires(const V &v, int i) {
    { v.numWorkers() } -> std::same_as<int>;
    { v.dequeSize(i) } -> std::same_as<int64_t>;
    { v.activity(i) } -> std::same_as<CoreActivity>;
    { v.numClusters() } -> std::same_as<int>;
    { v.clusterOf(i) } -> std::same_as<int>;
    { v.clusterSize(i) } -> std::same_as<int>;
    { v.clusterActive(i) } -> std::same_as<int>;
    { v.numCores() } -> std::same_as<int>;
    { v.workerCluster(i) } -> std::same_as<int>;
    { v.coreDequeSize(i) } -> std::same_as<int64_t>;
    { v.mugEngaged(i) } -> std::same_as<bool>;
};

static_assert(SchedViewLike<SchedView>);

} // namespace sched
} // namespace aaws

#endif // AAWS_SCHED_VIEW_H
