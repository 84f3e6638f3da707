/**
 * @file
 * Software pacing governor for the native runtime.
 *
 * On the paper's hardware the DVFS controller reads per-core activity
 * bits and reprograms the integrated regulators.  On commodity hardware
 * the native pool has no regulators to drive, but the *decision* path
 * can run unchanged in software: this governor listens to the pool's
 * activity hooks (the hint-instruction analogs), maintains the
 * per-cluster activity census, and on every census change maps the
 * shared `sched::RestPolicy` intents through the marginal-utility
 * lookup table to a target voltage per worker — logging what a V/f
 * actuator would have been told.  The log is the native counterpart of
 * the simulator's voltage trace and is what the tests and the
 * `native_pacing` example inspect.
 *
 * The governor is also a pass-through: it forwards every callback to an
 * optional downstream `SchedulerHooks`, so it stacks with the
 * `ActivityMonitor` or the stress suite's schedule shaker.
 */

#ifndef AAWS_AAWS_GOVERNOR_H
#define AAWS_AAWS_GOVERNOR_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "dvfs/lookup_table.h"
#include "runtime/hooks.h"
#include "sched/census.h"
#include "sched/policy_stack.h"
#include "sched/rest_policy.h"

namespace aaws {

/** Per-worker snapshot of the governor's latest decision. */
struct GovernorDecision
{
    double voltage = 0.0;
    sched::VoltageIntent intent = sched::VoltageIntent::nominal;
};

/**
 * Hook-driven census + lookup-table V/f decisions for a native pool.
 *
 * The worker-cluster assignment comes from the lookup table's
 * CoreTopology, which must match the pool's (for a `PoolOptions::n_big`
 * pool, CoreTopology::bigLittle(n_big, workers - n_big, mp)).
 * Thread-safe; decisions are serialized by an internal mutex (census
 * changes are rare next to steals).
 */
class PacingGovernor : public SchedulerHooks
{
  public:
    /**
     * @param policy Which intents the rest policy may emit.
     * @param table Borrowed lookup table; its topology defines the
     *              worker count and cluster split.  Must outlive the
     *              governor.
     * @param mp Model parameters supplying v_nom / v_min / v_max.
     * @param next Optional downstream hooks (borrowed); every callback
     *             is forwarded after the governor's own bookkeeping.
     */
    PacingGovernor(const sched::PolicyConfig &policy,
                   const DvfsLookupTable &table, const ModelParams &mp,
                   SchedulerHooks *next = nullptr);

    void onWorkerActive(int worker) override;
    void onWorkerWaiting(int worker) override;
    void onStealAttempt(int thief, int victim) override;
    void onSpawn(int worker) override;
    void onStealSuccess(int thief, int victim) override;
    void onMug(int mugger, int muggee) override;
    void onRest(int worker) override;

    /** Latest decision for one worker. */
    GovernorDecision decision(int worker) const;

    /** All per-worker decisions at once (coherent snapshot). */
    std::vector<GovernorDecision> decisions() const;

    /** Census-changing transitions that triggered a re-decision. */
    uint64_t decisionRounds() const;

    /** Workers currently counted active (all clusters). */
    int activeWorkers() const;

    /** Total rest (v_min) intents issued across all rounds. */
    uint64_t restIntents() const;

    /** Total table-sprint intents issued across all rounds. */
    uint64_t sprintIntents() const;

  private:
    /** Recompute every worker's intent; caller holds mutex_. */
    void redecide();

    const DvfsLookupTable &table_;
    sched::RestPolicy rest_;
    SchedulerHooks *next_;
    double v_nom_;
    double v_min_;
    double v_max_;

    mutable std::mutex mutex_;
    std::vector<bool> active_;
    sched::ActivityCensus census_;
    std::vector<GovernorDecision> decisions_;
    uint64_t rounds_ = 0;
    uint64_t rest_intents_ = 0;
    uint64_t sprint_intents_ = 0;
};

} // namespace aaws

#endif // AAWS_AAWS_GOVERNOR_H
