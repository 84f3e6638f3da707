/**
 * @file
 * Discrete-event simulator of an asymmetric multicore running a
 * child-stealing work-stealing runtime under a global DVFS controller.
 *
 * This is the gem5 substitute (see DESIGN.md): cores retire instructions
 * at IPC(app, core type) x f(V); runtime actions (spawn, steal, sync,
 * mug) are charged through the cost model; per-core integrated voltage
 * regulators impose transition latencies and cores execute through
 * transitions at the lower of the old/new frequencies; the DVFS
 * controller reads activity-hint bits (toggled after the second failed
 * steal attempt, per Section III-A) and may not issue a new decision
 * while a transition is in flight.
 *
 * The machine shape is the CoreTopology (model/topology.h) that
 * MachineConfig::topology names: N clusters of cores, fastest first,
 * each with its own class parameters and voltage rail domain; the
 * paper's big/little machines are the two-cluster presets.
 *
 * The scheduler is the paper's baseline runtime: per-worker Chase-Lev
 * deques (owner pushes/pops the tail, thieves steal the head),
 * occupancy-based victim selection, child stealing, optional
 * work-biasing (a core steals only when every faster cluster is busy),
 * serial-sprinting, and the three AAWS techniques.  Work-mugging swaps
 * the *logical workers* of a faster and a slower core through the
 * modeled user-level-interrupt protocol: interrupt delivery, ~80
 * instructions of state-swap code per side, a rendezvous barrier, and a
 * cache-migration penalty on the migrated task.
 *
 * Every policy *decision* — victim choice, work-biasing, mug
 * triggering/targeting, rest/sprint intents — is delegated to the
 * engine-agnostic components in `src/sched/` (the same values both
 * native pools run), each built from `MachineConfig::policy`; the
 * machine implements the `sched::SchedView` concept they read and
 * keeps only event mechanics and cost charging for itself.
 *
 * Simulation is single-threaded and fully deterministic.  The event
 * structure is an IndexedEventQueue with one slot per event source
 * (core pending-op, core transition, controller), so rescheduling a
 * core's in-flight charge is an in-place heap update instead of a stale
 * entry plus an epoch check at pop time.
 *
 * Each source has at most one pending event, but a *parked* thief's
 * pending steal attempt lives outside the queue.  A thief is parked
 * when a failed attempt leaves it steady (backoff at its fixed point,
 * hint down): its next attempt reads the same deques, census and mug
 * engagements and fails the same way, until one of those changes.  Its
 * repeated failures are counted in closed form before each pop
 * (skipParked), and every change to a failed attempt's inputs first
 * re-arms it with the exact (tick, seq) key it would have had
 * (wakeParked), so every result is the one dispatching each attempt
 * would give.  DESIGN.md ("Parked thieves") has the wake list and the
 * tie rule.
 */

#ifndef AAWS_SIM_MACHINE_H
#define AAWS_SIM_MACHINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ring_deque.h"
#include "dvfs/controller.h"
#include "dvfs/regulator.h"
#include "energy/accountant.h"
#include "kernels/task_dag.h"
#include "sched/census.h"
#include "sched/mug.h"
#include "sched/steal_gate.h"
#include "sched/victim.h"
#include "sched/view.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/region_tracker.h"
#include "sim/result.h"

namespace aaws {

namespace detail {

/**
 * Failed steal attempts of a thief parked at key (next, seq) with
 * `period` that come before key (tick, horizon_seq): every attempt at a
 * tick before `tick`, and one at `tick` itself only while it still
 * carries its old seq (each attempt after the first reschedules with a
 * seq newer than every key in the queue).
 */
inline uint64_t
attemptsBefore(Tick next, uint64_t seq, Tick period, Tick tick,
               uint64_t horizon_seq)
{
    if (next < tick)
        return 1 + (tick - 1 - next) / period;
    return next == tick && seq < horizon_seq ? 1 : 0;
}

/** A parked thief's attempts in one skip window (Machine::skipParked). */
struct SkippedThief
{
    int core;
    uint64_t attempts;
    Tick last;    ///< Tick of the last attempt.
    Tick period;
    uint64_t seq; ///< Seq of the first attempt (the key's at the start).
};

/**
 * Sort the thieves of one skip window into the order in which their
 * last attempts would have popped, which is the order of the seqs those
 * attempts would have rescheduled them with.
 */
void orderByLastAttempt(SkippedThief *thieves, int n);

} // namespace detail

/**
 * One simulated machine executing one task DAG.  Construct and run()
 * once; the object is not reusable.
 *
 * Implements the `sched::SchedView` *concept* statically: the policy
 * components' templates bind `Machine` directly, so the millions of
 * occupancy/activity probes per simulated second are ordinary inlined
 * reads.  Deriving from the abstract `sched::SchedView` (as the native
 * pools' `RuntimeBackend` does) would add a vtable to an otherwise
 * virtual-free class and an indirect call per probe — measurably (>5%)
 * slower on steal-heavy kernels for zero flexibility the simulator
 * needs.  `sim::detail::MachineViewCheck` pins the concept match at
 * compile time.
 */
class Machine final
{
  public:
    /**
     * @param config Machine + runtime-variant configuration (copied;
     *     a temporary is fine).
     * @param dag Borrowed task graph; must outlive the machine.
     */
    Machine(const MachineConfig &config, const TaskDag &dag);
    ~Machine();

    /** Execute the whole program and return the measurements. */
    SimResult run();

    /**
     * The DVFS lookup table the controller reads: the process-wide
     * table every machine with the same topology and designer
     * parameters (`table_params`) shares.
     */
    const DvfsLookupTable &dvfsTable() const { return *table_shared_; }

    // --- sched::SchedView concept (read-only policy inputs) -------------
    //
    // Same signatures as the abstract interface, bound statically by
    // the policy templates (`pick`, `allowSteal`, `pickMuggee`): the
    // bodies are inline, so the steal path's occupancy probes compile
    // down to direct vector reads instead of vtable hops.

    int numWorkers() const { return static_cast<int>(workers_.size()); }

    int64_t
    dequeSize(int worker) const
    {
        return static_cast<int64_t>(workers_[worker].dq.size());
    }

    sched::CoreActivity activity(int core) const { return cores_[core].state; }

    int numClusters() const { return topo_.numClusters(); }

    int clusterOf(int core) const { return cores_[core].cluster; }

    int clusterSize(int cluster) const { return topo_.cluster(cluster).count; }

    int
    clusterActive(int cluster) const
    {
        // A core not counted active is stealing or done.
        return state_census_.clusterActive(cluster);
    }

    int numCores() const { return num_cores_; }

    /** Cluster of the core a worker runs on (mugging migrates workers). */
    int
    workerCluster(int worker) const
    {
        return cores_[worker_core_[worker]].cluster;
    }

    int64_t
    coreDequeSize(int core) const
    {
        return static_cast<int64_t>(workers_[cores_[core].worker].dq.size());
    }

    bool
    mugEngaged(int core) const
    {
        return cores_[core].mug_targeted || cores_[core].mug_peer >= 0;
    }

  private:
    // --- scheduler data structures -------------------------------------

    /**
     * What a core is currently doing.  This is the shared
     * sched::CoreActivity vocabulary — the policy components consume it
     * directly through the SchedView interface.
     */
    using CoreState = sched::CoreActivity;

    /** What the core's pending completion event means. */
    enum class Pending
    {
        none,
        work,        ///< `remaining` instructions of task/serial work.
        steal,       ///< `remaining` cycles of a steal attempt.
        steal_fetch, ///< `remaining` cycles fetching a stolen task.
        mug_issue,   ///< Mugger waiting out the interrupt latency.
        mug_save,    ///< `remaining` instructions of state-swap code.
    };

    /** What to do when a pending `work` charge completes. */
    enum class After
    {
        advance,           ///< Continue executing the worker's frames.
        phase,             ///< A phase root finished: phase transition.
        phase_serial_done, ///< A phase's serial region finished.
    };

    /** An executing (possibly blocked) task instance. */
    struct Frame
    {
        uint32_t task = 0;
        uint32_t op_next = 0;      ///< Packed-DAG index of the next op.
        uint32_t op_end = 0;       ///< One past the task's last op.
        int32_t outstanding = 0;   ///< Spawned, not-yet-joined children.
        int32_t parent_frame = -1; ///< Frame that *spawned* this task.
        int16_t owner_worker = -1;
        bool waiting = false;      ///< Blocked at a sync.
        bool live = false;
    };

    /** Deque entry: a stealable spawned task. */
    struct SpawnedEntry
    {
        uint32_t task;
        int32_t parent_frame;
    };

    /** Logical worker: survives mugging (cores swap workers). */
    struct Worker
    {
        RingDeque<SpawnedEntry> dq; ///< back = tail (owner side).
        std::vector<int32_t> stack;  ///< Frame ids; back = top.
        /** Instructions left of a WORK op preempted by a mug (-1: none). */
        double resume_instrs = -1.0;
        /** Continuation of the preempted charge (mug resume). */
        After resume_after = After::advance;
    };

    /** Physical core. */
    struct Core
    {
        int16_t cluster = 0;      ///< CoreTopology cluster (0 = fastest).
        int16_t worker = -1;
        double v_now = 1.0;       ///< Supply voltage (charge basis).
        double v_goal = 1.0;      ///< Target of an in-flight transition.
        bool transitioning = false;
        double freq = 0.0;        ///< Actual clock (min rule in flight).
        /** Cached effective instruction rate (IPC x f / contention). */
        double instr_rate = 0.0;
        CoreState state = CoreState::stealing;
        Pending pending = Pending::none;
        double remaining = 0.0;   ///< Units per `pending`.
        Tick last_update = 0;
        int failed_steals = 0;
        double backoff = 1.0;
        bool hint_active = true;
        After after_work = After::advance;
        /** Entry being fetched after a successful steal. */
        SpawnedEntry steal_entry{0, -1};
        /** Activity-time accounting. */
        Tick state_since = 0;
        double busy_seconds = 0.0;
        double waiting_seconds = 0.0;
        double instr_retired = 0.0;
        /** Mug engagement. */
        int mug_peer = -1;
        bool mug_save_done = false;
        bool mug_targeted = false; ///< Reserved as muggee.
        bool mug_for_phase = false;
        /** Parked thief: next attempt's key and the attempt period. */
        Tick park_next = 0;
        uint64_t park_seq = 0;
        Tick park_period = 0;
    };

    // --- frame pool -----------------------------------------------------

    int32_t allocFrame(uint32_t task, int32_t parent_frame, int worker);
    void freeFrame(int32_t f);
    void addFrame(); ///< Grow the pool by one free frame.

    // --- time / rate helpers ---------------------------------------------

    double instrRate(const Core &core) const;  ///< instructions / second
    double cycleRate(const Core &core) const;  ///< cycles / second
    double rateFor(const Core &core) const;    ///< per current pending
    void refreshRate(Core &core);  ///< recompute the cached instr rate
    void schedule(int c, double delay_seconds);
    /** Keep core c's next steal attempt out of the queue (steady thief). */
    void park(int c, double delay_seconds);
    /**
     * Re-arm every parked thief.  Call before any input of a failed
     * steal attempt changes, and before touching a parked core's op.
     */
    void
    wakeParked()
    {
        if (parked_ != 0)
            rearmParked();
    }
    void rearmParked();
    /** Count every parked attempt keyed before (tick, seq). */
    void skipParked(Tick tick, uint64_t seq);
    /**
     * The parked attempts before `tick` overrun max_events: stop at the
     * attempt that crosses it and panic, as dispatching would.
     */
    [[noreturn]] void exhaustBudget(Tick tick);
#ifdef AAWS_SANITIZER_BUILD
    /** Assert a parked thief's next attempt would fail like its last. */
    void checkStillFails(int c) const;
    /**
     * Assert the event (slot, seq) just dispatched in place was re-armed
     * with a fresh seq or retired, as the slot's source now requires.
     */
    void checkRetired(int slot, uint64_t seq) const;
#endif
    void settle(int c); ///< Consume elapsed progress of the pending op.
    void updateEnergy(int c);
    void recordTrace(int c);

    // --- scheduler actions ------------------------------------------------

    /** Same-state calls return inline; changeCoreState does the rest. */
    void setCoreState(int c, CoreState state);
    void changeCoreState(int c, CoreState state);
    void beginWork(int c, double instrs, After after);
    void enterStealLoop(int c);
    void advanceWorker(int c);
    void onStealDone(int c);
    void onStealFetchDone(int c);
    void completeTask(int c, int32_t frame_id);
    void onChildJoined(int32_t parent_frame);
    void phaseTransition(int c);

    // --- mugging ------------------------------------------------------------

    void issueMug(int c, int target, bool for_phase);
    void onMugIssueDone(int c);
    void onMugSaveDone(int c);
    void performSwap(int a, int b);
    void abortMug(int c);

    // --- phases ---------------------------------------------------------------

    void startNextPhase(int c);
    /** Start the current phase's root task on core c, or the next phase. */
    void runPhaseRoot(int c);
    [[noreturn]] void dumpStateAndPanic();

    // --- DVFS / census ----------------------------------------------------------

    void onHintsChanged();
    void applyDecision(const std::vector<double> &targets);
    void onTransitionDone(int c);
    void onControllerFree();
    void setFrequency(int c, double freq);
    void recordCensus();
    void setActiveCount(int active);
    double now() const { return ticksToSeconds(now_); }

    // --- event loop -----------------------------------------------------------

    /** Schedule the boot events (phase 0, steal loops, boot decision). */
    void boot();
    /** Handle one popped event of `slot` (now_ already advanced). */
    void dispatchEvent(int slot);
    /** Close the timelines and return the measurements. */
    SimResult finalize();

    // --- event slots -------------------------------------------------------------
    //
    // Slot layout: [ops | transitions | controller].

    /** Slot of core c's pending-op event. */
    int opSlot(int c) const { return c; }
    /** Slot of core c's transition-end event. */
    int transitionSlot(int c) const { return num_cores_ + c; }
    /** Slot of the controller-free event. */
    int controllerSlot() const { return 2 * num_cores_; }

    // --- members -----------------------------------------------------------------

    // Owned copy, not a reference: callers routinely construct machines
    // from temporary or loop-local configs, and the config is read on
    // every event.
    const MachineConfig config_;
    const TaskDag &dag_;
    FirstOrderModel app_model_;
    /** Machine shape: config.topology parsed against app_params. */
    const CoreTopology topo_;
    /** Process-wide shared DVFS table (sharedDvfsTable). */
    std::shared_ptr<const DvfsLookupTable> table_shared_;
    DvfsController controller_;
    RegulatorModel regulator_;
    EnergyAccountant energy_;
    RegionTracker regions_;

    std::vector<Core> cores_;
    std::vector<Worker> workers_;
    std::vector<int16_t> worker_core_; ///< worker id -> core id.
    std::vector<Frame> frames_;
    std::vector<int32_t> free_frames_;

    int num_cores_ = 0;
    IndexedEventQueue events_;
    Tick now_ = 0;
    /**
     * Tie-break counter for same-tick events (earlier schedule first).
     * Parked thieves draw from it too: parking takes the next value,
     * and skipParked hands out one value per skipped thief, in the
     * order their last skipped attempts would have popped.
     */
    uint64_t seq_ = 0;
    /** Bit c set: core c is a parked thief (n <= 64 cores). */
    uint64_t parked_ = 0;

    // Packed DAG op view (flat array + per-task span offsets).
    const TaskOp *dag_ops_ = nullptr;
    const uint32_t *dag_op_begin_ = nullptr;

    // Program state.
    size_t phase_idx_ = 0;
    int serial_core_ = -1;
    bool finished_ = false;
    Tick finish_tick_ = 0;

    // DVFS controller timing.
    bool controller_busy_ = false;
    bool controller_pending_ = false;
    Tick controller_free_at_ = 0;

    SimResult result_;
    bool ran_ = false;
    bool trace_enabled_ = false;
    // Policy components built from config_.policy (src/sched/).
    sched::VictimSelector victim_;
    const sched::StealGate gate_;
    const sched::MugTrigger mug_;
    int active_count_ = 0;
    double contention_factor_ = 1.0;
    /** Per-cluster IPC under app_params (refreshRate hot path). */
    std::vector<double> cluster_ipc_;
    // Incremental activity census (running | serial | mugging cores).
    sched::ActivityCensus state_census_;
    // Census of the *hint bits* (what the DVFS controller sees).
    sched::ActivityCensus hint_census_;
    // Seconds spent at each activity census (state_census_), indexed
    // by CoreTopology::censusIndex; the cells sum to exec_seconds.
    int census_idx_ = 0;
    Tick census_since_ = 0;
    std::vector<double> occupancy_seconds_;
    // Reused decision buffers (avoid per-census allocation).
    std::vector<bool> hints_buf_;
    std::vector<double> targets_buf_;
};

// The policy templates bind Machine directly; keep the accessor set in
// lockstep with the abstract sched::SchedView contract.
static_assert(sched::SchedViewLike<Machine>);

} // namespace aaws

#endif // AAWS_SIM_MACHINE_H
