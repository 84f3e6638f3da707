#include "sim/machine.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

#include "common/logging.h"

namespace aaws {

namespace {

/**
 * Process-wide cache of generated DVFS lookup tables.
 *
 * Table generation runs the marginal-utility optimizer over every
 * census cell and is by far the most expensive part of Machine
 * construction; the result depends only on the designer model
 * parameters and the machine shape (every cluster's kind, count, class
 * parameters and domain), so identical configurations (every
 * simulation of a sweep) can share one immutable table.  The key holds
 * those numbers themselves, so finding the table formats nothing.
 */
std::shared_ptr<const DvfsLookupTable>
sharedDvfsTable(const ModelParams &mp, const CoreTopology &table_topo)
{
    using ParamsKey = std::tuple<double, double, double, double, double,
                                 double, double, double, double, double,
                                 double, double>;
    // Kind, count, ipc, energy coefficient, leak ratio and domain; the
    // class parameters key by their bits, so -0 and +0 key apart.
    using ClusterKey =
        std::tuple<char, int, uint64_t, uint64_t, uint64_t, DvfsDomain>;
    using TableKey = std::pair<ParamsKey, std::vector<ClusterKey>>;
    TableKey key{{mp.k1, mp.k2, mp.v_nom, mp.v_min, mp.v_max, mp.alpha,
                  mp.beta, mp.ipc_little, mp.alpha_little, mp.lambda,
                  mp.gamma, mp.waiting_activity},
                 {}};
    key.second.reserve(table_topo.clusters().size());
    for (const CoreCluster &cluster : table_topo.clusters())
        key.second.emplace_back(
            cluster.kind, cluster.count,
            std::bit_cast<uint64_t>(cluster.params.ipc),
            std::bit_cast<uint64_t>(cluster.params.energy_coeff),
            std::bit_cast<uint64_t>(cluster.params.leak_ratio),
            cluster.domain);
    static std::mutex mutex;
    static std::map<TableKey, std::shared_ptr<const DvfsLookupTable>>
        cache;
    std::lock_guard<std::mutex> lock(mutex);
    std::shared_ptr<const DvfsLookupTable> &slot = cache[key];
    if (!slot) {
        slot = std::make_shared<const DvfsLookupTable>(FirstOrderModel(mp),
                                                       table_topo);
    }
    return slot;
}

/** Ticks a delay occupies: rounded up, and never zero. */
Tick
delayTicks(double delay_seconds)
{
    return std::max<Tick>(1, secondsToTicks(delay_seconds));
}

} // namespace

Machine::Machine(const MachineConfig &config, const TaskDag &dag)
    : config_(config), dag_(dag), app_model_(config.app_params),
      topo_(makeTopology(config.topology, config.app_params)),
      table_shared_(sharedDvfsTable(config.table_params,
                                    topo_.retargeted(config.table_params))),
      controller_(*table_shared_, config.policy, config.table_params),
      regulator_(config.regulator_ns_per_step,
                 config.regulator_volts_per_step),
      energy_(app_model_, topo_),
      regions_(topo_.cluster(0).count,
               topo_.numCores() - topo_.cluster(0).count),
      num_cores_(topo_.numCores()), events_(2 * num_cores_ + 1),
      victim_(config.policy.victim), gate_(config.policy.work_biasing),
      mug_(config.policy.work_mugging)
{
    AAWS_ASSERT(!dag_.phases().empty(), "kernel has no phases");
    int n = num_cores_;
    AAWS_ASSERT(n >= 1 && n <= 64, "unsupported core count %d", n);
    AAWS_ASSERT(controller_.numCores() == n,
                "DVFS table shape (%d cores) does not match the machine "
                "topology (%d cores)",
                controller_.numCores(), n);
    // Cores boot in the steal loop (inactive) but their hint bits power
    // up raised, so the two censuses intentionally disagree at t=0.
    state_census_ = sched::ActivityCensus(topo_);
    hint_census_ = sched::ActivityCensus(topo_, /*all_active=*/true);
    cluster_ipc_.reserve(topo_.numClusters());
    for (const CoreCluster &cluster : topo_.clusters())
        cluster_ipc_.push_back(cluster.params.ipc);
    cores_.resize(n);
    workers_.resize(n);
    worker_core_.resize(n);
    dag_ops_ = dag_.packedOps();
    dag_op_begin_ = dag_.opSpans();
    double v_nom = config_.app_params.v_nom;
    for (int c = 0; c < n; ++c) {
        cores_[c].cluster = static_cast<int16_t>(topo_.clusterOf(c));
        cores_[c].worker = static_cast<int16_t>(c);
        cores_[c].v_now = v_nom;
        cores_[c].v_goal = v_nom;
        cores_[c].freq = app_model_.freq(v_nom);
        refreshRate(cores_[c]);
        worker_core_[c] = static_cast<int16_t>(c);
    }
    occupancy_seconds_.assign(static_cast<size_t>(topo_.censusCells()),
                              0.0);
    hints_buf_.resize(static_cast<size_t>(n));
    if (config_.collect_trace) {
        result_.trace.enable();
        trace_enabled_ = true;
    }
}

Machine::~Machine() = default;

// --- frame pool ----------------------------------------------------------

void
Machine::addFrame()
{
    free_frames_.push_back(static_cast<int32_t>(frames_.size()));
    frames_.emplace_back();
}

inline int32_t
Machine::allocFrame(uint32_t task, int32_t parent_frame, int worker)
{
    if (free_frames_.empty())
        addFrame();
    int32_t f = free_frames_.back();
    free_frames_.pop_back();
    Frame &frame = frames_[f];
    frame = Frame{};
    frame.task = task;
    frame.op_next = dag_op_begin_[task];
    frame.op_end = dag_op_begin_[task + 1];
    frame.parent_frame = parent_frame;
    frame.owner_worker = static_cast<int16_t>(worker);
    frame.live = true;
    return f;
}

inline void
Machine::freeFrame(int32_t f)
{
    AAWS_ASSERT(frames_[f].live, "double free of frame %d", f);
    frames_[f].live = false;
    free_frames_.push_back(f);
}

// --- time / rate helpers ---------------------------------------------------

double
Machine::instrRate(const Core &core) const
{
    // Shared-memory contention degrades every active core's effective
    // IPC as more cores are active (see MachineConfig::mpki); the value
    // is cached per core and refreshed on frequency/contention change.
    return core.instr_rate;
}

void
Machine::refreshRate(Core &core)
{
    core.instr_rate =
        cluster_ipc_[core.cluster] * core.freq / contention_factor_;
}

double
Machine::cycleRate(const Core &core) const
{
    return core.freq;
}

double
Machine::rateFor(const Core &core) const
{
    switch (core.pending) {
      case Pending::work:
      case Pending::mug_save:
        return instrRate(core);
      case Pending::steal:
      case Pending::steal_fetch:
      case Pending::mug_issue:
        return cycleRate(core);
      case Pending::none:
        break;
    }
    panic("rateFor with no pending op");
}

inline void
Machine::schedule(int c, double delay_seconds)
{
    Core &core = cores_[c];
#ifdef AAWS_SANITIZER_BUILD
    AAWS_ASSERT((parked_ >> c & 1) == 0,
                "core %d's parked steal attempt rescheduled at t=%.6f ms "
                "without a wakeParked()",
                c, now() * 1e3);
#endif
    core.last_update = now_;
    events_.schedule(opSlot(c), now_ + delayTicks(delay_seconds), seq_++);
}

void
Machine::park(int c, double delay_seconds)
{
    Core &core = cores_[c];
    core.park_period = delayTicks(delay_seconds);
    core.park_next = now_ + core.park_period;
    core.park_seq = seq_++;
    parked_ |= uint64_t{1} << c;
}

void
Machine::rearmParked()
{
    for (uint64_t mask = parked_; mask != 0; mask &= mask - 1) {
        int c = std::countr_zero(mask);
        Core &core = cores_[c];
        core.last_update = core.park_next - core.park_period;
        events_.schedule(opSlot(c), core.park_next, core.park_seq);
    }
    parked_ = 0;
}

namespace detail {

void
orderByLastAttempt(SkippedThief *thieves, int n)
{
    // Each dispatched attempt would have rescheduled its thief with the
    // next seq_, so the thieves leave in the order of their last
    // attempts.  At one tick, a thief whose last attempt was its first
    // still holds its old seq and goes first, by that seq.  Two thieves
    // with fresh seqs rank by the attempts before: the longer period
    // attempted earlier; at equal periods the thief with fewer attempts
    // held its old seq for longer; at equal counts the old seq decides.
    std::sort(thieves, thieves + n,
              [](const SkippedThief &a, const SkippedThief &b) {
                  if (a.last != b.last)
                      return a.last < b.last;
                  if ((a.attempts == 1) != (b.attempts == 1))
                      return a.attempts == 1;
                  if (a.attempts > 1 && a.period != b.period)
                      return a.period > b.period;
                  if (a.attempts != b.attempts)
                      return a.attempts < b.attempts;
                  return a.seq < b.seq;
              });
}

} // namespace detail

void
Machine::skipParked(Tick tick, uint64_t seq)
{
    detail::SkippedThief skipped[64];
    int n = 0;
    uint64_t total = 0;
    for (uint64_t mask = parked_; mask != 0; mask &= mask - 1) {
        int c = std::countr_zero(mask);
        const Core &core = cores_[c];
        uint64_t attempts = detail::attemptsBefore(
            core.park_next, core.park_seq, core.park_period, tick, seq);
        if (attempts == 0)
            continue;
        skipped[n++] = {c, attempts,
                        core.park_next + (attempts - 1) * core.park_period,
                        core.park_period, core.park_seq};
        total += attempts;
    }
    if (n == 0)
        return;
    if (total > config_.max_events - result_.sim_events)
        exhaustBudget(tick);
    detail::orderByLastAttempt(skipped, n);
    for (int rank = 0; rank < n; ++rank) {
        const detail::SkippedThief &thief = skipped[rank];
        Core &core = cores_[thief.core];
#ifdef AAWS_SANITIZER_BUILD
        checkStillFails(thief.core);
#endif
        core.failed_steals += static_cast<int>(thief.attempts);
        core.park_next = thief.last + thief.period;
        core.park_seq = seq_ + static_cast<uint64_t>(rank);
    }
    seq_ += static_cast<uint64_t>(n);
    result_.failed_steals += total;
    result_.sim_events += total;
}

void
Machine::exhaustBudget(Tick tick)
{
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    const uint64_t budget = config_.max_events - result_.sim_events;
    auto attemptsThrough = [this](Tick t) {
        uint64_t total = 0;
        for (uint64_t mask = parked_; mask != 0; mask &= mask - 1) {
            const Core &core = cores_[std::countr_zero(mask)];
            if (core.park_next > t)
                continue;
            uint64_t attempts = 1 + (t - core.park_next) / core.park_period;
            total = attempts > kMax - total ? kMax : total + attempts;
        }
        return total;
    };
    // Bracket the tick of the crossing attempt in (lo, hi]: no attempt
    // comes before the earliest parked one, and by `tick`, or once the
    // earliest thief alone has made budget + 1 attempts, too many have.
    const Core *first = nullptr;
    for (uint64_t mask = parked_; mask != 0; mask &= mask - 1) {
        const Core &core = cores_[std::countr_zero(mask)];
        if (!first || core.park_next < first->park_next)
            first = &core;
    }
    Tick lo = first->park_next - 1;
    Tick hi = tick;
    if ((tick - first->park_next) / first->park_period > budget)
        hi = first->park_next + budget * first->park_period;
    while (hi - lo > 1) {
        Tick mid = lo + (hi - lo) / 2;
        (attemptsThrough(mid) > budget ? hi : lo) = mid;
    }
    // Every attempt before tick `hi` fits; at `hi`, attempts run in seq
    // order until the one past the budget.
    skipParked(hi, 0);
    std::vector<int> at_hi;
    for (uint64_t mask = parked_; mask != 0; mask &= mask - 1) {
        int c = std::countr_zero(mask);
        if (cores_[c].park_next == hi)
            at_hi.push_back(c);
    }
    std::sort(at_hi.begin(), at_hi.end(), [this](int a, int b) {
        return cores_[a].park_seq < cores_[b].park_seq;
    });
    uint64_t fitting = config_.max_events - result_.sim_events;
    AAWS_ASSERT(fitting < at_hi.size(), "event budget crossing not found");
    for (uint64_t i = 0; i < fitting; ++i) {
        cores_[at_hi[i]].failed_steals++;
        result_.failed_steals++;
    }
    result_.sim_events = config_.max_events;
    now_ = hi;
    dumpStateAndPanic();
}

#ifdef AAWS_SANITIZER_BUILD
void
Machine::checkStillFails(int c) const
{
    const Core &core = cores_[c];
    bool no_victim = true;
    for (int w = 0; w < numWorkers(); ++w)
        no_victim = no_victim && (w == core.worker || workers_[w].dq.empty());
    bool fails = (!gate_.allowSteal(*this, c) || no_victim) &&
                 (!mug_.wantsMug(*this, c, core.failed_steals + 1) ||
                  mug_.pickMuggee(*this, core.cluster) < 0);
    AAWS_ASSERT(fails && core.state == CoreState::stealing &&
                    core.pending == Pending::steal && !core.hint_active &&
                    !events_.active(opSlot(c)) &&
                    core.park_period ==
                        delayTicks(core.remaining / cycleRate(core)),
                "parked thief on core %d would not repeat its failed "
                "attempt at t=%.6f ms: an input changed without a "
                "wakeParked()",
                c, now() * 1e3);
}

void
Machine::checkRetired(int slot, uint64_t seq) const
{
    bool armed = events_.active(slot);
    AAWS_ASSERT(!armed || events_.seqOf(slot) > seq,
                "slot %d's dispatched event (seq %llu) outlived its handler "
                "at t=%.6f ms",
                slot, static_cast<unsigned long long>(seq), now() * 1e3);
    if (finished_)
        return;
    // A core that parked during its own dispatch keeps its op out of the
    // queue; any other source is armed exactly while it has work pending.
    bool wanted;
    if (slot < num_cores_)
        wanted = cores_[slot].pending != Pending::none &&
                 (parked_ >> slot & 1) == 0;
    else if (slot == controllerSlot())
        wanted = controller_busy_;
    else
        wanted = cores_[slot - num_cores_].transitioning;
    AAWS_ASSERT(armed == wanted,
                "slot %d is %s after its handler at t=%.6f ms", slot,
                armed ? "armed with nothing pending" : "pending but unarmed",
                now() * 1e3);
}
#endif

void
Machine::settle(int c)
{
    Core &core = cores_[c];
    if (core.pending == Pending::none)
        return;
    double elapsed = ticksToSeconds(now_ - core.last_update);
    core.remaining =
        std::max(0.0, core.remaining - elapsed * rateFor(core));
    core.last_update = now_;
}

void
Machine::updateEnergy(int c)
{
    Core &core = cores_[c];
    PowerState ps;
    switch (core.state) {
      case CoreState::running:
      case CoreState::serial:
      case CoreState::mugging:
        ps = PowerState::active;
        break;
      case CoreState::stealing:
        ps = PowerState::waiting;
        break;
      case CoreState::done:
      default:
        ps = PowerState::off;
        break;
    }
    double v_charge = core.transitioning
                          ? std::max(core.v_now, core.v_goal)
                          : core.v_now;
    energy_.setState(c, now(), ps, v_charge);
}

void
Machine::recordTrace(int c)
{
    if (!trace_enabled_)
        return;
    const Core &core = cores_[c];
    TraceState ts;
    switch (core.state) {
      case CoreState::running:
        ts = TraceState::task;
        break;
      case CoreState::serial:
        ts = TraceState::serial;
        break;
      case CoreState::stealing:
        ts = TraceState::steal;
        break;
      case CoreState::mugging:
        ts = TraceState::mug;
        break;
      case CoreState::done:
      default:
        ts = TraceState::idle;
        break;
    }
    result_.trace.record(now_, c, ts, core.v_goal);
}

void
Machine::recordCensus()
{
    // The active-core counts are maintained incrementally by
    // setCoreState (the sole mutator of Core::state).  The region
    // tracker splits the machine into its fastest cluster vs the rest
    // (big vs little on the two-cluster machines).
    int fastest_active = state_census_.clusterActive(0);
    int rest_active = state_census_.active() - fastest_active;
    regions_.update(now(), serial_core_ >= 0, fastest_active, rest_active);
    int idx = topo_.censusIndex(state_census_.counts());
    if (idx != census_idx_) {
        occupancy_seconds_[census_idx_] +=
            ticksToSeconds(now_ - census_since_);
        census_idx_ = idx;
        census_since_ = now_;
    }
    setActiveCount(state_census_.active());
}

void
Machine::setActiveCount(int active)
{
    if (active == active_count_)
        return;
    active_count_ = active;
    double factor = 1.0 + config_.mem_contention * config_.mpki *
                              std::max(0, active - 1);
    if (factor == contention_factor_)
        return;
    // The effective IPC of every in-flight instruction charge changes:
    // bank progress at the core's cached old rate, then reschedule at
    // the new one.  Cores go in index order, so their seqs do too.
    contention_factor_ = factor;
    for (size_t c = 0; c < cores_.size(); ++c) {
        Core &core = cores_[c];
        bool charging = core.pending == Pending::work ||
                        core.pending == Pending::mug_save;
        if (charging)
            settle(static_cast<int>(c));
        refreshRate(core);
        if (charging)
            schedule(static_cast<int>(c), core.remaining / instrRate(core));
    }
}

inline void
Machine::setCoreState(int c, CoreState state)
{
    if (cores_[c].state != state)
        changeCoreState(c, state);
}

void
Machine::changeCoreState(int c, CoreState state)
{
    Core &core = cores_[c];
    wakeParked();
    // Bank the elapsed interval under the outgoing state.
    double dt = ticksToSeconds(now_ - core.state_since);
    if (core.state == CoreState::stealing)
        core.waiting_seconds += dt;
    else if (core.state != CoreState::done)
        core.busy_seconds += dt;
    bool was_active = core.state == CoreState::running ||
                      core.state == CoreState::serial ||
                      core.state == CoreState::mugging;
    core.state_since = now_;
    core.state = state;
    bool active = state == CoreState::running ||
                  state == CoreState::serial ||
                  state == CoreState::mugging;
    if (active != was_active)
        state_census_.note(core.cluster, active);
    bool hints_changed = false;
    if (active && !core.hint_active) {
        core.hint_active = true;
        hint_census_.note(core.cluster, true);
        hints_changed = true;
    }
    updateEnergy(c);
    recordCensus();
    recordTrace(c);
    if (hints_changed)
        onHintsChanged();
}

// --- scheduler actions ------------------------------------------------------

inline void
Machine::beginWork(int c, double instrs, After after)
{
    Core &core = cores_[c];
    core.after_work = after;
    if (instrs <= 0.0) {
        // Nothing to charge: dispatch the continuation immediately.
        switch (after) {
          case After::advance:
            advanceWorker(c);
            return;
          case After::phase:
            phaseTransition(c);
            return;
          case After::phase_serial_done:
            panic("zero-length serial charge"); // caller avoids this
        }
    }
    result_.instructions += static_cast<uint64_t>(instrs);
    core.instr_retired += instrs;
    core.pending = Pending::work;
    core.remaining = instrs;
    schedule(c, instrs / instrRate(core));
}

void
Machine::enterStealLoop(int c)
{
    Core &core = cores_[c];
    core.failed_steals = 0;
    core.backoff = 1.0;
    setCoreState(c, CoreState::stealing);
    core.pending = Pending::steal;
    core.remaining = static_cast<double>(config_.costs.steal_attempt_cycles);
    schedule(c, core.remaining / cycleRate(core));
}

void
Machine::advanceWorker(int c)
{
    Core &core = cores_[c];
    Worker &w = workers_[core.worker];
    const RuntimeCosts &costs = config_.costs;
    double instrs = 0.0;

    setCoreState(c, CoreState::running);
    while (true) {
        if (w.stack.empty()) {
            if (!w.dq.empty()) {
                SpawnedEntry entry = w.dq.popBack();
                instrs += static_cast<double>(costs.task_begin_instrs);
                w.stack.push_back(
                    allocFrame(entry.task, entry.parent_frame,
                               core.worker));
                continue;
            }
            // Out of local work.
            if (instrs > 0.0) {
                beginWork(c, instrs, After::advance);
            } else {
                enterStealLoop(c);
            }
            return;
        }

        int32_t fid = w.stack.back();
        Frame &frame = frames_[fid];
        if (frame.waiting) {
            if (frame.outstanding == 0) {
                frame.waiting = false;
                // fall through to resume past the sync
            } else if (!w.dq.empty()) {
                SpawnedEntry entry = w.dq.popBack();
                instrs += static_cast<double>(costs.task_begin_instrs);
                w.stack.push_back(
                    allocFrame(entry.task, entry.parent_frame,
                               core.worker));
                continue;
            } else {
                // Blocked: steal while waiting for the join.
                if (instrs > 0.0)
                    beginWork(c, instrs, After::advance);
                else
                    enterStealLoop(c);
                return;
            }
        }

        if (frame.op_next == frame.op_end) {
            // Task end: implicit sync with outstanding children.
            if (frame.outstanding > 0) {
                frame.waiting = true;
                continue;
            }
            bool was_phase_root =
                phase_idx_ > 0 &&
                dag_.phases()[phase_idx_ - 1].root_task >= 0 &&
                static_cast<uint32_t>(
                    dag_.phases()[phase_idx_ - 1].root_task) ==
                    frame.task &&
                w.stack.size() == 1 && core.worker == 0;
            completeTask(c, fid);
            if (was_phase_root) {
                if (instrs > 0.0)
                    beginWork(c, instrs, After::phase);
                else
                    phaseTransition(c);
                return;
            }
            continue;
        }

        const TaskOp &op = dag_ops_[frame.op_next++];
        switch (op.kind) {
          case OpKind::work:
            instrs += static_cast<double>(op.arg);
            beginWork(c, instrs, After::advance);
            return;
          case OpKind::spawn:
            instrs += static_cast<double>(costs.spawn_instrs);
            if (w.dq.empty())
                wakeParked(); // a first victim for the thieves
            w.dq.pushBack({static_cast<uint32_t>(op.arg), fid});
            frame.outstanding++;
            break;
          case OpKind::call:
            instrs += static_cast<double>(costs.call_instrs);
            w.stack.push_back(allocFrame(static_cast<uint32_t>(op.arg),
                                         -1, core.worker));
            break;
          case OpKind::sync:
            instrs += static_cast<double>(costs.sync_instrs);
            if (frame.outstanding > 0)
                frame.waiting = true;
            break;
        }
    }
}

inline void
Machine::completeTask(int c, int32_t fid)
{
    Worker &w = workers_[cores_[c].worker];
    AAWS_ASSERT(!w.stack.empty() && w.stack.back() == fid,
                "completing non-top frame");
    w.stack.pop_back();
    result_.tasks_executed++;
    int32_t parent = frames_[fid].parent_frame;
    freeFrame(fid);
    if (parent >= 0)
        onChildJoined(parent);
}

inline void
Machine::onChildJoined(int32_t pf)
{
    Frame &frame = frames_[pf];
    AAWS_ASSERT(frame.live && frame.outstanding > 0,
                "join on frame with no outstanding children");
    frame.outstanding--;
    if (frame.outstanding != 0 || !frame.waiting)
        return;
    // The joined frame may now resume; wake its owner if it is sitting
    // in the steal loop with this frame on top of its stack.
    int owner_core = worker_core_[frame.owner_worker];
    Core &core = cores_[owner_core];
    Worker &w = workers_[frame.owner_worker];
    if (core.state == CoreState::stealing &&
        core.pending == Pending::steal && !w.stack.empty() &&
        w.stack.back() == pf) {
        wakeParked(); // the owner may be parked
        events_.cancel(opSlot(owner_core)); // in-flight steal attempt
        core.pending = Pending::none;
        advanceWorker(owner_core);
    }
}

void
Machine::onStealDone(int c)
{
    Core &core = cores_[c];
    const RuntimeCosts &costs = config_.costs;

    bool biased_out = !gate_.allowSteal(*this, c);
    int victim = -1;
    if (!biased_out) {
        victim = victim_.pick(*this, core.worker);
    }

    if (victim >= 0) {
        Worker &vw = workers_[victim];
        core.steal_entry = vw.dq.popFront();
        result_.steals++;
        core.pending = Pending::steal_fetch;
        core.remaining =
            static_cast<double>(costs.steal_success_cycles);
        schedule(c, core.remaining / cycleRate(core));
        return;
    }

    // Failed attempt.
    core.failed_steals++;
    result_.failed_steals++;
    if (core.failed_steals == 2 && core.hint_active) {
        core.hint_active = false;
        hint_census_.note(core.cluster, false);
        onHintsChanged();
    }

    // Work-mugging: a fast core that has failed to steal twice
    // preemptively migrates work from an active core of a slower
    // cluster.  The swap moves the whole user-level context, so a fast
    // core blocked at a sync may also mug (its blocked continuation
    // migrates to the slower core and resumes whenever its join
    // completes).
    if (mug_.wantsMug(*this, c, core.failed_steals)) {
        int target = mug_.pickMuggee(*this, core.cluster);
        if (target >= 0) {
            issueMug(c, target, /*for_phase=*/false);
            return;
        }
    }

    core.backoff = std::min(costs.steal_backoff_max,
                            core.backoff * costs.steal_backoff_growth);
    core.pending = Pending::steal;
    core.remaining =
        static_cast<double>(costs.steal_attempt_cycles) * core.backoff;
    // Steady: the next attempt keeps this backoff and cannot toggle the
    // hint or start wanting a mug, so it fails the same way until a
    // wakeParked() site changes one of its inputs.
    bool steady = !core.hint_active && core.failed_steals >= 2 &&
                  core.backoff ==
                      std::min(costs.steal_backoff_max,
                               core.backoff * costs.steal_backoff_growth);
    if (steady)
        park(c, core.remaining / cycleRate(core));
    else
        schedule(c, core.remaining / cycleRate(core));
}

void
Machine::onStealFetchDone(int c)
{
    Core &core = cores_[c];
    Worker &w = workers_[core.worker];
    AAWS_ASSERT(w.stack.empty() || frames_[w.stack.back()].waiting,
                "steal completed while runnable work was on the stack");
    w.stack.push_back(allocFrame(core.steal_entry.task,
                                 core.steal_entry.parent_frame,
                                 core.worker));
    core.failed_steals = 0;
    core.backoff = 1.0;
    setCoreState(c, CoreState::running);
    beginWork(c, static_cast<double>(config_.costs.task_begin_instrs),
              After::advance);
}

// --- mugging ----------------------------------------------------------------

void
Machine::issueMug(int c, int target, bool for_phase)
{
    Core &core = cores_[c];
    wakeParked();
    cores_[target].mug_targeted = true;
    core.mug_peer = target;
    core.mug_save_done = false;
    core.mug_for_phase = for_phase;
    setCoreState(c, CoreState::mugging);
    core.pending = Pending::mug_issue;
    core.remaining =
        static_cast<double>(config_.costs.mug_interrupt_cycles);
    schedule(c, core.remaining / cycleRate(core));
}

void
Machine::onMugIssueDone(int c)
{
    Core &core = cores_[c];
    int peer = core.mug_peer;
    Core &muggee = cores_[peer];

    bool valid = core.mug_for_phase
                     ? muggee.state == CoreState::stealing
                     : muggee.state == CoreState::running;
    if (!valid) {
        abortMug(c);
        return;
    }
    wakeParked(); // the muggee may be a parked thief

    // Preempt the muggee and run the state-save code on both sides.
    double swap = static_cast<double>(config_.costs.mug_swap_instrs);
    if (muggee.pending == Pending::work) {
        settle(peer);
        workers_[muggee.worker].resume_instrs = muggee.remaining;
        workers_[muggee.worker].resume_after = muggee.after_work;
    }
    muggee.mug_peer = c;
    muggee.mug_save_done = false;
    muggee.mug_for_phase = core.mug_for_phase;
    setCoreState(peer, CoreState::mugging);
    muggee.pending = Pending::mug_save;
    muggee.remaining = swap;
    schedule(peer, swap / instrRate(muggee));
    result_.instructions += static_cast<uint64_t>(swap);
    muggee.instr_retired += swap;

    core.pending = Pending::mug_save;
    core.remaining = swap;
    schedule(c, swap / instrRate(core));
    result_.instructions += static_cast<uint64_t>(swap);
    core.instr_retired += swap;
}

void
Machine::onMugSaveDone(int c)
{
    Core &core = cores_[c];
    core.mug_save_done = true;
    int peer = core.mug_peer;
    if (cores_[peer].mug_save_done)
        performSwap(c, peer);
    // Otherwise wait at the rendezvous barrier for the peer.
}

void
Machine::performSwap(int a, int b)
{
    wakeParked();
    result_.mugs++;
    bool for_phase = cores_[a].mug_for_phase;

    std::swap(cores_[a].worker, cores_[b].worker);
    worker_core_[cores_[a].worker] = static_cast<int16_t>(a);
    worker_core_[cores_[b].worker] = static_cast<int16_t>(b);

    for (int c : {a, b}) {
        Core &core = cores_[c];
        core.mug_peer = -1;
        core.mug_save_done = false;
        core.mug_targeted = false;
        core.mug_for_phase = false;
        core.failed_steals = 0;
        core.backoff = 1.0;
    }

    for (int c : {a, b}) {
        Core &core = cores_[c];
        Worker &w = workers_[core.worker];
        if (for_phase && core.worker == 0) {
            // Logical thread 0 landed on this (big) core: next phase.
            startNextPhase(c);
        } else if (w.resume_instrs >= 0.0) {
            double r = w.resume_instrs +
                       static_cast<double>(
                           config_.costs.mug_cache_penalty_instrs);
            // The preempted instructions were counted when first
            // charged; only the cache-migration penalty is new work.
            result_.instructions -= static_cast<uint64_t>(w.resume_instrs);
            core.instr_retired -= w.resume_instrs;
            After after = w.resume_after;
            w.resume_instrs = -1.0;
            w.resume_after = After::advance;
            setCoreState(c, CoreState::running);
            beginWork(c, r, after);
        } else {
            advanceWorker(c);
        }
    }
}

void
Machine::abortMug(int c)
{
    Core &core = cores_[c];
    wakeParked();
    result_.aborted_mugs++;
    int peer = core.mug_peer;
    cores_[peer].mug_targeted = false;
    bool for_phase = core.mug_for_phase;
    core.mug_peer = -1;
    core.mug_for_phase = false;
    if (for_phase) {
        // Stay on the little core and carry on with the next phase.
        startNextPhase(c);
    } else {
        // Re-examine the worker: a join may have completed while this
        // core was engaged in the mug (the wake is skipped for cores in
        // the mugging state), so going straight back to the steal loop
        // could strand a now-runnable blocked frame forever.
        advanceWorker(c);
    }
}

// --- phases -------------------------------------------------------------------

void
Machine::startNextPhase(int c)
{
    AAWS_ASSERT(cores_[c].worker == 0,
                "phase advanced by a core not holding logical thread 0");
    if (phase_idx_ >= dag_.phases().size()) {
        finished_ = true;
        finish_tick_ = now_;
        for (size_t i = 0; i < cores_.size(); ++i)
            setCoreState(static_cast<int>(i), CoreState::done);
        return;
    }
    const Phase &phase = dag_.phases()[phase_idx_];
    phase_idx_++;
    if (phase.serial_work > 0) {
        serial_core_ = c;
        setCoreState(c, CoreState::serial);
        onHintsChanged();
        Core &core = cores_[c];
        core.after_work = After::phase_serial_done;
        core.pending = Pending::work;
        core.remaining = static_cast<double>(phase.serial_work);
        result_.instructions += phase.serial_work;
        core.instr_retired += static_cast<double>(phase.serial_work);
        schedule(c, core.remaining / instrRate(core));
        return;
    }
    runPhaseRoot(c);
}

void
Machine::runPhaseRoot(int c)
{
    const Phase &phase = dag_.phases()[phase_idx_ - 1];
    if (phase.root_task < 0) {
        startNextPhase(c); // no parallel part
        return;
    }
    Worker &w = workers_[cores_[c].worker];
    w.stack.push_back(allocFrame(static_cast<uint32_t>(phase.root_task), -1,
                                 cores_[c].worker));
    advanceWorker(c);
}

void
Machine::phaseTransition(int c)
{
    // End of a parallel region: logical thread 0 must continue on a
    // fast core (Section III-B); if it is on a slower cluster, mug an
    // idle core of any faster one.
    if (mug_.enabled() && cores_[c].cluster > 0) {
        int target = mug_.pickPhaseMuggee(*this, cores_[c].cluster);
        if (target >= 0) {
            issueMug(c, target, /*for_phase=*/true);
            return;
        }
    }
    startNextPhase(c);
}

// --- DVFS ------------------------------------------------------------------------

void
Machine::onHintsChanged()
{
    if (finished_)
        return;
    if (controller_busy_) {
        controller_pending_ = true;
        return;
    }
    for (size_t i = 0; i < cores_.size(); ++i)
        hints_buf_[i] = cores_[i].hint_active;
    controller_.decideInto(hints_buf_, hint_census_, serial_core_,
                           targets_buf_);
    applyDecision(targets_buf_);
}

void
Machine::applyDecision(const std::vector<double> &targets)
{
    Tick latest = now_;
    for (size_t i = 0; i < targets.size(); ++i) {
        Core &core = cores_[i];
        AAWS_ASSERT(!core.transitioning,
                    "new decision while core %zu is transitioning", i);
        if (std::abs(targets[i] - core.v_now) < 1e-9)
            continue;
        double v_from = core.v_now;
        double v_to = targets[i];
        Tick dt = regulator_.transitionPs(v_from, v_to);
        core.transitioning = true;
        core.v_goal = v_to;
        result_.transitions++;
        // Execute through the transition at the lower frequency; charge
        // energy at the higher of the two voltages (conservative).
        updateEnergy(static_cast<int>(i));
        recordTrace(static_cast<int>(i));
        setFrequency(static_cast<int>(i),
                     std::min(app_model_.freq(v_from),
                              app_model_.freq(v_to)));
        Tick end = now_ + std::max<Tick>(1, dt);
        events_.schedule(transitionSlot(static_cast<int>(i)), end, seq_++);
        latest = std::max(latest, end);
    }
    if (latest > now_) {
        controller_busy_ = true;
        controller_free_at_ = latest;
        events_.schedule(controllerSlot(), latest, seq_++);
    }
}

void
Machine::onTransitionDone(int c)
{
    Core &core = cores_[c];
    AAWS_ASSERT(core.transitioning, "spurious transition end on core %d",
                c);
    core.transitioning = false;
    core.v_now = core.v_goal;
    updateEnergy(c);
    setFrequency(c, app_model_.freq(core.v_now));
}

void
Machine::onControllerFree()
{
    controller_busy_ = false;
    if (controller_pending_) {
        controller_pending_ = false;
        onHintsChanged();
    }
}

void
Machine::setFrequency(int c, double freq)
{
    Core &core = cores_[c];
    if (core.freq == freq)
        return;
    wakeParked(); // a parked thief's attempt period changes
    settle(c); // bank progress at the old rate first
    core.freq = freq;
    refreshRate(core);
    if (core.pending != Pending::none)
        schedule(c, core.remaining / rateFor(core));
}

// --- main loop ------------------------------------------------------------------

void
Machine::dumpStateAndPanic()
{
    std::fprintf(stderr,
                 "machine state at t=%.6f ms (phase %zu/%zu, serial=%d, "
                 "mugs=%llu, steals=%llu, ctrl_busy=%d):\n",
                 now() * 1e3, phase_idx_, dag_.phases().size(),
                 serial_core_, (unsigned long long)result_.mugs,
                 (unsigned long long)result_.steals, controller_busy_);
    for (size_t c = 0; c < cores_.size(); ++c) {
        const Core &core = cores_[c];
        const Worker &w = workers_[core.worker];
        std::fprintf(stderr,
                     "  core%zu %s worker=%d state=%d pending=%d "
                     "rem=%.0f v=%.2f stack=%zu dq=%zu resume=%.0f "
                     "peer=%d targeted=%d fails=%d\n",
                     c, clusterKindName(topo_.cluster(core.cluster).kind),
                     core.worker,
                     static_cast<int>(core.state),
                     static_cast<int>(core.pending), core.remaining,
                     core.v_now, w.stack.size(), w.dq.size(),
                     w.resume_instrs, core.mug_peer, core.mug_targeted,
                     core.failed_steals);
    }
    panic("event budget exhausted: livelock or runaway simulation");
}

void
Machine::boot()
{
    // Boot: worker 0 starts the program; everyone else hunts for work.
    for (size_t c = 0; c < cores_.size(); ++c) {
        updateEnergy(static_cast<int>(c));
        recordTrace(static_cast<int>(c));
    }
    recordCensus();
    // Establish the controller's boot decision: the hint bits power up
    // active, so a pacing controller may act before the first toggle.
    onHintsChanged();
    for (size_t c = 1; c < cores_.size(); ++c)
        enterStealLoop(static_cast<int>(c));
    startNextPhase(0);
}

void
Machine::dispatchEvent(int slot)
{
    if (slot >= num_cores_) {
        if (slot == controllerSlot())
            onControllerFree();
        else
            onTransitionDone(slot - num_cores_);
        return;
    }
    Core &core = cores_[slot];
    Pending p = core.pending;
    core.pending = Pending::none;
    core.remaining = 0.0;
    switch (p) {
      case Pending::work:
        switch (core.after_work) {
          case After::advance:
            advanceWorker(slot);
            break;
          case After::phase:
            phaseTransition(slot);
            break;
          case After::phase_serial_done:
            serial_core_ = -1;
            onHintsChanged();
            runPhaseRoot(slot);
            break;
        }
        break;
      case Pending::steal:
        onStealDone(slot);
        break;
      case Pending::steal_fetch:
        onStealFetchDone(slot);
        break;
      case Pending::mug_issue:
        onMugIssueDone(slot);
        break;
      case Pending::mug_save:
        onMugSaveDone(slot);
        break;
      case Pending::none:
        panic("event for core with no pending operation");
    }
}

SimResult
Machine::finalize()
{
    AAWS_ASSERT(finished_, "simulation ran out of events before the "
                           "program completed (deadlock)");
    double end = ticksToSeconds(finish_tick_);
    energy_.finish(end);
    regions_.finish(end);
    result_.exec_seconds = end;
    result_.energy = energy_.totalEnergy();
    result_.waiting_energy = energy_.waitingEnergy();
    result_.avg_power = energy_.averagePower();
    result_.regions = regions_.breakdown();
    occupancy_seconds_[census_idx_] +=
        ticksToSeconds(finish_tick_ - census_since_);
    result_.occupancy_seconds = std::move(occupancy_seconds_);
    result_.core_stats.resize(cores_.size());
    for (size_t c = 0; c < cores_.size(); ++c) {
        Core &core = cores_[c];
        double dt = ticksToSeconds(finish_tick_ - core.state_since);
        if (core.state == CoreState::stealing)
            core.waiting_seconds += dt;
        else if (core.state != CoreState::done)
            core.busy_seconds += dt;
        result_.core_stats[c].busy_seconds = core.busy_seconds;
        result_.core_stats[c].waiting_seconds = core.waiting_seconds;
        result_.core_stats[c].energy =
            energy_.coreEnergy(static_cast<int>(c)).total();
        result_.core_stats[c].instructions =
            static_cast<uint64_t>(std::max(0.0, core.instr_retired));
    }
    result_.trace.setEnd(finish_tick_);
    return std::move(result_);
}

SimResult
Machine::run()
{
    AAWS_ASSERT(!ran_, "Machine::run() called twice");
    ran_ = true;
    boot();
    while (!finished_ && (!events_.empty() || parked_ != 0)) {
        if (parked_ != 0) {
            // Parked thieves alone fail forever: only the budget ends it.
            if (events_.empty())
                exhaustBudget(std::numeric_limits<Tick>::max());
            skipParked(events_.topTick(), events_.topSeq());
        }
        Tick tick = events_.topTick();
        uint64_t seq = events_.topSeq();
        int slot = events_.topSlot();
        AAWS_ASSERT(tick >= now_, "time went backwards");
        now_ = tick;
        if (++result_.sim_events > config_.max_events)
            dumpStateAndPanic();
        // Dispatch in place: the event stays queued while its handler
        // runs (every key the handler schedules sorts after it), so a
        // handler that re-arms its own slot sifts once from the root.
        dispatchEvent(slot);
        events_.retire(slot, seq);
#ifdef AAWS_SANITIZER_BUILD
        checkRetired(slot, seq);
#endif
    }
    return finalize();
}

} // namespace aaws
