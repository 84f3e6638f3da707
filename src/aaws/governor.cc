#include "aaws/governor.h"

#include "common/logging.h"

namespace aaws {

PacingGovernor::PacingGovernor(const sched::PolicyConfig &policy,
                               const DvfsLookupTable &table,
                               const ModelParams &mp,
                               SchedulerHooks *next)
    : table_(table),
      rest_(policy.serial_sprinting, policy.work_pacing,
            policy.work_sprinting),
      next_(next), v_nom_(mp.v_nom), v_min_(mp.v_min), v_max_(mp.v_max),
      active_(static_cast<size_t>(table.topology().numCores()), true),
      census_(table.topology(), /*all_active=*/true),
      decisions_(static_cast<size_t>(table.topology().numCores()))
{
    AAWS_ASSERT(table.topology().numCores() >= 1,
                "governor needs at least one worker");
    std::lock_guard<std::mutex> lock(mutex_);
    redecide();
}

void
PacingGovernor::onWorkerActive(int worker)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!active_[worker]) {
            active_[worker] = true;
            census_.note(table_.topology().clusterOf(worker), true);
            redecide();
        }
    }
    if (next_)
        next_->onWorkerActive(worker);
}

void
PacingGovernor::onWorkerWaiting(int worker)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (active_[worker]) {
            active_[worker] = false;
            census_.note(table_.topology().clusterOf(worker), false);
            redecide();
        }
    }
    if (next_)
        next_->onWorkerWaiting(worker);
}

void
PacingGovernor::onStealAttempt(int thief, int victim)
{
    if (next_)
        next_->onStealAttempt(thief, victim);
}

void
PacingGovernor::onSpawn(int worker)
{
    if (next_)
        next_->onSpawn(worker);
}

void
PacingGovernor::onStealSuccess(int thief, int victim)
{
    if (next_)
        next_->onStealSuccess(thief, victim);
}

void
PacingGovernor::onMug(int mugger, int muggee)
{
    if (next_)
        next_->onMug(mugger, muggee);
}

void
PacingGovernor::onRest(int worker)
{
    if (next_)
        next_->onRest(worker);
}

void
PacingGovernor::redecide()
{
    // The native pool has no serial-region hint, so the serial-sprint
    // leg of the rest policy never fires here.
    const bool all_active = census_.allActive();
    const DvfsTableEntry *entry = nullptr;
    rounds_++;
    for (size_t i = 0; i < decisions_.size(); ++i) {
        sched::VoltageIntent intent =
            rest_.intentFor(active_[i], /*is_serial_core=*/false,
                            /*serial_hinted=*/false, all_active);
        GovernorDecision &d = decisions_[i];
        d.intent = intent;
        switch (intent) {
          case sched::VoltageIntent::nominal:
            d.voltage = v_nom_;
            break;
          case sched::VoltageIntent::rest:
            d.voltage = v_min_;
            rest_intents_++;
            break;
          case sched::VoltageIntent::sprint_max:
            d.voltage = v_max_;
            break;
          case sched::VoltageIntent::sprint_table:
            if (!entry)
                entry = &table_.atCounts(census_.counts());
            d.voltage =
                entry->v[table_.topology().clusterOf(static_cast<int>(i))];
            sprint_intents_++;
            break;
        }
    }
}

GovernorDecision
PacingGovernor::decision(int worker) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return decisions_[worker];
}

std::vector<GovernorDecision>
PacingGovernor::decisions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return decisions_;
}

uint64_t
PacingGovernor::decisionRounds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rounds_;
}

int
PacingGovernor::activeWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return census_.active();
}

uint64_t
PacingGovernor::restIntents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rest_intents_;
}

uint64_t
PacingGovernor::sprintIntents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sprint_intents_;
}

} // namespace aaws
