/**
 * @file
 * Unit tests of the shared scheduler-policy layer (src/sched/) and of
 * the native WorkerPool running the same policy components the
 * simulator does.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aaws/variant.h"
#include "runtime/parallel_for.h"
#include "runtime/task_group.h"
#include "runtime/worker_pool.h"
#include "sched/census.h"
#include "sched/mug.h"
#include "sched/policy_stack.h"
#include "sched/rest_policy.h"
#include "sched/steal_gate.h"
#include "sched/victim.h"
#include "sched/view.h"

namespace aaws {
namespace {

/**
 * Hand-settable SchedView for driving the policy components.  Models a
 * two-cluster machine: the first `n_big` workers are cluster 0 (big),
 * the rest cluster 1 (little).
 */
class FakeView : public sched::SchedView
{
  public:
    explicit FakeView(int workers, int n_big = 0)
        : occ_(workers, 0), clusters_(workers, 1),
          acts_(workers, sched::CoreActivity::running),
          engaged_(workers, 0), n_big_(n_big)
    {
        for (int i = 0; i < n_big && i < workers; ++i)
            clusters_[i] = 0;
    }

    int numWorkers() const override
    {
        return static_cast<int>(occ_.size());
    }
    int64_t dequeSize(int worker) const override { return occ_[worker]; }
    sched::CoreActivity activity(int core) const override
    {
        return acts_[core];
    }
    int numClusters() const override { return 2; }
    int clusterOf(int core) const override { return clusters_[core]; }
    int clusterSize(int cluster) const override
    {
        return cluster == 0 ? n_big_ : numWorkers() - n_big_;
    }
    int clusterActive(int cluster) const override
    {
        return cluster == 0 ? big_active_ : little_active_;
    }
    bool mugEngaged(int core) const override
    {
        return engaged_[core] != 0;
    }

    std::vector<int64_t> occ_;
    std::vector<int> clusters_;
    std::vector<sched::CoreActivity> acts_;
    std::vector<char> engaged_;
    int n_big_ = 0;
    int big_active_ = 0;
    int little_active_ = 0;
};

// --- victim selection -------------------------------------------------------

TEST(OccupancyVictim, PicksTheStrictlyRichestDeque)
{
    FakeView view(4);
    view.occ_ = {5, 2, 9, 1};
    sched::VictimSelector sel(sched::VictimPolicy::occupancy);
    EXPECT_EQ(sel.pick(view, 0), 2);
    EXPECT_EQ(sel.pick(view, 2), 0); // thief excluded
}

TEST(OccupancyVictim, ReturnsMinusOneWhenEveryDequeIsEmpty)
{
    FakeView view(4);
    sched::VictimSelector sel(sched::VictimPolicy::occupancy);
    EXPECT_EQ(sel.pick(view, 1), -1);
}

TEST(OccupancyVictim, TiesBreakToTheLowestWorkerId)
{
    FakeView view(4);
    view.occ_ = {0, 3, 3, 3};
    sched::VictimSelector sel(sched::VictimPolicy::occupancy);
    // Strict-greater comparison keeps the first maximum seen.
    EXPECT_EQ(sel.pick(view, 0), 1);
}

TEST(OccupancyVictim, SingleWorkerHasNoVictim)
{
    FakeView view(1);
    view.occ_ = {7};
    sched::VictimSelector sel(sched::VictimPolicy::occupancy);
    EXPECT_EQ(sel.pick(view, 0), -1);
}

TEST(RandomVictim, OnlyPicksNonEmptyDequesAndNeverTheThief)
{
    FakeView view(6);
    view.occ_ = {4, 0, 1, 0, 9, 0};
    sched::VictimSelector sel(sched::VictimPolicy::random, 12345);
    for (int i = 0; i < 500; ++i) {
        int v = sel.pick(view, 0);
        ASSERT_TRUE(v == 2 || v == 4) << "picked " << v;
    }
}

TEST(RandomVictim, SameSeedSameSequence)
{
    FakeView view(8);
    view.occ_ = {1, 2, 3, 4, 5, 6, 7, 8};
    sched::VictimSelector a(sched::VictimPolicy::random, 99);
    sched::VictimSelector b(sched::VictimPolicy::random, 99);
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(a.pick(view, 3), b.pick(view, 3));
}

TEST(RandomVictim, EmptyMachineDoesNotAdvanceTheStream)
{
    // The simulator's bit-identical replay depends on failed picks not
    // consuming random numbers: a selector that saw empty machines must
    // continue exactly like a fresh one.
    FakeView empty(4);
    FakeView full(4);
    full.occ_ = {3, 1, 4, 1};
    sched::VictimSelector fresh(sched::VictimPolicy::random, 7);
    sched::VictimSelector perturbed(sched::VictimPolicy::random, 7);
    for (int i = 0; i < 50; ++i)
        ASSERT_EQ(perturbed.pick(empty, 0), -1);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(perturbed.pick(full, 0), fresh.pick(full, 0));
}

TEST(RandomVictim, SeededDistributionIsRoughlyUniform)
{
    FakeView view(4);
    view.occ_ = {0, 5, 5, 5};
    sched::VictimSelector sel(sched::VictimPolicy::random,
                              sched::VictimSelector::kDefaultSeed);
    int counts[4] = {0, 0, 0, 0};
    const int draws = 3000;
    for (int i = 0; i < draws; ++i)
        counts[sel.pick(view, 0)]++;
    EXPECT_EQ(counts[0], 0);
    // Each of the three candidates should get roughly draws/3; a 20%
    // tolerance is ~9 sigma for a binomial(3000, 1/3) — deterministic
    // in practice for a fixed seed, generous across seed changes.
    for (int w = 1; w <= 3; ++w) {
        EXPECT_GT(counts[w], draws / 3 - 200) << "worker " << w;
        EXPECT_LT(counts[w], draws / 3 + 200) << "worker " << w;
    }
}

TEST(RandomVictim, DifferentSeedsDiverge)
{
    FakeView view(8);
    view.occ_ = {1, 1, 1, 1, 1, 1, 1, 1};
    sched::VictimSelector a(sched::VictimPolicy::random, 1);
    sched::VictimSelector b(sched::VictimPolicy::random, 2);
    int differences = 0;
    for (int i = 0; i < 100; ++i)
        differences += a.pick(view, 0) != b.pick(view, 0) ? 1 : 0;
    EXPECT_GT(differences, 0);
}

TEST(RandomVictim, PicksAmongMoreThanSixtyFourWorkers)
{
    // The pick needs no per-worker buffer, so a pool of any size may
    // select victims at random.
    FakeView view(100);
    view.occ_[3] = 4;
    view.occ_[70] = 2;
    view.occ_[99] = 1;
    sched::VictimSelector sel(sched::VictimPolicy::random, 5);
    bool seen[100] = {};
    for (int i = 0; i < 300; ++i) {
        int v = sel.pick(view, 0);
        ASSERT_TRUE(v == 3 || v == 70 || v == 99) << "picked " << v;
        seen[v] = true;
    }
    EXPECT_TRUE(seen[3] && seen[70] && seen[99]);
    for (int i = 0; i < 100; ++i) {
        int v = sel.pick(view, 3); // the thief's own deque is excluded
        ASSERT_TRUE(v == 70 || v == 99) << "picked " << v;
    }
}

/**
 * The buffered random pick the selector used before it counted and
 * walked instead, kept as the reference: on an exact view both must
 * draw and pick alike.
 */
class BufferedRandomReference
{
  public:
    explicit BufferedRandomReference(uint64_t seed) : rng_(seed) {}

    int
    pick(const sched::SchedView &view, int thief)
    {
        int candidates[64];
        int n = 0;
        const int workers = view.numWorkers();
        for (int w = 0; w < workers; ++w) {
            if (w != thief && view.dequeSize(w) > 0)
                candidates[n++] = w;
        }
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

TEST(RandomVictim, MatchesTheBufferedAlgorithmDrawForDraw)
{
    // One selector pair across every view, so each pick also checks the
    // stream position the earlier picks (and non-picks) left behind.
    sched::VictimSelector sel(sched::VictimPolicy::random,
                              sched::VictimSelector::kDefaultSeed);
    BufferedRandomReference ref(sched::VictimSelector::kDefaultSeed);
    std::mt19937_64 gen(0xA5A5);
    int picks = 0;
    for (int round = 0; round < 5000; ++round) {
        const int workers = 1 + static_cast<int>(gen() % 64);
        FakeView view(workers);
        // A third of the rounds are sparse: about one deque in eight
        // holds work, so many picks find one candidate or none.
        const uint64_t full_one_in = round % 3 == 0 ? 8 : 2;
        for (int64_t &occ : view.occ_) {
            occ = gen() % full_one_in == 0
                      ? static_cast<int64_t>(1 + gen() % 5)
                      : 0;
        }
        const int thief = static_cast<int>(gen() % (workers + 1)) - 1;
        const int want = ref.pick(view, thief);
        ASSERT_EQ(sel.pick(view, thief), want)
            << "round " << round << ", " << workers << " workers";
        picks += want >= 0;
    }
    EXPECT_GT(picks, 2500); // most rounds drew
}

// --- steal gate -------------------------------------------------------------

TEST(StealGate, DisabledGateAllowsEveryone)
{
    FakeView view(4, 2);
    view.big_active_ = 0;
    sched::StealGate gate(false);
    for (int c = 0; c < 4; ++c)
        EXPECT_TRUE(gate.allowSteal(view, c));
}

TEST(StealGate, BigThievesAreNeverGated)
{
    FakeView view(4, 2);
    view.big_active_ = 0;
    sched::StealGate gate(true);
    EXPECT_TRUE(gate.allowSteal(view, 0));
    EXPECT_TRUE(gate.allowSteal(view, 1));
}

TEST(StealGate, LittleThievesStealOnlyWhenAllBigsAreBusy)
{
    FakeView view(4, 2);
    sched::StealGate gate(true);
    view.big_active_ = 1;
    EXPECT_FALSE(gate.allowSteal(view, 2));
    view.big_active_ = 2;
    EXPECT_TRUE(gate.allowSteal(view, 3));
}

// --- rest policy ------------------------------------------------------------

TEST(RestPolicy, SerialSprintingSprintsTheSerialCoreToMax)
{
    sched::RestPolicy rest(true, false, false);
    EXPECT_EQ(rest.intentFor(true, true, true, false),
              sched::VoltageIntent::sprint_max);
    // Other cores idle at nominal unless work-sprinting rests them.
    EXPECT_EQ(rest.intentFor(false, false, true, false),
              sched::VoltageIntent::nominal);
    sched::RestPolicy rest_ws(true, false, true);
    EXPECT_EQ(rest_ws.intentFor(false, false, true, false),
              sched::VoltageIntent::rest);
}

TEST(RestPolicy, WorkPacingPacesOnlyTheFullyActiveMachine)
{
    sched::RestPolicy pacing(true, true, false);
    EXPECT_EQ(pacing.intentFor(true, false, false, true),
              sched::VoltageIntent::sprint_table);
    // Not all active and no sprinting: everything nominal.
    EXPECT_EQ(pacing.intentFor(true, false, false, false),
              sched::VoltageIntent::nominal);
    EXPECT_EQ(pacing.intentFor(false, false, false, false),
              sched::VoltageIntent::nominal);
}

TEST(RestPolicy, WorkSprintingRestsWaitersAndSprintsActives)
{
    sched::RestPolicy sprinting(true, true, true);
    EXPECT_EQ(sprinting.intentFor(false, false, false, false),
              sched::VoltageIntent::rest);
    EXPECT_EQ(sprinting.intentFor(true, false, false, false),
              sched::VoltageIntent::sprint_table);
}

TEST(RestPolicy, AllTechniquesOffIsAlwaysNominal)
{
    sched::RestPolicy off(false, false, false);
    for (bool active : {false, true})
        for (bool all : {false, true})
            EXPECT_EQ(off.intentFor(active, false, false, all),
                      sched::VoltageIntent::nominal);
    // Even the serial core stays nominal without serial-sprinting.
    EXPECT_EQ(off.intentFor(true, true, true, false),
              sched::VoltageIntent::nominal);
}

// --- mug trigger ------------------------------------------------------------

TEST(MugTrigger, OnlyStarvedBigCoresWantToMug)
{
    FakeView view(4, 2); // cores 0,1 big (cluster 0), 2,3 little
    sched::MugTrigger mug(true);
    EXPECT_FALSE(mug.wantsMug(view, 0, 1));
    EXPECT_TRUE(mug.wantsMug(view, 0, 2));
    EXPECT_TRUE(mug.wantsMug(view, 1, 7));
    // The slowest cluster has nobody to mug.
    EXPECT_FALSE(mug.wantsMug(view, 2, 5));
    sched::MugTrigger off(false);
    EXPECT_FALSE(off.wantsMug(view, 0, 5));
}

TEST(MugTrigger, PicksTheMostLoadedRunningLittle)
{
    FakeView view(4, 1);
    view.occ_ = {0, 2, 7, 3};
    sched::MugTrigger mug(true);
    EXPECT_EQ(mug.pickMuggee(view, 0), 2);
    // An engaged core is skipped even if richest.
    view.engaged_[2] = 1;
    EXPECT_EQ(mug.pickMuggee(view, 0), 3);
    // A non-running little is not muggable.
    view.acts_[3] = sched::CoreActivity::stealing;
    EXPECT_EQ(mug.pickMuggee(view, 0), 1);
}

TEST(MugTrigger, RunningLittleWithEmptyDequeIsStillMuggable)
{
    // The mug migrates the executing context, not just queued tasks.
    FakeView view(3, 1);
    view.occ_ = {0, 0, 0};
    sched::MugTrigger mug(true);
    EXPECT_EQ(mug.pickMuggee(view, 0), 1); // tie breaks to the lowest id
}

TEST(MugTrigger, NoMuggeeWhenNoLittleQualifies)
{
    FakeView view(3, 1);
    view.acts_[1] = sched::CoreActivity::stealing;
    view.acts_[2] = sched::CoreActivity::done;
    sched::MugTrigger mug(true);
    EXPECT_EQ(mug.pickMuggee(view, 0), -1);
}

TEST(MugTrigger, PhaseMuggeeIsTheFirstIdleBigCore)
{
    FakeView view(4, 2);
    view.acts_[0] = sched::CoreActivity::running;
    view.acts_[1] = sched::CoreActivity::stealing;
    sched::MugTrigger mug(true);
    EXPECT_EQ(mug.pickPhaseMuggee(view, 1), 1);
    view.engaged_[1] = 1;
    EXPECT_EQ(mug.pickPhaseMuggee(view, 1), -1);
}

// --- activity census --------------------------------------------------------

TEST(ActivityCensus, IncrementalMatchesRecountUnderRandomTransitions)
{
    const CoreTopology topo = makeTopology("3b5l", ModelParams{});
    const std::vector<int> &cluster_of = topo.coreClusters();
    std::vector<bool> active(cluster_of.size(), false);
    sched::ActivityCensus incremental(topo);
    sched::ActivityCensus recounted(topo);
    std::mt19937 rng(42);
    for (int step = 0; step < 2000; ++step) {
        int c = static_cast<int>(rng() % cluster_of.size());
        active[c] = !active[c];
        incremental.note(cluster_of[c], active[c]);
        recounted.recount(active, cluster_of);
        ASSERT_EQ(incremental.clusterActive(0), recounted.clusterActive(0));
        ASSERT_EQ(incremental.clusterActive(1), recounted.clusterActive(1));
        ASSERT_EQ(incremental.allFasterActive(1),
                  recounted.allFasterActive(1));
        ASSERT_EQ(incremental.allActive(), recounted.allActive());
    }
}

TEST(ActivityCensus, BootsAllActiveWhenAsked)
{
    sched::ActivityCensus census(makeTopology("2b6l", ModelParams{}),
                                 /*all_active=*/true);
    EXPECT_TRUE(census.allActive());
    EXPECT_EQ(census.active(), 8);
    census.note(/*cluster=*/0, false);
    EXPECT_FALSE(census.allFasterActive(1));
    EXPECT_EQ(census.active(), 7);
}

// --- assembly ---------------------------------------------------------------

TEST(VariantPolicy, EveryVariantAssemblesItsDocumentedStack)
{
    for (Variant v : allVariants()) {
        sched::PolicyConfig sp = policyConfigFor(v);
        // Every variant keeps the aggressive baseline.
        EXPECT_TRUE(sp.serial_sprinting) << variantName(v);
        EXPECT_TRUE(sp.work_biasing) << variantName(v);
        EXPECT_EQ(sp.victim, sched::VictimPolicy::occupancy)
            << variantName(v);
    }
    EXPECT_FALSE(policyConfigFor(Variant::base).work_pacing);
    EXPECT_FALSE(policyConfigFor(Variant::base).work_mugging);
    EXPECT_TRUE(policyConfigFor(Variant::base_p).work_pacing);
    EXPECT_FALSE(policyConfigFor(Variant::base_p).work_sprinting);
    EXPECT_TRUE(policyConfigFor(Variant::base_ps).work_sprinting);
    EXPECT_FALSE(policyConfigFor(Variant::base_ps).work_mugging);
    EXPECT_TRUE(policyConfigFor(Variant::base_psm).work_mugging);
    EXPECT_TRUE(policyConfigFor(Variant::base_psm).work_pacing);
    EXPECT_TRUE(policyConfigFor(Variant::base_m).work_mugging);
    EXPECT_FALSE(policyConfigFor(Variant::base_m).work_pacing);
    EXPECT_FALSE(policyConfigFor(Variant::base_m).work_sprinting);
}

// --- native pool on the shared policy stack ---------------------------------

/** Sum 0..n-1 through the pool; checks the run executed every index. */
int64_t
checksumRun(WorkerPool &pool, int64_t n)
{
    std::atomic<int64_t> sum{0};
    parallelFor(pool, 0, n, 64, [&](int64_t lo, int64_t hi) {
        int64_t local = 0;
        for (int64_t i = lo; i < hi; ++i)
            local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
    });
    return sum.load();
}

TEST(PoolPolicy, VariantStacksSwitchAtRuntime)
{
    // The same native pool class runs every AAWS variant's policy
    // assembly: construct one pool per variant and verify execution.
    const int64_t n = 1 << 15;
    const int64_t expect = n * (n - 1) / 2;
    for (Variant v : allVariants()) {
        PoolOptions options;
        options.policy = policyConfigFor(v);
        options.n_big = 2;
        WorkerPool pool(4, options);
        EXPECT_EQ(checksumRun(pool, n), expect) << variantName(v);
        EXPECT_EQ(pool.policyConfig().work_mugging,
                  policyConfigFor(v).work_mugging)
            << variantName(v);
    }
}

TEST(PoolPolicy, RandomVictimPoolExecutesCorrectly)
{
    PoolOptions options;
    options.policy.victim = sched::VictimPolicy::random;
    WorkerPool pool(4, options);
    const int64_t n = 1 << 15;
    EXPECT_EQ(checksumRun(pool, n), n * (n - 1) / 2);
}

/** Counts the steals committed by foreign threads (thief -1). */
class ForeignStealCounter : public SchedulerHooks
{
  public:
    void
    onStealSuccess(int thief, int victim) override
    {
        (void)victim;
        if (thief < 0)
            steals.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<uint64_t> steals{0};
};

TEST(PoolPolicy, ForeignWaiterStealsAndEveryTaskRunsOnce)
{
    // A thread outside the pool waits on a TaskGroup.  Pool workers run
    // the fan tasks it spawned, and each fan's nested spawns land on
    // that worker's deque, which the foreign waiter raids: the foreign
    // steal path, which takes the richest deque under either victim
    // policy.
    static constexpr int kFans = 3;
    static constexpr int kLeaves = 16;
    static constexpr int kTasks = kFans * (1 + kLeaves);
    for (sched::VictimPolicy victim :
         {sched::VictimPolicy::occupancy, sched::VictimPolicy::random}) {
        SCOPED_TRACE(victim == sched::VictimPolicy::random ? "random"
                                                            : "occupancy");
        ForeignStealCounter counter;
        PoolOptions options;
        options.policy.victim = victim;
        options.hooks = &counter;
        WorkerPool pool(4, options);
        // A round where this thread ran the fans itself has nothing to
        // steal; retry until a steal lands (nearly always at once).
        for (int round = 0; round < 50 && counter.steals.load() == 0;
             ++round) {
            std::vector<std::atomic<int>> runs(kTasks);
            std::thread foreign([&] {
                TaskGroup group(pool);
                for (int f = 0; f < kFans; ++f) {
                    const int fan = f * (1 + kLeaves);
                    group.run([&group, &runs, fan] {
                        runs[fan].fetch_add(1);
                        for (int leaf = fan + 1; leaf <= fan + kLeaves;
                             ++leaf) {
                            group.run([&runs, leaf] {
                                std::this_thread::sleep_for(
                                    std::chrono::microseconds(100));
                                runs[leaf].fetch_add(1);
                            });
                        }
                    });
                }
                // Give the workers time to take the fans first.
                std::this_thread::sleep_for(std::chrono::microseconds(500));
                group.wait();
            });
            foreign.join();
            for (int id = 0; id < kTasks; ++id)
                ASSERT_EQ(runs[id].load(), 1) << "task " << id;
        }
        EXPECT_GT(counter.steals.load(), 0u);
    }
}

TEST(PoolPolicy, DefaultOptionsPreserveLegacyBehavior)
{
    PoolOptions options;
    EXPECT_EQ(options.n_big, 0);
    EXPECT_FALSE(options.policy.work_mugging);
    // n_big = 0 makes the biasing gate vacuous: everyone may steal.
    WorkerPool pool(3, options);
    EXPECT_EQ(pool.mugAttempts(), 0u);
    const int64_t n = 1 << 14;
    EXPECT_EQ(checksumRun(pool, n), n * (n - 1) / 2);
    EXPECT_EQ(pool.mugAttempts(), 0u); // mugging off: never triggered
}

TEST(PoolPolicy, StarvedBigWorkerAttemptsMugs)
{
    // base+m: the big master spawns slow tasks that the littles steal
    // and sit on; once its own deque drains, the master's repeated
    // failed steals must escalate to mug-targeted attempts.
    PoolOptions options;
    options.policy = policyConfigFor(Variant::base_m);
    options.n_big = 1;
    ActivityMonitor monitor(4);
    options.hooks = &monitor;
    WorkerPool pool(4, options);

    uint64_t attempts = 0;
    for (int round = 0; round < 50 && attempts == 0; ++round) {
        TaskGroup group(pool);
        // Durations descend in spawn order: thieves steal FIFO from
        // the head (the longest naps), the master pops LIFO from the
        // tail (the shortest), so the master runs dry while littles
        // still nap on stolen work and its failed steals must
        // escalate to a mug-targeted attempt.
        for (int ms : {12, 8, 4}) {
            group.run([ms] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(ms));
            });
        }
        group.run([] {});
        group.wait();
        attempts = pool.mugAttempts();
    }
    EXPECT_GT(attempts, 0u);
    EXPECT_LE(pool.mugs(), pool.steals());
    EXPECT_EQ(monitor.mugs(), pool.mugs());
}

TEST(PoolHooks, StealSuccessesMatchThePoolCounter)
{
    ActivityMonitor monitor(4);
    WorkerPool pool(4, &monitor);
    const int64_t n = 1 << 15;
    EXPECT_EQ(checksumRun(pool, n), n * (n - 1) / 2);
    EXPECT_EQ(monitor.stealSuccesses(), pool.steals());
}

} // namespace
} // namespace aaws
