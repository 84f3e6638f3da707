/**
 * @file
 * Simulator tests against hand-built task graphs with analytically known
 * outcomes: exact serial timing and energy, fork/join scheduling, steal
 * and mug behaviour, DVFS effects of each technique, determinism, and
 * accounting invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "aaws/experiment.h"
#include "aaws/variant.h"
#include "common/ring_deque.h"
#include "exp/run_spec.h"
#include "sim/machine.h"
#include "sim/stats_writer.h"

#include "common/logging.h"

namespace aaws {
namespace {

/** Machine config with every AAWS/baseline technique disabled. */
MachineConfig
plainConfig(const std::string &topology = "4b4l")
{
    MachineConfig config;
    config.topology = topology;
    config.policy.work_pacing = false;
    config.policy.work_sprinting = false;
    config.policy.serial_sprinting = false;
    config.policy.work_biasing = false;
    config.policy.work_mugging = false;
    return config;
}

/** One phase of pure serial work. */
TaskDag
serialDag(uint64_t work)
{
    TaskDag dag;
    dag.addPhase(work, -1);
    return dag;
}

/** Root spawns `n` children of `work` instructions each, then joins. */
TaskDag
forkJoinDag(int n, uint64_t work, uint64_t root_work = 0)
{
    TaskDag dag;
    uint32_t root = dag.addTask();
    for (int i = 0; i < n; ++i) {
        uint32_t child = dag.addTask();
        dag.addWork(child, work);
        dag.addSpawn(root, child);
    }
    dag.addWork(root, root_work);
    dag.addSync(root);
    dag.addPhase(0, static_cast<int32_t>(root));
    return dag;
}

double
bigIps(const MachineConfig &config)
{
    FirstOrderModel model(config.app_params);
    return model.ips(clusterParamsFor('b', config.app_params),
                     config.app_params.v_nom);
}

TEST(SimMachine, DvfsTableIsSharedPerShapeAndDesignerParameters)
{
    TaskDag dag = serialDag(1000);
    auto table = [&dag](const MachineConfig &config) {
        return &Machine(config, dag).dvfsTable();
    };
    const MachineConfig base = plainConfig();
    const DvfsLookupTable *shared = table(base);
    EXPECT_EQ(table(base), shared);
    // The table is the designer's: the parameters a machine executes
    // under and its policy do not key it.
    MachineConfig executing = base;
    executing.app_params.alpha = 2.5;
    executing.policy.work_pacing = true;
    EXPECT_EQ(table(executing), shared);
    // Every part of the shape does: kinds, counts and domains.
    for (const char *topology : {"4b4l:pc", "2b6l", "2b2m4l", "8l"}) {
        MachineConfig other = base;
        other.topology = topology;
        const DvfsLookupTable *own = table(other);
        EXPECT_NE(own, shared) << topology;
        EXPECT_EQ(table(other), own) << topology;
        EXPECT_EQ(own->topology().name(), topology);
    }
    // So do the designer's parameters.
    MachineConfig designer = base;
    designer.table_params.lambda = 0.2;
    EXPECT_NE(table(designer), shared);
    designer = base;
    designer.table_params.beta = 2.5;
    EXPECT_NE(table(designer), shared);
}

TEST(SimSerial, ExactTimeAtNominal)
{
    MachineConfig config = plainConfig();
    TaskDag dag = serialDag(1'000'000);
    SimResult result = Machine(config, dag).run();
    double expected = 1e6 / bigIps(config); // runs on big core 0
    EXPECT_NEAR(result.exec_seconds, expected, 1e-9 + expected * 1e-9);
    EXPECT_EQ(result.instructions, 1'000'000u);
    EXPECT_EQ(result.tasks_executed, 0u);
    EXPECT_EQ(result.mugs, 0u);
}

TEST(SimSerial, ExactEnergyAtNominal)
{
    MachineConfig config = plainConfig();
    TaskDag dag = serialDag(1'000'000);
    SimResult result = Machine(config, dag).run();
    FirstOrderModel model(config.app_params);
    ClusterParams big = clusterParamsFor('b', config.app_params);
    ClusterParams little = clusterParamsFor('l', config.app_params);
    double t = result.exec_seconds;
    double expected =
        t * model.activePower(big, 1.0) +        // core 0
        t * 3.0 * model.waitingPower(big, 1.0) + // idle bigs
        t * 4.0 * model.waitingPower(little, 1.0);
    EXPECT_NEAR(result.energy, expected, expected * 1e-6);
    EXPECT_NEAR(result.avg_power, expected / t, expected / t * 1e-6);
}

TEST(SimSerial, RegionIsNotSerialWithoutHint)
{
    // Without the serial-region hint machinery the phase still counts
    // as "serial" in the region tracker only via the serial flag, which
    // startNextPhase always raises; check it is charged as serial.
    MachineConfig config = plainConfig();
    TaskDag dag = serialDag(500'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_NEAR(result.regions.serial, result.exec_seconds,
                result.exec_seconds * 1e-9);
}

TEST(SimSerial, SerialSprintingShortensSerialRegions)
{
    MachineConfig fast = plainConfig();
    fast.policy.serial_sprinting = true;
    TaskDag dag = serialDag(2'000'000);
    SimResult sprinted = Machine(fast, dag).run();
    SimResult nominal = Machine(plainConfig(), dag).run();
    // f(1.3)/f(1.0) = 1.665: most of the region runs at V_max.
    EXPECT_LT(sprinted.exec_seconds, nominal.exec_seconds / 1.5);
    EXPECT_GT(sprinted.transitions, 0u);
}

TEST(SimForkJoin, AllCoresParticipate)
{
    MachineConfig config = plainConfig();
    TaskDag dag = forkJoinDag(8, 3'000'000, 3'000'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.tasks_executed, 9u); // 8 children + root
    EXPECT_GE(result.steals, 7u);         // everyone else stole one
    // 9 x 3M instructions over 4 big (2 IPC) + 4 little (1 IPC) cores:
    // lower bound = balanced, upper bound = littles lag.
    double t1 = 27e6 / bigIps(config);
    EXPECT_GT(result.exec_seconds, t1 / 9.0);
    EXPECT_LT(result.exec_seconds, t1 / 2.0);
}

TEST(SimForkJoin, InstructionsIncludeOverheads)
{
    MachineConfig config = plainConfig();
    TaskDag dag = forkJoinDag(8, 100'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_GE(result.instructions, 800'000u);
    EXPECT_LT(result.instructions, 810'000u); // bounded runtime overhead
}

TEST(SimForkJoin, RegionsSumToExecTime)
{
    MachineConfig config = plainConfig();
    TaskDag dag = forkJoinDag(5, 2'000'000, 1'000'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_NEAR(result.regions.total(), result.exec_seconds,
                result.exec_seconds * 1e-9);
}

TEST(SimForkJoin, Deterministic)
{
    MachineConfig config;
    config.policy = policyConfigFor(Variant::base_psm);
    TaskDag dag = forkJoinDag(16, 500'000, 200'000);
    SimResult a = Machine(config, dag).run();
    SimResult b = Machine(config, dag).run();
    EXPECT_EQ(a.exec_seconds, b.exec_seconds);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_EQ(a.mugs, b.mugs);
}

TEST(SimForkJoin, BigCoresFinishFirstCreatingLpRegion)
{
    // Equal-size tasks on an asymmetric machine leave littles lagging:
    // there must be LP time, and with 4 bigs idle vs 4 littles active
    // it lands in the BI>=LA bucket.
    MachineConfig config = plainConfig();
    TaskDag dag = forkJoinDag(8, 5'000'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_GT(result.regions.lp_bi_ge_la + result.regions.lp_bi_lt_la +
                  result.regions.lp_other,
              0.2 * result.exec_seconds);
}

TEST(SimMug, MuggingMovesLaggingWorkToBigCores)
{
    MachineConfig base = plainConfig();
    TaskDag dag = forkJoinDag(7, 10'000'000, 10'000'000);
    SimResult no_mug = Machine(base, dag).run();

    MachineConfig mug = plainConfig();
    mug.policy.work_mugging = true;
    SimResult with_mug = Machine(mug, dag).run();

    EXPECT_GE(with_mug.mugs, 3u);
    EXPECT_LT(with_mug.exec_seconds, no_mug.exec_seconds * 0.9);
    // Mugging exhausts every opportunity: no BI>=LA or BI<LA time left
    // beyond scheduling epsilon.
    double mug_eligible =
        with_mug.regions.lp_bi_ge_la + with_mug.regions.lp_bi_lt_la;
    EXPECT_LT(mug_eligible, 0.02 * with_mug.exec_seconds);
}

TEST(SimMug, MugCountsAndInstructionsStayConsistent)
{
    MachineConfig mug = plainConfig();
    mug.policy.work_mugging = true;
    TaskDag dag = forkJoinDag(7, 10'000'000, 10'000'000);
    SimResult result = Machine(mug, dag).run();
    // All task work plus bounded overhead (swap code + cache penalty
    // per mug).
    uint64_t task_work = 8u * 10'000'000u;
    EXPECT_GE(result.instructions, task_work);
    EXPECT_LT(result.instructions,
              task_work + result.mugs * 5000u + 10'000u);
}

TEST(SimMug, HighInterruptLatencyBarelyMatters)
{
    // Paper: sweeping mug interrupt latency to 1000 cycles changed
    // performance by < 1%.
    TaskDag dag = forkJoinDag(7, 10'000'000, 10'000'000);
    MachineConfig fast = plainConfig();
    fast.policy.work_mugging = true;
    MachineConfig slow = fast;
    slow.costs.mug_interrupt_cycles = 1000;
    SimResult a = Machine(fast, dag).run();
    SimResult b = Machine(slow, dag).run();
    EXPECT_NEAR(b.exec_seconds / a.exec_seconds, 1.0, 0.01);
}

TEST(SimPacing, AllActivePacingMatchesFirstOrderPrediction)
{
    // Long uniform HP region: pacing should land close to the model's
    // feasible 1.10x (tasks are finite, so allow slack).
    MachineConfig base = plainConfig();
    TaskDag dag = forkJoinDag(64, 2'000'000);
    SimResult plain = Machine(base, dag).run();

    MachineConfig paced = plainConfig();
    paced.policy.work_pacing = true;
    SimResult fast = Machine(paced, dag).run();
    double speedup = plain.exec_seconds / fast.exec_seconds;
    EXPECT_GT(speedup, 1.02);
    EXPECT_LT(speedup, 1.25);
    EXPECT_GT(fast.transitions, 0u);
}

TEST(SimSprinting, LpTailShrinks)
{
    // One giant straggler task: sprinting rests waiters and boosts the
    // stragglers.
    TaskDag dag;
    uint32_t root = dag.addTask();
    uint32_t big_child = dag.addTask();
    dag.addWork(big_child, 20'000'000);
    dag.addSpawn(root, big_child);
    for (int i = 0; i < 6; ++i) {
        uint32_t child = dag.addTask();
        dag.addWork(child, 1'000'000);
        dag.addSpawn(root, child);
    }
    dag.addWork(root, 1'000'000);
    dag.addSync(root);
    dag.addPhase(0, static_cast<int32_t>(root));

    SimResult plain = Machine(plainConfig(), dag).run();
    MachineConfig sprint = plainConfig();
    sprint.policy.work_sprinting = true;
    SimResult fast = Machine(sprint, dag).run();
    EXPECT_LT(fast.exec_seconds, plain.exec_seconds * 0.97);
    // Resting waiters must cut busy-waiting energy.
    EXPECT_LT(fast.waiting_energy, plain.waiting_energy * 0.6);
}

TEST(SimBiasing, LittleCoresHoldBackWhenBigIdle)
{
    // With biasing, little cores may not steal while a big is idle; for
    // a two-task DAG the steals must land on big cores.
    TaskDag dag = forkJoinDag(2, 4'000'000);
    MachineConfig biased = plainConfig();
    biased.policy.work_biasing = true;
    SimResult result = Machine(biased, dag).run();
    // 2 children + root work on bigs only: time = children serialized
    // across two big cores => all LP work, no little participation.
    EXPECT_EQ(result.tasks_executed, 3u);
    EXPECT_GT(result.regions.lp_other, 0.5 * result.exec_seconds);
}

TEST(SimTrace, RecordsAndRenders)
{
    MachineConfig config = plainConfig();
    config.collect_trace = true;
    TaskDag dag = forkJoinDag(8, 1'000'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_FALSE(result.trace.records().empty());
    std::string art = result.trace.renderAscii(8, 60, 1.0);
    // 8 cores x 2 rows each.
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 16);
    EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(SimTrace, RenderAsciiIsGlyphExact)
{
    // Hand-built trace covering every rendering rule: activity glyphs,
    // all five voltage thresholds ('^' '+' '-' 'v' '_'), idle blanking
    // of the voltage row, cores that start late, and trailing idle.
    // The expected strings are pinned byte-for-byte: any renderer
    // change (including the bucketed single-pass rewrite) must
    // preserve them exactly.
    ActivityTrace trace;
    trace.enable();
    // core 0: task at nominal, then serial boosted, then idle.
    trace.record(0, 0, TraceState::task, 1.00);
    trace.record(40, 0, TraceState::serial, 1.25);
    trace.record(80, 0, TraceState::idle, 1.00);
    // core 1: idle until tick 20, mug at max boost, then steal loop
    // at the rest voltage.
    trace.record(20, 1, TraceState::mug, 1.30);
    trace.record(60, 1, TraceState::steal, 0.70);
    // core 2: busy the whole run, mildly then strongly undervolted.
    trace.record(0, 2, TraceState::task, 0.90);
    trace.record(50, 2, TraceState::task, 0.76);
    trace.setEnd(100);

    EXPECT_EQ(trace.renderAscii(3, 20, 1.0),
              "core0  act  |########SSSSSSSS....|\n"
              "       dvfs |--------^^^^^^^^    |\n"
              "core1  act  |....MMMMMMMM        |\n"
              "       dvfs |    ^^^^^^^^________|\n"
              "core2  act  |####################|\n"
              "       dvfs |vvvvvvvvvv__________|\n");

    // The '+' (mild boost) glyph and a one-column-per-record render.
    ActivityTrace boost;
    boost.enable();
    boost.record(0, 0, TraceState::task, 1.10);
    boost.record(2, 0, TraceState::task, 1.00);
    boost.setEnd(4);
    EXPECT_EQ(boost.renderAscii(1, 4, 1.0),
              "core0  act  |####|\n"
              "       dvfs |++--|\n");
}

TEST(SimTrace, RenderAsciiIgnoresOutOfRangeCores)
{
    // Records for cores beyond num_cores must not disturb the rendered
    // rows (fig01 renders 8 of N cores; the bucketed pass must skip,
    // not crash on, the rest).
    ActivityTrace trace;
    trace.enable();
    trace.record(0, 0, TraceState::task, 1.0);
    trace.record(0, 5, TraceState::mug, 1.3);
    trace.setEnd(10);
    EXPECT_EQ(trace.renderAscii(1, 4, 1.0),
              "core0  act  |####|\n"
              "       dvfs |----|\n");
}

TEST(SimTrace, DisabledTraceStaysEmpty)
{
    MachineConfig config = plainConfig();
    TaskDag dag = forkJoinDag(4, 500'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_TRUE(result.trace.records().empty());
}

TEST(SimGuards, LivelockDetectorFires)
{
    MachineConfig config = plainConfig();
    config.max_events = 50;
    TaskDag dag = forkJoinDag(8, 50'000'000);
    Machine machine(config, dag);
    EXPECT_DEATH((void)machine.run(), "event budget");
}

TEST(SimGuards, LivelockBudgetCountsSkippedAttempts)
{
    // A 5M-instruction serial phase on 1B7L, then eight children: the
    // seven littles spend the serial phase failing to steal, almost
    // every attempt counted in closed form while they are parked.
    TaskDag dag;
    uint32_t root = dag.addTask();
    for (int i = 0; i < 8; ++i) {
        uint32_t child = dag.addTask();
        dag.addWork(child, 200'000);
        dag.addSpawn(root, child);
    }
    dag.addSync(root);
    dag.addPhase(5'000'000, static_cast<int32_t>(root));
    MachineConfig config;
    config.topology = "1b7l";
    config.policy = policyConfigFor(Variant::base_psm);
    SimResult full = Machine(config, dag).run();
    const uint64_t events = full.sim_events;
    ASSERT_GT(full.failed_steals, 7u * 1000u);

    // The budget counts every attempt: exactly enough completes ...
    config.max_events = events;
    SimResult exact = Machine(config, dag).run();
    EXPECT_EQ(exact.sim_events, events);
    EXPECT_EQ(exact.failed_steals, full.failed_steals);
    EXPECT_EQ(exact.exec_seconds, full.exec_seconds);
    EXPECT_EQ(exact.energy, full.energy);
    // ... and one fewer does not.
    config.max_events = events - 1;
    EXPECT_DEATH((void)Machine(config, dag).run(), "event budget");

    // A budget that runs out mid-phase stops at the very attempt that
    // crosses it: core7's 1069th, after the other six made theirs.  The
    // time and counts were recorded with every attempt dispatched.
    config.max_events = 7500;
    EXPECT_DEATH((void)Machine(config, dag).run(),
                 "t=2\\.291443 ms.* fails=1069\n"
                 "  core7 little worker=7 state=0 pending=2 rem=240 .* "
                 "fails=1068\npanic: event budget");
}

TEST(SimParking, ClosedFormMatchesAttemptByAttempt)
{
    // Parked thieves on a few short periods and nearby ticks, so that
    // same-tick attempts are the rule.  Stepping every attempt in
    // (tick, seq) order, each rescheduled with the next fresh seq, is
    // what dispatching them would do; the closed form must agree on
    // every thief's attempt count and next tick, and on the order of
    // all seqs afterwards.
    struct Thief
    {
        Tick next;
        uint64_t seq;
        Tick period;
    };
    std::mt19937_64 rng(7);
    auto below = [&rng](uint64_t n) { return rng() % n; };
    for (int trial = 0; trial < 20000; ++trial) {
        const int n = 1 + static_cast<int>(below(6));
        // Distinct seqs below 100 for the thieves and the heap top;
        // the seqs a window hands out start at 100.
        std::vector<uint64_t> seqs(100);
        for (uint64_t i = 0; i < 100; ++i)
            seqs[i] = i;
        std::shuffle(seqs.begin(), seqs.end(), rng);
        std::vector<Thief> start(n);
        for (int i = 0; i < n; ++i)
            start[i] = {1 + below(12), seqs[i], 1 + below(4)};
        const Tick tick = below(30);
        const uint64_t horizon_seq = seqs[n];
        const uint64_t fresh = 100;

        std::vector<Thief> stepped = start;
        std::vector<uint64_t> stepped_attempts(n, 0);
        uint64_t next_seq = fresh;
        while (true) {
            int first = 0;
            for (int i = 1; i < n; ++i) {
                if (std::tie(stepped[i].next, stepped[i].seq) <
                    std::tie(stepped[first].next, stepped[first].seq))
                    first = i;
            }
            if (!(std::tie(stepped[first].next, stepped[first].seq) <
                  std::tie(tick, horizon_seq)))
                break;
            stepped_attempts[first]++;
            stepped[first].next += stepped[first].period;
            stepped[first].seq = next_seq++;
        }

        std::vector<Thief> closed = start;
        std::vector<detail::SkippedThief> skipped;
        for (int i = 0; i < n; ++i) {
            const Thief &t = start[i];
            uint64_t attempts = detail::attemptsBefore(
                t.next, t.seq, t.period, tick, horizon_seq);
            EXPECT_EQ(attempts, stepped_attempts[i]);
            if (attempts > 0) {
                skipped.push_back({i, attempts,
                                   t.next + (attempts - 1) * t.period,
                                   t.period, t.seq});
            }
        }
        detail::orderByLastAttempt(skipped.data(),
                                   static_cast<int>(skipped.size()));
        for (size_t rank = 0; rank < skipped.size(); ++rank) {
            Thief &t = closed[skipped[rank].core];
            t.next = skipped[rank].last + t.period;
            t.seq = fresh + rank;
        }
        for (int i = 0; i < n; ++i) {
            SCOPED_TRACE(testing::Message() << "trial " << trial
                                            << " thief " << i);
            EXPECT_EQ(closed[i].next, stepped[i].next);
            for (int j = 0; j < n; ++j) {
                EXPECT_EQ(closed[i].seq < closed[j].seq,
                          stepped[i].seq < stepped[j].seq);
            }
        }
        if (HasFailure())
            return;
    }
}

TEST(SimGuards, RunTwicePanics)
{
    MachineConfig config = plainConfig();
    TaskDag dag = serialDag(1000);
    Machine machine(config, dag);
    (void)machine.run();
    EXPECT_DEATH((void)machine.run(), "twice");
}

TEST(SimShapes, OneBigSevenLittleWorks)
{
    MachineConfig config = plainConfig("1b7l");
    TaskDag dag = forkJoinDag(64, 500'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.tasks_executed, 65u);
    // 4B4L is strictly faster than 1B7L on the same work (Section V-A).
    SimResult result_4b4l = Machine(plainConfig("4b4l"), dag).run();
    EXPECT_LT(result_4b4l.exec_seconds, result.exec_seconds);
}

TEST(SimShapes, PhasesRunBackToBack)
{
    TaskDag dag;
    for (int p = 0; p < 3; ++p) {
        uint32_t root = dag.addTask();
        for (int i = 0; i < 4; ++i) {
            uint32_t child = dag.addTask();
            dag.addWork(child, 500'000);
            dag.addSpawn(root, child);
        }
        dag.addSync(root);
        dag.addPhase(100'000, static_cast<int32_t>(root));
    }
    MachineConfig config = plainConfig();
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.tasks_executed, 15u);
    EXPECT_GT(result.regions.serial, 0.0);
}

TEST(SimDvfs, TransitionSensitivityIsSmall)
{
    // Paper: 250 ns/step transitions changed results by < 2%.
    TaskDag dag = forkJoinDag(32, 2'000'000);
    MachineConfig fast;
    fast.policy = policyConfigFor(Variant::base_ps);
    MachineConfig slow = fast;
    slow.regulator_ns_per_step = 250.0;
    SimResult a = Machine(fast, dag).run();
    SimResult b = Machine(slow, dag).run();
    EXPECT_NEAR(b.exec_seconds / a.exec_seconds, 1.0, 0.02);
}

TEST(SimEdge, SingleCoreMachineSerializesEverything)
{
    MachineConfig config = plainConfig("1b");
    TaskDag dag = forkJoinDag(4, 1'000'000);
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.tasks_executed, 5u);
    EXPECT_EQ(result.steals, 0u); // nobody to steal from or to
    double expected = result.instructions / bigIps(config);
    EXPECT_NEAR(result.exec_seconds, expected, expected * 1e-6);
}

TEST(SimEdge, LittleOnlyMachineRunsSerialOnLittle)
{
    MachineConfig config = plainConfig("2l");
    TaskDag dag = serialDag(666'000);
    SimResult result = Machine(config, dag).run();
    FirstOrderModel model(config.app_params);
    double expected =
        666'000 / model.ips(clusterParamsFor('l', config.app_params), 1.0);
    EXPECT_NEAR(result.exec_seconds, expected, expected * 1e-6);
}

TEST(SimEdge, DeepCallChainUnwinds)
{
    // 500-deep chain of inline calls with work at the bottom.
    TaskDag dag;
    uint32_t top = dag.addTask();
    uint32_t current = top;
    for (int i = 0; i < 500; ++i) {
        uint32_t child = dag.addTask();
        dag.addCall(current, child);
        current = child;
    }
    dag.addWork(current, 100'000);
    dag.addPhase(0, static_cast<int32_t>(top));
    dag.validate();
    MachineConfig config = plainConfig();
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.tasks_executed, 501u);
}

TEST(SimEdge, DeepSpawnChainJoins)
{
    // Each task spawns one child and waits: a 300-deep join chain.
    TaskDag dag;
    uint32_t top = dag.addTask();
    uint32_t current = top;
    for (int i = 0; i < 300; ++i) {
        uint32_t child = dag.addTask();
        dag.addWork(current, 1'000);
        dag.addSpawn(current, child);
        dag.addSync(current);
        dag.addWork(current, 1'000);
        current = child;
    }
    dag.addWork(current, 50'000);
    dag.addPhase(0, static_cast<int32_t>(top));
    dag.validate();
    MachineConfig config = plainConfig();
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.tasks_executed, 301u);
}

TEST(SimEdge, ZeroWorkTasksComplete)
{
    TaskDag dag;
    uint32_t root = dag.addTask();
    for (int i = 0; i < 16; ++i) {
        uint32_t child = dag.addTask(); // empty task body
        dag.addSpawn(root, child);
    }
    dag.addSync(root);
    dag.addPhase(0, static_cast<int32_t>(root));
    MachineConfig config = plainConfig();
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.tasks_executed, 17u);
}

TEST(SimEdge, PureSerialPhaseSequence)
{
    TaskDag dag;
    dag.addPhase(100'000, -1);
    dag.addPhase(200'000, -1);
    dag.addPhase(300'000, -1);
    MachineConfig config = plainConfig();
    SimResult result = Machine(config, dag).run();
    EXPECT_EQ(result.instructions, 600'000u);
    EXPECT_NEAR(result.regions.serial, result.exec_seconds,
                result.exec_seconds * 1e-9);
}

TEST(SimEdge, ContentionSlowsActiveCores)
{
    TaskDag dag = forkJoinDag(8, 4'000'000);
    MachineConfig fast = plainConfig();
    MachineConfig contended = plainConfig();
    contended.mpki = 15.0; // bfs-d-like miss rate
    SimResult a = Machine(fast, dag).run();
    SimResult b = Machine(contended, dag).run();
    EXPECT_GT(b.exec_seconds, a.exec_seconds * 1.15);
    // Serial runs are unaffected (no second active core).
    TaskDag serial = serialDag(1'000'000);
    SimResult sa = Machine(fast, serial).run();
    SimResult sb = Machine(contended, serial).run();
    EXPECT_NEAR(sb.exec_seconds, sa.exec_seconds, sa.exec_seconds * 1e-9);
}

TEST(SimEdge, RandomVictimStillCompletesEverything)
{
    Kernel kernel = makeKernel("mis");
    MachineConfig config = configFor(kernel, Variant::base_psm);
    config.policy.victim = sched::VictimPolicy::random;
    SimResult result = Machine(config, kernel.dag).run();
    EXPECT_EQ(result.tasks_executed, kernel.dag.numTasks());
    EXPECT_NEAR(result.regions.total(), result.exec_seconds,
                result.exec_seconds * 1e-6);
}

TEST(StatsWriter, ContainsCoreAndRegionLines)
{
    MachineConfig config = plainConfig();
    TaskDag dag = forkJoinDag(8, 500'000);
    SimResult result = Machine(config, dag).run();
    std::string stats = formatStats(config, result);
    EXPECT_NE(stats.find("sim_seconds"), std::string::npos);
    EXPECT_NE(stats.find("scheduler.steals"), std::string::npos);
    EXPECT_NE(stats.find("system.core7.busy_seconds"),
              std::string::npos);
    EXPECT_NE(stats.find("regions.hp_seconds"), std::string::npos);
    EXPECT_NE(stats.find("# Number of seconds simulated"),
              std::string::npos);
}

TEST(StatsWriter, ValuesRoundTripTheResult)
{
    MachineConfig config = plainConfig();
    TaskDag dag = forkJoinDag(4, 250'000);
    SimResult result = Machine(config, dag).run();
    std::string stats = formatStats(config, result);
    // The tasks_executed line carries the exact integer.
    std::string needle = strfmt("%-40s %18.6g",
                                "scheduler.tasks_executed",
                                static_cast<double>(
                                    result.tasks_executed));
    EXPECT_NE(stats.find(needle), std::string::npos) << stats;
}

TEST(RegionTrackerUnit, ClassifiesEveryCategory)
{
    RegionTracker tracker(4, 4);
    tracker.update(0.0, /*serial=*/true, 1, 0);   // serial
    tracker.update(1.0, false, 4, 4);             // HP
    tracker.update(2.0, false, 3, 2);             // BI(1) < LA(2)
    tracker.update(3.0, false, 1, 2);             // BI(3) >= LA(2)
    tracker.update(4.0, false, 2, 0);             // oLP: LA == 0
    tracker.update(5.0, false, 4, 1);             // oLP: BI == 0
    tracker.finish(6.0);
    const RegionBreakdown &g = tracker.breakdown();
    EXPECT_DOUBLE_EQ(g.serial, 1.0);
    EXPECT_DOUBLE_EQ(g.hp, 1.0);
    EXPECT_DOUBLE_EQ(g.lp_bi_lt_la, 1.0);
    EXPECT_DOUBLE_EQ(g.lp_bi_ge_la, 1.0);
    EXPECT_DOUBLE_EQ(g.lp_other, 2.0);
    EXPECT_DOUBLE_EQ(g.total(), 6.0);
}

TEST(RegionTrackerUnit, SerialFlagDominates)
{
    RegionTracker tracker(2, 2);
    tracker.update(0.0, /*serial=*/true, 2, 2); // serial even if busy
    tracker.finish(1.0);
    EXPECT_DOUBLE_EQ(tracker.breakdown().serial, 1.0);
    EXPECT_DOUBLE_EQ(tracker.breakdown().hp, 0.0);
}

TEST(SimEventCount, PinnedPerKernelRegression)
{
    // Per-sim discrete-event counts for three kernels, pinned exactly.
    // These change only when the simulator's event structure changes
    // (new event kinds, different scheduling decisions); re-measure and
    // update deliberately, alongside the golden files, never casually.
    struct Expectation
    {
        const char *kernel;
        uint64_t events;
    };
    const Expectation expectations[] = {
        {"dict", 12065},
        {"radix-1", 7030},
        {"qsort-1", 24786},
    };
    for (const Expectation &expect : expectations) {
        RunResult run =
            exp::executeSpec({expect.kernel, Variant::base_psm});
        EXPECT_EQ(run.sim.sim_events, expect.events) << expect.kernel;
        EXPECT_GT(run.sim.sim_events, run.sim.tasks_executed)
            << expect.kernel;
    }
}

TEST(SimEventCount, DeterministicAcrossRuns)
{
    exp::RunSpec spec{"dict", Variant::base_m};
    spec.overrides.topology = "1b7l";
    RunResult a = exp::executeSpec(spec);
    RunResult b = exp::executeSpec(spec);
    EXPECT_EQ(a.sim.sim_events, b.sim.sim_events);
    EXPECT_GT(a.sim.sim_events, 0u);
}

TEST(SimTrace, RecordsAreTimeOrdered)
{
    MachineConfig config;
    config.policy = policyConfigFor(Variant::base_psm);
    config.collect_trace = true;
    TaskDag dag = forkJoinDag(16, 500'000, 250'000);
    SimResult result = Machine(config, dag).run();
    Tick prev = 0;
    for (const auto &rec : result.trace.records()) {
        EXPECT_GE(rec.tick, prev);
        prev = rec.tick;
    }
    EXPECT_LE(prev, result.trace.end());
}

// --- the ring deque (simulated workers, channel-pool queues) ---------------

/** Pop both ends of a ring and its std::deque model until both are empty. */
void
expectDrainMatches(RingDeque<int> &ring, std::deque<int> &model,
                   bool front_first)
{
    ASSERT_EQ(ring.size(), model.size());
    while (!model.empty()) {
        if (front_first) {
            EXPECT_EQ(ring.popFront(), model.front());
            model.pop_front();
        } else {
            EXPECT_EQ(ring.popBack(), model.back());
            model.pop_back();
        }
        front_first = !front_first;
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingDeque, WrapsAroundWithoutGrowing)
{
    // Head steals advance the ring's start, so steady push/steal traffic
    // with a few entries in flight wraps its first buffer many times.
    RingDeque<int> ring;
    std::deque<int> model;
    for (int i = 0; i < 1000; ++i) {
        ring.pushBack(i);
        model.push_back(i);
        if (model.size() > 10) {
            EXPECT_EQ(ring.popFront(), model.front());
            model.pop_front();
        }
        ASSERT_EQ(ring.size(), model.size());
    }
    expectDrainMatches(ring, model, /*front_first=*/false);
}

TEST(RingDeque, GrowsWhileWrapped)
{
    // Fill past the first doubling, steal most entries from the head,
    // and refill past capacity: the next doubling happens with the
    // entries wrapped, and its copy must unwrap them in head-to-tail
    // order.
    RingDeque<int> ring;
    std::deque<int> model;
    for (int i = 0; i < 100; ++i) {
        ring.pushBack(i);
        model.push_back(i);
    }
    for (int i = 0; i < 90; ++i) {
        EXPECT_EQ(ring.popFront(), model.front());
        model.pop_front();
    }
    for (int i = 100; i < 1100; ++i) {
        ring.pushBack(i);
        model.push_back(i);
    }
    expectDrainMatches(ring, model, /*front_first=*/true);
}

TEST(RingDeque, HeadStealsInterleaveWithTailPops)
{
    // A random owner/thief mix against std::deque, the deque it replaced.
    RingDeque<int> ring;
    std::deque<int> model;
    std::mt19937 gen(42);
    for (int i = 0; i < 100000; ++i) {
        unsigned roll = gen() % 10;
        if (roll < 5 || model.empty()) {
            ring.pushBack(i);
            model.push_back(i);
        } else if (roll < 8) {
            ASSERT_EQ(ring.popBack(), model.back()) << "op " << i;
            model.pop_back();
        } else {
            ASSERT_EQ(ring.popFront(), model.front()) << "op " << i;
            model.pop_front();
        }
        ASSERT_EQ(ring.size(), model.size()) << "op " << i;
        ASSERT_EQ(ring.empty(), model.empty()) << "op " << i;
    }
    expectDrainMatches(ring, model, /*front_first=*/true);
}

} // namespace
} // namespace aaws
