/**
 * @file
 * Tests of the regulator transition model, the lookup-table generation
 * (25 entries for 4B4L, Section III-A), and the DVFS controller's
 * decision function for every technique combination.
 */

#include <gtest/gtest.h>

#include "dvfs/controller.h"
#include "dvfs/regulator.h"

namespace aaws {
namespace {

TEST(Regulator, PaperTransitionLatency)
{
    RegulatorModel reg; // 40 ns per 0.15 V
    // Paper: 0.7 V -> 1.33 V is roughly 160 ns.
    EXPECT_NEAR(reg.transitionSeconds(0.7, 1.33) * 1e9, 168.0, 10.0);
    EXPECT_NEAR(reg.transitionSeconds(1.0, 1.15) * 1e9, 40.0, 1e-9);
}

TEST(Regulator, SymmetricAndZero)
{
    RegulatorModel reg;
    EXPECT_DOUBLE_EQ(reg.transitionSeconds(0.8, 1.2),
                     reg.transitionSeconds(1.2, 0.8));
    EXPECT_DOUBLE_EQ(reg.transitionSeconds(1.0, 1.0), 0.0);
    EXPECT_EQ(reg.transitionPs(1.0, 1.0), 0u);
}

TEST(Regulator, LinearInDeltaV)
{
    RegulatorModel reg;
    double t1 = reg.transitionSeconds(1.0, 1.1);
    double t2 = reg.transitionSeconds(1.0, 1.2);
    EXPECT_NEAR(t2, 2.0 * t1, 1e-15);
}

TEST(Regulator, CustomStepParameters)
{
    RegulatorModel reg(250.0, 0.15); // the paper's sensitivity sweep
    EXPECT_NEAR(reg.transitionSeconds(0.7, 1.3) * 1e9, 1000.0, 1.0);
}

class TableFixture : public ::testing::Test
{
  protected:
    FirstOrderModel model_;
    DvfsLookupTable table_{model_, makeTopology("4b4l", model_.params())};
};

TEST_F(TableFixture, TwentyFiveEntriesFor4B4L)
{
    EXPECT_EQ(table_.size(), 25);
}

TEST_F(TableFixture, AllActiveEntryMatchesHpFeasiblePoint)
{
    const DvfsTableEntry &entry = table_.atCounts({4, 4});
    EXPECT_NEAR(entry.v[0], 0.93, 0.03);
    EXPECT_NEAR(entry.v[1], 1.30, 1e-6);
    EXPECT_NEAR(entry.speedup, 1.10, 0.02);
}

TEST_F(TableFixture, HalfActiveEntryMatchesLpFeasiblePoint)
{
    const DvfsTableEntry &entry = table_.atCounts({2, 2});
    EXPECT_NEAR(entry.v[0], 1.16, 0.03);
    EXPECT_NEAR(entry.v[1], 1.30, 1e-6);
}

TEST_F(TableFixture, VoltagesStayWithinFeasibleRange)
{
    const ModelParams &p = model_.params();
    for (int ba = 0; ba <= 4; ++ba) {
        for (int la = 0; la <= 4; ++la) {
            const DvfsTableEntry &e = table_.atCounts({ba, la});
            EXPECT_GE(e.v[0], p.v_min - 1e-9);
            EXPECT_LE(e.v[0], p.v_max + 1e-9);
            EXPECT_GE(e.v[1], p.v_min - 1e-9);
            EXPECT_LE(e.v[1], p.v_max + 1e-9);
        }
    }
}

TEST_F(TableFixture, FewerActiveCoresSprintHarder)
{
    // With more waiting cores resting, the power slack lets the active
    // big cores run at a voltage at least as high.
    for (int la : {0, 4}) {
        double v_prev = 10.0;
        for (int ba = 1; ba <= 4; ++ba) {
            double v = table_.atCounts({ba, la}).v[0];
            EXPECT_LE(v, v_prev + 1e-9) << "ba=" << ba << " la=" << la;
            v_prev = v;
        }
    }
}

TEST_F(TableFixture, SingleActiveBigSprintsToMax)
{
    EXPECT_NEAR(table_.atCounts({1, 0}).v[0], model_.params().v_max, 1e-6);
}

TEST(Table, Shape1B7L)
{
    FirstOrderModel model;
    DvfsLookupTable table(model, makeTopology("1b7l", model.params()));
    EXPECT_EQ(table.size(), 16);
    EXPECT_EQ(table.topology().cluster(0).count, 1);
    EXPECT_EQ(table.topology().cluster(1).count, 7);
}

class ControllerFixture : public ::testing::Test
{
  protected:
    DvfsController
    make(bool pacing, bool sprinting, bool serial)
    {
        sched::PolicyConfig policy;
        policy.work_pacing = pacing;
        policy.work_sprinting = sprinting;
        policy.serial_sprinting = serial;
        return DvfsController(table_, policy, model_.params());
    }

    FirstOrderModel model_;
    DvfsLookupTable table_{model_, makeTopology("4b4l", model_.params())};
};

TEST_F(ControllerFixture, BaselineKeepsEveryoneNominal)
{
    DvfsController ctrl = make(false, false, true);
    std::vector<bool> some_waiting = {true, true, false, true,
                                      true, false, true, true};
    auto v = ctrl.decide(some_waiting, -1);
    for (double vi : v)
        EXPECT_DOUBLE_EQ(vi, 1.0);
}

TEST_F(ControllerFixture, PacingAppliesOnlyWhenAllActive)
{
    DvfsController ctrl = make(true, false, true);
    std::vector<bool> all(8, true);
    auto v = ctrl.decide(all, -1);
    EXPECT_NEAR(v[0], 0.93, 0.03); // big slows down
    EXPECT_NEAR(v[4], 1.30, 1e-6); // little speeds up
    // One waiter => pacing-only controller reverts to nominal.
    std::vector<bool> one_waiting(8, true);
    one_waiting[7] = false;
    v = ctrl.decide(one_waiting, -1);
    for (double vi : v)
        EXPECT_DOUBLE_EQ(vi, 1.0);
}

TEST_F(ControllerFixture, SprintingRestsWaitersAndSprintsActives)
{
    DvfsController ctrl = make(true, true, true);
    std::vector<bool> active = {true, true, false, false,
                                true, true, false, false};
    auto v = ctrl.decide(active, -1);
    EXPECT_NEAR(v[0], 1.16, 0.03); // active big sprints (2B2L entry)
    EXPECT_NEAR(v[2], 0.70, 1e-9); // waiting big rests
    EXPECT_NEAR(v[4], 1.30, 1e-6); // active little sprints
    EXPECT_NEAR(v[6], 0.70, 1e-9); // waiting little rests
}

TEST_F(ControllerFixture, SerialSprintBoostsTheSerialCore)
{
    DvfsController ctrl = make(false, false, true);
    std::vector<bool> active(8, false);
    active[0] = true;
    auto v = ctrl.decide(active, /*serial_core=*/0);
    EXPECT_NEAR(v[0], 1.30, 1e-9);
    // Without work-sprinting the others idle at nominal (base runtime
    // keeps waiting cores at V_N, Section V-C).
    EXPECT_DOUBLE_EQ(v[1], 1.0);
    EXPECT_DOUBLE_EQ(v[7], 1.0);
}

TEST_F(ControllerFixture, SerialSprintWithSprintingRestsOthers)
{
    DvfsController ctrl = make(true, true, true);
    std::vector<bool> active(8, false);
    active[2] = true;
    auto v = ctrl.decide(active, /*serial_core=*/2);
    EXPECT_NEAR(v[2], 1.30, 1e-9);
    for (int i = 0; i < 8; ++i) {
        if (i != 2) {
            EXPECT_NEAR(v[i], 0.70, 1e-9);
        }
    }
}

TEST_F(ControllerFixture, NoSerialSprintIgnoresTheHint)
{
    DvfsController ctrl = make(false, false, false);
    std::vector<bool> active(8, false);
    active[0] = true;
    auto v = ctrl.decide(active, 0);
    for (double vi : v)
        EXPECT_DOUBLE_EQ(vi, 1.0);
}

} // namespace
} // namespace aaws
