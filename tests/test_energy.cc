/**
 * @file
 * Tests of the energy accountant (timeline integration, per-state
 * breakdown) and the component-level microbenchmark energy model.
 */

#include <gtest/gtest.h>

#include "energy/accountant.h"
#include "energy/instr_mix.h"
#include "energy/microbench.h"
#include "kernels/table3.h"

namespace aaws {
namespace {

class AccountantFixture : public ::testing::Test
{
  protected:
    FirstOrderModel model_;
    /** Core 0 is big, core 1 little. */
    CoreTopology machine_ = CoreTopology::bigLittle(1, 1, model_.params());
    const ClusterParams &big_ = machine_.cluster(0).params;
    const ClusterParams &little_ = machine_.cluster(1).params;
};

TEST_F(AccountantFixture, ActiveIntervalIntegratesExactly)
{
    EnergyAccountant acct(model_, machine_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.finish(2.0);
    EXPECT_NEAR(acct.coreEnergy(0).active,
                2.0 * model_.activePower(big_, 1.0), 1e-9);
    EXPECT_DOUBLE_EQ(acct.coreEnergy(0).waiting, 0.0);
}

TEST_F(AccountantFixture, WaitingIntervalUsesWaitingPower)
{
    EnergyAccountant acct(model_, machine_);
    acct.setState(1, 0.0, PowerState::waiting, 0.7);
    acct.finish(3.0);
    EXPECT_NEAR(acct.coreEnergy(1).waiting,
                3.0 * model_.waitingPower(little_, 0.7), 1e-9);
}

TEST_F(AccountantFixture, OffIntervalsCostNothing)
{
    EnergyAccountant acct(model_, machine_);
    acct.finish(5.0);
    EXPECT_DOUBLE_EQ(acct.totalEnergy(), 0.0);
}

TEST_F(AccountantFixture, VoltageChangeSplitsTheInterval)
{
    EnergyAccountant acct(model_, machine_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.setState(0, 1.0, PowerState::active, 1.3);
    acct.finish(2.0);
    double expected = model_.activePower(big_, 1.0) +
                      model_.activePower(big_, 1.3);
    EXPECT_NEAR(acct.coreEnergy(0).total(), expected, 1e-9);
}

TEST_F(AccountantFixture, MixedStatesAccumulateSeparately)
{
    EnergyAccountant acct(model_, machine_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.setState(0, 1.0, PowerState::waiting, 1.0);
    acct.finish(2.5);
    EXPECT_NEAR(acct.coreEnergy(0).active,
                model_.activePower(big_, 1.0), 1e-9);
    EXPECT_NEAR(acct.coreEnergy(0).waiting,
                1.5 * model_.waitingPower(big_, 1.0), 1e-9);
}

TEST_F(AccountantFixture, AveragePowerIsEnergyOverTime)
{
    EnergyAccountant acct(model_, machine_);
    acct.setState(0, 0.0, PowerState::active, 1.0);
    acct.setState(1, 0.0, PowerState::active, 1.0);
    acct.finish(4.0);
    EXPECT_NEAR(acct.averagePower(),
                model_.activePower(big_, 1.0) +
                    model_.activePower(little_, 1.0),
                1e-9);
}

TEST_F(AccountantFixture, WaitingEnergyAggregatesAcrossCores)
{
    EnergyAccountant acct(model_, machine_);
    acct.setState(0, 0.0, PowerState::waiting, 1.0);
    acct.setState(1, 0.0, PowerState::waiting, 1.0);
    acct.finish(1.0);
    EXPECT_NEAR(acct.waitingEnergy(),
                model_.waitingPower(big_, 1.0) +
                    model_.waitingPower(little_, 1.0),
                1e-9);
}

TEST_F(AccountantFixture, TimeGoingBackwardsPanics)
{
    EnergyAccountant acct(model_, machine_);
    acct.setState(0, 1.0, PowerState::active, 1.0);
    EXPECT_DEATH(acct.setState(0, 0.5, PowerState::active, 1.0),
                 "backwards");
}

TEST(Microbench, SuiteCoversInstructionClasses)
{
    auto suite = makeMicrobenchSuite();
    EXPECT_GE(suite.size(), 10u);
}

TEST(Microbench, BigCoreCostsMorePerInstruction)
{
    EventEnergyTable big = EventEnergyTable::bigCore();
    EventEnergyTable little = EventEnergyTable::littleCore();
    for (const auto &mb : makeMicrobenchSuite()) {
        EXPECT_GT(microbenchEnergyPj(big, mb),
                  microbenchEnergyPj(little, mb))
            << mb.name;
    }
}

TEST(Microbench, DerivedAlphaNearPaperEstimate)
{
    // The component model should independently reproduce the alpha ~ 3
    // energy ratio the first-order model assumes.
    double alpha = deriveAlpha(EventEnergyTable::bigCore(),
                               EventEnergyTable::littleCore(),
                               makeMicrobenchSuite());
    EXPECT_GT(alpha, 2.3);
    EXPECT_LT(alpha, 3.7);
}

TEST(Microbench, DivIsTheMostExpensiveIntOp)
{
    EventEnergyTable table = EventEnergyTable::littleCore();
    EXPECT_GT(table.energyPj(EnergyEvent::int_div),
              table.energyPj(EnergyEvent::int_mul));
    EXPECT_GT(table.energyPj(EnergyEvent::int_mul),
              table.energyPj(EnergyEvent::int_alu));
}

TEST(Microbench, LittleCoreHasNoOoOStructures)
{
    EventEnergyTable table = EventEnergyTable::littleCore();
    EXPECT_DOUBLE_EQ(table.energyPj(EnergyEvent::rename_dispatch), 0.0);
    EXPECT_DOUBLE_EQ(table.energyPj(EnergyEvent::rob_lsq), 0.0);
    EXPECT_DOUBLE_EQ(table.energyPj(EnergyEvent::bpred), 0.0);
}

TEST(Microbench, VoltageScalingIsQuadratic)
{
    EXPECT_NEAR(EventEnergyTable::scaleToVoltage(10.0, 1.3, 1.0), 16.9,
                1e-9);
    EXPECT_NEAR(EventEnergyTable::scaleToVoltage(10.0, 0.7, 1.0), 4.9,
                1e-9);
}

TEST(Microbench, EventNamesAreStable)
{
    EXPECT_STREQ(energyEventName(EnergyEvent::int_alu), "int_alu");
    EXPECT_STREQ(energyEventName(EnergyEvent::bpred), "bpred");
}

TEST(InstrMix, AllKernelsHaveValidMixes)
{
    for (const auto &row : table3()) {
        const InstrMix &mix = instrMixFor(row.name);
        EXPECT_NO_FATAL_FAILURE(mix.validate());
        EXPECT_GE(mix.aluFraction(), 0.0) << row.name;
    }
}

TEST(InstrMix, UnknownKernelIsFatal)
{
    EXPECT_DEATH((void)instrMixFor("nope"), "no instruction mix");
}

TEST(InstrMix, ComponentAlphaInPlausibleBand)
{
    EventEnergyTable big = EventEnergyTable::bigCore();
    EventEnergyTable little = EventEnergyTable::littleCore();
    for (const auto &row : table3()) {
        double alpha = componentAlpha(big, little, instrMixFor(row.name));
        EXPECT_GT(alpha, 1.8) << row.name;
        EXPECT_LT(alpha, 4.5) << row.name;
        // Agreement with the Table III ERatio within ~40%.
        EXPECT_NEAR(alpha / row.alpha, 1.0, 0.4) << row.name;
    }
}

TEST(InstrMix, FpHeavyMixesCostMorePerInstruction)
{
    EventEnergyTable table = EventEnergyTable::littleCore();
    double fp = energyPerInstrPj(table, instrMixFor("nbody"));
    double branchy = energyPerInstrPj(table, instrMixFor("ksack"));
    EXPECT_GT(fp, branchy);
}

TEST(InstrMix, BigOverheadDilutesWithExpensiveInstructions)
{
    // The big core's fixed OoO bookkeeping is a constant adder, so
    // mixes with expensive little-core instructions (FP) imply a lower
    // alpha than cheap branchy mixes.
    EventEnergyTable big = EventEnergyTable::bigCore();
    EventEnergyTable little = EventEnergyTable::littleCore();
    double alpha_fp = componentAlpha(big, little, instrMixFor("nbody"));
    double alpha_branch = componentAlpha(big, little, instrMixFor("ksack"));
    EXPECT_LT(alpha_fp, alpha_branch);
}

TEST(InstrMix, ValidateRejectsOverfullMix)
{
    InstrMix mix;
    mix.loads = 0.8;
    mix.fp_mul = 0.5;
    EXPECT_DEATH(mix.validate(), "exceed");
}

} // namespace
} // namespace aaws
