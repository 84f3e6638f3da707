/**
 * @file
 * N-cluster CoreTopology tests: the preset grammar, census indexing and
 * incremental maintenance, the equi-marginal cluster solver (including
 * its cross-validation against the two-type optimizer), the
 * per_cluster shared-rail collapse in the DVFS controller, and the
 * controller's census contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dvfs/controller.h"
#include "dvfs/lookup_table.h"
#include "model/cluster_opt.h"
#include "model/optimizer.h"
#include "model/topology.h"
#include "sched/census.h"
#include "sched/policy_stack.h"

namespace aaws {
namespace {

// --- Preset grammar -------------------------------------------------

TEST(TopologyParse, AcceptsThePresetGrammar)
{
    ModelParams mp;
    CoreTopology topo;
    ASSERT_TRUE(parseTopologyName("4b4l", mp, topo));
    EXPECT_EQ(topo.numClusters(), 2);
    EXPECT_EQ(topo.numCores(), 8);
    EXPECT_EQ(topo.cluster(0).kind, 'b');
    EXPECT_EQ(topo.cluster(1).kind, 'l');
    EXPECT_EQ(topo.name(), "4b4l");

    ASSERT_TRUE(parseTopologyName("1b7l", mp, topo));
    EXPECT_EQ(topo.cluster(0).count, 1);
    EXPECT_EQ(topo.cluster(1).count, 7);

    ASSERT_TRUE(parseTopologyName("2b2m4l", mp, topo));
    EXPECT_EQ(topo.numClusters(), 3);
    EXPECT_EQ(topo.numCores(), 8);
    EXPECT_EQ(topo.cluster(1).kind, 'm');
    // The mid class sits strictly between big and little in IPC.
    EXPECT_GT(topo.cluster(0).params.ipc, topo.cluster(1).params.ipc);
    EXPECT_GT(topo.cluster(1).params.ipc, topo.cluster(2).params.ipc);
    EXPECT_EQ(topo.name(), "2b2m4l");

    // A single-cluster (homogeneous) machine is legal.
    ASSERT_TRUE(parseTopologyName("8l", mp, topo));
    EXPECT_EQ(topo.numClusters(), 1);
    EXPECT_EQ(topo.numCores(), 8);
}

TEST(TopologyParse, PcSuffixSharesTheRails)
{
    ModelParams mp;
    CoreTopology topo;
    ASSERT_TRUE(parseTopologyName("2b2m4l:pc", mp, topo));
    for (int k = 0; k < topo.numClusters(); ++k)
        EXPECT_EQ(topo.cluster(k).domain, DvfsDomain::per_cluster);
    EXPECT_EQ(topo.name(), "2b2m4l:pc");
    // The default grammar keeps the paper's per-core rails.
    ASSERT_TRUE(parseTopologyName("2b2m4l", mp, topo));
    for (int k = 0; k < topo.numClusters(); ++k)
        EXPECT_EQ(topo.cluster(k).domain, DvfsDomain::per_core);
}

TEST(TopologyParse, RejectsMalformedNames)
{
    ModelParams mp;
    CoreTopology out;
    const char *bad[] = {
        "",       // empty
        "4x4l",   // unknown kind letter
        "4l4b",   // kinds not fastest-to-slowest
        "4b0l",   // zero-count cluster
        "b4l",    // missing count digits
        "4b4",    // trailing count without a kind
        "65l",    // above the 64-core cap
        "4b4l:x", // unknown suffix
        "4b4b",   // repeated kind is not strictly ordered
    };
    for (const char *name : bad) {
        SCOPED_TRACE(name);
        EXPECT_FALSE(parseTopologyName(name, mp, out));
    }
}

TEST(TopologyParse, PresetsMatchTheLegacyAdapters)
{
    ModelParams mp;
    // The presets and the native pools' bigLittle() split must agree
    // not just numerically but bit-for-bit: isBigLittle() is what
    // routes DVFS-table generation through the two-type optimizer.
    EXPECT_TRUE(makeTopology("4b4l", mp).isBigLittle(mp));
    EXPECT_TRUE(makeTopology("1b7l", mp).isBigLittle(mp));
    EXPECT_TRUE(CoreTopology::bigLittle(4, 4, mp).isBigLittle(mp));
    // Shared rails, extra clusters, or retargeted parameters all leave
    // the two-type solver.
    EXPECT_FALSE(makeTopology("4b4l:pc", mp).isBigLittle(mp));
    EXPECT_FALSE(makeTopology("2b2m4l", mp).isBigLittle(mp));
    EXPECT_FALSE(makeTopology("8l", mp).isBigLittle(mp));
    ModelParams app;
    app.beta = 3.1;
    EXPECT_FALSE(makeTopology("4b4l", app).isBigLittle(mp));

    for (const std::string &name : topologyPresets()) {
        SCOPED_TRACE(name);
        CoreTopology topo;
        EXPECT_TRUE(parseTopologyName(name, mp, topo));
        EXPECT_EQ(topo.name(), name);
    }
}

// --- Census indexing ------------------------------------------------

TEST(TopologyCensus, IndexRoundTripsEveryCell)
{
    ModelParams mp;
    for (const char *name : {"8l", "4b4l", "1b7l", "2b2m4l"}) {
        SCOPED_TRACE(name);
        CoreTopology topo = makeTopology(name, mp);
        std::vector<int> counts;
        for (int index = 0; index < topo.censusCells(); ++index) {
            topo.censusFromIndex(index, counts);
            ASSERT_EQ(static_cast<int>(counts.size()),
                      topo.numClusters());
            for (int k = 0; k < topo.numClusters(); ++k) {
                EXPECT_GE(counts[k], 0);
                EXPECT_LE(counts[k], topo.cluster(k).count);
            }
            EXPECT_EQ(topo.censusIndex(counts), index);
        }
    }
}

TEST(TopologyCensus, TwoClusterIndexMatchesTheLegacyLayout)
{
    ModelParams mp;
    CoreTopology topo = CoreTopology::bigLittle(4, 4, mp);
    EXPECT_EQ(topo.censusCells(), 25);
    for (int ba = 0; ba <= 4; ++ba)
        for (int la = 0; la <= 4; ++la)
            EXPECT_EQ(topo.censusIndex({ba, la}), ba * 5 + la);
}

TEST(TopologyCensus, CoreClusterMapIsContiguous)
{
    ModelParams mp;
    CoreTopology topo = makeTopology("2b2m4l", mp);
    EXPECT_EQ(topo.clusterBegin(0), 0);
    EXPECT_EQ(topo.clusterBegin(1), 2);
    EXPECT_EQ(topo.clusterBegin(2), 4);
    const int expected[] = {0, 0, 1, 1, 2, 2, 2, 2};
    for (int core = 0; core < topo.numCores(); ++core)
        EXPECT_EQ(topo.clusterOf(core), expected[core]) << core;
}

/** Randomized activity churn: incremental counts == recount, always. */
void
churnCensus(const CoreTopology &topo, uint64_t seed)
{
    Rng rng(seed);
    sched::ActivityCensus incremental(topo, /*all_active=*/true);
    std::vector<bool> active(topo.numCores(), true);
    for (int step = 0; step < 2000; ++step) {
        int core = static_cast<int>(rng.below(topo.numCores()));
        active[core] = !active[core];
        incremental.note(topo.clusterOf(core), active[core]);

        sched::ActivityCensus recounted(topo);
        recounted.recount(active, topo.coreClusters());
        ASSERT_EQ(incremental.counts(), recounted.counts())
            << "step " << step;
        ASSERT_EQ(incremental.active(), recounted.active());
        ASSERT_EQ(incremental.allActive(), recounted.allActive());
        for (int k = 0; k <= topo.numClusters(); ++k)
            ASSERT_EQ(incremental.allFasterActive(k),
                      recounted.allFasterActive(k))
                << "cluster " << k;
    }
}

TEST(TopologyCensus, IncrementalMatchesRecountOneCluster)
{
    churnCensus(makeTopology("8l", ModelParams{}), 0x101);
}

TEST(TopologyCensus, IncrementalMatchesRecountTwoClusters)
{
    churnCensus(makeTopology("1b7l", ModelParams{}), 0x202);
}

TEST(TopologyCensus, IncrementalMatchesRecountThreeClusters)
{
    churnCensus(makeTopology("2b2m4l", ModelParams{}), 0x303);
}

// --- Equi-marginal cluster solver -----------------------------------

TEST(ClusterOptimizerTest, MeetsTheBudgetAndNeverWastesIt)
{
    ModelParams mp;
    FirstOrderModel model(mp);
    CoreTopology topo = makeTopology("2b2m4l", mp);
    ClusterOptimizer opt(model, topo);

    ClusterActivity activity;
    activity.active = {1, 2, 2};
    activity.waiting = {1, 0, 2};
    double target = opt.targetPower(activity);
    ClusterOperatingPoint point = opt.solve(activity, target);

    ASSERT_EQ(static_cast<int>(point.v.size()), topo.numClusters());
    for (double v : point.v) {
        EXPECT_GE(v, mp.v_min - 1e-9);
        EXPECT_LE(v, mp.v_max + 1e-9);
    }
    // Feasible solutions stay within budget...
    EXPECT_LE(point.power, target * (1.0 + 1e-6));
    // ...and an unclamped optimum exhausts it (resting slack is wasted
    // throughput under a strictly increasing ips(V)).
    if (!point.clamped) {
        EXPECT_NEAR(point.power, target, target * 1e-6);
    }
    EXPECT_GT(point.ips, 0.0);
    EXPECT_GT(point.speedup, 0.0);

    // More budget can only help.
    ClusterOperatingPoint richer = opt.solve(activity, 1.25 * target);
    EXPECT_GE(richer.ips, point.ips * (1.0 - 1e-9));
}

TEST(ClusterOptimizerTest, SprintsTheLoneActiveCluster)
{
    // One active little core with everything else resting is the
    // work-sprinting limit: the solver should push its voltage well
    // above nominal (clamping at v_max at this budget).
    ModelParams mp;
    FirstOrderModel model(mp);
    CoreTopology topo = makeTopology("2b2m4l", mp);
    ClusterOptimizer opt(model, topo);

    ClusterActivity activity;
    activity.active = {0, 0, 1};
    activity.waiting = {2, 2, 3};
    ClusterOperatingPoint point =
        opt.solve(activity, opt.targetPower(activity));
    EXPECT_GT(point.v[2], mp.v_nom);
    EXPECT_GT(point.speedup, 1.0);
}

TEST(ClusterOptimizerTest, CrossValidatesAgainstTheTwoTypeOptimizer)
{
    // On two-cluster inputs the equi-marginal solver and the original
    // grid-plus-golden-section optimizer chase the same optimum; they
    // must agree to solver tolerance on every 4B4L census cell (the
    // paper's machines keep the two-type solver for their tables, so
    // this is a consistency check, not a bit-identity requirement).
    ModelParams mp;
    FirstOrderModel model(mp);
    CoreTopology topo = CoreTopology::bigLittle(4, 4, mp);
    ClusterOptimizer cluster_opt(model, topo);
    MarginalUtilityOptimizer legacy_opt(model);

    for (int ba = 0; ba <= 4; ++ba) {
        for (int la = 0; la <= 4; ++la) {
            if (ba + la == 0)
                continue;
            SCOPED_TRACE(testing::Message()
                         << "census (" << ba << ", " << la << ")");
            ClusterActivity activity;
            activity.active = {ba, la};
            activity.waiting = {4 - ba, 4 - la};
            CoreActivity legacy_activity;
            legacy_activity.n_big_active = ba;
            legacy_activity.n_little_active = la;
            legacy_activity.n_big_waiting = 4 - ba;
            legacy_activity.n_little_waiting = 4 - la;

            double target = cluster_opt.targetPower(activity);
            EXPECT_NEAR(target, legacy_opt.targetPower(legacy_activity),
                        1e-9);
            ClusterOperatingPoint a = cluster_opt.solve(activity, target);
            OperatingPoint b =
                legacy_opt.solve(legacy_activity, target,
                                 /*feasible=*/true);
            if (ba > 0) {
                EXPECT_NEAR(a.v[0], b.v_big, 2e-3);
            }
            if (la > 0) {
                EXPECT_NEAR(a.v[1], b.v_little, 2e-3);
            }
            EXPECT_NEAR(a.ips, b.ips, 1e-3 * b.ips + 1e-9);
        }
    }
}

/** Reference: voltageForMarginalCost with all 60 halvings run. */
double
fixedCountVoltageForCost(const FirstOrderModel &model,
                         const ClusterParams &params, double lambda)
{
    const ModelParams &p = model.params();
    double lo = p.v_min;
    double hi = p.v_max;
    if (model.marginalCost(params, lo) >= lambda)
        return lo;
    if (model.marginalCost(params, hi) <= lambda)
        return hi;
    for (int iter = 0; iter < 60; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (model.marginalCost(params, mid) < lambda)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/** Reference: solve's voltages with all 100 lambda halvings run. */
std::vector<double>
fixedCountClusterVoltages(const FirstOrderModel &model,
                          const ClusterOptimizer &opt,
                          const CoreTopology &topo,
                          const ClusterActivity &activity, double p_target)
{
    const ModelParams &p = model.params();
    const int n = topo.numClusters();
    double lambda_lo = model.marginalCost(topo.cluster(0).params, p.v_min);
    double lambda_hi = lambda_lo;
    for (int k = 0; k < n; ++k) {
        const ClusterParams &params = topo.cluster(k).params;
        lambda_lo = std::min(lambda_lo, model.marginalCost(params, p.v_min));
        lambda_hi = std::max(lambda_hi, model.marginalCost(params, p.v_max));
    }
    std::vector<double> v(n, p.v_min);
    auto voltagesFor = [&](double lambda) {
        for (int k = 0; k < n; ++k)
            v[k] = activity.active[k] > 0
                       ? fixedCountVoltageForCost(
                             model, topo.cluster(k).params, lambda)
                       : 0.0;
    };
    voltagesFor(lambda_hi);
    if (opt.systemPower(activity, v) > p_target) {
        voltagesFor(lambda_lo);
        if (opt.systemPower(activity, v) < p_target) {
            double lo = lambda_lo;
            double hi = lambda_hi;
            for (int iter = 0; iter < 100; ++iter) {
                double mid = 0.5 * (lo + hi);
                voltagesFor(mid);
                if (opt.systemPower(activity, v) < p_target)
                    lo = mid;
                else
                    hi = mid;
            }
            voltagesFor(lo);
        }
    }
    return v;
}

TEST(ClusterOptimizerTest, BisectionsMatchTheirFixedCountLoops)
{
    // The marginal-cost and lambda bisections stop at their fixed
    // points; random lambdas and budgets, past both clamped ends, must
    // give the bits the fixed-count loops gave.
    ModelParams mp;
    FirstOrderModel model(mp);
    Rng rng(11);
    for (const char *preset : {"4b4l", "1b7l", "2b2m4l"}) {
        SCOPED_TRACE(preset);
        CoreTopology topo = makeTopology(preset, mp);
        ClusterOptimizer opt(model, topo);
        for (const CoreCluster &cluster : topo.clusters()) {
            double lo = model.marginalCost(cluster.params, mp.v_min);
            double hi = model.marginalCost(cluster.params, mp.v_max);
            for (int i = 0; i < 500; ++i) {
                double lambda = rng.uniform(0.5 * lo, 1.5 * hi);
                EXPECT_EQ(opt.voltageForMarginalCost(cluster.params, lambda),
                          fixedCountVoltageForCost(model, cluster.params,
                                                   lambda))
                    << "lambda=" << lambda;
            }
        }
        const int n = topo.numClusters();
        for (int i = 0; i < 200; ++i) {
            ClusterActivity activity;
            activity.active.resize(n);
            activity.waiting.resize(n);
            int total_active = 0;
            for (int k = 0; k < n; ++k) {
                int count = topo.cluster(k).count;
                activity.active[k] = static_cast<int>(rng.below(count + 1));
                activity.waiting[k] = count - activity.active[k];
                total_active += activity.active[k];
            }
            if (total_active == 0)
                activity.active[0] = 1;
            // 0.2x reaches the v_min floor, 3x the v_max surplus.
            double target = opt.targetPower(activity) * rng.uniform(0.2, 3.0);
            ClusterOperatingPoint point = opt.solve(activity, target);
            std::vector<double> want = fixedCountClusterVoltages(
                model, opt, topo, activity, target);
            for (int k = 0; k < n; ++k)
                EXPECT_EQ(point.v[k], want[k])
                    << "cluster " << k << " target=" << target;
        }
    }
}

// --- Controller: per_cluster shared-rail collapse -------------------

TEST(TopologyController, SharedRailRunsAtTheClusterMax)
{
    ModelParams mp;
    FirstOrderModel model(mp);
    sched::PolicyConfig policy;
    policy.work_pacing = true;
    policy.work_sprinting = true;

    // Both shapes are non-legacy, so both tables come from the same
    // N-cluster solver and the rail granularity is the only
    // difference between the two controllers.
    CoreTopology per_core = makeTopology("2b2m4l", mp);
    CoreTopology shared = makeTopology("2b2m4l:pc", mp);
    DvfsLookupTable per_core_table(model, per_core);
    DvfsLookupTable shared_table(model, shared);
    DvfsController split(per_core_table, policy, mp);
    DvfsController fused(shared_table, policy, mp);

    // Half of each cluster active: with private rails the waiting
    // cores rest at v_min while their neighbors sprint above it...
    std::vector<bool> active = {true, false, true, false,
                                true, true,  false, false};
    std::vector<double> v_split = split.decide(active, -1);
    std::vector<double> v_fused = fused.decide(active, -1);
    ASSERT_EQ(v_split.size(), active.size());
    ASSERT_EQ(v_fused.size(), active.size());
    EXPECT_NEAR(v_split[1], mp.v_min, 1e-12);
    EXPECT_GT(v_split[0], mp.v_min);

    // ...while a shared rail drags every core in the cluster up to the
    // cluster's max target: one uniform voltage per cluster, and never
    // below the private-rail target of any of its cores.
    for (int cluster = 0; cluster < shared.numClusters(); ++cluster) {
        int begin = shared.clusterBegin(cluster);
        int end = begin + shared.cluster(cluster).count;
        double rail = v_fused[begin];
        double want = 0.0;
        for (int core = begin; core < end; ++core) {
            EXPECT_EQ(v_fused[core], rail) << "core " << core;
            want = std::max(want, v_split[core]);
        }
        EXPECT_NEAR(rail, want, 1e-12) << "cluster " << cluster;
    }

    // All-active pacing targets one voltage per cluster anyway, so the
    // rail granularity cannot matter there.
    std::vector<bool> all(active.size(), true);
    EXPECT_EQ(split.decide(all, -1), fused.decide(all, -1));
}

TEST(TopologyController, CensusOffByOneIsCaughtInSanitizerBuilds)
{
#ifndef AAWS_SANITIZER_BUILD
    GTEST_SKIP() << "the census contract is checked in sanitizer builds";
#else
    ModelParams mp;
    CoreTopology topo = makeTopology("4b4l", mp);
    DvfsLookupTable table(FirstOrderModel(mp), topo);
    DvfsController controller(table, sched::PolicyConfig{}, mp);
    // Three bigs and one little raise their activity bits.
    std::vector<bool> active = {true, true,  false, true,
                                true, false, false, false};
    sched::ActivityCensus census(topo);
    census.recount(active, topo.coreClusters());
    std::vector<double> out;
    controller.decideInto(active, census, -1, out); // agrees: no check fires
    census.note(1, true);                           // one little too many
    EXPECT_DEATH(controller.decideInto(active, census, -1, out),
                 "activity census counts 2 active cores in cluster 1 but "
                 "the activity bits hold 1");
#endif
}

} // namespace
} // namespace aaws
