/**
 * @file
 * Tests of the task-DAG representation, the parallel_for builders, and
 * all 22 kernel generators (validity, determinism, calibration against
 * Table III).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kernels/dag_builders.h"
#include "kernels/registry.h"

namespace aaws {
namespace {

TEST(TaskDag, WorkCoalescesAndSums)
{
    TaskDag dag;
    uint32_t t = dag.addTask();
    dag.addWork(t, 100);
    dag.addWork(t, 50);
    EXPECT_EQ(dag.opCount(t), 1u); // coalesced
    dag.addSync(t);
    dag.addWork(t, 25);
    EXPECT_EQ(dag.totalTaskWork(), 175u);
}

TEST(TaskDag, SerialAndTaskWorkSeparate)
{
    TaskDag dag;
    uint32_t t = dag.addTask();
    dag.addWork(t, 10);
    dag.addPhase(90, static_cast<int32_t>(t));
    EXPECT_EQ(dag.totalSerialWork(), 90u);
    EXPECT_EQ(dag.totalWork(), 100u);
}

TEST(TaskDag, CriticalPathOfChain)
{
    // parent does 10, calls child (20), then 5 => span 35.
    TaskDag dag;
    uint32_t parent = dag.addTask();
    uint32_t child = dag.addTask();
    dag.addWork(parent, 10);
    dag.addCall(parent, child);
    dag.addWork(child, 20);
    dag.addWork(parent, 5);
    dag.addPhase(0, static_cast<int32_t>(parent));
    EXPECT_EQ(dag.criticalPathWork(), 35u);
}

TEST(TaskDag, CriticalPathOfForkJoin)
{
    // parent spawns child (100) at t=0, does 30 itself, syncs, does 5.
    // Span = max(30, 100) + 5 = 105.
    TaskDag dag;
    uint32_t parent = dag.addTask();
    uint32_t child = dag.addTask();
    dag.addSpawn(parent, child);
    dag.addWork(child, 100);
    dag.addWork(parent, 30);
    dag.addSync(parent);
    dag.addWork(parent, 5);
    dag.addPhase(0, static_cast<int32_t>(parent));
    EXPECT_EQ(dag.criticalPathWork(), 105u);
}

TEST(TaskDag, ImplicitSyncAtTaskEnd)
{
    TaskDag dag;
    uint32_t parent = dag.addTask();
    uint32_t child = dag.addTask();
    dag.addWork(parent, 10);
    dag.addSpawn(parent, child);
    dag.addWork(child, 100);
    // No explicit sync: fully strict end-of-task join still applies.
    dag.addPhase(0, static_cast<int32_t>(parent));
    EXPECT_EQ(dag.criticalPathWork(), 110u);
}

TEST(TaskDag, ValidateAcceptsWellFormed)
{
    TaskDag dag;
    uint32_t root = dag.addTask();
    uint32_t child = dag.addTask();
    dag.addSpawn(root, child);
    dag.addSync(root);
    dag.addPhase(10, static_cast<int32_t>(root));
    dag.validate(); // must not panic
}

TEST(TaskDag, ValidateRejectsDoubleReference)
{
    TaskDag dag;
    uint32_t root = dag.addTask();
    uint32_t child = dag.addTask();
    dag.addSpawn(root, child);
    dag.addCall(root, child); // referenced twice
    dag.addPhase(0, static_cast<int32_t>(root));
    EXPECT_DEATH(dag.validate(), "referenced");
}

TEST(TaskDag, ValidateRejectsUnreachable)
{
    TaskDag dag;
    uint32_t root = dag.addTask();
    dag.addWork(root, 1);
    dag.addTask(); // orphan
    dag.addPhase(0, static_cast<int32_t>(root));
    EXPECT_DEATH(dag.validate(), "unreachable");
}

/** A loop body of `work` instructions at every index. */
auto
uniformWork(uint64_t work)
{
    return [work](int64_t) { return work; };
}

TEST(Builders, ParallelForCoversAllIterations)
{
    TaskDag dag;
    uint32_t root = buildParallelFor(dag, 1000, uniformWork(7), 100);
    dag.addPhase(0, static_cast<int32_t>(root));
    dag.validate();
    // 1000 iterations x 7 instructions appear in the leaves, plus
    // bounded overhead.
    EXPECT_GE(dag.totalTaskWork(), 7000u);
    EXPECT_LE(dag.totalTaskWork(), 7000u + 100 * 2000u);
}

TEST(Builders, GrainBoundsLeafSize)
{
    TaskDag dag;
    DagCosts costs;
    uint32_t root = buildParallelFor(dag, 64, uniformWork(1), 4, costs);
    dag.addPhase(0, static_cast<int32_t>(root));
    // 64 iterations, grain 4 => 16 leaves => 31 tasks.
    EXPECT_EQ(dag.numTasks(), 31u);
}

TEST(Builders, NestedCallTasksAreWired)
{
    TaskDag dag;
    uint32_t inner = dag.addTask();
    dag.addWork(inner, 500);
    std::vector<ForItem> items(4);
    items[2].work = 10;
    items[2].call_task = static_cast<int32_t>(inner);
    uint32_t root = buildParallelFor(dag, items, 1);
    dag.addPhase(0, static_cast<int32_t>(root));
    dag.validate();
    EXPECT_GE(dag.totalTaskWork(), 510u);
}

TEST(Builders, SingleIterationDegeneratesToLeaf)
{
    TaskDag dag;
    uint32_t root = buildParallelFor(dag, 1, uniformWork(42), 8);
    dag.addPhase(0, static_cast<int32_t>(root));
    EXPECT_EQ(dag.numTasks(), 1u);
    dag.validate();
}

/** The (n, grain) shapes the builder-contract tests cover. */
const std::pair<int64_t, int64_t> kLoopShapes[] = {
    {1, 8}, {37, 5}, {64, 4}, {1000, 1}, {1000, 100}};

TEST(Builders, WorkOfSeesEachIndexOnceInIncreasingOrder)
{
    for (auto [n, grain] : kLoopShapes) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " grain=" + std::to_string(grain));
        TaskDag dag;
        std::vector<int64_t> seen;
        std::vector<size_t> tasks_at_call;
        uint32_t root = buildParallelFor(
            dag, n,
            [&](int64_t i) {
                seen.push_back(i);
                tasks_at_call.push_back(dag.numTasks());
                return uint64_t{1};
            },
            grain);
        std::vector<int64_t> expected(n);
        for (int64_t i = 0; i < n; ++i)
            expected[i] = i;
        EXPECT_EQ(seen, expected);
        // Every task of the loop exists before the first call.
        EXPECT_EQ(tasks_at_call,
                  std::vector<size_t>(n, dag.numTasks()));
        dag.addPhase(0, static_cast<int32_t>(root));
        dag.validate();
    }
}

TEST(Builders, CallableAndItemsFormsBuildIdenticalOps)
{
    for (auto [n, grain] : kLoopShapes) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " grain=" + std::to_string(grain));
        Rng draw(static_cast<uint64_t>(n * 1000 + grain));
        std::vector<ForItem> items(n);
        for (auto &item : items)
            item.work = draw.below(5000);
        TaskDag by_items;
        uint32_t items_root = buildParallelFor(by_items, items, grain);
        TaskDag by_callable;
        uint32_t callable_root = buildParallelFor(
            by_callable, n, [&](int64_t i) { return items[i].work; },
            grain);
        EXPECT_EQ(items_root, callable_root);
        ASSERT_EQ(by_items.numTasks(), by_callable.numTasks());
        size_t tasks = by_items.numTasks();
        for (size_t t = 0; t <= tasks; ++t)
            ASSERT_EQ(by_items.opSpans()[t], by_callable.opSpans()[t])
                << "task " << t;
        for (uint32_t i = 0; i < by_items.opSpans()[tasks]; ++i) {
            EXPECT_EQ(by_items.packedOps()[i].kind,
                      by_callable.packedOps()[i].kind) << "op " << i;
            EXPECT_EQ(by_items.packedOps()[i].arg,
                      by_callable.packedOps()[i].arg) << "op " << i;
        }
    }
}

TEST(Registry, HasAll22Kernels)
{
    EXPECT_EQ(kernelNames().size(), 22u);
}

TEST(Registry, UnknownKernelIsFatal)
{
    EXPECT_DEATH((void)makeKernel("not-a-kernel"), "unknown kernel");
}

TEST(Registry, SameSeedSameDag)
{
    Kernel a = makeKernel("qsort-1", 99);
    Kernel b = makeKernel("qsort-1", 99);
    EXPECT_EQ(a.dag.numTasks(), b.dag.numTasks());
    EXPECT_EQ(a.dag.totalWork(), b.dag.totalWork());
    EXPECT_EQ(a.dag.criticalPathWork(), b.dag.criticalPathWork());
}

TEST(Registry, DifferentSeedsVaryDataDependentKernels)
{
    Kernel a = makeKernel("qsort-1", 1);
    Kernel b = makeKernel("qsort-1", 2);
    EXPECT_NE(a.dag.totalWork(), b.dag.totalWork());
}

class KernelParam : public ::testing::TestWithParam<std::string>
{
};

TEST_P(KernelParam, ValidatesAndMatchesTable3Within60Percent)
{
    Kernel kernel = makeKernel(GetParam());
    kernel.dag.validate();
    const PaperKernelStats &stats = kernel.stats;

    double dinsts_m = kernel.dag.totalWork() / 1e6;
    EXPECT_GT(dinsts_m, 0.4 * stats.dinsts_m) << GetParam();
    EXPECT_LT(dinsts_m, 1.6 * stats.dinsts_m) << GetParam();

    // Task counts are structural: most kernels land well within 2x of
    // the paper (hull's kuzmin geometry prunes harder; see DESIGN.md).
    double tasks = static_cast<double>(kernel.dag.numTasks());
    EXPECT_GT(tasks, 0.3 * stats.num_tasks) << GetParam();
    EXPECT_LT(tasks, 3.0 * stats.num_tasks) << GetParam();
}

TEST_P(KernelParam, HasParallelSlack)
{
    Kernel kernel = makeKernel(GetParam());
    double span = static_cast<double>(kernel.dag.criticalPathWork());
    double work = static_cast<double>(kernel.dag.totalWork());
    // Every kernel must expose parallelism (T1/Tinf > 3) to be a
    // meaningful work-stealing workload.
    EXPECT_GT(work / span, 3.0) << GetParam();
}

TEST_P(KernelParam, IpcWithinSingleIssueBounds)
{
    Kernel kernel = makeKernel(GetParam());
    EXPECT_GT(kernel.stats.ipcLittle(), 0.15) << GetParam();
    EXPECT_LE(kernel.stats.ipcLittle(), 1.0) << GetParam();
    EXPECT_NEAR(kernel.stats.ipcBig() / kernel.stats.ipcLittle(),
                kernel.stats.beta, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelParam, ::testing::ValuesIn(kernelNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Table3, RowsMatchRegistry)
{
    EXPECT_EQ(table3().size(), 22u);
    for (const auto &row : table3()) {
        EXPECT_NO_FATAL_FAILURE((void)table3Row(row.name));
        EXPECT_GT(row.alpha, 1.0);
        EXPECT_GT(row.beta, 1.0);
        EXPECT_GT(row.dinsts_m, 0.0);
        EXPECT_GT(row.num_tasks, 0);
    }
}

TEST(Table3, AggregateAlphaBetaNearDesignerEstimates)
{
    // Section V-B: alpha ~ 3 and beta ~ 2 across the suite.
    double alpha_sum = 0.0;
    double beta_sum = 0.0;
    for (const auto &row : table3()) {
        alpha_sum += row.alpha;
        beta_sum += row.beta;
    }
    EXPECT_NEAR(alpha_sum / 22.0, 2.64, 0.3);
    EXPECT_NEAR(beta_sum / 22.0, 1.95, 0.3);
}

} // namespace
} // namespace aaws
