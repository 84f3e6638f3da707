#include "kernels/task_dag.h"

#include <algorithm>

namespace aaws {

void
TaskDag::addPhase(uint64_t serial_work, int32_t root)
{
    AAWS_ASSERT(root == -1 ||
                (root >= 0 && static_cast<size_t>(root) < head_.size()),
                "bad phase root %d", root);
    AAWS_ASSERT(!sealed_, "mutating a sealed TaskDag");
    phases_.push_back({serial_work, root});
}

void
TaskDag::ensurePacked() const
{
    if (!dirty_)
        return;
    size_t n = head_.size();
    op_begin_.assign(n + 1, 0);
    packed_ops_.clear();
    packed_ops_.reserve(pool_ops_.size());
    for (size_t t = 0; t < n; ++t) {
        op_begin_[t] = static_cast<uint32_t>(packed_ops_.size());
        for (int32_t node = head_[t]; node >= 0; node = pool_next_[node])
            packed_ops_.push_back(pool_ops_[node]);
    }
    op_begin_[n] = static_cast<uint32_t>(packed_ops_.size());
    dirty_ = false;
}

void
TaskDag::seal()
{
    // Packing walks only the heads and the next links, so the chain
    // tails go before the packed view is built.
    tail_.clear();
    tail_.shrink_to_fit();
    ensurePacked();
    sealed_ = true;
    // Release the build arena: sealed DAGs are read-only and the packed
    // view is the only representation consumers touch.
    pool_ops_.clear();
    pool_ops_.shrink_to_fit();
    pool_next_.clear();
    pool_next_.shrink_to_fit();
    head_.clear();
    head_.shrink_to_fit();
}

uint64_t
TaskDag::totalTaskWork() const
{
    ensurePacked();
    uint64_t sum = 0;
    for (const TaskOp &op : packed_ops_)
        if (op.kind == OpKind::work)
            sum += op.arg;
    return sum;
}

uint64_t
TaskDag::totalSerialWork() const
{
    uint64_t sum = 0;
    for (const auto &phase : phases_)
        sum += phase.serial_work;
    return sum;
}

uint64_t
TaskDag::totalWork() const
{
    return totalTaskWork() + totalSerialWork();
}

uint64_t
TaskDag::criticalPathOf(uint32_t t, std::vector<uint64_t> &memo) const
{
    if (memo[t] != UINT64_MAX)
        return memo[t];
    uint64_t local = 0;
    uint64_t pending_max = 0; // completion bound of spawned children
    const TaskOp *ops = packed_ops_.data() + op_begin_[t];
    size_t count = op_begin_[t + 1] - op_begin_[t];
    for (size_t i = 0; i < count; ++i) {
        const TaskOp &op = ops[i];
        switch (op.kind) {
          case OpKind::work:
            local += op.arg;
            break;
          case OpKind::spawn:
            pending_max = std::max(
                pending_max,
                local + criticalPathOf(static_cast<uint32_t>(op.arg),
                                       memo));
            break;
          case OpKind::call:
            local += criticalPathOf(static_cast<uint32_t>(op.arg), memo);
            break;
          case OpKind::sync:
            local = std::max(local, pending_max);
            pending_max = 0;
            break;
        }
    }
    // Fully strict programs join outstanding children at task end.
    local = std::max(local, pending_max);
    memo[t] = local;
    return local;
}

uint64_t
TaskDag::criticalPathWork() const
{
    ensurePacked();
    std::vector<uint64_t> memo(numTasks(), UINT64_MAX);
    uint64_t span = 0;
    for (const auto &phase : phases_) {
        span += phase.serial_work;
        if (phase.root_task >= 0) {
            span += criticalPathOf(static_cast<uint32_t>(phase.root_task),
                                   memo);
        }
    }
    return span;
}

double
TaskDag::avgTaskWork() const
{
    if (numTasks() == 0)
        return 0.0;
    return static_cast<double>(totalTaskWork()) /
           static_cast<double>(numTasks());
}

void
TaskDag::validate() const
{
    ensurePacked();
    size_t n = numTasks();
    std::vector<int> refs(n, 0);
    for (size_t t = 0; t < n; ++t) {
        for (uint32_t i = op_begin_[t]; i < op_begin_[t + 1]; ++i) {
            const TaskOp &op = packed_ops_[i];
            if (op.kind == OpKind::spawn || op.kind == OpKind::call) {
                AAWS_ASSERT(op.arg < n,
                            "task %zu references missing task %llu", t,
                            static_cast<unsigned long long>(op.arg));
                refs[op.arg]++;
            }
        }
    }
    for (const auto &phase : phases_) {
        if (phase.root_task >= 0)
            refs[phase.root_task]++;
    }
    for (size_t t = 0; t < n; ++t) {
        AAWS_ASSERT(refs[t] <= 1,
                    "task %zu referenced %d times (tree structure "
                    "violated)", t, refs[t]);
    }
    // Explicit reachability from the phase roots: together with the
    // reference-once property above this proves the spawn/call structure
    // is a forest rooted at the phases (and therefore acyclic).
    std::vector<bool> reachable(n, false);
    std::vector<uint32_t> stack;
    for (const auto &phase : phases_) {
        if (phase.root_task >= 0)
            stack.push_back(static_cast<uint32_t>(phase.root_task));
    }
    size_t num_reachable = 0;
    while (!stack.empty()) {
        uint32_t t = stack.back();
        stack.pop_back();
        if (reachable[t])
            continue;
        reachable[t] = true;
        num_reachable++;
        for (uint32_t i = op_begin_[t]; i < op_begin_[t + 1]; ++i) {
            const TaskOp &op = packed_ops_[i];
            if (op.kind == OpKind::spawn || op.kind == OpKind::call)
                stack.push_back(static_cast<uint32_t>(op.arg));
        }
    }
    AAWS_ASSERT(num_reachable == n,
                "%zu task(s) are unreachable from any phase",
                n - num_reachable);
}

} // namespace aaws
