/**
 * @file
 * Task-graph representation of an application kernel.
 *
 * A kernel is modeled as the task structure a child-stealing runtime
 * would create (Section IV-C): every task is a small program over four
 * operations --
 *
 *   work n   : execute n instructions of the task body
 *   spawn t  : push child task t onto the worker's deque (stealable)
 *   call t   : execute child task t inline (a plain function call, the
 *              "left half" of a recursive decomposition; not stealable)
 *   sync     : wait until every task spawned *by this task* so far has
 *              completed (fully strict join)
 *
 * -- and the whole application is a sequence of phases executed by
 * logical thread 0: an optional truly-serial region followed by an
 * optional parallel region rooted at one task.  This is exactly the
 * structure of the paper's fully strict benchmark programs, and the
 * phase boundary is where the serial-region hint instructions fire.
 *
 * The DAG carries *algorithmic* work only; per-operation runtime costs
 * (enqueue, steal, sync checks) are charged by the simulator cost model.
 *
 * Storage: generators append operations to tasks in arbitrary
 * interleaved order (recursive decompositions build children before
 * finishing the parent), so ops are built in one shared arena as
 * per-task linked chains -- one allocation stream for the whole DAG
 * instead of a vector per task.  The arena is two parallel arrays, the
 * 8-byte ops and their 4-byte next links.  Consumers read a packed
 * structure-of-arrays view (flat op array + per-task span offsets)
 * built lazily and frozen by seal(); the simulator's inner interpreter
 * walks the flat array directly.
 */

#ifndef AAWS_KERNELS_TASK_DAG_H
#define AAWS_KERNELS_TASK_DAG_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace aaws {

/** Operation kind inside a task program. */
enum class OpKind : uint8_t { work, spawn, call, sync };

/** The largest arg a TaskOp holds: 62 bits. */
inline constexpr uint64_t kMaxOpArg = (uint64_t{1} << 62) - 1;

/** One operation of a task program, packed in one 64-bit word. */
struct TaskOp
{
    OpKind kind : 2;
    /** work: instruction count; spawn/call: child task id; sync: unused. */
    uint64_t arg : 62;
};

static_assert(sizeof(TaskOp) == 8, "TaskOp must pack into 8 bytes");

/** One application phase executed by logical thread 0. */
struct Phase
{
    /** Truly-serial instructions before the parallel region (may be 0). */
    uint64_t serial_work = 0;
    /** Root task of the parallel region, or -1 for a pure-serial phase. */
    int32_t root_task = -1;
};

/**
 * A whole kernel: tasks plus the phase sequence of logical thread 0.
 */
class TaskDag
{
  public:
    /** Append an empty task and return its id. */
    uint32_t
    addTask()
    {
        AAWS_ASSERT(!sealed_, "mutating a sealed TaskDag");
        head_.push_back(-1);
        tail_.push_back(-1);
        num_tasks_++;
        dirty_ = true;
        return static_cast<uint32_t>(num_tasks_ - 1);
    }

    /** Append `instructions` of body work to task `t` (coalesces). */
    void
    addWork(uint32_t t, uint64_t instructions)
    {
        if (instructions == 0)
            return;
        AAWS_ASSERT(t < head_.size(), "bad task id %u", t);
        AAWS_ASSERT(!sealed_, "mutating a sealed TaskDag");
        int32_t tl = tail_[t];
        if (tl >= 0 && pool_ops_[tl].kind == OpKind::work) {
            AAWS_ASSERT(instructions <= kMaxOpArg - pool_ops_[tl].arg,
                        "task %u's work does not fit in 62 bits", t);
            pool_ops_[tl].arg += instructions;
            dirty_ = true;
            return;
        }
        appendOp(t, OpKind::work, instructions);
    }

    /** Append a spawn of `child` to task `t`. */
    void
    addSpawn(uint32_t t, uint32_t child)
    {
        AAWS_ASSERT(t < head_.size() && child < head_.size(),
                    "bad spawn %u -> %u", t, child);
        AAWS_ASSERT(child != t, "task %u cannot spawn itself", t);
        appendOp(t, OpKind::spawn, child);
    }

    /** Append an inline call of `child` to task `t`. */
    void
    addCall(uint32_t t, uint32_t child)
    {
        AAWS_ASSERT(t < head_.size() && child < head_.size(),
                    "bad call %u -> %u", t, child);
        AAWS_ASSERT(child != t, "task %u cannot call itself", t);
        appendOp(t, OpKind::call, child);
    }

    /** Append a sync (join with all children spawned so far) to `t`. */
    void
    addSync(uint32_t t)
    {
        AAWS_ASSERT(t < head_.size(), "bad task id %u", t);
        appendOp(t, OpKind::sync, 0);
    }

    /** Append a phase. Pass root = -1 for a pure serial phase. */
    void addPhase(uint64_t serial_work, int32_t root);

    const std::vector<Phase> &phases() const { return phases_; }

    /** Number of tasks (the paper's "Num Tasks" counts spawned tasks). */
    size_t numTasks() const { return num_tasks_; }

    /** Number of ops in task `t`'s program. */
    size_t
    opCount(uint32_t t) const
    {
        ensurePacked();
        return op_begin_[t + 1] - op_begin_[t];
    }

    /** Pointer to task `t`'s packed op program (opCount(t) entries). */
    const TaskOp *
    ops(uint32_t t) const
    {
        ensurePacked();
        return packed_ops_.data() + op_begin_[t];
    }

    /** Flat packed op array for all tasks (see opSpans()). */
    const TaskOp *
    packedOps() const
    {
        ensurePacked();
        return packed_ops_.data();
    }

    /**
     * Per-task span offsets into packedOps(): task t's program is
     * [spans[t], spans[t+1]).  The array has numTasks()+1 entries.
     */
    const uint32_t *
    opSpans() const
    {
        ensurePacked();
        return op_begin_.data();
    }

    /**
     * Freeze the DAG: build the packed view, release the build arena,
     * and reject further mutation.  Sealing is what makes one TaskDag
     * safely shareable across concurrently running simulations.
     */
    void seal();

    /** Total body work across all tasks, in instructions. */
    uint64_t totalTaskWork() const;

    /** Total truly-serial work across phases, in instructions. */
    uint64_t totalSerialWork() const;

    /** totalTaskWork() + totalSerialWork(). */
    uint64_t totalWork() const;

    /** Length of the critical path in instructions (span; T_inf). */
    uint64_t criticalPathWork() const;

    /** Average body work per task in instructions; 0 with no tasks. */
    double avgTaskWork() const;

    /**
     * Check structural invariants, panicking on violation:
     * every child is referenced exactly once, no task reaches itself
     * (tree-shaped spawn/call structure), every phase root is valid, and
     * every referenced task id exists.
     */
    void validate() const;

  private:
    void
    appendOp(uint32_t t, OpKind kind, uint64_t arg)
    {
        AAWS_ASSERT(!sealed_, "mutating a sealed TaskDag");
        AAWS_ASSERT(arg <= kMaxOpArg, "op arg %llu does not fit in 62 bits",
                    static_cast<unsigned long long>(arg));
        int32_t node = static_cast<int32_t>(pool_ops_.size());
        TaskOp op;
        op.kind = kind;
        op.arg = arg;
        pool_ops_.push_back(op);
        pool_next_.push_back(-1);
        if (tail_[t] >= 0)
            pool_next_[tail_[t]] = node;
        else
            head_[t] = node;
        tail_[t] = node;
        dirty_ = true;
    }

    void ensurePacked() const;

    uint64_t criticalPathOf(uint32_t t,
                            std::vector<uint64_t> &memo) const;

    // Build representation: shared op arena (ops and their next links,
    // -1 ending a chain) + per-task chain ends.
    std::vector<TaskOp> pool_ops_;
    std::vector<int32_t> pool_next_;
    std::vector<int32_t> head_;
    std::vector<int32_t> tail_;
    std::vector<Phase> phases_;
    size_t num_tasks_ = 0;
    bool sealed_ = false;

    // Packed read view, (re)built lazily from the arena.
    mutable std::vector<TaskOp> packed_ops_;
    mutable std::vector<uint32_t> op_begin_;
    mutable bool dirty_ = true;
};

} // namespace aaws

#endif // AAWS_KERNELS_TASK_DAG_H
