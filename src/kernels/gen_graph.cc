#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "kernels/dag_builders.h"
#include "kernels/generators.h"

namespace aaws {

namespace {

/** Compressed adjacency of a synthetic "random local graph" (PBBS). */
struct LocalGraph
{
    int64_t n;
    std::vector<int32_t> offsets;   // n + 1
    std::vector<int32_t> neighbors; // undirected, both directions stored

    int64_t degree(int64_t u) const { return offsets[u + 1] - offsets[u]; }
};

/**
 * PBBS randLocalGraph analog: every node draws `deg` neighbors uniformly
 * within a locality window, giving the high-diameter structure that makes
 * BFS run for many rounds.
 *
 * Built in two passes: draw every edge in node order, counting both
 * endpoints' degrees; then fill the neighbor lists in draw order, so
 * each node lists its neighbors in the order their edges were drawn.
 */
LocalGraph
makeLocalGraph(Rng &rng, int64_t n, int deg, int64_t window)
{
    LocalGraph g;
    g.n = n;
    g.offsets.assign(n + 1, 0);
    std::vector<int32_t> far(n * deg);
    for (int64_t u = 0; u < n; ++u) {
        int64_t lo = std::max<int64_t>(0, u - window);
        int64_t hi = std::min<int64_t>(n - 1, u + window);
        for (int d = 0; d < deg; ++d) {
            int64_t v = rng.range(lo, hi);
            if (v == u)
                v = (u + 1) % n;
            far[u * deg + d] = static_cast<int32_t>(v);
            g.offsets[u + 1]++;
            g.offsets[v + 1]++;
        }
    }
    for (int64_t u = 0; u < n; ++u)
        g.offsets[u + 1] += g.offsets[u];
    g.neighbors.resize(g.offsets[n]);
    std::vector<int32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
    for (int64_t u = 0; u < n; ++u) {
        for (int d = 0; d < deg; ++d) {
            int32_t v = far[u * deg + d];
            g.neighbors[cursor[u]++] = v;
            g.neighbors[cursor[v]++] = static_cast<int32_t>(u);
        }
    }
    return g;
}

/**
 * A real BFS from node 0: the visit order, cut into frontiers.  Level l
 * is order[begin[l], begin[l + 1]).
 */
struct BfsLevels
{
    std::vector<int32_t> order;
    std::vector<int64_t> begin;

    int64_t numLevels() const { return static_cast<int64_t>(begin.size()) - 1; }
};

BfsLevels
bfsLevels(const LocalGraph &g)
{
    BfsLevels bfs;
    std::vector<int8_t> visited(g.n, 0);
    bfs.order.reserve(g.n);
    bfs.order.push_back(0);
    visited[0] = 1;
    size_t head = 0;
    while (head < bfs.order.size()) {
        bfs.begin.push_back(static_cast<int64_t>(head));
        for (size_t end = bfs.order.size(); head < end; ++head) {
            int32_t u = bfs.order[head];
            for (int32_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
                int32_t v = g.neighbors[i];
                if (!visited[v]) {
                    visited[v] = 1;
                    bfs.order.push_back(v);
                }
            }
        }
    }
    bfs.begin.push_back(static_cast<int64_t>(bfs.order.size()));
    return bfs;
}

/** BFS cost constants (per frontier node / per edge, instructions). */
struct BfsCosts
{
    uint64_t per_node;
    uint64_t per_edge;
};

/**
 * Build the level-synchronous BFS DAG: one parallel_for per level per
 * sub-phase, with a short serial frontier-swap gap between levels.
 */
TaskDag
buildBfs(Rng &rng, const LocalGraph &g, int sub_phases,
         const BfsCosts &costs, int64_t tasks_per_level, double jitter)
{
    BfsLevels bfs = bfsLevels(g);
    TaskDag dag;
    dag.addPhase(/*serial_work=*/900000, -1); // graph load + init
    for (int64_t l = 0; l < bfs.numLevels(); ++l) {
        const int32_t *level = bfs.order.data() + bfs.begin[l];
        int64_t n = bfs.begin[l + 1] - bfs.begin[l];
        for (int sp = 0; sp < sub_phases; ++sp) {
            int64_t grain =
                std::max<int64_t>(16, n / std::max<int64_t>(
                                          1, tasks_per_level / 2));
            uint32_t root = buildParallelFor(
                dag, n,
                [&](int64_t i) {
                    int64_t deg = g.degree(level[i]);
                    double j = 1.0 + jitter * rng.uniform();
                    return static_cast<uint64_t>(
                        (costs.per_node + costs.per_edge * deg) * j);
                },
                grain);
            dag.addPhase(/*serial_work=*/2500,
                         static_cast<int32_t>(root));
        }
    }
    return dag;
}

} // namespace

TaskDag
genBfsD(Rng &rng)
{
    // Deterministic BFS: reserve + commit sub-phases per level.
    LocalGraph g = makeLocalGraph(rng, 150000, 5, 8000);
    return buildBfs(rng, g, /*sub_phases=*/2, BfsCosts{30, 8},
                    /*tasks_per_level=*/34, /*jitter=*/0.15);
}

TaskDag
genBfsNd(Rng &rng)
{
    // Non-deterministic BFS: single sub-phase but compare-and-swap
    // retries make per-node work larger and noisier.
    LocalGraph g = makeLocalGraph(rng, 150000, 5, 8000);
    return buildBfs(rng, g, /*sub_phases=*/1, BfsCosts{70, 25},
                    /*tasks_per_level=*/100, /*jitter=*/0.35);
}

TaskDag
genMis(Rng &rng)
{
    // Luby-style maximal independent set: rounds of a parallel_for over
    // the remaining vertices of a real random local graph.
    LocalGraph g = makeLocalGraph(rng, 50000, 5, 500);
    std::vector<int8_t> alive(g.n, 1);
    std::vector<double> priority(g.n);
    TaskDag dag;
    dag.addPhase(/*serial_work=*/150000, -1);

    std::vector<int32_t> remaining(g.n);
    for (int64_t u = 0; u < g.n; ++u)
        remaining[u] = static_cast<int32_t>(u);

    while (!remaining.empty()) {
        for (int32_t u : remaining)
            priority[u] = rng.uniform();
        // Select local minima into the MIS; drop them and their
        // neighbors from the remaining set.
        std::vector<int8_t> selected(g.n, 0);
        for (int32_t u : remaining) {
            bool is_min = true;
            for (int32_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
                int32_t v = g.neighbors[i];
                if (alive[v] && priority[v] < priority[u]) {
                    is_min = false;
                    break;
                }
            }
            selected[u] = is_min;
        }
        auto n = static_cast<int64_t>(remaining.size());
        int64_t grain = std::max<int64_t>(4, n / 350);
        uint32_t root = buildParallelFor(
            dag, n,
            [&](int64_t i) { return 16 + 5 * g.degree(remaining[i]); },
            grain);
        dag.addPhase(/*serial_work=*/4000, static_cast<int32_t>(root));

        std::vector<int32_t> next;
        for (int32_t u : remaining) {
            if (selected[u]) {
                alive[u] = 0;
                continue;
            }
            bool neighbor_selected = false;
            for (int32_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
                if (selected[g.neighbors[i]]) {
                    neighbor_selected = true;
                    break;
                }
            }
            if (neighbor_selected)
                alive[u] = 0;
            else
                next.push_back(u);
        }
        remaining = std::move(next);
    }
    return dag;
}

TaskDag
genSptree(Rng &rng)
{
    // Spanning tree by edge-contraction rounds: each round processes the
    // surviving edges with atomic hook/compress operations; roughly half
    // the edges survive a round.
    constexpr int64_t kEdges = 250000;
    TaskDag dag;
    dag.addPhase(/*serial_work=*/400000, -1);
    int64_t remaining = kEdges;
    while (remaining > 600) {
        int64_t grain = std::max<int64_t>(32, remaining / 22);
        uint32_t root = buildParallelFor(
            dag, remaining, [&](int64_t) { return 28 + rng.below(12); },
            grain);
        dag.addPhase(/*serial_work=*/6000, static_cast<int32_t>(root));
        // Contraction keeps 45-55% of edges depending on the dataset.
        remaining = static_cast<int64_t>(
            remaining * (0.45 + 0.10 * rng.uniform()));
    }
    // Final serial cleanup of the remaining edge tail.
    dag.addPhase(/*serial_work=*/remaining * 30, -1);
    return dag;
}

} // namespace aaws
