#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "kernels/dag_builders.h"
#include "kernels/generators.h"

namespace aaws {

namespace {

struct Point2
{
    double x;
    double y;
};

/** Signed area of triangle (a, b, p): >0 when p is left of a->b. */
double
cross(const Point2 &a, const Point2 &b, const Point2 &p)
{
    return (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
}

/**
 * Quickhull recursion over the real point set: each node finds the
 * farthest point from the chord (a scan), filters the subset into the
 * two new sub-problems with a nested parallel_for, and recurses.  This
 * reproduces PBBS hull's combination of rss recursion and parallel
 * filtering.
 */
uint32_t
buildQuickhull(TaskDag &dag, const std::vector<Point2> &pts,
               std::vector<int32_t> subset, Point2 a, Point2 b)
{
    uint32_t t = dag.addTask();
    auto m = static_cast<int64_t>(subset.size());
    if (m <= 12) {
        dag.addWork(t, 60 * m + 120);
        return t;
    }
    // Farthest point from the chord (PBBS does this scan with a
    // parallel reduce, so it is a nested parallel_for here).
    double best = -1.0;
    int32_t far_idx = subset[0];
    for (int32_t i : subset) {
        double d = cross(a, b, pts[i]);
        if (d > best) {
            best = d;
            far_idx = i;
        }
    }
    Point2 far = pts[far_idx];
    // PBBS hull runs two data-parallel steps per node: a max-distance
    // reduce over the chord, then a packing filter into the two new
    // sub-problems.  Both are nested parallel loops here.
    int64_t grain = std::max<int64_t>(32, m / 112);
    // Per point: distance eval + running max, then two side tests + pack.
    uint32_t reduce_root = buildParallelFor(
        dag, m, [](int64_t) { return uint64_t{58}; }, grain);
    uint32_t filter_root = buildParallelFor(
        dag, m, [](int64_t) { return uint64_t{54}; }, grain);
    dag.addWork(t, 180);
    dag.addCall(t, reduce_root);
    dag.addCall(t, filter_root);

    // Real geometric filter into the two new half-spaces.
    std::vector<int32_t> left_set;
    std::vector<int32_t> right_set;
    for (int32_t i : subset) {
        if (cross(a, far, pts[i]) > 1e-12)
            left_set.push_back(i);
        else if (cross(far, b, pts[i]) > 1e-12)
            right_set.push_back(i);
    }
    uint32_t right_task = buildQuickhull(dag, pts, std::move(right_set),
                                         far, b);
    uint32_t left_task = buildQuickhull(dag, pts, std::move(left_set), a,
                                        far);
    dag.addSpawn(t, right_task);
    dag.addCall(t, left_task);
    dag.addSync(t);
    return t;
}

/** Quadtree build recursion over the real points (PBBS knn style). */
uint32_t
buildQuadtree(TaskDag &dag, std::vector<Point2> pts, double x0, double y0,
              double x1, double y1, int depth)
{
    uint32_t t = dag.addTask();
    auto m = static_cast<int64_t>(pts.size());
    if (m <= 24 || depth > 16) {
        dag.addWork(t, 60 * m + 150);
        return t;
    }
    dag.addWork(t, 18 * m + 200); // 4-way partition of the points
    double xm = 0.5 * (x0 + x1);
    double ym = 0.5 * (y0 + y1);
    std::vector<Point2> quads[4];
    for (const auto &p : pts) {
        int q = (p.x >= xm ? 1 : 0) + (p.y >= ym ? 2 : 0);
        quads[q].push_back(p);
    }
    uint32_t children[4];
    children[0] = buildQuadtree(dag, std::move(quads[0]), x0, y0, xm, ym,
                                depth + 1);
    children[1] = buildQuadtree(dag, std::move(quads[1]), xm, y0, x1, ym,
                                depth + 1);
    children[2] = buildQuadtree(dag, std::move(quads[2]), x0, ym, xm, y1,
                                depth + 1);
    children[3] = buildQuadtree(dag, std::move(quads[3]), xm, ym, x1, y1,
                                depth + 1);
    // Spawn three quadrants, descend into the fourth.
    dag.addSpawn(t, children[0]);
    dag.addSpawn(t, children[1]);
    dag.addSpawn(t, children[2]);
    dag.addCall(t, children[3]);
    dag.addSync(t);
    return t;
}

} // namespace

TaskDag
genHull(Rng &rng)
{
    // 2Dkuzmin_100000: heavy-tailed radial point distribution, so the
    // hull recursion is shallow but the filtering subsets are skewed.
    constexpr int64_t kN = 100000;
    std::vector<Point2> pts(kN);
    for (auto &p : pts) {
        double u = rng.uniform();
        double r = std::sqrt(1.0 / ((1.0 - u) * (1.0 - u)) - 1.0);
        double theta = rng.uniform(0.0, 2.0 * M_PI);
        p = {r * std::cos(theta), r * std::sin(theta)};
    }
    TaskDag dag;

    // Phase 1: parallel min/max scan to find the initial chord.
    uint32_t scan_root = buildParallelFor(
        dag, kN, [](int64_t) { return uint64_t{9}; }, kN / 24);
    dag.addPhase(/*serial_work=*/200000, static_cast<int32_t>(scan_root));

    // Phase 2: the quickhull recursion on both sides of the chord.
    auto [min_it, max_it] = std::minmax_element(
        pts.begin(), pts.end(),
        [](const Point2 &a, const Point2 &b) { return a.x < b.x; });
    Point2 lo = *min_it;
    Point2 hi = *max_it;
    std::vector<int32_t> upper;
    std::vector<int32_t> lower;
    for (int64_t i = 0; i < kN; ++i) {
        if (cross(lo, hi, pts[i]) > 0)
            upper.push_back(static_cast<int32_t>(i));
        else
            lower.push_back(static_cast<int32_t>(i));
    }
    uint32_t root = dag.addTask();
    dag.addWork(root, 500);
    uint32_t up = buildQuickhull(dag, pts, std::move(upper), lo, hi);
    uint32_t down = buildQuickhull(dag, pts, std::move(lower), hi, lo);
    dag.addSpawn(root, up);
    dag.addCall(root, down);
    dag.addSync(root);
    dag.addPhase(/*serial_work=*/20000, static_cast<int32_t>(root));
    return dag;
}

TaskDag
genKnn(Rng &rng)
{
    // 2DinCube_5000: quadtree build (rss) then one k-NN query per point
    // (parallel_for); query costs vary with the local tree shape.
    constexpr int64_t kN = 5000;
    std::vector<Point2> pts(kN);
    for (auto &p : pts)
        p = {rng.uniform(), rng.uniform()};
    TaskDag dag;

    uint32_t tree_root =
        buildQuadtree(dag, pts, 0.0, 0.0, 1.0, 1.0, 0);
    dag.addPhase(/*serial_work=*/400000,
                 static_cast<int32_t>(tree_root));

    uint32_t query_root = buildParallelFor(
        dag, kN,
        [&](int64_t) {
            // Traversal plus backtracking: ~1-3x the direct descent cost.
            double backtrack = 1.0 + 2.0 * rng.uniform();
            return static_cast<uint64_t>(8000.0 * backtrack);
        },
        /*grain=*/4);
    dag.addPhase(/*serial_work=*/50000,
                 static_cast<int32_t>(query_root));
    return dag;
}

TaskDag
genNbody(Rng &rng)
{
    // 3DinCube_180: tree build is negligible; the force phase dominates
    // with one large task per body (Table III: 485 tasks of ~116K
    // instructions).
    constexpr int64_t kN = 180;
    TaskDag dag;
    dag.addPhase(/*serial_work=*/800000, -1); // octree build + setup

    uint32_t force_root = buildParallelFor(
        dag, kN,
        [&](int64_t) {
            double skew = 0.8 + 0.4 * rng.uniform();
            return static_cast<uint64_t>(300000.0 * skew);
        },
        /*grain=*/1);
    dag.addPhase(/*serial_work=*/30000, static_cast<int32_t>(force_root));

    uint32_t update_root = buildParallelFor(
        dag, kN, [](int64_t) { return uint64_t{2200}; }, /*grain=*/4);
    dag.addPhase(/*serial_work=*/30000,
                 static_cast<int32_t>(update_root));
    return dag;
}

} // namespace aaws
