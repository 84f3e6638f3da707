/**
 * @file
 * Task-graph generators for the 22 application kernels of Table III.
 *
 * Each generator runs the *skeleton* of the real algorithm over a
 * synthetic input drawn from the paper's input distribution (exponential
 * sequences, trigram sequences, kuzmin point sets, random local graphs,
 * ...) and records the task graph a child-stealing work-stealing runtime
 * would create: the recursion structure, the data-dependent task sizes,
 * and the phase/round structure with its serial gaps.  Instruction-count
 * constants are calibrated so each kernel's total dynamic instructions,
 * task count, and average task size approximate the Table III row.
 *
 * Generators are deterministic functions of the seed.
 */

#ifndef AAWS_KERNELS_GENERATORS_H
#define AAWS_KERNELS_GENERATORS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "kernels/task_dag.h"

namespace aaws {

// PBBS: breadth-first search, deterministic and non-deterministic.
TaskDag genBfsD(Rng &rng);
TaskDag genBfsNd(Rng &rng);

// PBBS: quicksort over an exponential / trigram sequence.
TaskDag genQsort1(Rng &rng);
TaskDag genQsort2(Rng &rng);

// PBBS: sample sort (nested parallelism).
TaskDag genSampsort(Rng &rng);

// PBBS: batch hash-table insert/lookup.
TaskDag genDict(Rng &rng);

// PBBS: quickhull convex hull over kuzmin-distributed points.
TaskDag genHull(Rng &rng);

// PBBS: LSD radix sort, uniform and exponential keys.
TaskDag genRadix1(Rng &rng);
TaskDag genRadix2(Rng &rng);

// PBBS: k-nearest-neighbors (quadtree build + queries).
TaskDag genKnn(Rng &rng);

// PBBS: maximal independent set (rounds over a random local graph).
TaskDag genMis(Rng &rng);

// PBBS: n-body force computation (tree build + force + update).
TaskDag genNbody(Rng &rng);

// PBBS: remove duplicates via concurrent hashing.
TaskDag genRdups(Rng &rng);

// PBBS: suffix array by prefix doubling.
TaskDag genSarray(Rng &rng);

// PBBS: spanning tree via edge contraction rounds.
TaskDag genSptree(Rng &rng);

// Cilk: blocked Cholesky factorization.
TaskDag genClsky(Rng &rng);

// Cilk: cilksort (recursive mergesort with parallel merge).
TaskDag genCilksort(Rng &rng);

// Cilk: heat diffusion (space-recursive stencil per timestep).
TaskDag genHeat(Rng &rng);

// Cilk: knapsack branch-and-bound tree search.
TaskDag genKsack(Rng &rng);

// Cilk: recursive blocked matrix multiply.
TaskDag genMatmul(Rng &rng);

// PARSEC: Black-Scholes option pricing.
TaskDag genBscholes(Rng &rng);

// UTS: unbalanced tree search (geometric tree).
TaskDag genUts(Rng &rng);

namespace detail {

/**
 * Compressed adjacency of a synthetic "random local graph" (PBBS), the
 * input of bfs-d, bfs-nd and mis.  Node u's list is the slots
 * [offsets[u], offsets[u + 1]) of `neighbors`; each slot holds the
 * neighbour's offset v - u, reduced modulo n into [-window, window] so
 * that it fits in an int16.
 */
struct LocalGraph
{
    int64_t n;
    std::vector<int32_t> offsets;   // n + 1
    std::vector<int16_t> neighbors; // undirected, both directions stored

    int64_t degree(int64_t u) const { return offsets[u + 1] - offsets[u]; }

    /** The node `offset` away from node u, modulo n. */
    int32_t
    decode(int64_t u, int64_t offset) const
    {
        int64_t v = u + offset;
        if (v < 0)
            v += n;
        else if (v >= n)
            v -= n;
        return static_cast<int32_t>(v);
    }

    /** The neighbour in slot i, one of u's slots. */
    int32_t
    neighbor(int64_t u, int32_t i) const
    {
        return decode(u, neighbors[i]);
    }
};

/**
 * PBBS randLocalGraph analog: every node draws `deg` neighbours
 * uniformly within `window` of itself.  Each list holds its neighbours
 * in the order their edges were drawn.
 */
LocalGraph makeLocalGraph(Rng &rng, int64_t n, int deg, int64_t window);

} // namespace detail

} // namespace aaws

#endif // AAWS_KERNELS_GENERATORS_H
