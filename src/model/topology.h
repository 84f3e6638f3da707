/**
 * @file
 * Core topology: the machine's asymmetry as data, not a boolean.
 *
 * The paper's machinery is derived for exactly two core classes (big /
 * little).  CoreTopology generalizes that to an ordered list of
 * CoreCluster{count, class params, DVFS domain}, sorted fastest to
 * slowest, so every layer — the first-order model, census, steal
 * gating, mugging, victim selection, the DVFS lookup table, the energy
 * accountant, both native pools, and the experiment engine — consumes
 * "which cluster is this core in?", and ClusterParams is the one
 * description of a core class.
 *
 * The paper's two machines are the presets "4b4l" and "1b7l", whose
 * 'b' and 'l' clusters are Section II's big and little classes
 * (clusterParamsFor).  isBigLittle() recognizes that shape so DVFS-table
 * generation runs the paper's two-cluster search on it
 * (ClusterOptimizer::solveTwoCluster, model/cluster_opt.h).  A
 * simulated machine is always named by a preset
 * (MachineConfig::topology); bigLittle() is the native pools' `n_big`
 * split, whose clusters may be empty.
 *
 * Presets are named by a "<count><kind>..." grammar — "4b4l", "1b7l",
 * "2b2m4l" — with kinds b (big), m (mid: geometric mean of big and
 * little in IPC, energy coefficient, and leakage) and l (little),
 * ordered fastest first.  A ":pc" suffix switches every cluster from
 * per-core voltage rails to one shared per-cluster rail
 * (DvfsDomain::per_cluster), the common silicon reality.
 */

#ifndef AAWS_MODEL_TOPOLOGY_H
#define AAWS_MODEL_TOPOLOGY_H

#include <string>
#include <vector>

#include "model/params.h"

namespace aaws {

/**
 * Voltage-rail granularity of one cluster.
 *
 * per_core: every core has its own rail (the paper's assumption; the
 * DVFS controller can rest and sprint cores individually).
 * per_cluster: one shared rail; the controller must drive the whole
 * cluster at the max of its cores' individual targets.
 */
enum class DvfsDomain
{
    per_core,
    per_cluster,
};

/**
 * First-order model class parameters of one cluster, in the same
 * abstract units as ModelParams (little IPC = 1, little energy
 * coefficient = 1, leakage relative to the calibrated big-core leakage
 * current).
 */
struct ClusterParams
{
    /** Average IPC of a core in this cluster (ipc_little scale). */
    double ipc = 1.0;
    /** Dynamic energy coefficient (alpha_little scale). */
    double energy_coeff = 1.0;
    /**
     * Leakage current as a fraction of the big-core leakage current the
     * model calibrates from lambda (1.0 = big, gamma = little).
     */
    double leak_ratio = 1.0;
};

/** One homogeneous group of cores. */
struct CoreCluster
{
    /** Class letter: 'b', 'm', 'l', or 'c' for custom parameters. */
    char kind = 'l';
    /** Number of cores in the cluster (>= 1). */
    int count = 0;
    ClusterParams params;
    DvfsDomain domain = DvfsDomain::per_core;
};

/** Class parameters of a preset kind ('b', 'm', 'l') under `mp`. */
ClusterParams clusterParamsFor(char kind, const ModelParams &mp);

/** Display name of a cluster kind ("big", "mid", "little", "custom"). */
const char *clusterKindName(char kind);

/**
 * An ordered list of core clusters, fastest first.  Cores are numbered
 * contiguously in cluster order: cluster 0 owns cores [0, count0),
 * cluster 1 the next count1 ids, and so on.
 */
class CoreTopology
{
  public:
    CoreTopology() = default;
    explicit CoreTopology(std::vector<CoreCluster> clusters);

    /** No clusters (a default-constructed topology). */
    bool empty() const { return clusters_.empty(); }

    int numClusters() const { return static_cast<int>(clusters_.size()); }
    int numCores() const { return num_cores_; }
    const CoreCluster &cluster(int k) const { return clusters_[k]; }
    const std::vector<CoreCluster> &clusters() const { return clusters_; }

    /** Cluster index of a core id (O(1); precomputed). */
    int clusterOf(int core) const { return core_cluster_[core]; }
    /** The full core -> cluster map, for bulk consumers. */
    const std::vector<int> &coreClusters() const { return core_cluster_; }

    /** First core id of cluster k (cores are contiguous per cluster). */
    int clusterBegin(int k) const { return cluster_begin_[k]; }

    /**
     * Number of distinct activity censuses: prod_k (count_k + 1).  The
     * census tuple (active counts per cluster) indexes DVFS-table cells
     * and occupancy banks.
     */
    int censusCells() const { return census_cells_; }

    /**
     * Mixed-radix index of a census tuple, fastest cluster most
     * significant; for two clusters, `ba * (n_little + 1) + la`.
     */
    int censusIndex(const std::vector<int> &counts) const;

    /** Inverse of censusIndex(); `counts` is resized to numClusters(). */
    void censusFromIndex(int index, std::vector<int> &counts) const;

    /** Short display name, e.g. "4b4l" or "2b2m4l:pc". */
    std::string name() const;

    /**
     * Is this the paper's two-cluster big/little shape (per-core rails,
     * parameters exactly what bigLittle() derives from `mp`)?  When
     * true, DVFS-table generation runs the two-cluster search
     * (ClusterOptimizer::solveTwoCluster), the paper's Fig. 3/5 method.
     */
    bool isBigLittle(const ModelParams &mp) const;

    /**
     * Same shape, class parameters re-derived from `mp` for all preset
     * kinds ('b'/'m'/'l'); custom ('c') clusters keep their parameters.
     * The simulator uses this to build the DVFS table from the
     * designer's table_params while executing under app_params.
     */
    CoreTopology retargeted(const ModelParams &mp) const;

    /**
     * Bigs-then-littles with per-core rails and the 'b' and 'l' class
     * parameters under `mp`; either count may be zero (the native
     * pools' `n_big` split and the serving accountant).
     */
    static CoreTopology bigLittle(int n_big, int n_little,
                                  const ModelParams &mp);

  private:
    std::vector<CoreCluster> clusters_;
    std::vector<int> core_cluster_;
    std::vector<int> cluster_begin_;
    int num_cores_ = 0;
    int census_cells_ = 1;
};

/**
 * Strict parse of a topology preset name ("4b4l", "1b7l", "2b2m4l",
 * optional ":pc" suffix): count >= 1 digits followed by a kind letter in
 * {b, m, l}, kinds strictly fastest-to-slowest, at least one cluster,
 * at most 64 cores.  Returns false (leaving `out` untouched) on
 * anything else; makeTopology() and the --topology flag make it fatal.
 */
bool parseTopologyName(const std::string &name, const ModelParams &mp,
                       CoreTopology &out);

/** parseTopologyName or fatal() with the offending name. */
CoreTopology makeTopology(const std::string &name, const ModelParams &mp);

/** The preset names the benches sweep by default. */
const std::vector<std::string> &topologyPresets();

} // namespace aaws

#endif // AAWS_MODEL_TOPOLOGY_H
