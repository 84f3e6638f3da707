#include "model/topology.h"

#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace aaws {

ClusterParams
clusterParamsFor(char kind, const ModelParams &mp)
{
    // 'b' and 'l' are Section II's two classes: big runs beta times the
    // little IPC at alpha times its energy coefficient and leaks the
    // calibrated big-core current, little leaks gamma of it; 'm' is the
    // geometric mean of the two classes in every dimension.
    ClusterParams params;
    switch (kind) {
    case 'b':
        params.ipc = mp.beta * mp.ipc_little;
        params.energy_coeff = mp.alpha * mp.alpha_little;
        params.leak_ratio = 1.0;
        break;
    case 'm':
        params.ipc = mp.ipc_little * std::sqrt(mp.beta);
        params.energy_coeff = mp.alpha_little * std::sqrt(mp.alpha);
        params.leak_ratio = std::sqrt(mp.gamma);
        break;
    case 'l':
        params.ipc = mp.ipc_little;
        params.energy_coeff = mp.alpha_little;
        params.leak_ratio = mp.gamma;
        break;
    default:
        fatal("unknown cluster kind '%c'", kind);
    }
    return params;
}

const char *
clusterKindName(char kind)
{
    switch (kind) {
    case 'b':
        return "big";
    case 'm':
        return "mid";
    case 'l':
        return "little";
    default:
        return "custom";
    }
}

CoreTopology::CoreTopology(std::vector<CoreCluster> clusters)
    : clusters_(std::move(clusters))
{
    for (size_t k = 0; k < clusters_.size(); ++k) {
        CoreCluster &cluster = clusters_[k];
        AAWS_ASSERT(cluster.count >= 0, "cluster %zu has negative count",
                    k);
        cluster_begin_.push_back(num_cores_);
        for (int i = 0; i < cluster.count; ++i)
            core_cluster_.push_back(static_cast<int>(k));
        num_cores_ += cluster.count;
        census_cells_ *= cluster.count + 1;
    }
}

int
CoreTopology::censusIndex(const std::vector<int> &counts) const
{
    AAWS_ASSERT(counts.size() == clusters_.size(),
                "census tuple has %zu clusters, topology %zu",
                counts.size(), clusters_.size());
    int index = 0;
    for (size_t k = 0; k < clusters_.size(); ++k) {
        AAWS_ASSERT(counts[k] >= 0 && counts[k] <= clusters_[k].count,
                    "census count %d out of [0, %d] for cluster %zu",
                    counts[k], clusters_[k].count, k);
        index = index * (clusters_[k].count + 1) + counts[k];
    }
    return index;
}

void
CoreTopology::censusFromIndex(int index, std::vector<int> &counts) const
{
    AAWS_ASSERT(index >= 0 && index < census_cells_,
                "census index %d out of [0, %d)", index, census_cells_);
    counts.assign(clusters_.size(), 0);
    for (size_t k = clusters_.size(); k-- > 0;) {
        int radix = clusters_[k].count + 1;
        counts[k] = index % radix;
        index /= radix;
    }
}

std::string
CoreTopology::name() const
{
    std::string out;
    bool all_per_cluster = !clusters_.empty();
    for (const CoreCluster &cluster : clusters_) {
        out += strfmt("%d%c", cluster.count, cluster.kind);
        if (cluster.domain != DvfsDomain::per_cluster)
            all_per_cluster = false;
    }
    if (all_per_cluster)
        out += ":pc";
    return out;
}

namespace {

bool
sameParams(const ClusterParams &a, const ClusterParams &b)
{
    return a.ipc == b.ipc && a.energy_coeff == b.energy_coeff &&
           a.leak_ratio == b.leak_ratio;
}

} // namespace

bool
CoreTopology::isBigLittle(const ModelParams &mp) const
{
    if (clusters_.size() != 2 || clusters_[0].kind != 'b' ||
        clusters_[1].kind != 'l' ||
        clusters_[0].domain != DvfsDomain::per_core ||
        clusters_[1].domain != DvfsDomain::per_core)
        return false;
    return sameParams(clusters_[0].params, clusterParamsFor('b', mp)) &&
           sameParams(clusters_[1].params, clusterParamsFor('l', mp));
}

CoreTopology
CoreTopology::retargeted(const ModelParams &mp) const
{
    std::vector<CoreCluster> clusters = clusters_;
    for (CoreCluster &cluster : clusters)
        if (cluster.kind != 'c')
            cluster.params = clusterParamsFor(cluster.kind, mp);
    return CoreTopology(std::move(clusters));
}

CoreTopology
CoreTopology::bigLittle(int n_big, int n_little, const ModelParams &mp)
{
    std::vector<CoreCluster> clusters(2);
    clusters[0].kind = 'b';
    clusters[0].count = n_big;
    clusters[0].params = clusterParamsFor('b', mp);
    clusters[1].kind = 'l';
    clusters[1].count = n_little;
    clusters[1].params = clusterParamsFor('l', mp);
    return CoreTopology(std::move(clusters));
}

bool
parseTopologyName(const std::string &name, const ModelParams &mp,
                  CoreTopology &out)
{
    // Grammar: (<count><kind>)+ [":pc"], kinds from "bml" in strictly
    // fastest-to-slowest order, 1..64 cores total.
    std::string body = name;
    bool per_cluster = false;
    if (body.size() >= 3 && body.compare(body.size() - 3, 3, ":pc") == 0) {
        per_cluster = true;
        body.resize(body.size() - 3);
    }
    std::vector<CoreCluster> clusters;
    const std::string kinds = "bml";
    size_t last_kind = 0;
    size_t i = 0;
    int total = 0;
    while (i < body.size()) {
        size_t digits = i;
        long count = 0;
        while (digits < body.size() && body[digits] >= '0' &&
               body[digits] <= '9') {
            count = count * 10 + (body[digits] - '0');
            if (count > 64)
                return false;
            ++digits;
        }
        if (digits == i || digits >= body.size())
            return false; // no count, or count with no kind letter
        size_t kind_pos = kinds.find(body[digits]);
        if (kind_pos == std::string::npos)
            return false;
        if (!clusters.empty() && kind_pos <= last_kind)
            return false; // kinds must strictly slow down left to right
        if (count < 1)
            return false;
        CoreCluster cluster;
        cluster.kind = body[digits];
        cluster.count = static_cast<int>(count);
        cluster.params = clusterParamsFor(cluster.kind, mp);
        cluster.domain = per_cluster ? DvfsDomain::per_cluster
                                     : DvfsDomain::per_core;
        clusters.push_back(std::move(cluster));
        last_kind = kind_pos;
        total += static_cast<int>(count);
        i = digits + 1;
    }
    if (clusters.empty() || total < 1 || total > 64)
        return false;
    out = CoreTopology(std::move(clusters));
    return true;
}

CoreTopology
makeTopology(const std::string &name, const ModelParams &mp)
{
    CoreTopology topology;
    if (!parseTopologyName(name, mp, topology))
        fatal("unknown topology '%s' (expected e.g. 4b4l, 1b7l, 2b2m4l, "
              "optional :pc suffix)",
              name.c_str());
    return topology;
}

const std::vector<std::string> &
topologyPresets()
{
    static const std::vector<std::string> presets = {"4b4l", "1b7l",
                                                     "2b2m4l"};
    return presets;
}

} // namespace aaws
