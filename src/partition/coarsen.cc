#include "partition/coarsen.hh"

#include <algorithm>
#include <array>

#include "partition/matching.hh"
#include "support/logging.hh"

namespace cvliw
{

int
CoarseningHierarchy::numGroups(int level) const
{
    cv_assert(level >= 0 && level < numLevels(), "bad level ", level);
    return numGroups_[level];
}

int
CoarseningHierarchy::groupOf(NodeId n, int level) const
{
    cv_assert(level >= 0 && level < numLevels(), "bad level ", level);
    const auto &map = groupOf_[level];
    if (n < 0 || n >= static_cast<NodeId>(map.size()))
        return -1;
    return map[n];
}

std::vector<NodeId>
CoarseningHierarchy::membersOf(NodeId n, int level) const
{
    const int g = groupOf(n, level);
    cv_assert(g >= 0, "node ", n, " not in hierarchy");
    return groupMembers(g, level);
}

std::vector<NodeId>
CoarseningHierarchy::groupMembers(int group, int level) const
{
    cv_assert(level >= 0 && level < numLevels(), "bad level ", level);
    std::vector<NodeId> members;
    const auto &map = groupOf_[level];
    for (NodeId n = 0; n < static_cast<NodeId>(map.size()); ++n) {
        if (map[n] == group)
            members.push_back(n);
    }
    return members;
}

void
CoarseningHierarchy::addLevel(std::vector<int> group_of, int num_groups)
{
    groupOf_.push_back(std::move(group_of));
    numGroups_.push_back(num_groups);
}

namespace
{

constexpr auto numKinds =
    static_cast<std::size_t>(ResourceKind::NumResourceKinds);

using Usage = std::array<int, numKinds>;

/**
 * Per-kind capacity check for contracting two coarse vertices;
 * @p cap holds available * II per kind.
 */
bool
mergeFits(const Usage &a, const Usage &b, const Usage &cap)
{
    for (std::size_t k = 0; k < numKinds; ++k) {
        if (static_cast<ResourceKind>(k) == ResourceKind::Bus)
            continue;
        const int need = a[k] + b[k];
        if (need != 0 && need > cap[k])
            return false;
    }
    return true;
}

} // namespace

CoarseningHierarchy
coarsen(const Ddg &ddg, const MachineConfig &mach, int ii,
        const std::vector<long long> &edge_weights)
{
    CoarseningHierarchy hier;
    const int clusters = mach.numClusters();
    const int slots = ddg.numNodeSlots();

    // Level 0: live nodes get dense vertex ids. `vertex_of` then
    // tracks each original node's vertex at the current level.
    std::vector<int> vertex_of(slots, -1);
    int num_vertices = 0;
    for (NodeId n : ddg.nodes())
        vertex_of[n] = num_vertices++;
    hier.addLevel(vertex_of, num_vertices);

    // Per-vertex resource usage.
    std::vector<Usage> usage(num_vertices, Usage{});
    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls != OpClass::Copy) {
            ++usage[vertex_of[n]]
                   [static_cast<std::size_t>(mach.resourceFor(cls))];
        }
    }

    Usage cap{};
    for (std::size_t k = 0; k < numKinds; ++k)
        cap[k] = mach.available(static_cast<ResourceKind>(k)) * ii;

    // Accumulated edge weights between coarse vertices: one edge per
    // (a < b) pair between levels, folded by the bucket pass of
    // EdgeFolder. The matching's sort is the one sort per level.
    std::vector<MatchEdge> weights;
    weights.reserve(static_cast<std::size_t>(ddg.numEdges()));
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        const long long w =
            eid < static_cast<EdgeId>(edge_weights.size())
                ? edge_weights[eid] : 0;
        if (w <= 0)
            continue;
        int a = vertex_of[e.src], b = vertex_of[e.dst];
        if (a == b)
            continue;
        if (a > b)
            std::swap(a, b);
        weights.push_back({a, b, w});
    }
    EdgeFolder folder;
    folder.fold(weights, num_vertices);

    // Per-level buffers, reused across levels.
    std::vector<char> matched;
    std::vector<std::pair<int, int>> pairs;
    std::vector<int> new_id;
    std::vector<Usage> nusage;
    const auto feasible = [&](int a, int b) {
        return mergeFits(usage[a], usage[b], cap);
    };

    while (num_vertices > clusters) {
        // Every (a, b) key is unique after the fold, so this order
        // is total: the matching does not depend on the order the
        // fold left the edges in.
        sortForMatching(weights);
        matched.assign(num_vertices, 0);
        // Never contract past the target count.
        matchSorted(weights,
                    static_cast<std::size_t>(num_vertices - clusters),
                    feasible, matched, pairs);

        if (pairs.empty()) {
            // No capacity-feasible contraction remains. Stop here:
            // the projection step bin-packs the surviving macro-nodes
            // into clusters, which keeps per-cluster usage within
            // available * II instead of forcing an oversized macro.
            break;
        }

        // Renumber: matched pairs collapse, everything else survives.
        new_id.assign(num_vertices, -1);
        int next = 0;
        for (const auto &[a, b] : pairs) {
            new_id[a] = next;
            new_id[b] = next;
            ++next;
        }
        for (int v = 0; v < num_vertices; ++v) {
            if (new_id[v] == -1)
                new_id[v] = next++;
        }

        // Rebuild usage.
        nusage.assign(next, Usage{});
        for (int v = 0; v < num_vertices; ++v) {
            for (std::size_t k = 0; k < numKinds; ++k)
                nusage[new_id[v]][k] += usage[v][k];
        }
        usage.swap(nusage);

        // Renumber the edges in place, dropping contracted ones.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            int a = new_id[weights[i].a], b = new_id[weights[i].b];
            if (a == b)
                continue;
            if (a > b)
                std::swap(a, b);
            weights[kept++] = {a, b, weights[i].weight};
        }
        weights.resize(kept);
        folder.fold(weights, next);

        // Record the level as original-node -> group.
        for (int &v : vertex_of) {
            if (v >= 0)
                v = new_id[v];
        }
        num_vertices = next;
        hier.addLevel(vertex_of, num_vertices);
    }

    return hier;
}

} // namespace cvliw
