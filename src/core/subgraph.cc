#include "core/subgraph.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

void
ReplicaIndex::reset(const Ddg &ddg, const Partition &part)
{
    clusters_ = part.numClusters();
    byKey_.assign(static_cast<std::size_t>(ddg.numNodeSlots()) *
                      static_cast<std::size_t>(clusters_),
                  invalidNode);
    for (NodeId n : ddg.nodes()) {
        addInstance(ddg.node(n).semanticId, part.clusterOf(n), n);
    }
}

std::size_t
ReplicaIndex::slot(NodeId semantic, int cluster) const
{
    cv_assert(cluster >= 0 && cluster < clusters_, "bad cluster ",
              cluster);
    const std::size_t i =
        static_cast<std::size_t>(semantic) *
            static_cast<std::size_t>(clusters_) +
        static_cast<std::size_t>(cluster);
    cv_assert(semantic >= 0 && i < byKey_.size(),
              "semantic id ", semantic,
              " outside the graph the index was built for");
    return i;
}

int
ReplicationSubgraph::numMembers() const
{
    int members = 0;
    for (std::size_t i = 0; i < replicaNodes.size(); ++i) {
        if (i == 0 || replicaNodes[i] != replicaNodes[i - 1])
            ++members;
    }
    return members;
}

std::vector<NodeId>
ReplicationSubgraph::members() const
{
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < replicaNodes.size(); ++i) {
        if (i == 0 || replicaNodes[i] != replicaNodes[i - 1])
            out.push_back(replicaNodes[i]);
    }
    return out;
}

Span<int>
ReplicationSubgraph::clustersOf(NodeId n) const
{
    const auto [lo, hi] =
        std::equal_range(replicaNodes.begin(), replicaNodes.end(), n);
    const int *base = replicaClusters.data();
    return {base + (lo - replicaNodes.begin()),
            base + (hi - replicaNodes.begin())};
}

bool
ReplicationSubgraph::needsIn(NodeId n, int cluster) const
{
    const Span<int> clusters = clustersOf(n);
    return std::binary_search(clusters.begin(), clusters.end(),
                              cluster);
}

void
ReplicationSubgraph::clear()
{
    com = invalidNode;
    targetClusters.clear();
    replicaNodes.clear();
    replicaClusters.clear();
}

void
ShareTable::build(const std::vector<ReplicationSubgraph> &pool,
                  int slots, int clusters)
{
    clusters_ = clusters;
    const std::size_t cells = static_cast<std::size_t>(slots) *
                              static_cast<std::size_t>(clusters);
    if (cells_.size() < cells)
        cells_.resize(cells);
    if (++stamp_ == 0) {
        // The stamp wrapped: forget every count once.
        std::fill(cells_.begin(), cells_.end(), Cell{});
        stamp_ = 1;
    }
    for (const ReplicationSubgraph &sg : pool) {
        for (std::size_t i = 0; i < sg.replicaNodes.size(); ++i) {
            Cell &cell =
                cells_[static_cast<std::size_t>(sg.replicaNodes[i]) *
                           static_cast<std::size_t>(clusters) +
                       static_cast<std::size_t>(sg.replicaClusters[i])];
            if (cell.stamp != stamp_) {
                cell.stamp = stamp_;
                cell.count = 0;
            }
            ++cell.count;
        }
    }
}

void
findReplicationSubgraph(ReplicationSubgraph &sg, const Ddg &ddg,
                        const Partition &part, NodeId com,
                        const std::vector<bool> &communicated,
                        const ReplicaIndex &index,
                        const std::vector<NodeId> &extra_seeds,
                        const std::vector<int> &target_override,
                        SubgraphScratch &s)
{
    sg.clear();
    sg.com = com;
    const NodeId com_sem = ddg.node(com).semanticId;

    // Target clusters: every remote cluster with a consumer of com.
    if (!target_override.empty()) {
        sg.targetClusters.assign(target_override.begin(),
                                 target_override.end());
    } else {
        const int home = part.clusterOf(com);
        for (NodeId w : ddg.flowSuccs(com)) {
            const int c = part.clusterOf(w);
            if (c != home)
                sg.targetClusters.push_back(c);
        }
        std::sort(sg.targetClusters.begin(), sg.targetClusters.end());
        sg.targetClusters.erase(std::unique(sg.targetClusters.begin(),
                                            sg.targetClusters.end()),
                                sg.targetClusters.end());
    }
    cv_assert(!sg.targetClusters.empty(),
              "replication subgraph for a non-communication");

    const auto slots = static_cast<std::size_t>(ddg.numNodeSlots());
    if (s.visited_.size() < slots) {
        s.visited_.resize(slots, 0);
        s.required_.resize(slots, 0);
    }
    std::uint32_t *visited = s.visited_.data();
    std::uint32_t *required_here = s.required_.data();
    std::vector<NodeId> &worklist = s.worklist_;
    std::vector<std::uint64_t> &pairs = s.pairs_;
    pairs.clear();
    const auto add_pair = [&](NodeId n, int t) {
        pairs.push_back(static_cast<std::uint64_t>(n) << 32 |
                        static_cast<std::uint32_t>(t));
    };

    // Per target cluster: walk parents (Figure 4). A parent is
    // skipped when its value is communicated (available via the bus
    // broadcast) or when an instance already lives in the target.
    // Each target's walk takes a fresh stamp, so the node-sized mark
    // arrays are never cleared.
    for (int t : sg.targetClusters) {
        if (++s.walkStamp_ == 0) {
            std::fill(s.visited_.begin(), s.visited_.end(), 0);
            std::fill(s.required_.begin(), s.required_.end(), 0);
            s.walkStamp_ = 1;
        }
        const std::uint32_t stamp = s.walkStamp_;
        worklist.clear();

        auto seed = [&](NodeId n) {
            if (visited[n] == stamp)
                return;
            visited[n] = stamp;
            if (!index.hasInstance(ddg.node(n).semanticId, t)) {
                add_pair(n, t);
                required_here[n] = stamp;
            }
            worklist.push_back(n);
        };
        seed(com);
        for (NodeId n : extra_seeds) {
            const DdgNode &sn = ddg.node(n);
            if (sn.cls == OpClass::Store)
                continue; // stores are never replicated
            if (communicated[n] && sn.semanticId != com_sem)
                continue; // has its own subgraph
            seed(n);
        }

        while (!worklist.empty()) {
            const NodeId v = worklist.back();
            worklist.pop_back();
            // Only nodes that actually need a new replica pull their
            // parents in; existing instances already have operands.
            if (required_here[v] != stamp)
                continue;
            for (EdgeId eid : ddg.inEdgesRaw(v)) {
                const DdgEdge &pe = ddg.edge(eid);
                if (!pe.alive || pe.kind != EdgeKind::RegFlow)
                    continue;
                const NodeId p = pe.src;
                if (visited[p] == stamp)
                    continue;
                if (communicated[p] &&
                    ddg.node(p).semanticId != com_sem) {
                    continue; // broadcast makes it available
                }
                visited[p] = stamp;
                cv_assert(ddg.node(p).cls != OpClass::Store,
                          "store as flow producer");
                if (!index.hasInstance(ddg.node(p).semanticId, t)) {
                    add_pair(p, t);
                    required_here[p] = stamp;
                }
                worklist.push_back(p);
            }
        }
    }

    // (node, cluster) order: the creation order of the replicas.
    std::sort(pairs.begin(), pairs.end());
    sg.replicaNodes.reserve(pairs.size());
    sg.replicaClusters.reserve(pairs.size());
    for (const std::uint64_t key : pairs) {
        sg.replicaNodes.push_back(static_cast<NodeId>(key >> 32));
        sg.replicaClusters.push_back(
            static_cast<int>(static_cast<std::uint32_t>(key)));
    }
}

ReplicationSubgraph
findReplicationSubgraph(const Ddg &ddg, const Partition &part,
                        NodeId com,
                        const std::vector<bool> &communicated,
                        const ReplicaIndex &index,
                        const std::vector<NodeId> &extra_seeds,
                        const std::vector<int> &target_override,
                        SubgraphScratch *scratch)
{
    SubgraphScratch local;
    ReplicationSubgraph sg;
    findReplicationSubgraph(sg, ddg, part, com, communicated, index,
                            extra_seeds, target_override,
                            scratch ? *scratch : local);
    return sg;
}

} // namespace cvliw
