#include "partition/partition.hh"

#include "support/logging.hh"

namespace cvliw
{

Partition::Partition(int num_clusters, int num_node_slots)
    : numClusters_(num_clusters), clusterOf_(num_node_slots, -1)
{
    cv_assert(num_clusters >= 1);
}

void
Partition::badNode(NodeId n) const
{
    cv_assert(n >= 0 && n < static_cast<NodeId>(clusterOf_.size()),
              "node ", n, " outside partition");
    cv_panic("assertion failed: c >= 0 node ", n,
             " not assigned to a cluster");
}

bool
Partition::isAssigned(NodeId n) const
{
    return n >= 0 && n < static_cast<NodeId>(clusterOf_.size()) &&
           clusterOf_[n] >= 0;
}

void
Partition::assign(NodeId n, int cluster)
{
    cv_assert(n >= 0, "bad node id");
    cv_assert(cluster >= 0 && cluster < numClusters_, "bad cluster ",
              cluster);
    if (n >= static_cast<NodeId>(clusterOf_.size()))
        clusterOf_.resize(n + 1, -1);
    clusterOf_[n] = cluster;
}

std::vector<int>
Partition::opCounts(const Ddg &ddg) const
{
    std::vector<int> counts(numClusters_, 0);
    for (NodeId n : ddg.nodes()) {
        if (ddg.node(n).cls == OpClass::Copy)
            continue;
        ++counts[clusterOf(n)];
    }
    return counts;
}

std::vector<std::vector<int>>
Partition::usage(const Ddg &ddg, const MachineConfig &mach) const
{
    std::vector<int> flat;
    usage(ddg, mach, flat);
    constexpr auto num_kinds =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);
    std::vector<std::vector<int>> u(num_kinds);
    for (std::size_t k = 0; k < num_kinds; ++k) {
        const auto row = flat.begin() + static_cast<std::ptrdiff_t>(
                                            k * numClusters_);
        u[k].assign(row, row + numClusters_);
    }
    return u;
}

void
Partition::usage(const Ddg &ddg, const MachineConfig &mach,
                 std::vector<int> &flat) const
{
    constexpr auto num_kinds =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);
    flat.assign(num_kinds * static_cast<std::size_t>(numClusters_), 0);
    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls == OpClass::Copy)
            continue;
        const auto kind =
            static_cast<std::size_t>(mach.resourceFor(cls));
        ++flat[kind * static_cast<std::size_t>(numClusters_) +
               static_cast<std::size_t>(clusterOf(n))];
    }
}

} // namespace cvliw
