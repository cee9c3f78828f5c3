/**
 * @file
 * Cluster assignment of DDG nodes (the "partition" of section 2.3.1).
 */

#ifndef CVLIW_PARTITION_PARTITION_HH
#define CVLIW_PARTITION_PARTITION_HH

#include <vector>

#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Maps every DDG node to a cluster. Grows on demand so that nodes
 * added after partitioning (copies, replicas) can be assigned too.
 */
class Partition
{
  public:
    /** Default: a trivial single-cluster partition of nothing. */
    Partition() : Partition(1, 0) {}

    /**
     * @param num_clusters number of clusters in the machine
     * @param num_node_slots initial size of the assignment array
     */
    Partition(int num_clusters, int num_node_slots);

    int numClusters() const { return numClusters_; }

    /**
     * Cluster of @p n; panics (on a cold out-of-line path) when @p n
     * is outside the array or unassigned.
     */
    int clusterOf(NodeId n) const
    {
        if (static_cast<std::size_t>(n) >= clusterOf_.size() ||
            clusterOf_[static_cast<std::size_t>(n)] < 0)
            badNode(n);
        return clusterOf_[static_cast<std::size_t>(n)];
    }

    /** True when @p n has been assigned. */
    bool isAssigned(NodeId n) const;

    /** Assign @p n to @p cluster (grows the array as needed). */
    void assign(NodeId n, int cluster);

    /** Raw assignment vector (-1 = unassigned), indexed by NodeId. */
    const std::vector<int> &vec() const { return clusterOf_; }

    /** Number of live non-copy ops of @p ddg in each cluster. */
    std::vector<int> opCounts(const Ddg &ddg) const;

    /**
     * Per-(resource kind, cluster) usage counts of live non-copy ops.
     * Indexed [kind][cluster].
     */
    std::vector<std::vector<int>> usage(const Ddg &ddg,
                                        const MachineConfig &mach) const;

  private:
    /** Cold path of clusterOf(): panic naming @p n. */
    [[noreturn, gnu::cold, gnu::noinline]] void badNode(NodeId n) const;

    int numClusters_;
    std::vector<int> clusterOf_;
};

} // namespace cvliw

#endif // CVLIW_PARTITION_PARTITION_HH
