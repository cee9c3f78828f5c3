/**
 * @file
 * Replication subgraphs (section 3.1, Figure 4). The replication
 * subgraph of a communicated value is the minimum set of instructions
 * that must be duplicated in the consuming clusters so that the
 * communication disappears. Walking up from the communicated
 * producer, a parent joins the subgraph unless its own value is
 * communicated (then it is already available everywhere via the bus
 * broadcast) or an instance of it already exists in the target
 * cluster (a replica created earlier, section 3.4 update rule 3).
 *
 * Flat member order: a subgraph lists its replicas as (node, cluster)
 * pairs in two parallel vectors sorted by (node, cluster). That order
 * is a contract, not a detail: applying a subgraph creates its
 * replicas in list order, so it fixes the NodeIds the replicas get
 * and with them every later decision of the compile.
 *
 * Share table: within one selection round, share(v, c) is the number
 * of pool entries that need v in c. Section 3.3 divides the cost of a
 * replica by it, since one copy of v in c serves every subgraph that
 * needs it there. ShareTable builds it once per round in O(sum |S|)
 * over the pool's member lists.
 */

#ifndef CVLIW_CORE_SUBGRAPH_HH
#define CVLIW_CORE_SUBGRAPH_HH

#include <cstdint>
#include <vector>

#include "core/removable.hh"
#include "ddg/ddg.hh"
#include "partition/partition.hh"
#include "sched/comms.hh"
#include "support/rational.hh"
#include "support/span.hh"

namespace cvliw
{

/**
 * Tracks, for every semantic value, the clusters that hold an
 * instance of it (the original or a replica) and the node realizing
 * that instance. Stored as a flat (semantic, cluster) table:
 * replication walks query hasInstance() once per visited node per
 * target cluster, so lookups must be O(1) and allocation-free.
 * Semantic ids are original node ids and replicas inherit them, so
 * the table never grows between two reset()s.
 */
class ReplicaIndex
{
  public:
    ReplicaIndex() = default;

    /** Seed with the originals of @p ddg under @p part. */
    ReplicaIndex(const Ddg &ddg, const Partition &part)
    {
        reset(ddg, part);
    }

    /**
     * Re-seed with the originals of @p ddg under @p part, reusing the
     * table's storage.
     */
    void reset(const Ddg &ddg, const Partition &part);

    /** Is an instance of @p semantic present in @p cluster? */
    bool hasInstance(NodeId semantic, int cluster) const
    {
        return instance(semantic, cluster) != invalidNode;
    }

    /** Node realizing @p semantic in @p cluster (invalidNode if none). */
    NodeId instance(NodeId semantic, int cluster) const
    {
        return byKey_[slot(semantic, cluster)];
    }

    /** Record a new instance. */
    void addInstance(NodeId semantic, int cluster, NodeId node)
    {
        byKey_[slot(semantic, cluster)] = node;
    }

    /** Remove the instance of @p semantic in @p cluster. */
    void removeInstance(NodeId semantic, int cluster)
    {
        byKey_[slot(semantic, cluster)] = invalidNode;
    }

  private:
    std::size_t slot(NodeId semantic, int cluster) const;

    int clusters_ = 1;
    std::vector<NodeId> byKey_; //!< [semantic * clusters_ + cluster]
};

/**
 * The replication subgraph S_com of one communication, together with
 * the clusters every member must be duplicated into.
 */
struct ReplicationSubgraph
{
    /** The communicated producer. */
    NodeId com = invalidNode;

    /** Remote clusters holding consumers of com's value. */
    std::vector<int> targetClusters;

    /**
     * The replicas to create: replicaNodes[i] into replicaClusters[i],
     * sorted by (node, cluster) - the creation order (see the file
     * comment). Nodes whose instances already exist in all needed
     * clusters do not appear (paper section 3.4: "A can be removed
     * from S_D").
     */
    std::vector<NodeId> replicaNodes;
    std::vector<int> replicaClusters;

    /** Total number of replica instances to create. */
    int totalNewInstances() const
    {
        return static_cast<int>(replicaNodes.size());
    }

    /** Number of distinct member nodes. */
    int numMembers() const;

    /** Distinct member nodes, ascending. */
    std::vector<NodeId> members() const;

    /** True when @p n is a member with at least one required cluster. */
    bool contains(NodeId n) const { return !clustersOf(n).empty(); }

    /** True when @p n must be replicated into @p cluster. */
    bool needsIn(NodeId n, int cluster) const;

    /**
     * Sorted clusters @p n must be replicated into (empty when it is
     * no member). Borrows this subgraph's storage.
     */
    Span<int> clustersOf(NodeId n) const;

    /** Empty the subgraph, keeping the member lists' capacity. */
    void clear();
};

/**
 * share(v, c) of one selection round: the number of pool entries
 * that need v in cluster c (see the file comment). Cells carry the
 * stamp of the build that wrote them, so a build touches only the
 * cells of the pool's members and never clears the table.
 */
class ShareTable
{
  public:
    /** Count the members of @p pool for a graph of @p slots nodes. */
    void build(const std::vector<ReplicationSubgraph> &pool, int slots,
               int clusters);

    /** Entries of the built pool that need @p v in @p cluster. */
    int share(NodeId v, int cluster) const
    {
        const Cell &cell = cells_[static_cast<std::size_t>(v) *
                                      static_cast<std::size_t>(
                                          clusters_) +
                                  static_cast<std::size_t>(cluster)];
        return cell.stamp == stamp_ ? cell.count : 0;
    }

  private:
    struct Cell
    {
        std::uint32_t stamp = 0;
        int count = 0;
    };
    std::vector<Cell> cells_; //!< [v * clusters_ + c]
    std::uint32_t stamp_ = 0;
    int clusters_ = 1;
};

class ReplicationObserver;

/**
 * Reusable state of the replication pass: the buffers of the
 * subgraph walk (stamped per-node visited / needs-a-replica marks,
 * the worklist, the member pairs) and of reduceCommunications'
 * rounds (communications, instance index, candidate pool, share
 * table, scoring and dead-code buffers). The pass walks a subgraph
 * per stale candidate and scores every candidate each round, so
 * without reuse these allocations dominate (the `PseudoScratch`
 * pattern: one instance per worker, rebound per call, buffers keep
 * their capacity). A default-constructed scratch works for any
 * graph; passing none falls back to a call-local one.
 */
class SubgraphScratch
{
  public:
    SubgraphScratch() = default;

    /**
     * Optional observer told about every selection round of
     * reduceCommunications (see replicator.hh); null, the default,
     * costs nothing. Tests check each round against oracles
     * through it.
     */
    ReplicationObserver *observer = nullptr;

  private:
    friend void findReplicationSubgraph(
        ReplicationSubgraph &, const Ddg &, const Partition &, NodeId,
        const std::vector<bool> &, const ReplicaIndex &,
        const std::vector<NodeId> &, const std::vector<int> &,
        SubgraphScratch &);
    friend class ReplicationPass;

    // --- Subgraph walk. -------------------------------------------
    /** Per node: walk stamp when visited for the current target. */
    std::vector<std::uint32_t> visited_;
    /** Per node: walk stamp when it needs a replica in the target. */
    std::vector<std::uint32_t> required_;
    std::uint32_t walkStamp_ = 0;
    std::vector<NodeId> worklist_;
    /** Member pairs (node << 32 | cluster) before sorting. */
    std::vector<std::uint64_t> pairs_;

    // --- reduceCommunications (replicator.cc). ----------------------
    CommInfo comms_;
    ReplicaIndex index_;
    std::vector<ReplicationSubgraph> pool_;
    std::vector<ReplicationSubgraph> spare_;
    ShareTable share_;
    RemovableScratch removableScratch_;
    std::vector<NodeId> removable_;
    std::vector<int> usage_;
    std::vector<int> extra_;
    std::vector<char> feasible_;
    std::vector<Rational> weights_;
    std::vector<NodeId> seeds_;
    std::vector<NodeId> staleSeeds_;
    std::vector<NodeId> touched_;
    std::vector<NodeId> structural_;
    std::vector<NodeId> removedIds_;
    std::vector<NodeId> changed_;
    std::vector<char> dirty_;
    std::vector<NodeId> walk_;
    std::vector<char> coneFlag_;
    std::vector<NodeId> cone_;
    std::vector<char> live_;
    std::vector<NodeId> deadWork_;
};

/**
 * Compute the replication subgraph of @p com into @p out (Figure 4,
 * extended with the per-cluster instance checks of section 3.4),
 * reusing @p out's storage and @p scratch's buffers: allocation-free
 * once both have grown.
 *
 * @param ddg current loop graph (no copies inserted)
 * @param part cluster assignment
 * @param com communicated producer
 * @param communicated per-NodeId flags from findCommunications()
 * @param index existing instances
 * @param extra_seeds additional nodes forced into the subgraph (used
 *        by the section-5.2 macro-node variant); pass {} normally
 * @param target_override when non-empty, replicate toward exactly
 *        these clusters instead of all consumer clusters (used by the
 *        section-5.1 schedule-length variant)
 */
void findReplicationSubgraph(ReplicationSubgraph &out, const Ddg &ddg,
                             const Partition &part, NodeId com,
                             const std::vector<bool> &communicated,
                             const ReplicaIndex &index,
                             const std::vector<NodeId> &extra_seeds,
                             const std::vector<int> &target_override,
                             SubgraphScratch &scratch);

/**
 * findReplicationSubgraph() into a fresh subgraph (same parameters).
 * @param scratch reusable buffers; null uses a call-local scratch
 */
ReplicationSubgraph
findReplicationSubgraph(const Ddg &ddg, const Partition &part,
                        NodeId com,
                        const std::vector<bool> &communicated,
                        const ReplicaIndex &index,
                        const std::vector<NodeId> &extra_seeds = {},
                        const std::vector<int> &target_override = {},
                        SubgraphScratch *scratch = nullptr);

} // namespace cvliw

#endif // CVLIW_CORE_SUBGRAPH_HH
