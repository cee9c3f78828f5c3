/**
 * @file
 * Inter-cluster communication accounting. A value communicates when
 * its producer and at least one register-flow consumer live in
 * different clusters. One broadcast bus transfer serves all remote
 * consumers of a value (section 2.1), so the communication count is
 * per *value*, not per edge. The bus capacity formula follows
 * section 3: bus_coms = floor(II / bus_lat) * nof_buses.
 *
 * CommInfo is flat: the remote-cluster lists of all producers share
 * one buffer, and a CommInfo that is filled again (the
 * findCommunications overload that takes one, or update()) reuses
 * its capacity. The replication pass keeps one per worker, so a pass
 * and its per-round patches stop allocating once the buffers have
 * seen the largest loop.
 */

#ifndef CVLIW_SCHED_COMMS_HH
#define CVLIW_SCHED_COMMS_HH

#include <vector>

#include "ddg/ddg.hh"
#include "support/span.hh"

namespace cvliw
{

struct CommInfo;

/**
 * Find all communications for @p cluster_of (indexed by NodeId) into
 * @p out, reusing its buffers. Copy nodes are ignored: they are the
 * realization of communications, not producers of new ones.
 */
void findCommunications(const Ddg &ddg,
                        const std::vector<int> &cluster_of,
                        CommInfo &out);

/** Communications implied by a cluster assignment. */
struct CommInfo
{
    /** Producers whose values cross clusters, in NodeId order. */
    std::vector<NodeId> producers;

    /** Indexed by NodeId: true when the node's value communicates. */
    std::vector<bool> communicated;

    /** Number of communications (== producers.size()). */
    int count() const { return static_cast<int>(producers.size()); }

    /**
     * Sorted remote clusters holding at least one consumer of
     * producers[@p i]. The span borrows this CommInfo's buffer and
     * is invalidated by the next fill or update.
     */
    Span<int> targetsOf(int i) const
    {
        const int *base = targets_.data();
        return {base + (i == 0 ? 0 : targetEnd_[i - 1]),
                base + targetEnd_[i]};
    }

    /**
     * Patch this CommInfo after a graph edit, recomputing the
     * communication status of just the @p touched nodes (duplicates,
     * dead nodes and non-producers are fine; new node ids grow the
     * flag array). The caller guarantees that every node whose
     * consumers, cluster or out-edges changed is in @p touched; the
     * result is then exactly findCommunications() on the edited
     * graph, at the cost of the touched nodes' out-degrees plus one
     * merge over the producer list. Allocation-free once the buffers
     * have grown.
     *
     * @param touched sorted and deduplicated in place
     * @param changed receives (cleared first) the nodes whose
     *        communication status or remote target set actually
     *        changed, in NodeId order (the replication pass seeds its
     *        subgraph-staleness walk with them)
     */
    void update(const Ddg &ddg, const std::vector<int> &cluster_of,
                std::vector<NodeId> &touched,
                std::vector<NodeId> &changed);

    /** update() that returns the changed nodes (allocates). */
    std::vector<NodeId> update(const Ddg &ddg,
                               const std::vector<int> &cluster_of,
                               std::vector<NodeId> touched);

  private:
    friend void findCommunications(const Ddg &,
                                   const std::vector<int> &,
                                   CommInfo &);

    /** Per producer: end of its remote clusters in targets_. */
    std::vector<int> targetEnd_;
    std::vector<int> targets_;

    // update()'s merge target, swapped with the arrays above.
    std::vector<NodeId> nextProducers_;
    std::vector<int> nextEnd_;
    std::vector<int> nextTargets_;
};

/** findCommunications() into a fresh CommInfo. */
CommInfo findCommunications(const Ddg &ddg,
                            const std::vector<int> &cluster_of);

/** Max communications schedulable in one II: floor(II/lat)*buses. */
int busCapacity(const MachineConfig &mach, int ii);

/** extra_coms = max(0, nof_coms - busCapacity). */
int extraComs(int nof_coms, const MachineConfig &mach, int ii);

/** Smallest II whose bus capacity fits @p nof_coms (>= 1). */
int minBusIi(int nof_coms, const MachineConfig &mach);

} // namespace cvliw

#endif // CVLIW_SCHED_COMMS_HH
