/**
 * @file
 * Removable-instruction analysis (section 3.2, Figure 5). When a
 * communication is removed by replication, the original producer may
 * become useless in its own cluster: all of its consumers now read
 * local replicas. Removability propagates to same-cluster parents.
 * Propagation stops at nodes whose values are still communicated:
 * their removal is credited to *their* replication subgraph (the
 * paper's section 3.4 worked example: after replicating S_E, nodes
 * A, B, C, D become removable only when S_D is replicated — yet D is
 * already counted in S_E's weight).
 */

#ifndef CVLIW_CORE_REMOVABLE_HH
#define CVLIW_CORE_REMOVABLE_HH

#include <cstdint>
#include <vector>

#include "ddg/ddg.hh"
#include "partition/partition.hh"

namespace cvliw
{

/**
 * Instructions (in com's cluster) that can eventually be removed if
 * the communication of @p com is eliminated through replication.
 * Used for subgraph weighting; the physically-dead set removed after
 * a replication is computed separately by the replicator.
 *
 * @param communicated per-NodeId flags of the current partition
 * @return removable node ids, in ascending order
 */
std::vector<NodeId>
findRemovableInstructions(const Ddg &ddg, const Partition &part,
                          NodeId com,
                          const std::vector<bool> &communicated);

/**
 * Reusable buffers of findRemovableInstructions: per-node marks that
 * carry the stamp of the call that set them (so no call clears the
 * array) and the worklist.
 */
class RemovableScratch
{
  private:
    friend void findRemovableInstructions(const Ddg &, const Partition &,
                                          NodeId,
                                          const std::vector<bool> &,
                                          RemovableScratch &,
                                          std::vector<NodeId> &);
    std::vector<std::uint32_t> removable_;
    std::uint32_t stamp_ = 0;
    std::vector<NodeId> worklist_;
};

/**
 * findRemovableInstructions() into @p out (cleared first), reusing
 * @p scratch: allocation-free once the buffers have grown. Same
 * result, in ascending order.
 */
void findRemovableInstructions(const Ddg &ddg, const Partition &part,
                               NodeId com,
                               const std::vector<bool> &communicated,
                               RemovableScratch &scratch,
                               std::vector<NodeId> &out);

} // namespace cvliw

#endif // CVLIW_CORE_REMOVABLE_HH
