/**
 * @file
 * Top-level multilevel partitioner (section 2.3.1): weight edges,
 * coarsen to one macro-node per cluster, project the induced
 * partition and refine it with the pseudo-schedule metric.
 */

#ifndef CVLIW_PARTITION_MULTILEVEL_HH
#define CVLIW_PARTITION_MULTILEVEL_HH

#include "partition/coarsen.hh"
#include "partition/partition.hh"
#include "sched/pseudo.hh"

namespace cvliw
{

/** Partition plus the coarsening hierarchy that produced it. */
struct PartitionResult
{
    Partition partition;
    CoarseningHierarchy hierarchy;
};

/**
 * Build an initial partition of @p ddg for @p mach at interval @p ii.
 * For a unified machine all nodes land in cluster 0.
 * @param scratch optional reusable refinement state (see
 *        refinePartition)
 * @param analyses optional analysis memo for the edge weighting (see
 *        computeEdgeWeights) and the refinement's bind()
 */
PartitionResult multilevelPartition(const Ddg &ddg,
                                    const MachineConfig &mach, int ii,
                                    PseudoScratch *scratch = nullptr,
                                    AnalysisCache *analyses = nullptr);

} // namespace cvliw

#endif // CVLIW_PARTITION_MULTILEVEL_HH
