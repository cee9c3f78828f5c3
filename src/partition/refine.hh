/**
 * @file
 * Partition refinement (section 2.3.1, step 2): generate candidate
 * partitions by moving nodes between clusters and keep the best one
 * according to the pseudo-schedule metric. Also invoked every time
 * the II is increased (Figure 2: "Refine Partition"), because a
 * larger II frees slots in every cluster.
 */

#ifndef CVLIW_PARTITION_REFINE_HH
#define CVLIW_PARTITION_REFINE_HH

#include "partition/partition.hh"
#include "sched/pseudo.hh"

namespace cvliw
{

/** refinePartition's default pass bound. */
constexpr int defaultRefinePasses = 4;

/**
 * Hill-climb on single-node moves until a full pass makes no
 * improvement (bounded by @p max_passes). Each candidate move is
 * evaluated against the current best via PseudoScratch::probeMove
 * (see sched/pseudo.hh for the decision order and the invariants).
 * Most probes are decided read-only, in O(deg n), from the moved
 * assignment's iiPart, overflow and comms; only the rest apply the
 * move, restart ASAP at the node's topological position, run the
 * register sweep if it can matter, and undo. Only a commit changes
 * the bound state (and rebases the ASAP times from the committed
 * node on). The result is identical to probing every candidate with
 * a from-scratch pseudoSchedule.
 *
 * Converged-tail stop: a pass ends the climb as soon as it has
 * visited the node of the previous pass's last commit without
 * committing anything itself. The nodes after that one were already
 * probed against the same assignment and the same best result, and
 * all were rejected; re-probing them could only repeat that verdict.
 * So the result, the commits and the @p max_passes bound are those
 * of running every pass in full, with fewer probes.
 *
 * @param ddg loop body (no copies)
 * @param mach target machine
 * @param initial starting assignment
 * @param ii probed initiation interval
 * @param scratch optional reusable evaluation state; the pipeline
 *        threads one instance through every refinement so buffers
 *        and the topological-order memo survive across II bumps
 * @param max_passes pass bound
 * @param analyses optional memo bind() takes the topological order
 *        from (see PseudoScratch::bind); null uses the scratch's own
 * @return the refined partition (never worse than @p initial)
 */
Partition refinePartition(const Ddg &ddg, const MachineConfig &mach,
                          const Partition &initial, int ii,
                          PseudoScratch *scratch = nullptr,
                          int max_passes = defaultRefinePasses,
                          AnalysisCache *analyses = nullptr);

} // namespace cvliw

#endif // CVLIW_PARTITION_REFINE_HH
