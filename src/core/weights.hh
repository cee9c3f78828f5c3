/**
 * @file
 * Subgraph weighting (section 3.3). The weight of a replication
 * subgraph estimates its resource impact:
 *
 *   weight(S) =  sum over replicas (v -> cluster c)
 *                  [usage(res_v, c) + extra_ops(res_v, c, S)]
 *                  / [available(res_v, c) * II]
 *                  / |{subgraphs that also need v in c}|
 *             -  sum over removable instructions u
 *                  1 / [available(res_u, home) * II]
 *
 * computed in exact rational arithmetic so the paper's worked example
 * (weights 49/16, 31/16 and 40/16; after the update 44/8 and 42/8)
 * is reproduced bit-exactly.
 *
 * The replication pass scores every candidate of a round against one
 * partition state, so the scoring kernels take that state flat:
 * resource usage and a candidate's extra ops as [kind * clusters + c]
 * arrays filled into caller buffers (the partition has the machine's
 * cluster count), and the sharing divisor from a ShareTable built
 * once per round (core/subgraph.hh). The weight is summed as one
 * integer numerator per distinct denominator, combined into a
 * Rational at the end: the same exact value, so the same normalized
 * Rational, as adding every term on its own. The signatures that take
 * the pool and nested usage vectors are thin wrappers for callers
 * outside the pass.
 */

#ifndef CVLIW_CORE_WEIGHTS_HH
#define CVLIW_CORE_WEIGHTS_HH

#include <vector>

#include "core/subgraph.hh"
#include "support/rational.hh"

namespace cvliw
{

/** A candidate subgraph with its weight and feasibility. */
struct WeightedSubgraph
{
    ReplicationSubgraph sg;
    std::vector<NodeId> removable;
    Rational weight;
    /**
     * False when some target cluster lacks the FU capacity
     * (usage + extra > available * II) to host the replicas.
     */
    bool feasible = true;
};

/**
 * Weight @p sg against the current partition.
 * @param all every candidate subgraph of the current round (used for
 *        the sharing division; must include @p sg itself)
 * @param removable result of findRemovableInstructions() for sg.com
 * @param usage optional precomputed Partition::usage(ddg, mach); the
 *        replication selector scores many candidates against one
 *        partition state and hoists it out of the loop
 */
Rational subgraphWeight(const Ddg &ddg, const MachineConfig &mach,
                        const Partition &part, int ii,
                        const ReplicationSubgraph &sg,
                        const std::vector<ReplicationSubgraph> &all,
                        const std::vector<NodeId> &removable,
                        const std::vector<std::vector<int>> *usage =
                            nullptr);

/**
 * Capacity check: replicas of @p sg fit into their target clusters.
 * @param usage optional precomputed Partition::usage(ddg, mach)
 */
bool replicationFeasible(const Ddg &ddg, const MachineConfig &mach,
                         const Partition &part, int ii,
                         const ReplicationSubgraph &sg,
                         const std::vector<std::vector<int>> *usage =
                             nullptr);

/**
 * extra_ops(res, c, S) into @p out, flat as [kind * clusters + c]:
 * the replicas of @p sg of each resource kind added to each cluster.
 */
void extraOps(const Ddg &ddg, const MachineConfig &mach,
              const ReplicationSubgraph &sg, std::vector<int> &out);

/**
 * Capacity check on flat arrays: every (kind, cluster) that receives
 * replicas still fits available * II slots.
 */
bool replicationFeasible(const MachineConfig &mach, int ii,
                         const std::vector<int> &usage,
                         const std::vector<int> &extra);

/**
 * Weight of @p sg from flat inputs: @p share is the round's share
 * table (its pool must contain @p sg), @p usage and @p extra come
 * from the flat Partition::usage() and extraOps(). Allocation-free.
 */
Rational subgraphWeight(const Ddg &ddg, const MachineConfig &mach,
                        int ii, const ReplicationSubgraph &sg,
                        const ShareTable &share,
                        const std::vector<NodeId> &removable,
                        const std::vector<int> &usage,
                        const std::vector<int> &extra);

} // namespace cvliw

#endif // CVLIW_CORE_WEIGHTS_HH
