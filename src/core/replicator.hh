/**
 * @file
 * The replication heuristic (section 3.3/3.4): while the partition
 * implies more communications than the buses can carry at the
 * current II (extra_coms > 0), repeatedly pick the feasible
 * replication subgraph with the lowest weight, replicate it, remove
 * instructions that became dead, and recompute the remaining
 * subgraphs and weights. Exactly extra_coms communications need to
 * be removed — no over-replication is possible.
 *
 * A pass keeps all of its state flat in the caller's SubgraphScratch
 * (core/subgraph.hh): the CommInfo it patches per round, the instance
 * index (built only when a round runs), the candidate pool (one
 * subgraph per communication in producer order, rebuilt per round
 * only where a change can reach it), the round's share table, and
 * the scoring and dead-code buffers. After warm-up a pass allocates
 * only when the graph grows past sizes it has seen; a pass with no
 * round to run scans the communications once and returns. Replicas
 * are created in each subgraph's (node, cluster) member order, which
 * fixes their NodeIds and so every later decision.
 */

#ifndef CVLIW_CORE_REPLICATOR_HH
#define CVLIW_CORE_REPLICATOR_HH

#include <array>

#include "core/subgraph.hh"
#include "partition/coarsen.hh"

namespace cvliw
{

class CooperativeDeadline;

/** Statistics of one replication run (one II attempt). */
struct ReplicationStats
{
    int comsInitial = 0;  //!< communications before replication
    int comsRemoved = 0;  //!< communications eliminated
    int replicasAdded = 0;//!< replica instances created
    /** Replicas by Figure-10 category: mem / int / fp. */
    std::array<int, 3> replicasByCat{};
    int instructionsRemoved = 0; //!< originals deleted as dead code
    int roundsConsidered = 0;    //!< selection rounds executed
};

/**
 * One selection round of reduceCommunications as the pass scored it,
 * handed to a ReplicationObserver before the chosen subgraph is
 * applied. Every reference is valid only during the callback.
 */
struct ReplicationRound
{
    const Ddg &ddg;
    const Partition &part;
    const MachineConfig &mach;
    int ii;
    /** Communications of (ddg, part), patched round by round. */
    const CommInfo &comms;
    /** Candidates: one subgraph per comms.producers entry, in order. */
    const std::vector<ReplicationSubgraph> &pool;
    /** Per pool entry: its replicas fit their clusters (1) or not. */
    const std::vector<char> &feasible;
    /** Per pool entry: exact weight; meaningful where feasible. */
    const std::vector<Rational> &weights;
    /** Index of the chosen entry; -1 when none is feasible. */
    int chosen;
    /**
     * MacroNode mode: the hierarchy whose level-1 macro-node of each
     * producer seeds its walk; null in MinWeight mode.
     */
    const CoarseningHierarchy *macroSeeds;
};

/** Receives every selection round (SubgraphScratch::observer). */
class ReplicationObserver
{
  public:
    virtual void onRound(const ReplicationRound &round) = 0;

  protected:
    ~ReplicationObserver() = default;
};

/** Which subgraphs the selector may choose. */
enum class ReplicationMode : std::uint8_t
{
    MinWeight, //!< section 3: minimum-weight replication subgraph
    MacroNode  //!< section 5.2: replicate com's coarsening macro-node
};

/**
 * Reduce communications of (@p ddg, @p part) until they fit the bus
 * capacity at @p ii.
 *
 * @param stats optional statistics sink
 * @param mode subgraph selection mode
 * @param hier coarsening hierarchy (required for MacroNode mode)
 * @param scratch reusable subgraph-walk buffers; the pipeline passes
 *        its per-worker scratch so II retries (and, via
 *        CompileCaches, whole compiles) stop allocating per walk.
 *        Null uses a pass-local scratch.
 * @param deadline optional cooperative deadline, checkpointed once
 *        per selection round (the pipeline's refinement-round
 *        boundary); an expired one throws DeadlineExceeded out of
 *        the pass, leaving @p ddg / @p part mid-replication - the
 *        pipeline's work copies, discarded by the unwind
 * @param comms_out when non-null, the pass keeps its communications
 *        here instead of in the scratch, so on return it holds
 *        exactly findCommunications() of the final (@p ddg, @p part)
 *        and the caller needs no rescan (its buffers are reused)
 * @return true when extra_coms reached zero; false when no feasible
 *         replication remains (the caller must raise the II)
 */
bool reduceCommunications(Ddg &ddg, Partition &part,
                          const MachineConfig &mach, int ii,
                          ReplicationStats *stats = nullptr,
                          ReplicationMode mode =
                              ReplicationMode::MinWeight,
                          const CoarseningHierarchy *hier = nullptr,
                          SubgraphScratch *scratch = nullptr,
                          CooperativeDeadline *deadline = nullptr,
                          CommInfo *comms_out = nullptr);

/**
 * Replicate the value of @p producer into @p cluster without removing
 * its communication (section 5.1: replication that targets the
 * schedule length instead of the II). Consumers of @p producer in
 * @p cluster are rewired to the local replica; consumers elsewhere
 * keep using the bus.
 *
 * @param scratch reusable subgraph-walk buffers (null = call-local)
 * @return true when the replication was applied
 */
bool replicateIntoCluster(Ddg &ddg, Partition &part,
                          const MachineConfig &mach, int ii,
                          NodeId producer, int cluster,
                          ReplicationStats *stats = nullptr,
                          SubgraphScratch *scratch = nullptr);

/**
 * Global dead-code sweep: every value-producing instruction that
 * cannot reach a store or a live-out value through register-flow
 * edges is deleted (this also collects dead recurrence cycles, which
 * keep each other alive under a local criterion). Updates @p index.
 * @param touched when non-null, receives the removed nodes and their
 *        flow producers (whose communication status may change)
 * @param removed_out when non-null, receives just the removed nodes
 *        (the replication pass re-dirties subgraphs that relied on
 *        the removed instances)
 * @return number of instructions removed
 */
int removeDeadCode(Ddg &ddg, const Partition &part,
                   ReplicaIndex &index,
                   std::vector<NodeId> *touched = nullptr,
                   std::vector<NodeId> *removed_out = nullptr);

} // namespace cvliw

#endif // CVLIW_CORE_REPLICATOR_HH
