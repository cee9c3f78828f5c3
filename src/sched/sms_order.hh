/**
 * @file
 * Scheduling priority order in the spirit of Swing Modulo Scheduling
 * (Llosa et al., PACT'96), as used in section 2.3.2 of the paper:
 * the most constraining recurrences get priority, and nodes are
 * emitted in a priority-topological order of the intra-iteration
 * (distance-0) subgraph. The topological property guarantees that
 * when a node is placed, constraints from already-placed successors
 * can only come through loop-carried edges, whose windows widen as
 * the II grows - so the no-backtracking scheduler always makes
 * progress when the driver raises the II. (Full SMS additionally
 * alternates bottom-up/top-down sweeps to shorten lifetimes; this
 * implementation trades that refinement for the progress guarantee
 * and handles lifetimes via the MaxLive check.)
 *
 * The order is fully determined by two keys:
 *  - Each node's set rank. Every recurrence (a strongly connected
 *    component with a loop-carried internal edge) is one set; sets
 *    rank by decreasing RecMII, ties broken by the smaller smallest
 *    member NodeId. All other nodes share one trailing rank.
 *  - Among the ready nodes (every distance-0 predecessor emitted),
 *    the smallest (rank, mobility, -(depth + height), NodeId) goes
 *    next: the tightest recurrence set first, then the least mobile,
 *    then the most critical node. The NodeId makes the key unique, so
 *    the order does not depend on how the ready list is stored.
 */

#ifndef CVLIW_SCHED_SMS_ORDER_HH
#define CVLIW_SCHED_SMS_ORDER_HH

#include <vector>

#include "ddg/analysis.hh"
#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * Compute the scheduling order of all live nodes.
 * Guarantees: every live node appears exactly once; recurrence nodes
 * of the tightest recurrences come first.
 */
std::vector<NodeId> smsOrder(const Ddg &ddg, const MachineConfig &mach);

/**
 * Same, reusing @p cache for the node times, SCCs and per-component
 * RecMII (they are also needed by the scheduler itself and by the
 * MII, so sharing one cache avoids recomputing them within a single
 * compile).
 */
std::vector<NodeId> smsOrder(const Ddg &ddg, const MachineConfig &mach,
                             AnalysisCache &cache);

/** Buffers of smsOrder, reused across calls. */
struct SmsScratch
{
    /** A recurrence set: (RecMII, smallest member, component). */
    struct RecSet
    {
        int recMii;
        NodeId first;
        int comp;
    };
    /** Ready-list key: (rank, mobility, -(depth + height), node). */
    struct Key
    {
        int rank;
        int mobility;
        int negCriticality;
        NodeId node;
    };

    std::vector<NodeId> first;   //!< per component: smallest member
    std::vector<RecSet> sets;    //!< the recurrence sets, ranked
    std::vector<int> compRank;   //!< per component: its set's rank
    std::vector<int> indeg;      //!< distance-0 in-degree per node
    std::vector<Key> heap;       //!< ready list, a min-heap on Key
};

/** Same, writing into @p order and reusing @p scratch. */
void smsOrder(const Ddg &ddg, const MachineConfig &mach,
              AnalysisCache &cache, SmsScratch &scratch,
              std::vector<NodeId> &order);

} // namespace cvliw

#endif // CVLIW_SCHED_SMS_ORDER_HH
