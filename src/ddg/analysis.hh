/**
 * @file
 * Static analyses over a DDG: topological order of the intra-iteration
 * (distance-0) subgraph, ASAP/ALAP times, critical-path length,
 * per-node height/depth (used by the SMS ordering and the partitioner
 * edge weighting), Tarjan SCCs and positive-cycle detection (used by
 * RecMII).
 *
 * `AnalysisCache` memoizes the pure analyses keyed on the graph's
 * generation stamp (see Ddg::generation()): the pipeline retries
 * partition -> replicate -> schedule at every II, and most retries
 * re-analyse a graph that has not changed since the last attempt.
 * Machine-dependent results (times) additionally carry the config's
 * identity stamp (MachineConfig::id()), so one cache instance may be
 * shared across machine configs without ever reusing stale
 * latency-dependent results.
 */

#ifndef CVLIW_DDG_ANALYSIS_HH
#define CVLIW_DDG_ANALYSIS_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ddg/ddg.hh"

namespace cvliw
{

/**
 * A DDG no loop can have: its distance-0 subgraph has a cycle, so no
 * iteration could ever start. Thrown by the analyses that need a
 * topological order; a serving worker records it as a failed job
 * instead of taking the process down.
 */
class InvalidDdg : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * A machine that cannot run the loop at all: the loop needs a resource
 * kind of which the machine has no unit, so no II is ever feasible.
 * Thrown by resourceMii; like InvalidDdg, a serving worker records it
 * as a failed job.
 */
class MachineLacksUnit : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * Per-node timing of one loop iteration, considering only distance-0
 * edges. Vectors are indexed by NodeId; entries for dead nodes are
 * meaningless.
 */
struct NodeTimes
{
    std::vector<int> asap;   //!< earliest start
    std::vector<int> alap;   //!< latest start preserving the length
    std::vector<int> height; //!< longest latency path to any sink
    std::vector<int> depth;  //!< longest latency path from any source
    int length = 0;          //!< critical-path schedule length (cycles)

    int mobility(NodeId n) const { return alap[n] - asap[n]; }
};

/**
 * Topological order of the live nodes using only distance-0 edges.
 * @throws InvalidDdg if the distance-0 subgraph has a cycle
 */
std::vector<NodeId> topoOrder(const Ddg &ddg);

/** Compute ASAP/ALAP/height/depth and the critical-path length. */
NodeTimes computeTimes(const Ddg &ddg, const MachineConfig &mach);

/**
 * Strongly connected components over all edges (including
 * loop-carried ones).
 * @return component index per NodeId (dead nodes get -1); components
 *         are numbered in reverse topological order of the condensed
 *         graph (Tarjan numbering)
 */
std::vector<int> stronglyConnectedComponents(const Ddg &ddg);

/**
 * True when the graph contains a cycle whose total latency exceeds
 * II times its total distance, i.e. when II is below the recurrence
 * bound.
 */
bool hasPositiveCycle(const Ddg &ddg, const MachineConfig &mach, int ii);

/**
 * Flat relaxation-ready copy of the live edges: everything the
 * Bellman-Ford recurrence probe needs, gathered once so the O(V*E)
 * relaxation never touches the graph (edgeLatency() per edge per pass
 * is the difference between RecMII being cheap and dominating the
 * compile).
 */
struct FlatEdge
{
    NodeId src;
    NodeId dst;
    int latency;
    int distance;
};

class AnalysisCache;

/**
 * Maximum over elementary cycles of ceil(sum latency / sum distance);
 * 1 when the graph has no recurrences. This is the RecMII term of the
 * minimum initiation interval.
 *
 * Every cycle lies inside one strongly connected component, so this
 * is max(1, max over components of AnalysisCache::componentRecMii):
 * one Bellman-Ford binary search per component that has a
 * loop-carried edge, each over only that component's nodes and
 * internal edges.
 * @param cache optional memo; passing the one the scheduler later
 *        reads lets a compile on an unchanged graph find the SCCs and
 *        the per-component bounds there instead of recomputing them
 */
int recurrenceMii(const Ddg &ddg, const MachineConfig &mach,
                  AnalysisCache *cache = nullptr);

/**
 * RecMII of one strongly connected component: max over its cycles of
 * ceil(latency sum / distance sum); 0 when the component has no
 * loop-carried edge (and so, in a valid DDG, no cycle).
 * @param members nodes of the component
 */
int sccRecMii(const Ddg &ddg, const MachineConfig &mach,
              const std::vector<NodeId> &members);

/**
 * Longest total latency of any single recurrence through @p n, or 0
 * when @p n is not on a recurrence. Used by the partitioner's edge
 * weighting.
 */
std::vector<bool> nodesOnRecurrences(const Ddg &ddg);

/**
 * Generation-keyed memo for the pure DDG analyses. Each accessor
 * recomputes only when the graph's generation stamp (plus, for
 * machine-dependent analyses, the config's identity stamp) differs
 * from the one the cached result was computed at, so repeated calls
 * on an unchanged graph (the scheduler's placement loop, II retries
 * without structural edits) cost a couple of integer compares.
 *
 * The cache is single-slot per analysis: a mutation invalidates
 * everything computed before it. It is intentionally not thread-safe;
 * use one instance per worker (the suite runner compiles each loop on
 * one thread).
 */
class AnalysisCache
{
  public:
    /** Cached topoOrder(ddg). */
    const std::vector<NodeId> &topo(const Ddg &ddg);

    /** Cached computeTimes(ddg, mach). */
    const NodeTimes &times(const Ddg &ddg, const MachineConfig &mach);

    /** Cached stronglyConnectedComponents(ddg). */
    const std::vector<int> &scc(const Ddg &ddg);

    /**
     * Cached RecMII per component of scc(ddg), keyed on
     * (ddg.generation(), mach.id()): entry c is the sccRecMii of
     * component c, 0 when the component has no loop-carried internal
     * edge. In a valid DDG (no distance-0 cycle) that is exactly when
     * the component is not a recurrence: a single node without a
     * self-loop.
     */
    const std::vector<int> &componentRecMii(const Ddg &ddg,
                                            const MachineConfig &mach);

    /**
     * Buffers the analysis kernels refill on every recomputation, so
     * a long-lived cache stops allocating once it has seen its
     * largest graph.
     */
    struct Scratch
    {
        struct Frame
        {
            NodeId n;
            const EdgeId *it, *end;
        };
        std::vector<int> indeg;          //!< topo: distance-0 in-degree
        std::vector<NodeId> ready;       //!< topo: ready stack
        std::vector<int> index, lowlink; //!< Tarjan numbering
        std::vector<NodeId> stack;       //!< Tarjan component stack
        std::vector<Frame> dfs;          //!< Tarjan DFS frames
        std::vector<int> compSize;       //!< RecMII: nodes per component
        std::vector<int> local;          //!< RecMII: id within component
        std::vector<int> first, fill;    //!< RecMII: edge buckets
        std::vector<FlatEdge> edges;     //!< RecMII: bucketed edges
        std::vector<long long> dist;     //!< RecMII: Bellman-Ford
    };

  private:
    // Generation/config stamps start at 1, so 0 means "never
    // computed".
    std::uint64_t topoGen_ = 0;
    std::uint64_t timesGen_ = 0;
    std::uint64_t timesCfg_ = 0;
    std::uint64_t sccGen_ = 0;
    std::uint64_t recGen_ = 0;
    std::uint64_t recCfg_ = 0;
    std::vector<NodeId> topo_;
    NodeTimes times_;
    std::vector<int> scc_;
    std::vector<int> recMii_;
    Scratch scratch_;
};

/** Gather the live edges of @p ddg with latencies resolved. */
std::vector<FlatEdge> flattenEdges(const Ddg &ddg,
                                   const MachineConfig &mach);

/**
 * hasPositiveCycle over the @p count pre-flattened edges at @p edges,
 * whose endpoints lie in [0, @p slots). @p dist is scratch storage,
 * reused across calls (the RecMII binary search probes many IIs over
 * the same edges).
 */
bool hasPositiveCycleFlat(const FlatEdge *edges, std::size_t count,
                          int num_nodes, int slots, int ii,
                          std::vector<long long> &dist);

} // namespace cvliw

#endif // CVLIW_DDG_ANALYSIS_HH
