/**
 * @file
 * Pseudo-scheduler: a fast estimate of how well a partition will
 * schedule at a given II, used as the comparison metric during
 * partition refinement (section 2.3.1, following Aleta et al.,
 * PACT'02). It does not build a real schedule; it combines
 *  - the partition-induced II (per-cluster resource pressure and bus
 *    pressure),
 *  - an estimated schedule length where every cut register-flow edge
 *    pays the bus latency, and
 *  - the number of communications.
 *
 * ## Scratch state and delta evaluation
 *
 * Refinement evaluates the metric once per (node, cluster) candidate
 * move - hundreds of evaluations against one graph - so the heavy
 * state lives in a reusable `PseudoScratch`:
 *
 *  - `pseudoSchedule(..., scratch)` is the from-scratch oracle. It
 *    recomputes everything for an arbitrary assignment by walking the
 *    `Ddg` and asking the `MachineConfig`, reusing the scratch's
 *    buffers and analysis memo (no per-call allocation).
 *  - `bind()` / `probeMove()` / `commitMove()` form the incremental
 *    engine. `bind()` records a flat snapshot of the graph and the
 *    machine: the distance-0 in-edges in topological order with
 *    their latencies resolved and their cut (bus) penalty, each
 *    node's topological position, resource kind and latency, each
 *    node's tracked register-flow producers, each value's flow
 *    consumers, the per-cluster capacity of every resource kind, the
 *    bus latency and the register file size. A node's producers are
 *    stored once each, with the number of live flow edges from that
 *    producer (parallel edges p -> n exist, e.g. one at distance 0
 *    and one at distance 1), so a move shifts a producer's consumer
 *    count by that multiplicity. The engine then owns the current
 *    assignment, live per-(kind, cluster) resource counts with a
 *    pressure summary (the resource II, the number of cells at it,
 *    the resource overflow), per-producer communication counts, and
 *    the ASAP base: the bound assignment's ASAP times and the prefix
 *    maximum of the length over the topological order. Every kernel
 *    of the probe path reads the snapshot, never the `Ddg`.
 *
 * The snapshot is valid until the next `bind()`. The bound graph and
 * machine must not change (nor be destroyed) in between; a changed
 * graph needs a new `bind()`.
 *
 * ### Delta-evaluation invariants
 *
 * 1. `bind()` returns, and a `probeMove()` that returns true yields,
 *    a `PseudoResult` bit-identical to `pseudoSchedule()` on the same
 *    assignment: the snapshot kernels compute the same quantities as
 *    the oracle's, and the incremental communication count always
 *    equals `findCommunications().count()`.
 * 2. A probe of moving n to c is decided in this order, each step
 *    running only when the previous ones left the verdict open:
 *     - the O(1) capacity reject of invariant 3;
 *     - the read-only verdict: the moved assignment's iiPart,
 *       overflow, comms and imbalance, derived in O(deg n + clusters)
 *       without touching the state. A cell's ceil(u / units) moves by
 *       at most one, so the pressure summary gives the moved resource
 *       II and overflow in O(1); `commDelta` gives the moved
 *       communication count from the producers' consumer counts. A
 *       larger iiPart rejects; at equal iiPart, the rest of
 *       `PseudoResult::better` with the register deficit taken as 0
 *       rejects a move whose deficit or (at equal deficit) comms are
 *       larger. `regOverflow >= 0` and a larger deficit only loses,
 *       so such a move loses at every register width. Only what this
 *       step leaves open is counted in `fullEvalCount()`;
 *     - the full path: the move is applied, the ASAP length is
 *       computed (only when deficit and comms tie, or for the result
 *       of a winner), then the register sweep for moves that won on
 *       iiPart or survived; the comparison is re-decided only when
 *       the sweep reports `regOverflow > 0`. The move is then undone.
 *    The sweep is skipped altogether when an assignment-independent
 *    upper bound proves no cluster can exceed its register file. The
 *    sweep fills a per-cluster difference array over [0, length]:
 *    its peak prefix sum is the peak of the sorted event sweep, which
 *    handles ends before starts at equal times.
 * 3. Before any of that, `probeMove()` rejects in O(1) when the
 *    target cluster's count `u` of the node's resource kind, plus
 *    the node itself, already needs `ceil((u + 1) / avail) >
 *    best.iiPart` cycles. The moved assignment's iiPart is at least
 *    that bound, so the full evaluation would reject it too. The
 *    check applies only when `avail > 0`: a kind with no units is
 *    the `1000 * u` overflow penalty, which does not raise iiPart.
 *    A rejected probe still counts in `probeCount()`.
 * 4. `probeMove()` leaves the bound state exactly as it found it;
 *    only `commitMove()` (and `bind()`) change the bound assignment,
 *    the pressure summary and the ASAP base. A move of n changes cut
 *    penalties only on edges into n and out of n, so no node before
 *    n's topological position changes its ASAP time: the full path
 *    restarts ASAP there, reading the base times and the base prefix
 *    length for everything before it. `commitMove()` rebases the
 *    suffix from the same position.
 */

#ifndef CVLIW_SCHED_PSEUDO_HH
#define CVLIW_SCHED_PSEUDO_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ddg/analysis.hh"
#include "ddg/ddg.hh"

namespace cvliw
{

/** Result of pseudo-scheduling a partition at a given II. */
struct PseudoResult
{
    int iiPart = 0;   //!< min II this partition can possibly achieve
    int overflow = 0; //!< resource/bus slot deficit at the probed II
    int regOverflow = 0; //!< estimated register-width deficit
    int length = 0;   //!< estimated schedule length (cut edges pay bus)
    int comms = 0;    //!< number of communications
    int imbalance = 0;//!< max-min per-cluster op count spread

    /**
     * Strict "is this partition better" ordering used by refinement:
     * lexicographic on (iiPart, overflow + regOverflow, comms,
     * length, imbalance).
     */
    bool better(const PseudoResult &o) const;
};

/**
 * Reusable state for pseudo-schedule evaluations: the analysis memo,
 * the usage / ops-per-cluster / sweep / est buffers of the
 * from-scratch path, and the incremental move-evaluation state of
 * the refinement hot path (see the file comment). One instance
 * serves one thread; the pipeline threads one through every
 * refinement and every II retry.
 */
class PseudoScratch
{
  public:
    /**
     * Bind the incremental engine to (@p ddg, @p mach, @p ii) with
     * the starting assignment @p cluster_of: record the snapshot and
     * the incremental state, and return the full pseudo-schedule
     * result of that assignment, computed from them. @p ddg and
     * @p mach must stay unchanged until the next bind().
     * @param analyses memo to take the topological order from; the
     *        pipeline passes the compile's own, which already holds
     *        the order of the graph it partitions. Null uses the
     *        scratch's private memo. Either is keyed on
     *        Ddg::generation(), so the result is the same.
     */
    PseudoResult bind(const Ddg &ddg, const MachineConfig &mach,
                      const std::vector<int> &cluster_of, int ii,
                      AnalysisCache *analyses = nullptr);

    /** Current assignment (valid after bind(), kept by commitMove()). */
    const std::vector<int> &assignment() const { return assign_; }

    /**
     * Does moving @p n to cluster @p c beat @p best? On true, @p out
     * holds the exact result of the moved assignment. The scratch
     * state is left unchanged either way. @p n must be a live
     * non-copy node of the bound graph.
     */
    bool probeMove(NodeId n, int c, const PseudoResult &best,
                   PseudoResult &out);

    /** Commit the move of @p n to cluster @p c. */
    void commitMove(NodeId n, int c);

    /** Incremental communication count of the bound assignment. */
    int commCount() const { return commCount_; }

    /**
     * Lifetime probeMove() / commitMove() call counts: monotone over
     * the scratch's life, never reset by bind(). The pipeline
     * differences them around each compile to fill
     * CompileTelemetry::refineProbes / refineCommits - deterministic
     * for a given (graph, machine, options) because refinement's
     * control flow is.
     */
    std::uint64_t probeCount() const { return probes_; }
    std::uint64_t commitCount() const { return commits_; }

    /**
     * Lifetime count of the probes the read-only verdict left open
     * (the full path of invariant 2); deterministic like
     * probeCount(), and the source of
     * CompileTelemetry::refineFullEvals.
     */
    std::uint64_t fullEvalCount() const { return fullEvals_; }

    /**
     * Lifetime counts of the ASAP base's two branches: full-path ASAP
     * passes that started past topological position 0, and commits
     * that rebased the base. Tests read them so neither branch goes
     * dead unnoticed.
     */
    std::uint64_t suffixAsapCount() const { return suffixAsaps_; }
    std::uint64_t rebaseCount() const { return rebases_; }

  private:
    friend PseudoResult pseudoSchedule(const Ddg &,
                                       const MachineConfig &,
                                       const std::vector<int> &, int,
                                       PseudoScratch &);

    /** Move @p n to @p to, updating the counts (not the summary). */
    void applyMove(NodeId n, int to);

    /**
     * Change of the communication count if @p n moved to @p to,
     * derived read-only from the producers' consumer counts.
     */
    int commDelta(NodeId n, int to) const;

    /**
     * iiPart, overflow, comms and imbalance of the bound assignment
     * with @p n moved to @p to (the read-only verdict's input).
     */
    PseudoResult movedCheap(NodeId n, int to) const;

    /** Recompute the pressure summary from usage_. */
    void summarizePressure();

    /**
     * Complete the cheap result @p r of the currently-applied move
     * against @p best in the decision order of invariant 2, skipping
     * the expensive kernels whenever the comparison is already
     * decided; ASAP restarts at topological position @p start. On
     * true, @p out is the complete result.
     */
    bool evalAgainst(PseudoResult r, int start, const PseudoResult &best,
                     PseudoResult &out);

    /**
     * ASAP times into est_ from topological position @p start on,
     * over the base times before it; returns the schedule length.
     */
    int asapLength(int start);

    /** Make est_ and the prefix lengths the base from @p start on. */
    void rebase(int start);

    /**
     * Register-width deficit of the applied state (needs est_ and
     * its schedule length @p length).
     */
    int regOverflow(int length);

    static constexpr std::size_t numKinds_ =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);

    /** A distance-0 in-edge of the snapshot. */
    struct InEdge
    {
        NodeId src;
        int latency;
        int cutPenalty; //!< bus latency for RegFlow edges, else 0
    };

    /** A tracked producer of a node and its live flow-edge count. */
    struct FlowProducer
    {
        NodeId node;
        int edges;
    };

    /** A live register-flow out-edge of a value producer. */
    struct OutFlow
    {
        NodeId dst;
        int distance;
    };

    const MachineConfig *mach_ = nullptr;
    int ii_ = 0;
    int clusters_ = 0;
    bool widthCanOverflow_ = true;

    AnalysisCache cache_;

    // Snapshot of the bound graph and machine (see the file comment).
    std::array<int, numKinds_> avail_{}; //!< units per cluster by kind
    int bus_ = 0;                        //!< bus latency
    int regs_ = 0;                       //!< registers per cluster
    std::vector<signed char> kind_;      //!< resource kind; -1: copy
    std::vector<int> nodeLat_;           //!< per node: its latency
    std::vector<NodeId> order_;          //!< topological order
    std::vector<int> pos_;               //!< NodeId -> order_ index
    std::vector<int> inBegin_;           //!< order_ index -> inEdges_
    std::vector<InEdge> inEdges_;
    std::vector<int> prodBegin_;         //!< NodeId -> prods_
    std::vector<FlowProducer> prods_;    //!< distinct tracked producers
    std::vector<NodeId> values_;         //!< value producers, id order
    std::vector<int> outBegin_;          //!< values_ index -> outFlows_
    std::vector<OutFlow> outFlows_;
    /** Per node: non-copy value producer (comm-eligible). */
    std::vector<char> tracked_;

    // Incremental state (valid between bind() and the next bind()).
    std::vector<int> assign_;
    std::vector<int> usage_; //!< [kind * clusters_ + c]
    std::vector<int> ops_;   //!< per cluster
    /** Per (producer, cluster): live non-copy flow-consumer edges. */
    std::vector<int> consCnt_;
    /** Per producer: clusters != home holding >=1 consumer. */
    std::vector<int> remoteCnt_;
    int commCount_ = 0;
    // Pressure summary of usage_ (see invariant 2).
    int resIi_ = 1;       //!< resource II (at least 1)
    int resIiCells_ = 0;  //!< (kind, cluster) cells at resIi_
    int resOverflow_ = 0; //!< resource slot overflow
    // ASAP base of the bound assignment (see invariant 4).
    std::vector<int> baseEst_;   //!< per node: its base ASAP time
    std::vector<int> prefixLen_; //!< [i]: length over order_[0, i)
    /** est_ equals baseEst_ on order_ positions below this. */
    int dirtyFrom_ = 0;

    std::uint64_t probes_ = 0;
    std::uint64_t commits_ = 0;
    std::uint64_t fullEvals_ = 0;
    std::uint64_t suffixAsaps_ = 0;
    std::uint64_t rebases_ = 0;

    // Buffers of the expensive kernels; est_ is the probe path's,
    // estFull_ the oracle's.
    std::vector<int> est_;
    std::vector<int> estFull_;
    std::vector<int> usageFull_;
    std::vector<int> opsFull_;
    std::vector<int> diff_; //!< [c * (length + 1) + t]: sweep deltas
    std::vector<int> carried_;
    std::vector<int> last_;
    std::vector<int> maxDist_;
    std::vector<int> width_;
};

/**
 * Evaluate @p cluster_of at initiation interval @p ii from scratch.
 * This is the oracle the incremental engine is checked against; it
 * performs no per-call allocation beyond what @p scratch retains.
 * Calling it does not disturb the scratch's bound incremental state.
 *
 * @param ddg loop body (no copy nodes yet)
 * @param mach target machine
 * @param cluster_of cluster per NodeId
 * @param ii probed initiation interval
 * @param scratch buffer/memo state, reused across calls - refinement
 *        probes hundreds of assignments against one graph
 */
PseudoResult pseudoSchedule(const Ddg &ddg, const MachineConfig &mach,
                            const std::vector<int> &cluster_of, int ii,
                            PseudoScratch &scratch);

} // namespace cvliw

#endif // CVLIW_SCHED_PSEUDO_HH
