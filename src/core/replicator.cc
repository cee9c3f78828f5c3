#include "core/replicator.hh"

#include <algorithm>
#include <charconv>
#include <optional>
#include <string_view>
#include <tuple>

#include "core/removable.hh"
#include "core/weights.hh"
#include "sched/comms.hh"
#include "support/deadline.hh"
#include "support/faultpoint.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace cvliw
{

namespace
{

/** Track a replica in the Figure-10 category counters. */
void
countReplica(ReplicationStats *stats, OpClass cls)
{
    if (!stats)
        return;
    ++stats->replicasAdded;
    switch (categoryOf(cls)) {
      case OpCategory::Mem: ++stats->replicasByCat[0]; break;
      case OpCategory::Int: ++stats->replicasByCat[1]; break;
      case OpCategory::Fp:  ++stats->replicasByCat[2]; break;
      default: break;
    }
}

/** The ".r<cluster>" label suffix of a replica, in a stack buffer. */
class ReplicaSuffix
{
  public:
    explicit ReplicaSuffix(int cluster)
    {
        buf_[0] = '.';
        buf_[1] = 'r';
        len_ = static_cast<std::size_t>(
            std::to_chars(buf_ + 2, buf_ + sizeof buf_, cluster).ptr -
            buf_);
    }
    std::string_view view() const { return {buf_, len_}; }

  private:
    char buf_[16];
    std::size_t len_;
};

/**
 * Create the replicas of @p sg, wire their operands, and rewire the
 * consumers of sg.com in the subgraph's target clusters to the local
 * instances. When @p touched is non-null, every node whose consumers
 * or in-edges changed (replicas, their operand producers, rewired
 * consumers and com itself) is appended to it, so the caller can
 * patch its CommInfo incrementally instead of rescanning the graph.
 * @p structural, when non-null, receives only the nodes whose
 * *in-edge list* changed (replicas and rewired consumers): the
 * subgraph walk reads in-edges, instances and communicated flags but
 * never an ancestor's out-edges, so these - not the full touched set
 * - seed the pool-staleness walk.
 */
void
applySubgraph(Ddg &ddg, Partition &part, ReplicaIndex &index,
              const ReplicationSubgraph &sg,
              const std::vector<bool> &communicated,
              ReplicationStats *stats,
              std::vector<NodeId> *touched = nullptr,
              std::vector<NodeId> *structural = nullptr)
{
    auto touch = [&](NodeId n) {
        if (touched)
            touched->push_back(n);
    };
    auto touchStructural = [&](NodeId n) {
        if (structural)
            structural->push_back(n);
    };
    // Phase 1: create all replica nodes (cycles in the subgraph make
    // a create-then-wire split necessary), in the (node, cluster)
    // member order that fixes their ids.
    const std::size_t replicas = sg.replicaNodes.size();
    for (std::size_t i = 0; i < replicas; ++i) {
        const NodeId v = sg.replicaNodes[i];
        const int c = sg.replicaClusters[i];
        const NodeId r = ddg.addReplica(v, ReplicaSuffix(c).view());
        part.assign(r, c);
        index.addInstance(ddg.node(v).semanticId, c, r);
        countReplica(stats, ddg.node(v).cls);
        touch(r);
        touch(v);
        touchStructural(r);
    }

    // Phase 2: wire operands of every new replica.
    for (std::size_t i = 0; i < replicas; ++i) {
        const NodeId v = sg.replicaNodes[i];
        const int c = sg.replicaClusters[i];
        const NodeId r = index.instance(ddg.node(v).semanticId, c);
        cv_assert(r != invalidNode, "replica vanished");
        for (EdgeId eid : ddg.inEdges(v)) {
            const DdgEdge e = ddg.edge(eid);
            if (e.kind == EdgeKind::Memory) {
                // Keep memory ordering for the replica too.
                ddg.addEdge(e.src, r, EdgeKind::Memory, e.distance,
                            e.memLatency);
                continue;
            }
            if (e.kind == EdgeKind::Spill) {
                // A replicated reload reads the same centralized
                // spill slot.
                ddg.addEdge(e.src, r, EdgeKind::Spill,
                            e.distance);
                continue;
            }
            const NodeId p = e.src;
            const NodeId local =
                index.instance(ddg.node(p).semanticId, c);
            if (local != invalidNode) {
                ddg.addEdge(local, r, EdgeKind::RegFlow,
                            e.distance);
                touch(local);
            } else if (communicated[p]) {
                // Delivered by the existing broadcast of p.
                ddg.addEdge(p, r, EdgeKind::RegFlow, e.distance);
                touch(p);
            } else {
                cv_panic("operand ", ddg.label(p),
                         " unavailable in cluster ", c,
                         " while replicating ",
                         ddg.label(sg.com));
            }
        }
        // Replicated loads/stores inherit outgoing memory
        // ordering constraints as well.
        for (EdgeId eid : ddg.outEdges(v)) {
            const DdgEdge e = ddg.edge(eid);
            if (e.kind == EdgeKind::Memory) {
                ddg.addEdge(r, e.dst, EdgeKind::Memory, e.distance,
                            e.memLatency);
            }
        }
    }

    // Phase 3: rewire remote consumers of com to the local instances.
    const int home = part.clusterOf(sg.com);
    for (EdgeId eid : ddg.outEdges(sg.com)) {
        const DdgEdge e = ddg.edge(eid);
        if (e.kind != EdgeKind::RegFlow)
            continue;
        const int c = part.clusterOf(e.dst);
        if (c == home)
            continue;
        if (!std::binary_search(sg.targetClusters.begin(),
                                sg.targetClusters.end(), c)) {
            continue; // section 5.1 variant: only chosen clusters
        }
        const NodeId local =
            index.instance(ddg.node(sg.com).semanticId, c);
        cv_assert(local != invalidNode,
                  "no instance of com in target cluster ", c);
        ddg.removeEdge(eid);
        ddg.addEdge(local, e.dst, EdgeKind::RegFlow, e.distance);
        touch(local);
        touch(e.dst);
        touchStructural(e.dst);
    }
    touch(sg.com);
}

/**
 * Dead-code sweep restricted to the ancestor cone of @p com. Exact
 * replacement for the global sweep *when the rest of the graph holds
 * no dead code* (i.e. from the second round of a replication pass
 * on): a round only rewires com's consumers, so only com's upward
 * cone can lose liveness - every flow consumer of a cone node is
 * either in the cone itself or untouched and alive. All buffers are
 * caller-owned and reused across rounds.
 */
int
removeDeadCodeInCone(Ddg &ddg, const Partition &part,
                     ReplicaIndex &index, NodeId com,
                     std::vector<NodeId> *touched,
                     std::vector<NodeId> *removed_out,
                     std::vector<char> &in_cone,
                     std::vector<NodeId> &cone, std::vector<char> &live,
                     std::vector<NodeId> &worklist)
{
    const int slots = ddg.numNodeSlots();
    in_cone.assign(slots, 0);
    cone.clear();
    auto enter = [&](NodeId n) {
        if (!in_cone[n]) {
            in_cone[n] = 1;
            cone.push_back(n);
        }
    };
    enter(com);
    for (std::size_t i = 0; i < cone.size(); ++i) {
        for (NodeId p : ddg.flowPreds(cone[i]))
            enter(p);
    }

    // Mark: roots are cone stores/live-outs and cone nodes read from
    // outside the cone (everything outside is alive by assumption).
    live.assign(slots, 0);
    worklist.clear();
    for (NodeId v : cone) {
        const DdgNode &node = ddg.node(v);
        bool root = node.cls == OpClass::Store || node.liveOut;
        if (!root) {
            for (NodeId w : ddg.flowSuccs(v)) {
                if (!in_cone[w]) {
                    root = true;
                    break;
                }
            }
        }
        if (root) {
            live[v] = 1;
            worklist.push_back(v);
        }
    }
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        for (NodeId p : ddg.flowPreds(v)) {
            if (!live[p]) {
                live[p] = 1;
                worklist.push_back(p);
            }
        }
    }

    // Sweep the cone.
    int removed = 0;
    for (NodeId n : cone) {
        if (live[n])
            continue;
        if (touched) {
            touched->push_back(n);
            for (NodeId p : ddg.flowPreds(n))
                touched->push_back(p);
        }
        if (removed_out)
            removed_out->push_back(n);
        index.removeInstance(ddg.node(n).semanticId,
                             part.clusterOf(n));
        ddg.removeNode(n);
        ++removed;
    }
    return removed;
}

/**
 * Global dead-code sweep (see removeDeadCode) over caller-owned mark
 * and worklist buffers.
 */
int
sweepDeadCode(Ddg &ddg, const Partition &part, ReplicaIndex &index,
              std::vector<NodeId> *touched,
              std::vector<NodeId> *removed_out, std::vector<char> &live,
              std::vector<NodeId> &worklist)
{
    // Mark: walk register-flow edges backwards from the roots
    // (stores and live-out values).
    live.assign(ddg.numNodeSlots(), 0);
    worklist.clear();
    for (NodeId n : ddg.nodes()) {
        const DdgNode &node = ddg.node(n);
        if (node.cls == OpClass::Store || node.liveOut) {
            live[n] = 1;
            worklist.push_back(n);
        }
    }
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        for (NodeId p : ddg.flowPreds(v)) {
            if (!live[p]) {
                live[p] = 1;
                worklist.push_back(p);
            }
        }
    }

    // Sweep.
    int removed = 0;
    for (NodeId n : ddg.nodes()) {
        if (live[n])
            continue;
        if (touched) {
            // The dead node and the producers losing a consumer all
            // change communication status; capture the preds before
            // the edges are tombstoned.
            touched->push_back(n);
            for (NodeId p : ddg.flowPreds(n))
                touched->push_back(p);
        }
        if (removed_out)
            removed_out->push_back(n);
        index.removeInstance(ddg.node(n).semanticId,
                             part.clusterOf(n));
        ddg.removeNode(n);
        ++removed;
    }
    return removed;
}

} // namespace

int
removeDeadCode(Ddg &ddg, const Partition &part, ReplicaIndex &index,
               std::vector<NodeId> *touched,
               std::vector<NodeId> *removed_out)
{
    std::vector<char> live;
    std::vector<NodeId> worklist;
    return sweepDeadCode(ddg, part, index, touched, removed_out, live,
                         worklist);
}

/**
 * One run of reduceCommunications. All of its state lives in the
 * SubgraphScratch it is given (a friend), so a run allocates only
 * when a graph outgrows the buffers.
 */
class ReplicationPass
{
  public:
    ReplicationPass(Ddg &ddg, Partition &part, const MachineConfig &mach,
                    int ii, ReplicationStats *stats,
                    const CoarseningHierarchy *macro_hier,
                    SubgraphScratch &scratch, CommInfo *comms_out)
        : ddg_(ddg), part_(part), mach_(mach), ii_(ii), stats_(stats),
          macroHier_(macro_hier), s_(scratch),
          comms_(comms_out ? *comms_out : scratch.comms_)
    {
    }

    bool run(CooperativeDeadline *deadline);

  private:
    /** Walk the subgraph of @p com into @p out. */
    void walk(ReplicationSubgraph &out, NodeId com);

    /** Bring the pool in line with the current communications. */
    void syncPool();

    /** Score every candidate; the index of the best, -1 if none. */
    int score();

    /** Replicate @p applied and patch comms, index and staleness. */
    void apply(const ReplicationSubgraph &applied);

    Ddg &ddg_;
    Partition &part_;
    const MachineConfig &mach_;
    const int ii_;
    ReplicationStats *const stats_;
    /**
     * Non-null in MacroNode mode. The incremental pool/staleness/cone
     * machinery assumes the subgraph walk reads only flow ancestors
     * of its producer and that every created replica has a consumer.
     * MacroNode mode breaks both (it reads macro co-membership and
     * force-replicates members nothing consumes), so it keeps the
     * from-scratch per-round pool and the global dead-code sweep.
     */
    const CoarseningHierarchy *const macroHier_;
    SubgraphScratch &s_;
    CommInfo &comms_;
    bool indexSeeded_ = false;
    bool poolValid_ = false;
    bool sweptGlobally_ = false;
};

void
ReplicationPass::walk(ReplicationSubgraph &out, NodeId com)
{
    s_.seeds_.clear();
    if (macroHier_) {
        // Section 5.2: force the whole level-1 macro-node of com
        // into the subgraph.
        for (NodeId m : macroHier_->membersOf(com, 1)) {
            if (ddg_.node(m).alive && m != com)
                s_.seeds_.push_back(m);
        }
    }
    findReplicationSubgraph(out, ddg_, part_, com, comms_.communicated,
                            s_.index_, s_.seeds_, {}, s_);
}

void
ReplicationPass::syncPool()
{
    std::vector<ReplicationSubgraph> &pool = s_.pool_;
    const std::vector<NodeId> &producers = comms_.producers;
    if (!poolValid_) {
        pool.resize(producers.size());
        for (std::size_t k = 0; k < producers.size(); ++k)
            walk(pool[k], producers[k]);
        poolValid_ = true;
        return;
    }
    std::vector<NodeId> &stale_seeds = s_.staleSeeds_;
    if (stale_seeds.empty())
        return;

    // A pool entry is stale iff its upward walk can visit a changed
    // node, i.e. iff its producer is a flow descendant of one. Mark
    // descendants once, then rebuild the pool against the patched
    // producer list into the spare buffer: fresh entries are swapped
    // over, stale and new ones are walked again in place, so every
    // entry keeps its member lists' capacity.
    std::vector<char> &dirty = s_.dirty_;
    std::vector<NodeId> &walk_list = s_.walk_;
    dirty.assign(ddg_.numNodeSlots(), 0);
    walk_list.clear();
    auto seed = [&](NodeId n) {
        if (!dirty[n]) {
            dirty[n] = 1;
            walk_list.push_back(n);
        }
    };
    for (NodeId n : stale_seeds)
        seed(n);
    while (!walk_list.empty()) {
        const NodeId v = walk_list.back();
        walk_list.pop_back();
        if (!ddg_.node(v).alive)
            continue;
        for (NodeId w : ddg_.flowSuccs(v))
            seed(w);
    }
    stale_seeds.clear();

    std::vector<ReplicationSubgraph> &next = s_.spare_;
    next.resize(producers.size());
    std::size_t oi = 0;
    for (std::size_t k = 0; k < producers.size(); ++k) {
        const NodeId com = producers[k];
        while (oi < pool.size() && pool[oi].com < com)
            ++oi;
        const bool listed = oi < pool.size() && pool[oi].com == com;
        if (listed)
            ++oi;
        if (listed && !dirty[com])
            std::swap(next[k], pool[oi - 1]);
        else
            walk(next[k], com);
    }
    pool.swap(next);
}

int
ReplicationPass::score()
{
    const std::vector<ReplicationSubgraph> &pool = s_.pool_;
    // One usage snapshot and one share table score every candidate.
    part_.usage(ddg_, mach_, s_.usage_);
    s_.share_.build(pool, ddg_.numNodeSlots(), mach_.numClusters());
    s_.feasible_.assign(pool.size(), 0);
    s_.weights_.resize(pool.size());

    int best = -1;
    int best_size = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        extraOps(ddg_, mach_, pool[i], s_.extra_);
        if (!replicationFeasible(mach_, ii_, s_.usage_, s_.extra_))
            continue;
        s_.feasible_[i] = 1;
        findRemovableInstructions(ddg_, part_, pool[i].com,
                                  comms_.communicated,
                                  s_.removableScratch_, s_.removable_);
        const Rational w =
            subgraphWeight(ddg_, mach_, ii_, pool[i], s_.share_,
                           s_.removable_, s_.usage_, s_.extra_);
        s_.weights_[i] = w;
        const int size = pool[i].totalNewInstances();
        if (best < 0 || w < s_.weights_[best] ||
            (w == s_.weights_[best] &&
             std::tie(size, pool[i].com) <
                 std::tie(best_size, pool[best].com))) {
            best = static_cast<int>(i);
            best_size = size;
        }
    }
    return best;
}

void
ReplicationPass::apply(const ReplicationSubgraph &applied)
{
    std::vector<NodeId> &touched = s_.touched_;
    std::vector<NodeId> &structural = s_.structural_;
    std::vector<NodeId> &removed_ids = s_.removedIds_;
    touched.clear();
    structural.clear();
    removed_ids.clear();
    applySubgraph(ddg_, part_, s_.index_, applied, comms_.communicated,
                  stats_, &touched, &structural);
    // The first sweep must be global (the input graph may carry
    // dead code); afterwards only com's ancestor cone can die.
    // MacroNode mode can create consumerless replicas outside
    // that cone, so it always sweeps globally.
    int removed;
    if (!sweptGlobally_ || macroHier_) {
        removed = sweepDeadCode(ddg_, part_, s_.index_, &touched,
                                &removed_ids, s_.live_, s_.deadWork_);
        sweptGlobally_ = true;
    } else {
        removed = removeDeadCodeInCone(
            ddg_, part_, s_.index_, applied.com, &touched, &removed_ids,
            s_.coneFlag_, s_.cone_, s_.live_, s_.deadWork_);
    }
    if (stats_) {
        ++stats_->comsRemoved;
        stats_->instructionsRemoved += removed;
    }

    // Every instance of a semantic whose instance set changed
    // answers hasInstance() differently now: all of its live
    // instances seed the staleness walk (the subgraph walk of
    // any producer that can reach one may shrink or grow). That
    // covers both this round's replications and instances lost
    // to the dead-code sweep - a cached walk may have relied on
    // a removed instance via a live sibling instance.
    auto seedInstancesOf = [&](NodeId of) {
        const NodeId sem = ddg_.node(of).semanticId;
        for (int c = 0; c < mach_.numClusters(); ++c) {
            const NodeId inst = s_.index_.instance(sem, c);
            if (inst != invalidNode)
                structural.push_back(inst);
        }
    };
    for (std::size_t i = 0; i < applied.replicaNodes.size(); ++i) {
        const NodeId v = applied.replicaNodes[i];
        if (i == 0 || v != applied.replicaNodes[i - 1])
            seedInstancesOf(v);
    }
    for (NodeId r : removed_ids)
        seedInstancesOf(r);

    comms_.update(ddg_, part_.vec(), touched, s_.changed_);

    // Defer the pool sync to the next working round: the last
    // round of the pass exits at the capacity check without
    // paying for a rebuild it would never use. The seeds are only
    // the live nodes a subgraph walk actually reads: comm diffs,
    // in-edge edits and instance-set changes - not the full
    // comm-recheck superset. MacroNode subgraphs additionally
    // depend on macro co-membership the walk cannot see, so that
    // mode rebuilds the pool from scratch.
    if (macroHier_) {
        poolValid_ = false;
    } else {
        s_.staleSeeds_.insert(s_.staleSeeds_.end(), structural.begin(),
                              structural.end());
        s_.staleSeeds_.insert(s_.staleSeeds_.end(),
                              s_.changed_.begin(), s_.changed_.end());
    }
}

bool
ReplicationPass::run(CooperativeDeadline *deadline)
{
    // Communications are scanned once; each round patches them and
    // re-pools only the subgraphs whose dependency cone saw a change
    // (CommInfo::update reports the comm diffs; syncPool's
    // flow-descendant walk turns them into pool staleness).
    findCommunications(ddg_, part_.vec(), comms_);
    if (stats_)
        stats_->comsInitial = comms_.count();
    s_.staleSeeds_.clear();

    while (true) {
        if (extraComs(comms_.count(), mach_, ii_) == 0)
            return true; // no pool work when nothing must be removed
        faults::point("replicate.round");
        trace::TraceSpan round_span("pipeline", "replicate.round");
        round_span.arg("comms", comms_.count());
        if (deadline)
            deadline->checkpoint("replication round");
        if (stats_)
            ++stats_->roundsConsidered;

        // The instance index is seeded at the first round, before
        // anything was replicated; a pass without rounds never
        // builds it.
        if (!indexSeeded_) {
            s_.index_.reset(ddg_, part_);
            indexSeeded_ = true;
        }
        syncPool();
        const int best = score();
        if (s_.observer) {
            s_.observer->onRound({ddg_, part_, mach_, ii_, comms_,
                                  s_.pool_, s_.feasible_, s_.weights_,
                                  best, macroHier_});
        }
        if (best < 0)
            return false; // no feasible replication: caller raises II

        // The pool is not touched again before the next round's
        // sync, so the chosen entry is applied in place.
        apply(s_.pool_[best]);
    }
}

bool
reduceCommunications(Ddg &ddg, Partition &part,
                     const MachineConfig &mach, int ii,
                     ReplicationStats *stats, ReplicationMode mode,
                     const CoarseningHierarchy *hier,
                     SubgraphScratch *scratch,
                     CooperativeDeadline *deadline, CommInfo *comms_out)
{
    if (mach.isUnified()) {
        if (comms_out)
            findCommunications(ddg, part.vec(), *comms_out);
        return true;
    }
    const bool macro_mode = mode == ReplicationMode::MacroNode &&
                            hier && hier->numLevels() > 1;
    std::optional<SubgraphScratch> local_scratch;
    ReplicationPass pass(ddg, part, mach, ii, stats,
                         macro_mode ? hier : nullptr,
                         scratch ? *scratch : local_scratch.emplace(),
                         comms_out);
    return pass.run(deadline);
}

bool
replicateIntoCluster(Ddg &ddg, Partition &part,
                     const MachineConfig &mach, int ii,
                     NodeId producer, int cluster,
                     ReplicationStats *stats, SubgraphScratch *scratch)
{
    if (part.clusterOf(producer) == cluster)
        return false;

    ReplicaIndex index(ddg, part);
    const CommInfo comms = findCommunications(ddg, part.vec());
    if (!comms.communicated[producer])
        return false;

    const ReplicationSubgraph sg = findReplicationSubgraph(
        ddg, part, producer, comms.communicated, index, {}, {cluster},
        scratch);
    if (!replicationFeasible(ddg, mach, part, ii, sg))
        return false;

    applySubgraph(ddg, part, index, sg, comms.communicated, stats);
    const int removed = removeDeadCode(ddg, part, index);
    if (stats)
        stats->instructionsRemoved += removed;
    return true;
}

} // namespace cvliw
