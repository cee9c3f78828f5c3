#include "sched/pseudo.hh"

#include <algorithm>
#include <array>
#include <tuple>

#include "sched/comms.hh"
#include "support/logging.hh"

namespace cvliw
{

namespace
{

constexpr auto numKinds =
    static_cast<std::size_t>(ResourceKind::NumResourceKinds);

/**
 * ASAP times over distance-0 edges where cut register-flow edges pay
 * the bus latency: the time base of both the length estimate and the
 * register sweep. This and the other Ddg-walking kernels below serve
 * only the from-scratch oracle; the probe path runs its own kernels
 * over PseudoScratch's flat snapshot. Both paths share the sweep's
 * difference-array helpers and resourcePressure.
 */
void
asapWithBusPenalty(const Ddg &ddg, const MachineConfig &mach,
                   const std::vector<int> &cluster_of,
                   const std::vector<NodeId> &order,
                   std::vector<int> &est)
{
    est.assign(ddg.numNodeSlots(), 0);
    for (NodeId n : order) {
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            int lat = ddg.edgeLatency(eid, mach);
            if (e.kind == EdgeKind::RegFlow &&
                cluster_of[e.src] != cluster_of[e.dst]) {
                lat += mach.busLatency();
            }
            est[n] = std::max(est[n], est[e.src] + lat);
        }
    }
}

/** Schedule length: all results of one iteration produced. */
int
lengthFromAsap(const Ddg &ddg, const MachineConfig &mach,
               const std::vector<NodeId> &order,
               const std::vector<int> &est)
{
    int length = 0;
    for (NodeId n : order) {
        length = std::max(length,
                          est[n] + mach.latency(ddg.node(n).cls));
    }
    return length;
}

/**
 * Size and clear the per-cluster sweep buffers: one difference array
 * of @p length + 1 slots per cluster, and the carried counts. Every
 * interval of a sweep lies in [0, length]: it ends at a consumer's
 * ASAP time, which is below the schedule length.
 */
void
resetSweep(int clusters, int length, std::vector<int> &diff,
           std::vector<int> &carried)
{
    diff.assign(static_cast<std::size_t>(clusters) *
                    static_cast<std::size_t>(length + 1),
                0);
    carried.assign(clusters, 0);
}

/**
 * Record the register instances of one value: the home cluster holds
 * it from definition @p def to its last local read, every remote
 * consumer cluster from bus arrival to its last read there, and
 * loop-carried consumers pin @p max_dist permanently live instances.
 * @p last is -1 (and @p max_dist 0) for clusters without a consumer.
 * An interval [begin, end) adds +1 at begin and -1 at end of its
 * cluster's difference array (@p span slots per cluster).
 */
void
addValueInstances(int home, int def, int bus_lat,
                  const std::vector<int> &last,
                  const std::vector<int> &max_dist, int span,
                  std::vector<int> &diff, std::vector<int> &carried)
{
    const int clusters = static_cast<int>(last.size());
    for (int c = 0; c < clusters; ++c) {
        if (last[c] < 0 && max_dist[c] == 0)
            continue;
        const int begin = c == home ? def : def + bus_lat;
        if (last[c] > begin) {
            int *d = &diff[static_cast<std::size_t>(c) *
                           static_cast<std::size_t>(span)];
            ++d[begin];
            --d[last[c]];
        }
        carried[c] += max_dist[c];
    }
}

/**
 * Per-cluster peak of the intervals plus carried instances. The
 * peak prefix sum of a difference array is the peak of the sorted
 * event sweep: that sweep handles ends before starts at equal times,
 * so it peaks only after all of a time's events, i.e. at a prefix
 * sum.
 */
void
peakWidths(const std::vector<int> &diff, int span,
           const std::vector<int> &carried, std::vector<int> &width)
{
    const std::size_t clusters = carried.size();
    width.assign(clusters, 0);
    for (std::size_t c = 0; c < clusters; ++c) {
        const int *d = &diff[c * static_cast<std::size_t>(span)];
        int live = 0, peak = 0;
        for (int t = 0; t < span; ++t) {
            live += d[t];
            peak = std::max(peak, live);
        }
        width[c] = peak + carried[c];
    }
}

/**
 * Register-width sweep: one interval per *instance* of each value
 * (see addValueInstances), over ASAP times whose schedule length is
 * @p length. All buffers are caller-owned and reused across calls.
 */
void
widthSweep(const Ddg &ddg, const MachineConfig &mach,
           const std::vector<int> &cluster_of,
           const std::vector<int> &asap, int length,
           std::vector<int> &diff, std::vector<int> &carried,
           std::vector<int> &last, std::vector<int> &max_dist,
           std::vector<int> &width)
{
    const int clusters = mach.numClusters();
    resetSweep(clusters, length, diff, carried);

    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (!producesValue(node.cls) || node.cls == OpClass::Copy)
            continue;
        last.assign(clusters, -1);
        max_dist.assign(clusters, 0);
        for (EdgeId eid : ddg.outEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow)
                continue;
            const int c = cluster_of[e.dst];
            if (e.distance == 0)
                last[c] = std::max(last[c], asap[e.dst]);
            else
                max_dist[c] = std::max(max_dist[c], e.distance);
        }
        addValueInstances(cluster_of[v], asap[v] + mach.latency(node.cls),
                          mach.busLatency(), last, max_dist, length + 1,
                          diff, carried);
    }
    peakWidths(diff, length + 1, carried, width);
}

/** Units of each resource kind per cluster, indexed by kind. */
std::array<int, numKinds>
capacities(const MachineConfig &mach)
{
    std::array<int, numKinds> avail{};
    for (std::size_t k = 0; k < numKinds; ++k)
        avail[k] = mach.available(static_cast<ResourceKind>(k));
    return avail;
}

/** ceil(@p u / @p units) for u >= 0, units > 0. */
int
ceilDiv(int u, int units)
{
    return (u + units - 1) / units;
}

/**
 * Resource-induced II and slot overflow from kind-major usage
 * counts, with @p avail from capacities(). @p overflow is accumulated
 * into (callers start it at the bus contribution or zero). When
 * @p at_max is given, it receives the number of (kind, cluster)
 * cells whose ceil(u / units) equals the returned II.
 */
void
resourcePressure(const std::array<int, numKinds> &avail,
                 const int *usage, int clusters, int ii, int &ii_res,
                 int &overflow, int *at_max = nullptr)
{
    ii_res = 1;
    int cells = 0;
    for (std::size_t k = 0; k < numKinds; ++k) {
        if (static_cast<ResourceKind>(k) == ResourceKind::Bus)
            continue;
        const int units = avail[k];
        for (int c = 0; c < clusters; ++c) {
            const int u = usage[k * static_cast<std::size_t>(clusters) +
                                static_cast<std::size_t>(c)];
            if (!u)
                continue;
            if (units == 0) {
                // Unschedulable partition: huge penalty.
                overflow += 1000 * u;
                continue;
            }
            const int need = ceilDiv(u, units);
            if (need > ii_res) {
                ii_res = need;
                cells = 1;
            } else if (need == ii_res) {
                ++cells;
            }
            overflow += std::max(0, u - units * ii);
        }
    }
    if (at_max)
        *at_max = cells;
}

/**
 * The cheap fields of a result from its resource II and overflow,
 * its communication count and its op-count spread.
 */
PseudoResult
cheapFields(int ii_res, int res_overflow, int comms, int imbalance,
            const MachineConfig &mach, int ii)
{
    PseudoResult r;
    r.comms = comms;
    r.overflow = res_overflow + extraComs(comms, mach, ii);
    r.iiPart = std::max(ii_res, minBusIi(comms, mach));
    r.imbalance = imbalance;
    return r;
}

} // namespace

bool
PseudoResult::better(const PseudoResult &o) const
{
    const int my_deficit = overflow + regOverflow;
    const int other_deficit = o.overflow + o.regOverflow;
    return std::tie(iiPart, my_deficit, comms, length, imbalance) <
           std::tie(o.iiPart, other_deficit, o.comms, o.length,
                    o.imbalance);
}

PseudoResult
pseudoSchedule(const Ddg &ddg, const MachineConfig &mach,
               const std::vector<int> &cluster_of, int ii,
               PseudoScratch &scratch)
{
    PseudoResult r;

    // --- Resource pressure per (kind, cluster). -----------------------
    const int clusters = mach.numClusters();
    std::vector<int> &usage = scratch.usageFull_;
    std::vector<int> &ops_in_cluster = scratch.opsFull_;
    usage.assign(numKinds * static_cast<std::size_t>(clusters), 0);
    ops_in_cluster.assign(clusters, 0);

    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        if (cls == OpClass::Copy)
            continue;
        const int c = cluster_of[n];
        cv_assert(c >= 0 && c < clusters, "bad cluster for node ", n);
        ++usage[static_cast<std::size_t>(mach.resourceFor(cls)) *
                    static_cast<std::size_t>(clusters) +
                static_cast<std::size_t>(c)];
        ++ops_in_cluster[c];
    }

    int ii_res = 1;
    resourcePressure(capacities(mach), usage.data(), clusters, ii,
                     ii_res, r.overflow);

    // --- Bus pressure. -------------------------------------------------
    const CommInfo comms = findCommunications(ddg, cluster_of);
    r.comms = comms.count();
    const int ii_bus = minBusIi(r.comms, mach);
    r.overflow += extraComs(r.comms, mach, ii);

    r.iiPart = std::max(ii_res, ii_bus);

    // --- Estimated length: ASAP where cut flow edges pay the bus. -----
    const auto &order = scratch.cache_.topo(ddg);
    asapWithBusPenalty(ddg, mach, cluster_of, order, scratch.estFull_);
    r.length = lengthFromAsap(ddg, mach, order, scratch.estFull_);

    // --- Register width. ------------------------------------------------
    widthSweep(ddg, mach, cluster_of, scratch.estFull_, r.length,
               scratch.diff_, scratch.carried_, scratch.last_,
               scratch.maxDist_, scratch.width_);
    for (int c = 0; c < clusters; ++c) {
        r.regOverflow +=
            std::max(0, scratch.width_[c] - mach.regsPerCluster());
    }

    // --- Imbalance. ----------------------------------------------------
    const auto [mn, mx] = std::minmax_element(ops_in_cluster.begin(),
                                              ops_in_cluster.end());
    r.imbalance = *mx - *mn;

    return r;
}

PseudoResult
PseudoScratch::bind(const Ddg &ddg, const MachineConfig &mach,
                    const std::vector<int> &cluster_of, int ii)
{
    mach_ = &mach;
    ii_ = ii;
    clusters_ = mach.numClusters();
    bus_ = mach.busLatency();
    regs_ = mach.regsPerCluster();
    avail_ = capacities(mach);
    const int slots = ddg.numNodeSlots();

    // --- Snapshot of the bound graph: per-node kind and latency. ------
    kind_.assign(slots, -1);
    nodeLat_.assign(slots, 0);
    tracked_.assign(slots, 0);
    for (NodeId n : ddg.nodes()) {
        const OpClass cls = ddg.node(n).cls;
        nodeLat_[n] = mach.latency(cls);
        if (cls != OpClass::Copy) {
            kind_[n] = static_cast<signed char>(mach.resourceFor(cls));
            tracked_[n] = producesValue(cls) ? 1 : 0;
        }
    }

    // Distance-0 in-edges in topological order, latencies resolved.
    const auto &topo = cache_.topo(ddg);
    order_.assign(topo.begin(), topo.end());
    pos_.assign(slots, -1);
    inBegin_.clear();
    inEdges_.clear();
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const NodeId n = order_[i];
        pos_[n] = static_cast<int>(i);
        inBegin_.push_back(static_cast<int>(inEdges_.size()));
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            inEdges_.push_back(
                {e.src, ddg.edgeLatency(eid, mach),
                 e.kind == EdgeKind::RegFlow ? bus_ : 0});
        }
    }
    inBegin_.push_back(static_cast<int>(inEdges_.size()));

    // Per node: its distinct tracked producers, each with the number
    // of live flow edges it feeds n through.
    prodBegin_.assign(static_cast<std::size_t>(slots) + 1, 0);
    prods_.clear();
    for (NodeId n = 0; n < slots; ++n) {
        prodBegin_[n] = static_cast<int>(prods_.size());
        if (!ddg.node(n).alive)
            continue;
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow ||
                !tracked_[e.src])
                continue;
            const auto seen = std::find_if(
                prods_.begin() + prodBegin_[n], prods_.end(),
                [&](const FlowProducer &fp) { return fp.node == e.src; });
            if (seen != prods_.end())
                ++seen->edges;
            else
                prods_.push_back({e.src, 1});
        }
    }
    prodBegin_[slots] = static_cast<int>(prods_.size());

    // Per value producer (id order): its live flow out-edges.
    values_.clear();
    outBegin_.clear();
    outFlows_.clear();
    for (NodeId n : ddg.nodes()) {
        if (!tracked_[n])
            continue;
        values_.push_back(n);
        outBegin_.push_back(static_cast<int>(outFlows_.size()));
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.kind == EdgeKind::RegFlow)
                outFlows_.push_back({e.dst, e.distance});
        }
    }
    outBegin_.push_back(static_cast<int>(outFlows_.size()));

    // --- Incremental state of the starting assignment. -----------------
    assign_.assign(cluster_of.begin(), cluster_of.end());
    usage_.assign(numKinds * static_cast<std::size_t>(clusters_), 0);
    ops_.assign(clusters_, 0);
    consCnt_.assign(static_cast<std::size_t>(slots) *
                        static_cast<std::size_t>(clusters_),
                    0);
    remoteCnt_.assign(slots, 0);
    commCount_ = 0;

    for (NodeId n : ddg.nodes()) {
        if (kind_[n] < 0)
            continue;
        const int c = assign_[n];
        cv_assert(c >= 0 && c < clusters_, "bad cluster for node ", n);
        ++usage_[static_cast<std::size_t>(kind_[n]) *
                     static_cast<std::size_t>(clusters_) +
                 static_cast<std::size_t>(c)];
        ++ops_[c];
    }
    summarizePressure();

    long long dist_sum = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
        const NodeId n = values_[i];
        int *cnt = &consCnt_[static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(clusters_)];
        for (int j = outBegin_[i]; j < outBegin_[i + 1]; ++j) {
            const OutFlow &o = outFlows_[j];
            dist_sum += o.distance;
            // A consumer that is a copy of this very value does not
            // count; copies are inserted after this analysis runs.
            if (kind_[o.dst] >= 0)
                ++cnt[assign_[o.dst]];
        }
        int rc = 0;
        for (int c = 0; c < clusters_; ++c) {
            if (c != assign_[n] && cnt[c] > 0)
                ++rc;
        }
        remoteCnt_[n] = rc;
        if (rc > 0)
            ++commCount_;
    }

    // Assignment-independent width bound: any cluster's peak is at
    // most one interval per producer, plus at most the total carried
    // distance. Below the register file, the sweep can never report
    // an overflow for any assignment, so probes skip it wholesale.
    widthCanOverflow_ =
        static_cast<long long>(values_.size()) + dist_sum > regs_;

    // The ASAP base of the starting assignment.
    est_.assign(slots, 0);
    baseEst_.assign(slots, 0);
    prefixLen_.assign(order_.size() + 1, 0);
    dirtyFrom_ = 0;
    rebase(0);

    const auto [mn, mx] = std::minmax_element(ops_.begin(), ops_.end());
    PseudoResult r = cheapFields(resIi_, resOverflow_, commCount_,
                                 *mx - *mn, mach, ii);
    r.length = prefixLen_.back();
    if (widthCanOverflow_)
        r.regOverflow = regOverflow(r.length);
    return r;
}

void
PseudoScratch::summarizePressure()
{
    resOverflow_ = 0;
    resourcePressure(avail_, usage_.data(), clusters_, ii_, resIi_,
                     resOverflow_, &resIiCells_);
}

int
PseudoScratch::commDelta(NodeId n, int to) const
{
    const int from = assign_[n];
    int delta = 0;
    int self_edges = 0;
    for (int j = prodBegin_[n]; j < prodBegin_[n + 1]; ++j) {
        const FlowProducer &fp = prods_[j];
        const NodeId p = fp.node;
        if (p == n) {
            self_edges = fp.edges;
            continue;
        }
        // p's consumers in `from` drop by fp.edges, those in `to`
        // rise by as many; only p's home cluster never counts.
        const int *cnt = &consCnt_[static_cast<std::size_t>(p) *
                                   static_cast<std::size_t>(clusters_)];
        const int p_home = assign_[p];
        int rc = remoteCnt_[p];
        if (from != p_home && cnt[from] == fp.edges)
            --rc;
        if (to != p_home && cnt[to] == 0)
            ++rc;
        delta += (rc > 0) - (remoteCnt_[p] > 0);
    }
    if (tracked_[n]) {
        // n's own value changes home: `to` stops counting as remote,
        // `from` starts to if a consumer other than a self-loop
        // stays there.
        const int *cnt = &consCnt_[static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(clusters_)];
        const int rc = remoteCnt_[n] - (cnt[to] > 0) +
                       (cnt[from] - self_edges > 0);
        delta += (rc > 0) - (remoteCnt_[n] > 0);
    }
    return delta;
}

PseudoResult
PseudoScratch::movedCheap(NodeId n, int to) const
{
    const int from = assign_[n];
    int ii_res = resIi_;
    int overflow = resOverflow_;
    const auto k = static_cast<std::size_t>(kind_[n]);
    const int units = avail_[k];
    if (units > 0) {
        // Only n's kind changes, in two cells, and each cell's
        // ceil(u / units) moves by at most one: the II falls (to one
        // below) only when the source cell alone held it.
        const int *u = &usage_[k * static_cast<std::size_t>(clusters_)];
        const int uf = u[from], ut = u[to];
        if (resIiCells_ == 1 && ceilDiv(uf, units) == resIi_ &&
            ceilDiv(uf - 1, units) < resIi_)
            ii_res = std::max(1, resIi_ - 1);
        ii_res = std::max(ii_res, ceilDiv(ut + 1, units));
        const int cap = units * ii_;
        overflow += std::max(0, uf - 1 - cap) - std::max(0, uf - cap) +
                    std::max(0, ut + 1 - cap) - std::max(0, ut - cap);
    }
    // With no units, the 1000 * u penalty moves between two cells of
    // the same kind and its sum stays.

    int lo = 0, hi = 0;
    for (int c = 0; c < clusters_; ++c) {
        const int ops = ops_[c] - (c == from) + (c == to);
        if (c == 0 || ops < lo)
            lo = ops;
        if (c == 0 || ops > hi)
            hi = ops;
    }
    return cheapFields(ii_res, overflow, commCount_ + commDelta(n, to),
                       hi - lo, *mach_, ii_);
}

int
PseudoScratch::asapLength(int start)
{
    // Positions before `start` keep their base times (invariant 4);
    // restore those a previous suffix pass overwrote.
    for (int i = dirtyFrom_; i < start; ++i) {
        const NodeId n = order_[i];
        est_[n] = baseEst_[n];
    }
    // ASAP over the snapshot's in-edges: a cut register-flow edge
    // pays its bus penalty. Every live node is in order_, so est_ of
    // the nodes the sweep reads is always freshly written.
    int length = prefixLen_[start];
    const int num = static_cast<int>(order_.size());
    for (int i = start; i < num; ++i) {
        const NodeId n = order_[i];
        const int home = assign_[n];
        int t = 0;
        for (int j = inBegin_[i]; j < inBegin_[i + 1]; ++j) {
            const InEdge &e = inEdges_[j];
            const int lat =
                e.latency + (assign_[e.src] != home ? e.cutPenalty : 0);
            t = std::max(t, est_[e.src] + lat);
        }
        est_[n] = t;
        length = std::max(length, t + nodeLat_[n]);
    }
    dirtyFrom_ = start;
    return length;
}

void
PseudoScratch::rebase(int start)
{
    asapLength(start);
    const int num = static_cast<int>(order_.size());
    for (int i = start; i < num; ++i) {
        const NodeId n = order_[i];
        baseEst_[n] = est_[n];
        prefixLen_[i + 1] = std::max(prefixLen_[i], est_[n] + nodeLat_[n]);
    }
    dirtyFrom_ = num;
}

int
PseudoScratch::regOverflow(int length)
{
    resetSweep(clusters_, length, diff_, carried_);
    for (std::size_t i = 0; i < values_.size(); ++i) {
        const NodeId v = values_[i];
        last_.assign(clusters_, -1);
        maxDist_.assign(clusters_, 0);
        for (int j = outBegin_[i]; j < outBegin_[i + 1]; ++j) {
            const OutFlow &o = outFlows_[j];
            const int c = assign_[o.dst];
            if (o.distance == 0)
                last_[c] = std::max(last_[c], est_[o.dst]);
            else
                maxDist_[c] = std::max(maxDist_[c], o.distance);
        }
        addValueInstances(assign_[v], est_[v] + nodeLat_[v], bus_,
                          last_, maxDist_, length + 1, diff_, carried_);
    }
    peakWidths(diff_, length + 1, carried_, width_);
    int deficit = 0;
    for (int c = 0; c < clusters_; ++c)
        deficit += std::max(0, width_[c] - regs_);
    return deficit;
}

void
PseudoScratch::applyMove(NodeId n, int to)
{
    const int from = assign_[n];

    if (kind_[n] >= 0) {
        const auto k = static_cast<std::size_t>(kind_[n]);
        --usage_[k * static_cast<std::size_t>(clusters_) +
                 static_cast<std::size_t>(from)];
        ++usage_[k * static_cast<std::size_t>(clusters_) +
                 static_cast<std::size_t>(to)];
        --ops_[from];
        ++ops_[to];
    }

    // n's own produced value is rechecked wholesale below; drop its
    // current contribution first.
    if (tracked_[n] && remoteCnt_[n] > 0)
        --commCount_;

    // Every producer feeding n loses its edges' consumers in `from`
    // and gains them in `to`.
    for (int j = prodBegin_[n]; j < prodBegin_[n + 1]; ++j) {
        const FlowProducer &fp = prods_[j];
        const NodeId p = fp.node;
        int *cnt = &consCnt_[static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(clusters_)];
        if (p == n) {
            // Self-recurrence: folded into the wholesale recheck.
            cnt[from] -= fp.edges;
            cnt[to] += fp.edges;
            continue;
        }
        const int p_home = assign_[p];
        if ((cnt[from] -= fp.edges) == 0 && from != p_home) {
            if (--remoteCnt_[p] == 0)
                --commCount_;
        }
        const int had = cnt[to];
        cnt[to] += fp.edges;
        if (had == 0 && to != p_home) {
            if (remoteCnt_[p]++ == 0)
                ++commCount_;
        }
    }

    assign_[n] = to;

    if (tracked_[n]) {
        const int *cnt = &consCnt_[static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(clusters_)];
        int rc = 0;
        for (int c = 0; c < clusters_; ++c) {
            if (c != to && cnt[c] > 0)
                ++rc;
        }
        remoteCnt_[n] = rc;
        if (rc > 0)
            ++commCount_;
    }
}

bool
PseudoScratch::evalAgainst(PseudoResult r, int start,
                           const PseudoResult &best, PseudoResult &out)
{
    // The caller's verdict left iiPart <= best.iiPart.
    const bool accept_on_ii = r.iiPart < best.iiPart;

    // The ASAP pass yields the length and the sweep's time base.
    bool have_length = false;
    auto ensure_length = [&] {
        if (!have_length) {
            r.length = asapLength(start);
            if (start > 0)
                ++suffixAsaps_;
            have_length = true;
        }
    };
    // The tail of `better` at equal iiPart, for a given deficit; the
    // length is only needed when the deficit and comms tie.
    const int best_deficit = best.overflow + best.regOverflow;
    auto wins_at = [&](int deficit) {
        if (deficit != best_deficit)
            return deficit < best_deficit;
        if (r.comms != best.comms)
            return r.comms < best.comms;
        ensure_length();
        if (r.length != best.length)
            return r.length < best.length;
        return r.imbalance < best.imbalance;
    };

    // regOverflow >= 0 and a larger deficit only loses, so a move
    // that loses with the register deficit taken as 0 loses at every
    // register width: reject it without the sweep.
    if (!accept_on_ii && !wins_at(r.overflow))
        return false;

    if (widthCanOverflow_) {
        ensure_length();
        r.regOverflow = regOverflow(r.length);
        if (!accept_on_ii && r.regOverflow > 0 &&
            !wins_at(r.overflow + r.regOverflow)) {
            return false;
        }
    }

    ensure_length();
    out = r;
    return true;
}

bool
PseudoScratch::probeMove(NodeId n, int c, const PseudoResult &best,
                         PseudoResult &out)
{
    cv_assert(mach_ != nullptr, "probeMove before bind");
    cv_assert(kind_[n] >= 0, "refinement does not move copies");
    ++probes_;
    const int from = assign_[n];
    if (c == from)
        return false;

    // O(1) capacity reject: n's kind alone on cluster c already
    // forces an iiPart above best's (see invariant 3 in pseudo.hh).
    const auto k = static_cast<std::size_t>(kind_[n]);
    const int units = avail_[k];
    if (units > 0) {
        const int u = usage_[k * static_cast<std::size_t>(clusters_) +
                             static_cast<std::size_t>(c)] + 1;
        if (ceilDiv(u, units) > best.iiPart)
            return false;
    }

    // Read-only verdict on the cheap fields (invariant 2): a larger
    // iiPart, or at equal iiPart a larger deficit or, at equal
    // deficit, more comms, loses at every length and register width.
    const PseudoResult r = movedCheap(n, c);
    if (r.iiPart > best.iiPart)
        return false;
    if (r.iiPart == best.iiPart) {
        const int best_deficit = best.overflow + best.regOverflow;
        if (r.overflow != best_deficit ? r.overflow > best_deficit
                                       : r.comms > best.comms)
            return false;
    }

    ++fullEvals_;
    applyMove(n, c);
    const bool accepted = evalAgainst(r, pos_[n], best, out);
    applyMove(n, from);
    return accepted;
}

void
PseudoScratch::commitMove(NodeId n, int c)
{
    cv_assert(mach_ != nullptr, "commitMove before bind");
    ++commits_;
    if (c == assign_[n])
        return;
    applyMove(n, c);
    summarizePressure();
    rebase(pos_[n]);
    ++rebases_;
}

} // namespace cvliw
