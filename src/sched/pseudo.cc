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
 * over PseudoScratch's flat snapshot.
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
 * Record the register instances of one value: the home cluster holds
 * it from definition @p def to its last local read, every remote
 * consumer cluster from bus arrival to its last read there, and
 * loop-carried consumers pin @p max_dist permanently live instances.
 * @p last is -1 (and @p max_dist 0) for clusters without a consumer.
 */
void
addValueInstances(int home, int def, int bus_lat,
                  const std::vector<int> &last,
                  const std::vector<int> &max_dist,
                  std::vector<std::vector<std::pair<int, int>>> &events,
                  std::vector<int> &carried)
{
    const int clusters = static_cast<int>(last.size());
    for (int c = 0; c < clusters; ++c) {
        if (last[c] < 0 && max_dist[c] == 0)
            continue;
        const int begin = c == home ? def : def + bus_lat;
        if (last[c] > begin) {
            events[c].push_back({begin, +1});
            events[c].push_back({last[c], -1});
        }
        carried[c] += max_dist[c];
    }
}

/** Per-cluster peak of the interval events plus carried instances. */
void
peakWidths(std::vector<std::vector<std::pair<int, int>>> &events,
           const std::vector<int> &carried, std::vector<int> &width)
{
    const std::size_t clusters = carried.size();
    width.assign(clusters, 0);
    for (std::size_t c = 0; c < clusters; ++c) {
        std::sort(events[c].begin(), events[c].end());
        int live = 0, peak = 0;
        for (const auto &[t, delta] : events[c]) {
            (void)t;
            live += delta;
            peak = std::max(peak, live);
        }
        width[c] = peak + carried[c];
    }
}

/** Size and clear the per-cluster sweep buffers. */
void
resetSweep(int clusters,
           std::vector<std::vector<std::pair<int, int>>> &events,
           std::vector<int> &carried)
{
    events.resize(clusters);
    for (auto &ev : events)
        ev.clear();
    carried.assign(clusters, 0);
}

/**
 * Register-width sweep: one interval per *instance* of each value
 * (see addValueInstances). All buffers are caller-owned and reused
 * across calls.
 */
void
widthSweep(const Ddg &ddg, const MachineConfig &mach,
           const std::vector<int> &cluster_of,
           const std::vector<int> &asap,
           std::vector<std::vector<std::pair<int, int>>> &events,
           std::vector<int> &carried, std::vector<int> &last,
           std::vector<int> &max_dist, std::vector<int> &width)
{
    const int clusters = mach.numClusters();
    resetSweep(clusters, events, carried);

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
                          mach.busLatency(), last, max_dist, events,
                          carried);
    }
    peakWidths(events, carried, width);
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

/**
 * Resource-induced II and slot overflow from kind-major usage
 * counts, with @p avail from capacities(). @p overflow is accumulated
 * into (callers start it at the bus contribution or zero).
 */
void
resourcePressure(const std::array<int, numKinds> &avail,
                 const int *usage, int clusters, int ii, int &ii_res,
                 int &overflow)
{
    ii_res = 1;
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
            ii_res = std::max(ii_res, (u + units - 1) / units);
            overflow += std::max(0, u - units * ii);
        }
    }
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
    widthSweep(ddg, mach, cluster_of, scratch.estFull_, scratch.events_,
               scratch.carried_, scratch.last_, scratch.maxDist_,
               scratch.width_);
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
    inBegin_.clear();
    inEdges_.clear();
    for (NodeId n : order_) {
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

    // Per node: the tracked producers of its live flow in-edges.
    prodBegin_.assign(static_cast<std::size_t>(slots) + 1, 0);
    prods_.clear();
    for (NodeId n = 0; n < slots; ++n) {
        prodBegin_[n] = static_cast<int>(prods_.size());
        if (!ddg.node(n).alive)
            continue;
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.kind == EdgeKind::RegFlow &&
                tracked_[e.src])
                prods_.push_back(e.src);
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
    est_.assign(slots, 0);

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

    PseudoResult r = cheapResult();
    r.length = asapLength();
    if (widthCanOverflow_)
        r.regOverflow = regOverflow();
    return r;
}

PseudoResult
PseudoScratch::cheapResult() const
{
    PseudoResult r;
    int ii_res = 1;
    resourcePressure(avail_, usage_.data(), clusters_, ii_, ii_res,
                     r.overflow);
    r.comms = commCount_;
    const int ii_bus = minBusIi(r.comms, *mach_);
    r.overflow += extraComs(r.comms, *mach_, ii_);
    r.iiPart = std::max(ii_res, ii_bus);
    const auto [mn, mx] = std::minmax_element(ops_.begin(), ops_.end());
    r.imbalance = *mx - *mn;
    return r;
}

int
PseudoScratch::asapLength()
{
    // ASAP over the snapshot's in-edges: a cut register-flow edge
    // pays its bus penalty. Every live node is in order_, so est_ of
    // the nodes the sweep reads is always freshly written.
    int length = 0;
    const std::size_t num = order_.size();
    for (std::size_t i = 0; i < num; ++i) {
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
    return length;
}

int
PseudoScratch::regOverflow()
{
    resetSweep(clusters_, events_, carried_);
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
                          last_, maxDist_, events_, carried_);
    }
    peakWidths(events_, carried_, width_);
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

    // Every producer feeding n loses a consumer in `from` and gains
    // one in `to`.
    for (int j = prodBegin_[n]; j < prodBegin_[n + 1]; ++j) {
        const NodeId p = prods_[j];
        int *cnt = &consCnt_[static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(clusters_)];
        if (p == n) {
            // Self-recurrence: folded into the wholesale recheck.
            --cnt[from];
            ++cnt[to];
            continue;
        }
        const int p_home = assign_[p];
        if (--cnt[from] == 0 && from != p_home) {
            if (--remoteCnt_[p] == 0)
                --commCount_;
        }
        if (cnt[to]++ == 0 && to != p_home) {
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
PseudoScratch::evalAgainst(const PseudoResult &best, PseudoResult &out)
{
    // Cheap fields first: resource/bus pressure, comms, imbalance.
    PseudoResult r = cheapResult();
    if (r.iiPart > best.iiPart)
        return false;
    const bool accept_on_ii = r.iiPart < best.iiPart;

    // The ASAP pass yields the length and the sweep's time base.
    bool have_length = false;
    auto ensure_length = [&] {
        if (!have_length) {
            r.length = asapLength();
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
        r.regOverflow = regOverflow();
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
        if ((u + units - 1) / units > best.iiPart)
            return false;
    }

    applyMove(n, c);
    const bool accepted = evalAgainst(best, out);
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
}

} // namespace cvliw
