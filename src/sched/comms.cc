#include "sched/comms.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * Append the sorted remote consumer clusters of @p n's value to
 * @p out (nothing when the node is dead, a copy or produces no
 * value). The single source of the per-node communication rule,
 * shared by the from-scratch scan and the incremental patch so they
 * can never disagree.
 */
void
appendRemoteClusters(const Ddg &ddg, const std::vector<int> &cluster_of,
                     NodeId n, std::vector<int> &out)
{
    const DdgNode &node = ddg.node(n);
    if (!node.alive || node.cls == OpClass::Copy ||
        !producesValue(node.cls)) {
        return;
    }
    cv_assert(n < static_cast<NodeId>(cluster_of.size()) &&
              cluster_of[n] >= 0,
              "node ", ddg.label(n), " has no cluster");

    const auto first = static_cast<std::ptrdiff_t>(out.size());
    const int home = cluster_of[n];
    for (EdgeId eid : ddg.outEdgesRaw(n)) {
        const DdgEdge &e = ddg.edge(eid);
        if (!e.alive || e.kind != EdgeKind::RegFlow)
            continue;
        const NodeId succ = e.dst;
        // A consumer that is a copy of this very value does not
        // count; copies are inserted after this analysis runs.
        if (ddg.node(succ).cls == OpClass::Copy)
            continue;
        const int c = cluster_of[succ];
        if (c == home)
            continue;
        // Keep the tail sorted and duplicate-free as it grows: it
        // holds fewer entries than there are clusters.
        auto it = out.begin() + first;
        while (it != out.end() && *it < c)
            ++it;
        if (it == out.end() || *it != c)
            out.insert(it, c);
    }
}

} // namespace

void
findCommunications(const Ddg &ddg, const std::vector<int> &cluster_of,
                   CommInfo &info)
{
    info.producers.clear();
    info.targetEnd_.clear();
    info.targets_.clear();
    info.communicated.assign(ddg.numNodeSlots(), false);

    for (NodeId n : ddg.nodes()) {
        const std::size_t before = info.targets_.size();
        appendRemoteClusters(ddg, cluster_of, n, info.targets_);
        if (info.targets_.size() == before)
            continue;
        info.communicated[n] = true;
        info.producers.push_back(n);
        info.targetEnd_.push_back(static_cast<int>(info.targets_.size()));
    }
}

CommInfo
findCommunications(const Ddg &ddg, const std::vector<int> &cluster_of)
{
    CommInfo info;
    findCommunications(ddg, cluster_of, info);
    return info;
}

void
CommInfo::update(const Ddg &ddg, const std::vector<int> &cluster_of,
                 std::vector<NodeId> &touched,
                 std::vector<NodeId> &changed)
{
    communicated.resize(ddg.numNodeSlots(), false);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    changed.clear();

    // One merge pass rebuilds the NodeId-ordered flat arrays into the
    // spare buffers: untouched entries are copied over, touched ones
    // are replaced by their recomputed remote sets (dropped when
    // empty). Swapping the buffers at the end keeps both capacities.
    nextProducers_.clear();
    nextEnd_.clear();
    nextTargets_.clear();
    const auto close = [&](NodeId p) {
        nextProducers_.push_back(p);
        nextEnd_.push_back(static_cast<int>(nextTargets_.size()));
    };

    std::size_t pi = 0, ti = 0;
    while (pi < producers.size() || ti < touched.size()) {
        if (ti == touched.size() ||
            (pi < producers.size() && producers[pi] < touched[ti])) {
            const Span<int> old = targetsOf(static_cast<int>(pi));
            nextTargets_.insert(nextTargets_.end(), old.begin(),
                                old.end());
            close(producers[pi]);
            ++pi;
            continue;
        }
        const NodeId t = touched[ti];
        const std::size_t first = nextTargets_.size();
        appendRemoteClusters(ddg, cluster_of, t, nextTargets_);
        const bool comm_now = nextTargets_.size() != first;
        bool differs;
        if (pi < producers.size() && producers[pi] == t) {
            const Span<int> now(nextTargets_.data() + first,
                                nextTargets_.data() +
                                    nextTargets_.size());
            differs = !comm_now ||
                      targetsOf(static_cast<int>(pi)) != now;
            ++pi;
        } else {
            differs = comm_now;
        }
        if (comm_now)
            close(t);
        communicated[t] = comm_now;
        if (differs)
            changed.push_back(t);
        ++ti;
    }
    producers.swap(nextProducers_);
    targetEnd_.swap(nextEnd_);
    targets_.swap(nextTargets_);
}

std::vector<NodeId>
CommInfo::update(const Ddg &ddg, const std::vector<int> &cluster_of,
                 std::vector<NodeId> touched)
{
    std::vector<NodeId> changed;
    update(ddg, cluster_of, touched, changed);
    return changed;
}

int
busCapacity(const MachineConfig &mach, int ii)
{
    if (mach.isUnified())
        return 0;
    return (ii / mach.busLatency()) * mach.numBuses();
}

int
extraComs(int nof_coms, const MachineConfig &mach, int ii)
{
    return std::max(0, nof_coms - busCapacity(mach, ii));
}

int
minBusIi(int nof_coms, const MachineConfig &mach)
{
    if (nof_coms == 0 || mach.isUnified())
        return 1;
    cv_assert(mach.numBuses() > 0, "clustered machine without buses");
    const int per_bus =
        (nof_coms + mach.numBuses() - 1) / mach.numBuses();
    return per_bus * mach.busLatency();
}

} // namespace cvliw
