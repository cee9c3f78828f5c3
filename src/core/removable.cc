#include "core/removable.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cvliw
{

void
findRemovableInstructions(const Ddg &ddg, const Partition &part,
                          NodeId com,
                          const std::vector<bool> &communicated,
                          RemovableScratch &s, std::vector<NodeId> &out)
{
    out.clear();
    const int home = part.clusterOf(com);
    const auto slots = static_cast<std::size_t>(ddg.numNodeSlots());
    if (s.removable_.size() < slots)
        s.removable_.resize(slots, 0);
    if (++s.stamp_ == 0) {
        // The stamp wrapped: forget every mark once.
        std::fill(s.removable_.begin(), s.removable_.end(), 0);
        s.stamp_ = 1;
    }
    const std::uint32_t stamp = s.stamp_;
    std::uint32_t *removable = s.removable_.data();
    std::vector<NodeId> &worklist = s.worklist_;
    worklist.assign(1, com);

    auto try_remove = [&](NodeId v) {
        if (removable[v] == stamp)
            return false;
        const DdgNode &node = ddg.node(v);
        if (node.cls == OpClass::Store || node.liveOut)
            return false;
        // Removable when every same-cluster consumer is removable
        // (remote consumers read replicas or the bus broadcast).
        for (EdgeId eid : ddg.outEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow)
                continue;
            if (part.clusterOf(e.dst) == home &&
                removable[e.dst] != stamp)
                return false;
        }
        removable[v] = stamp;
        out.push_back(v);
        return true;
    };

    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        if (!try_remove(v))
            continue;
        // Figure 5: parents in the same cluster become candidates.
        // Do not propagate through other communicated values: their
        // parents belong to those values' own subgraphs (section 3.4).
        if (v != com && communicated[v])
            continue;
        for (EdgeId eid : ddg.inEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow)
                continue;
            if (part.clusterOf(e.src) == home &&
                removable[e.src] != stamp)
                worklist.push_back(e.src);
        }
    }
    std::sort(out.begin(), out.end());
}

std::vector<NodeId>
findRemovableInstructions(const Ddg &ddg, const Partition &part,
                          NodeId com,
                          const std::vector<bool> &communicated)
{
    RemovableScratch scratch;
    std::vector<NodeId> out;
    findRemovableInstructions(ddg, part, com, communicated, scratch,
                              out);
    return out;
}

} // namespace cvliw
