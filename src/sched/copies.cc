#include "sched/copies.hh"

#include <cstring>
#include <string>
#include <string_view>

#include "sched/comms.hh"
#include "support/logging.hh"

namespace cvliw
{

namespace
{

/**
 * "<label>.copy" in a stack buffer; only a label too long for it
 * falls back to a heap string.
 */
class CopyLabel
{
  public:
    explicit CopyLabel(std::string_view base)
    {
        if (base.size() + suffix_.size() <= sizeof buf_) {
            std::memcpy(buf_, base.data(), base.size());
            std::memcpy(buf_ + base.size(), suffix_.data(),
                        suffix_.size());
            view_ = {buf_, base.size() + suffix_.size()};
        } else {
            long_ = std::string(base) + std::string(suffix_);
            view_ = long_;
        }
    }
    std::string_view view() const { return view_; }

  private:
    static constexpr std::string_view suffix_ = ".copy";
    char buf_[64];
    std::string long_;
    std::string_view view_;
};

} // namespace

CopyInsertion
insertCopies(Ddg &ddg, Partition &part, const MachineConfig &mach)
{
    if (mach.isUnified())
        return {};
    return insertCopies(ddg, part, mach,
                        findCommunications(ddg, part.vec()));
}

CopyInsertion
insertCopies(Ddg &ddg, Partition &part, const MachineConfig &mach,
             const CommInfo &comms)
{
    CopyInsertion result;
    if (mach.isUnified())
        return result;

    result.copies.reserve(comms.producers.size());
    result.producerOf.reserve(comms.producers.size());
    for (NodeId p : comms.producers) {
        // label(p) views the graph's own arena, so it is copied out
        // before addNode appends to that arena.
        const NodeId copy =
            ddg.addNode(OpClass::Copy, CopyLabel(ddg.label(p)).view());
        part.assign(copy, part.clusterOf(p));
        ddg.addEdge(p, copy, EdgeKind::RegFlow, 0);

        // Rewire every cross-cluster consumer to read the broadcast.
        for (EdgeId eid : ddg.outEdges(p)) {
            const DdgEdge e = ddg.edge(eid);
            if (e.dst == copy || e.kind != EdgeKind::RegFlow)
                continue;
            if (part.clusterOf(e.dst) == part.clusterOf(p))
                continue;
            ddg.removeEdge(eid);
            ddg.addEdge(copy, e.dst, EdgeKind::RegFlow, e.distance);
        }

        result.copies.push_back(copy);
        result.producerOf.push_back(p);
    }
    return result;
}

} // namespace cvliw
