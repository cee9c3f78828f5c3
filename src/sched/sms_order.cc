#include "sched/sms_order.hh"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "ddg/analysis.hh"
#include "support/logging.hh"

namespace cvliw
{

std::vector<NodeId>
smsOrder(const Ddg &ddg, const MachineConfig &mach)
{
    AnalysisCache cache;
    return smsOrder(ddg, mach, cache);
}

std::vector<NodeId>
smsOrder(const Ddg &ddg, const MachineConfig &mach,
         AnalysisCache &cache)
{
    const NodeTimes &times = cache.times(ddg, mach);
    const auto &comp = cache.scc(ddg);

    // Group live nodes by SCC.
    std::map<int, std::vector<NodeId>> by_comp;
    for (NodeId n : ddg.nodes())
        by_comp[comp[n]].push_back(n);

    // A component is a recurrence when it has >1 node or a self-loop.
    auto is_recurrence = [&](const std::vector<NodeId> &members) {
        if (members.size() > 1)
            return true;
        for (EdgeId eid : ddg.outEdgesRaw(members[0])) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.dst == members[0])
                return true;
        }
        return false;
    };

    // Priority sets: recurrences by decreasing RecMII, then the rest
    // by decreasing criticality (depth+height), as one trailing set.
    struct SetInfo { int recMii; int key2; std::vector<NodeId> nodes; };
    std::vector<SetInfo> sets;
    std::vector<NodeId> rest;
    for (auto &[c, members] : by_comp) {
        std::sort(members.begin(), members.end());
        if (is_recurrence(members)) {
            const int rm = sccRecMii(ddg, mach, members);
            sets.push_back({rm, -members.front(), members});
        } else {
            rest.insert(rest.end(), members.begin(), members.end());
        }
    }
    std::sort(sets.begin(), sets.end(), [](const auto &a, const auto &b) {
        return std::tie(b.recMii, b.key2) < std::tie(a.recMii, a.key2);
    });
    if (!rest.empty())
        sets.push_back({0, 0, std::move(rest)});

    // Rank per node: its set's position (tighter recurrences first).
    std::vector<int> rank(ddg.numNodeSlots(), 0);
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (NodeId n : sets[s].nodes)
            rank[n] = static_cast<int>(s);
    }

    // Priority-topological order over the distance-0 edges. Placing
    // producers strictly before their intra-iteration consumers
    // guarantees that every constraint from an already-placed
    // *successor* comes through a loop-carried edge, whose window
    // grows with II - so raising the II always makes progress (the
    // property the no-backtracking scheduler of section 2.3.2 needs).
    // Among ready nodes, the tightest recurrence set goes first,
    // then the most critical node (lowest mobility, largest
    // depth+height).
    std::vector<int> indeg(ddg.numNodeSlots(), 0);
    for (EdgeId eid : ddg.edges()) {
        if (ddg.edge(eid).distance == 0)
            ++indeg[ddg.edge(eid).dst];
    }

    using Key = std::tuple<int, int, int, NodeId>;
    auto key_of = [&](NodeId n) {
        return Key(rank[n], times.mobility(n),
                   -(times.depth[n] + times.height[n]), n);
    };
    std::set<Key> ready;
    for (NodeId n : ddg.nodes()) {
        if (indeg[n] == 0)
            ready.insert(key_of(n));
    }

    std::vector<NodeId> order;
    order.reserve(ddg.numNodes());
    while (!ready.empty()) {
        const NodeId n = std::get<3>(*ready.begin());
        ready.erase(ready.begin());
        order.push_back(n);
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.distance == 0 && --indeg[e.dst] == 0)
                ready.insert(key_of(e.dst));
        }
    }

    cv_assert(static_cast<int>(order.size()) == ddg.numNodes(),
              "SMS order lost nodes");
    return order;
}

} // namespace cvliw
