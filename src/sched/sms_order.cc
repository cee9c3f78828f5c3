#include "sched/sms_order.hh"

#include <algorithm>

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
    SmsScratch scratch;
    std::vector<NodeId> order;
    smsOrder(ddg, mach, cache, scratch, order);
    return order;
}

void
smsOrder(const Ddg &ddg, const MachineConfig &mach, AnalysisCache &cache,
         SmsScratch &scratch, std::vector<NodeId> &order)
{
    // times() first: it throws InvalidDdg on a distance-0 cycle,
    // which also makes "has a loop-carried internal edge" (RecMII >
    // 0) the same as "is a recurrence" below.
    const NodeTimes &times = cache.times(ddg, mach);
    const std::vector<int> &rec_mii = cache.componentRecMii(ddg, mach);
    const std::vector<int> &comp = cache.scc(ddg);
    const int num_comps = static_cast<int>(rec_mii.size());

    // Smallest member per component: nodes() ascends, so the first
    // one seen.
    std::vector<NodeId> &first = scratch.first;
    first.assign(num_comps, invalidNode);
    for (NodeId n : ddg.nodes()) {
        if (first[comp[n]] == invalidNode)
            first[comp[n]] = n;
    }

    // Priority sets: recurrences by decreasing RecMII, ties to the
    // smaller smallest member; everything else shares the trailing
    // rank.
    std::vector<SmsScratch::RecSet> &sets = scratch.sets;
    sets.clear();
    for (int c = 0; c < num_comps; ++c) {
        if (rec_mii[c] > 0)
            sets.push_back({rec_mii[c], first[c], c});
    }
    std::sort(sets.begin(), sets.end(),
              [](const SmsScratch::RecSet &a,
                 const SmsScratch::RecSet &b) {
                  if (a.recMii != b.recMii)
                      return a.recMii > b.recMii;
                  return a.first < b.first;
              });
    std::vector<int> &comp_rank = scratch.compRank;
    comp_rank.assign(num_comps, static_cast<int>(sets.size()));
    for (std::size_t s = 0; s < sets.size(); ++s)
        comp_rank[sets[s].comp] = static_cast<int>(s);

    // Priority-topological order over the distance-0 edges. Placing
    // producers strictly before their intra-iteration consumers
    // guarantees that every constraint from an already-placed
    // *successor* comes through a loop-carried edge, whose window
    // grows with II - so raising the II always makes progress (the
    // property the no-backtracking scheduler of section 2.3.2 needs).
    //
    // Every buffer below is sized up front (each node enters the
    // heap and the order once) and read through raw pointers, which
    // stay in registers across the out-of-line graph accessors.
    const int slots = ddg.numNodeSlots();
    scratch.indeg.assign(slots, 0);
    int *const indeg = scratch.indeg.data();
    for (EdgeId eid : ddg.edges()) {
        if (ddg.edge(eid).distance == 0)
            ++indeg[ddg.edge(eid).dst];
    }

    const int *const comp_of = comp.data();
    const int *const rank_of = comp_rank.data();
    const int *const asap = times.asap.data();
    const int *const alap = times.alap.data();
    const int *const depth = times.depth.data();
    const int *const height = times.height.data();
    auto key_of = [&](NodeId n) {
        return SmsScratch::Key{rank_of[comp_of[n]], alap[n] - asap[n],
                               -(depth[n] + height[n]), n};
    };
    // A min-heap: the std heap functions keep the largest element
    // under their comparator on top, so the comparator is "pops
    // later", the lexicographic greater-than.
    const auto later = [](const SmsScratch::Key &a,
                          const SmsScratch::Key &b) {
        if (a.rank != b.rank)
            return a.rank > b.rank;
        if (a.mobility != b.mobility)
            return a.mobility > b.mobility;
        if (a.negCriticality != b.negCriticality)
            return a.negCriticality > b.negCriticality;
        return a.node > b.node;
    };
    const int num_nodes = ddg.numNodes();
    scratch.heap.resize(num_nodes);
    SmsScratch::Key *const heap = scratch.heap.data();
    int heap_size = 0;
    for (NodeId n : ddg.nodes()) {
        if (indeg[n] == 0)
            heap[heap_size++] = key_of(n);
    }
    std::make_heap(heap, heap + heap_size, later);

    order.resize(num_nodes);
    NodeId *const out = order.data();
    int emitted = 0;
    while (heap_size > 0) {
        std::pop_heap(heap, heap + heap_size, later);
        const NodeId n = heap[--heap_size].node;
        out[emitted++] = n;
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.distance == 0 && --indeg[e.dst] == 0) {
                heap[heap_size++] = key_of(e.dst);
                std::push_heap(heap, heap + heap_size, later);
            }
        }
    }

    cv_assert(emitted == num_nodes, "SMS order lost nodes");
}

} // namespace cvliw
