#include "ddg/analysis.hh"

#include <algorithm>
#include <string>

#include "support/logging.hh"

namespace cvliw
{

std::vector<NodeId>
topoOrder(const Ddg &ddg)
{
    std::vector<int> indeg(ddg.numNodeSlots(), 0);
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (e.distance == 0)
            ++indeg[e.dst];
    }

    std::vector<NodeId> ready;
    for (NodeId n : ddg.nodes()) {
        if (indeg[n] == 0)
            ready.push_back(n);
    }

    std::vector<NodeId> order;
    order.reserve(ddg.numNodes());
    while (!ready.empty()) {
        NodeId n = ready.back();
        ready.pop_back();
        order.push_back(n);
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.distance == 0 && --indeg[e.dst] == 0)
                ready.push_back(e.dst);
        }
    }

    if (static_cast<int>(order.size()) != ddg.numNodes()) {
        throw InvalidDdg("distance-0 subgraph has a cycle (" +
                         std::to_string(order.size()) + " of " +
                         std::to_string(ddg.numNodes()) +
                         " nodes ordered)");
    }
    return order;
}

namespace
{

/** computeTimes over a precomputed topological order. */
NodeTimes
computeTimesOrdered(const Ddg &ddg, const MachineConfig &mach,
                    const std::vector<NodeId> &order)
{
    NodeTimes t;
    const int slots = ddg.numNodeSlots();
    t.asap.assign(slots, 0);
    t.alap.assign(slots, 0);
    t.height.assign(slots, 0);
    t.depth.assign(slots, 0);

    // Forward pass: ASAP and depth.
    for (NodeId n : order) {
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            const int lat = ddg.edgeLatency(eid, mach);
            t.asap[n] = std::max(t.asap[n], t.asap[e.src] + lat);
            t.depth[n] = std::max(t.depth[n], t.depth[e.src] + lat);
        }
    }

    // Schedule length: all results produced.
    for (NodeId n : order) {
        const int lat = mach.latency(ddg.node(n).cls);
        t.length = std::max(t.length, t.asap[n] + lat);
    }

    // Backward pass: ALAP and height.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId n = *it;
        const int lat = mach.latency(ddg.node(n).cls);
        t.alap[n] = t.length - lat;
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            const int elat = ddg.edgeLatency(eid, mach);
            t.alap[n] = std::min(t.alap[n], t.alap[e.dst] - elat);
            t.height[n] = std::max(t.height[n], t.height[e.dst] + elat);
        }
    }

    return t;
}

} // namespace

NodeTimes
computeTimes(const Ddg &ddg, const MachineConfig &mach)
{
    return computeTimesOrdered(ddg, mach, topoOrder(ddg));
}

std::vector<int>
stronglyConnectedComponents(const Ddg &ddg)
{
    const int slots = ddg.numNodeSlots();
    std::vector<int> index(slots, -1), lowlink(slots, -1);
    std::vector<int> comp(slots, -1);
    std::vector<bool> on_stack(slots, false);
    std::vector<NodeId> stack;
    int next_index = 0;
    int next_comp = 0;

    // Iterative DFS to avoid deep recursion on long chains. Each
    // frame walks the node's raw out-span directly (the graph is not
    // mutated here, so borrowed spans are safe) - no per-frame
    // successor copies, dead edges skipped at the fetch.
    struct Frame
    {
        NodeId n;
        const EdgeId *it, *end;
    };

    std::vector<Frame> dfs;
    for (NodeId root : ddg.nodes()) {
        if (index[root] != -1)
            continue;
        auto push = [&](NodeId n) {
            index[n] = lowlink[n] = next_index++;
            stack.push_back(n);
            on_stack[n] = true;
            const EdgeSpan out = ddg.outEdgesRaw(n);
            dfs.push_back({n, out.begin(), out.end()});
        };
        push(root);
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            if (f.it != f.end) {
                const DdgEdge &e = ddg.edge(*f.it);
                ++f.it;
                if (!e.alive)
                    continue;
                const NodeId s = e.dst;
                if (index[s] == -1) {
                    push(s);
                } else if (on_stack[s]) {
                    lowlink[f.n] = std::min(lowlink[f.n], index[s]);
                }
            } else {
                if (lowlink[f.n] == index[f.n]) {
                    // f.n is an SCC root; pop its component.
                    while (true) {
                        NodeId w = stack.back();
                        stack.pop_back();
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if (w == f.n)
                            break;
                    }
                    ++next_comp;
                }
                NodeId done = f.n;
                dfs.pop_back();
                if (!dfs.empty()) {
                    lowlink[dfs.back().n] =
                        std::min(lowlink[dfs.back().n], lowlink[done]);
                }
            }
        }
    }
    return comp;
}

std::vector<FlatEdge>
flattenEdges(const Ddg &ddg, const MachineConfig &mach)
{
    std::vector<FlatEdge> flat;
    flat.reserve(ddg.numEdges());
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        flat.push_back({e.src, e.dst, ddg.edgeLatency(eid, mach),
                        e.distance});
    }
    return flat;
}

bool
hasPositiveCycleFlat(const FlatEdge *edges, std::size_t count,
                     int num_nodes, int slots, int ii,
                     std::vector<long long> &dist)
{
    // Bellman-Ford longest-path relaxation with edge weight
    // latency - II * distance; a relaxation in pass |V| proves a
    // positive-weight cycle, i.e. a recurrence that does not fit II.
    dist.assign(slots, 0);
    const int passes = num_nodes;
    for (int pass = 0; pass <= passes; ++pass) {
        bool relaxed = false;
        for (const FlatEdge *e = edges; e != edges + count; ++e) {
            const long long w =
                e->latency - static_cast<long long>(ii) * e->distance;
            if (dist[e->src] + w > dist[e->dst]) {
                dist[e->dst] = dist[e->src] + w;
                relaxed = true;
            }
        }
        if (!relaxed)
            return false;
        if (pass == passes)
            return true;
    }
    return false;
}

bool
hasPositiveCycle(const Ddg &ddg, const MachineConfig &mach, int ii)
{
    const auto edges = flattenEdges(ddg, mach);
    std::vector<long long> dist;
    return hasPositiveCycleFlat(edges.data(), edges.size(),
                                ddg.numNodes(), ddg.numNodeSlots(), ii,
                                dist);
}

namespace
{

/**
 * RecMII of one component from its intra-component edges, whose
 * endpoints are renumbered densely into [0, @p num_nodes): the
 * smallest II at which no cycle has positive weight
 * latency - II * distance; 0 when no edge is loop-carried.
 */
int
componentRecMii(const FlatEdge *edges, std::size_t count, int num_nodes,
                std::vector<long long> &dist)
{
    // Upper bound: a cycle's latency sum is at most the sum of the
    // component's non-negative latencies, and its distance sum >= 1.
    long long hi = 1;
    bool has_cycle_edge = false;
    for (const FlatEdge *e = edges; e != edges + count; ++e) {
        hi += std::max(0, e->latency);
        has_cycle_edge |= e->distance > 0;
    }
    if (!has_cycle_edge)
        return 0;
    if (!hasPositiveCycleFlat(edges, count, num_nodes, num_nodes, 1,
                              dist))
        return 1;

    // Smallest II in (1, hi] with no positive cycle; monotone in II.
    long long lo = 1; // has positive cycle
    while (lo + 1 < hi) {
        const long long mid = lo + (hi - lo) / 2;
        if (hasPositiveCycleFlat(edges, count, num_nodes, num_nodes,
                                 static_cast<int>(mid), dist))
            lo = mid;
        else
            hi = mid;
    }
    return static_cast<int>(hi);
}

} // namespace

int
sccRecMii(const Ddg &ddg, const MachineConfig &mach,
          const std::vector<NodeId> &members)
{
    std::vector<int> local(ddg.numNodeSlots(), -1);
    for (std::size_t i = 0; i < members.size(); ++i)
        local[members[i]] = static_cast<int>(i);
    std::vector<FlatEdge> edges;
    for (NodeId n : members) {
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && local[e.dst] >= 0) {
                edges.push_back({local[e.src], local[e.dst],
                                 ddg.edgeLatency(eid, mach),
                                 e.distance});
            }
        }
    }
    std::vector<long long> dist;
    return componentRecMii(edges.data(), edges.size(),
                           static_cast<int>(members.size()), dist);
}

int
recurrenceMii(const Ddg &ddg, const MachineConfig &mach)
{
    // Every cycle lies inside one SCC, so RecMII is the largest
    // per-component bound. Bucket the intra-component edges by
    // component (a counting sort), with endpoints renumbered densely
    // per component so each Bellman-Ford touches only its own nodes.
    const auto comp = stronglyConnectedComponents(ddg);
    int num_comps = 0;
    for (NodeId n : ddg.nodes())
        num_comps = std::max(num_comps, comp[n] + 1);

    std::vector<int> comp_size(num_comps, 0);
    std::vector<int> local(ddg.numNodeSlots(), -1);
    for (NodeId n : ddg.nodes())
        local[n] = comp_size[comp[n]]++;

    std::vector<int> first(num_comps + 1, 0);
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (comp[e.src] == comp[e.dst])
            ++first[comp[e.src] + 1];
    }
    for (int c = 0; c < num_comps; ++c)
        first[c + 1] += first[c];
    std::vector<FlatEdge> edges(first[num_comps]);
    std::vector<int> fill(first.begin(), first.end() - 1);
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (comp[e.src] == comp[e.dst]) {
            edges[fill[comp[e.src]]++] = {local[e.src], local[e.dst],
                                          ddg.edgeLatency(eid, mach),
                                          e.distance};
        }
    }

    int rec = 1;
    std::vector<long long> dist;
    for (int c = 0; c < num_comps; ++c) {
        const auto count =
            static_cast<std::size_t>(first[c + 1] - first[c]);
        if (count == 0)
            continue;
        rec = std::max(rec, componentRecMii(edges.data() + first[c],
                                            count, comp_size[c], dist));
    }
    return rec;
}

std::vector<bool>
nodesOnRecurrences(const Ddg &ddg)
{
    const auto comp = stronglyConnectedComponents(ddg);
    std::vector<int> comp_size(ddg.numNodeSlots(), 0);
    for (NodeId n : ddg.nodes())
        ++comp_size[comp[n]];

    std::vector<bool> on(ddg.numNodeSlots(), false);
    for (NodeId n : ddg.nodes()) {
        if (comp_size[comp[n]] > 1) {
            on[n] = true;
            continue;
        }
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.dst == n) { // self-loop recurrence
                on[n] = true;
                break;
            }
        }
    }
    return on;
}

const std::vector<NodeId> &
AnalysisCache::topo(const Ddg &ddg)
{
    if (topoGen_ != ddg.generation()) {
        topo_ = topoOrder(ddg);
        topoGen_ = ddg.generation();
    }
    return topo_;
}

const NodeTimes &
AnalysisCache::times(const Ddg &ddg, const MachineConfig &mach)
{
    if (timesGen_ != ddg.generation() || timesCfg_ != mach.id()) {
        times_ = computeTimesOrdered(ddg, mach, topo(ddg));
        timesGen_ = ddg.generation();
        timesCfg_ = mach.id();
    }
    return times_;
}

const std::vector<int> &
AnalysisCache::scc(const Ddg &ddg)
{
    if (sccGen_ != ddg.generation()) {
        scc_ = stronglyConnectedComponents(ddg);
        sccGen_ = ddg.generation();
    }
    return scc_;
}

} // namespace cvliw
