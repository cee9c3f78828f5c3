#include "ddg/analysis.hh"

#include <algorithm>
#include <string>

#include "support/logging.hh"

namespace cvliw
{

namespace
{

/** topoOrder into @p order, on reused buffers. */
void
topoOrderInto(const Ddg &ddg, AnalysisCache::Scratch &scratch,
              std::vector<NodeId> &order)
{
    // Sized up front (each node is ready and ordered once) and
    // walked through raw pointers, which stay in registers across
    // the out-of-line graph accessors.
    const int num_nodes = ddg.numNodes();
    scratch.indeg.assign(ddg.numNodeSlots(), 0);
    scratch.ready.resize(num_nodes);
    order.resize(num_nodes);
    int *const indeg = scratch.indeg.data();
    NodeId *const ready = scratch.ready.data();
    NodeId *const out = order.data();
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (e.distance == 0)
            ++indeg[e.dst];
    }

    int num_ready = 0;
    for (NodeId n : ddg.nodes()) {
        if (indeg[n] == 0)
            ready[num_ready++] = n;
    }

    int ordered = 0;
    while (num_ready > 0) {
        const NodeId n = ready[--num_ready];
        out[ordered++] = n;
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.alive && e.distance == 0 && --indeg[e.dst] == 0)
                ready[num_ready++] = e.dst;
        }
    }

    if (ordered != num_nodes) {
        throw InvalidDdg("distance-0 subgraph has a cycle (" +
                         std::to_string(ordered) + " of " +
                         std::to_string(num_nodes) +
                         " nodes ordered)");
    }
}

} // namespace

std::vector<NodeId>
topoOrder(const Ddg &ddg)
{
    AnalysisCache::Scratch scratch;
    std::vector<NodeId> order;
    topoOrderInto(ddg, scratch, order);
    return order;
}

namespace
{

/**
 * computeTimes over a precomputed topological order, refilling @p t
 * in place.
 */
void
computeTimesOrdered(const Ddg &ddg, const MachineConfig &mach,
                    const std::vector<NodeId> &order, NodeTimes &t)
{
    const int slots = ddg.numNodeSlots();
    t.asap.assign(slots, 0);
    t.alap.assign(slots, 0);
    t.height.assign(slots, 0);
    t.depth.assign(slots, 0);
    // Raw pointers stay in registers across the out-of-line graph
    // accessors.
    int *const asap = t.asap.data();
    int *const alap = t.alap.data();
    int *const height = t.height.data();
    int *const depth = t.depth.data();

    // Forward pass: ASAP and depth.
    for (NodeId n : order) {
        for (EdgeId eid : ddg.inEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            const int lat = ddg.edgeLatency(eid, mach);
            asap[n] = std::max(asap[n], asap[e.src] + lat);
            depth[n] = std::max(depth[n], depth[e.src] + lat);
        }
    }

    // Schedule length: all results produced.
    int length = 0;
    for (NodeId n : order) {
        const int lat = mach.latency(ddg.node(n).cls);
        length = std::max(length, asap[n] + lat);
    }
    t.length = length;

    // Backward pass: ALAP and height.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId n = *it;
        const int lat = mach.latency(ddg.node(n).cls);
        alap[n] = length - lat;
        for (EdgeId eid : ddg.outEdgesRaw(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.distance != 0)
                continue;
            const int elat = ddg.edgeLatency(eid, mach);
            alap[n] = std::min(alap[n], alap[e.dst] - elat);
            height[n] = std::max(height[n], height[e.dst] + elat);
        }
    }
}

} // namespace

NodeTimes
computeTimes(const Ddg &ddg, const MachineConfig &mach)
{
    NodeTimes t;
    computeTimesOrdered(ddg, mach, topoOrder(ddg), t);
    return t;
}

namespace
{

/**
 * Tarjan's SCCs into @p comp (see stronglyConnectedComponents), on
 * reused buffers.
 */
void
sccInto(const Ddg &ddg, AnalysisCache::Scratch &scratch,
        std::vector<int> &comp)
{
    const int slots = ddg.numNodeSlots();
    // Every node enters the component stack and the DFS stack once,
    // so both are sized up front, and the loops below work on raw
    // pointers: they stay in registers across the out-of-line graph
    // accessors, which vector references into the scratch would not.
    scratch.index.assign(slots, -1);
    scratch.lowlink.assign(slots, -1);
    scratch.stack.resize(slots);
    scratch.dfs.resize(slots);
    comp.assign(slots, -1);
    int *const index = scratch.index.data();
    int *const lowlink = scratch.lowlink.data();
    int *const cmp = comp.data();
    NodeId *const stack = scratch.stack.data();
    AnalysisCache::Scratch::Frame *const dfs = scratch.dfs.data();
    int stack_top = 0, dfs_top = 0;
    int next_index = 0;
    int next_comp = 0;

    // Iterative DFS to avoid deep recursion on long chains. Each
    // frame walks the node's raw out-span directly (the graph is not
    // mutated here, so borrowed spans are safe) - no per-frame
    // successor copies, dead edges skipped at the fetch. A node is on
    // the component stack exactly while it has an index but no
    // component yet.
    for (NodeId root : ddg.nodes()) {
        if (index[root] != -1)
            continue;
        auto push = [&](NodeId n) {
            index[n] = lowlink[n] = next_index++;
            stack[stack_top++] = n;
            const EdgeSpan out = ddg.outEdgesRaw(n);
            dfs[dfs_top++] = {n, out.begin(), out.end()};
        };
        push(root);
        while (dfs_top > 0) {
            AnalysisCache::Scratch::Frame &f = dfs[dfs_top - 1];
            if (f.it != f.end) {
                const DdgEdge &e = ddg.edge(*f.it);
                ++f.it;
                if (!e.alive)
                    continue;
                const NodeId s = e.dst;
                if (index[s] == -1) {
                    push(s);
                } else if (cmp[s] == -1) {
                    lowlink[f.n] = std::min(lowlink[f.n], index[s]);
                }
            } else {
                const NodeId done = f.n;
                if (lowlink[done] == index[done]) {
                    // done is an SCC root; pop its component.
                    NodeId w;
                    do {
                        w = stack[--stack_top];
                        cmp[w] = next_comp;
                    } while (w != done);
                    ++next_comp;
                }
                --dfs_top;
                if (dfs_top > 0) {
                    const NodeId parent = dfs[dfs_top - 1].n;
                    lowlink[parent] =
                        std::min(lowlink[parent], lowlink[done]);
                }
            }
        }
    }
}

} // namespace

std::vector<int>
stronglyConnectedComponents(const Ddg &ddg)
{
    AnalysisCache::Scratch scratch;
    std::vector<int> comp;
    sccInto(ddg, scratch, comp);
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

namespace
{

/**
 * RecMII of every component of @p comp into @p rec (see
 * AnalysisCache::componentRecMii), on reused buffers. Every cycle
 * lies inside one SCC, so the intra-component edges are bucketed by
 * component (a counting sort), with endpoints renumbered densely per
 * component so each Bellman-Ford touches only its own nodes.
 */
void
componentRecMiiInto(const Ddg &ddg, const MachineConfig &mach,
                    const std::vector<int> &comp,
                    AnalysisCache::Scratch &scratch,
                    std::vector<int> &rec)
{
    // Raw pointers stay in registers across the out-of-line graph
    // accessors.
    const int *const cmp = comp.data();
    int num_comps = 0;
    for (NodeId n : ddg.nodes())
        num_comps = std::max(num_comps, cmp[n] + 1);

    scratch.compSize.assign(num_comps, 0);
    scratch.local.assign(ddg.numNodeSlots(), -1);
    scratch.first.assign(num_comps + 1, 0);
    int *const comp_size = scratch.compSize.data();
    int *const local = scratch.local.data();
    int *const first = scratch.first.data();
    for (NodeId n : ddg.nodes())
        local[n] = comp_size[cmp[n]]++;

    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (cmp[e.src] == cmp[e.dst])
            ++first[cmp[e.src] + 1];
    }
    for (int c = 0; c < num_comps; ++c)
        first[c + 1] += first[c];
    scratch.edges.resize(first[num_comps]);
    scratch.fill.assign(first, first + num_comps);
    FlatEdge *const edges = scratch.edges.data();
    int *const fill = scratch.fill.data();
    for (EdgeId eid : ddg.edges()) {
        const DdgEdge &e = ddg.edge(eid);
        if (cmp[e.src] == cmp[e.dst]) {
            edges[fill[cmp[e.src]]++] = {local[e.src], local[e.dst],
                                         ddg.edgeLatency(eid, mach),
                                         e.distance};
        }
    }

    rec.assign(num_comps, 0);
    for (int c = 0; c < num_comps; ++c) {
        const auto count =
            static_cast<std::size_t>(first[c + 1] - first[c]);
        if (count != 0) {
            rec[c] = componentRecMii(edges + first[c], count,
                                     comp_size[c], scratch.dist);
        }
    }
}

} // namespace

int
recurrenceMii(const Ddg &ddg, const MachineConfig &mach,
              AnalysisCache *cache)
{
    AnalysisCache local;
    const std::vector<int> &rec =
        (cache ? *cache : local).componentRecMii(ddg, mach);
    int mii = 1;
    for (int r : rec)
        mii = std::max(mii, r);
    return mii;
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
        topoGen_ = 0; // a throwing recomputation leaves no stale hit
        topoOrderInto(ddg, scratch_, topo_);
        topoGen_ = ddg.generation();
    }
    return topo_;
}

const NodeTimes &
AnalysisCache::times(const Ddg &ddg, const MachineConfig &mach)
{
    if (timesGen_ != ddg.generation() || timesCfg_ != mach.id()) {
        computeTimesOrdered(ddg, mach, topo(ddg), times_);
        timesGen_ = ddg.generation();
        timesCfg_ = mach.id();
    }
    return times_;
}

const std::vector<int> &
AnalysisCache::scc(const Ddg &ddg)
{
    if (sccGen_ != ddg.generation()) {
        sccInto(ddg, scratch_, scc_);
        sccGen_ = ddg.generation();
    }
    return scc_;
}

const std::vector<int> &
AnalysisCache::componentRecMii(const Ddg &ddg, const MachineConfig &mach)
{
    if (recGen_ != ddg.generation() || recCfg_ != mach.id()) {
        componentRecMiiInto(ddg, mach, scc(ddg), scratch_, recMii_);
        recGen_ = ddg.generation();
        recCfg_ = mach.id();
    }
    return recMii_;
}

} // namespace cvliw
