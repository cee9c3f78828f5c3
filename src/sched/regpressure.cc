#include "sched/regpressure.hh"

#include <algorithm>
#include <limits>

namespace cvliw
{

namespace
{

/** "No reader yet": below every read cycle a schedule can hold. */
constexpr int noReader = std::numeric_limits<int>::min();

/**
 * Add one live range [def, last_use) to a cluster: its whole turns
 * to @p base, its remainder to the circular difference array @p diff
 * (II + 1 entries).
 */
void
addRange(int &base, int *diff, int def, int last_use, int ii)
{
    if (last_use <= def)
        return;
    const int len = last_use - def;
    base += len / ii;
    const int rem = len % ii;
    if (rem == 0)
        return;
    int phase = def % ii;
    if (phase < 0)
        phase += ii;
    ++diff[phase];
    if (phase + rem <= ii) {
        --diff[phase + rem];
    } else {
        ++diff[0];
        --diff[phase + rem - ii];
    }
}

} // namespace

std::vector<int>
computeMaxLive(const Ddg &ddg, const MachineConfig &mach,
               const Partition &part, const std::vector<int> &start,
               int ii)
{
    MaxLiveScratch scratch;
    std::vector<int> max_live;
    computeMaxLive(ddg, mach, part, start, ii, scratch, max_live);
    return max_live;
}

void
computeMaxLive(const Ddg &ddg, const MachineConfig &mach,
               const Partition &part, const std::vector<int> &start,
               int ii, MaxLiveScratch &scratch,
               std::vector<int> &max_live)
{
    const int clusters = mach.numClusters();
    const int stride = ii + 1;
    // Raw pointers stay in registers across the out-of-line graph
    // accessors in the loops below.
    scratch.diff.assign(static_cast<std::size_t>(clusters) * stride, 0);
    scratch.last.resize(clusters);
    max_live.assign(clusters, 0);
    int *const diff = scratch.diff.data();
    int *const last = scratch.last.data();
    int *const base = max_live.data(); // whole turns, per cluster
    const int *const st = start.data();

    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (!producesValue(node.cls))
            continue;

        if (node.cls == OpClass::Copy) {
            // The broadcast creates one register instance per remote
            // cluster that consumes it.
            const int def = st[v] + mach.busLatency();
            std::fill(last, last + clusters, noReader);
            for (EdgeId eid : ddg.outEdgesRaw(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (!e.alive || e.kind != EdgeKind::RegFlow)
                    continue;
                const int c = part.clusterOf(e.dst);
                last[c] = std::max(last[c], st[e.dst] + ii * e.distance);
            }
            for (int c = 0; c < clusters; ++c)
                addRange(base[c], diff + c * stride, def, last[c], ii);
        } else {
            // Local value: live in the producer's cluster until the
            // last same-cluster read (remote reads go via the copy).
            const int c = part.clusterOf(v);
            const int def = st[v] + mach.latency(node.cls);
            int last_read = noReader;
            for (EdgeId eid : ddg.outEdgesRaw(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (!e.alive || e.kind != EdgeKind::RegFlow)
                    continue;
                if (part.clusterOf(e.dst) != c)
                    continue;
                last_read =
                    std::max(last_read, st[e.dst] + ii * e.distance);
            }
            addRange(base[c], diff + c * stride, def, last_read, ii);
        }
    }

    // Pressure at phase t is base + the prefix sum of the deltas.
    for (int c = 0; c < clusters; ++c) {
        const int *d = diff + c * stride;
        int live = 0, peak = 0;
        for (int t = 0; t < ii; ++t) {
            live += d[t];
            peak = std::max(peak, live);
        }
        base[c] += peak;
    }
}

} // namespace cvliw
