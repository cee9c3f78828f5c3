/**
 * @file
 * MaxLive register-pressure tests: lifetime accounting, modulo
 * wrapping of long lifetimes and copy-delivered values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "ddg/builder.hh"
#include "sched/regpressure.hh"
#include "support/rng.hh"

namespace cvliw
{
namespace
{

/** Build a schedule vector by (node, cycle) pairs. */
std::vector<int>
starts(const Ddg &g, std::initializer_list<std::pair<NodeId, int>> s)
{
    std::vector<int> v(g.numNodeSlots(), -1);
    for (const auto &[n, t] : s)
        v[n] = t;
    return v;
}

TEST(MaxLive, SimpleChain)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu); // lat 1
    b.op("c", OpClass::IntAlu, {"a"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("a"), 0);
    p.assign(b.id("c"), 0);

    // a at 0 (def at 1), c reads at 1: live range [1, 1) = empty.
    auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 1}}), 2);
    EXPECT_EQ(ml[0], 0);

    // c reads at 4: live [1, 4): 3 cycles over II=2 -> overlaps.
    ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 4}}), 2);
    EXPECT_EQ(ml[0], 2); // phases 1,0,1 -> phase1 twice
}

TEST(MaxLive, LoopCarriedUseExtendsLifetime)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu);
    b.flow("a", "c", 2); // consumer two iterations later
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("a"), 0);
    p.assign(b.id("c"), 0);

    // II=3: a defs at 1, c reads at 0 + 2*3 = 6: live [1,6).
    const auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 0}}), 3);
    // 5 cycles of life across II=3: ceil coverage -> 2 at some phase.
    EXPECT_EQ(ml[0], 2);
}

TEST(MaxLive, CopyCreatesRemotePressureOnly)
{
    Ddg g;
    const NodeId prod = g.addNode(OpClass::IntAlu, "p");
    const NodeId copy = g.addNode(OpClass::Copy, "p.copy");
    const NodeId cons = g.addNode(OpClass::IntAlu, "w");
    g.addEdge(prod, copy, EdgeKind::RegFlow, 0);
    g.addEdge(copy, cons, EdgeKind::RegFlow, 0);
    const auto m = MachineConfig::fromString("2c1b2l64r"); // bus lat 2
    Partition p(2, g.numNodeSlots());
    p.assign(prod, 0);
    p.assign(copy, 0);
    p.assign(cons, 1);

    // p at 0 (def 1), copy at 1 (arrives 3), w reads at 8.
    std::vector<int> st(g.numNodeSlots(), -1);
    st[prod] = 0;
    st[copy] = 1;
    st[cons] = 8;
    const auto ml = computeMaxLive(g, m, p, st, 4);
    // Cluster 0: p live [1, 1): copy reads at 1 -> empty... the
    // copy's read at cycle 1 ends the local lifetime: range [1,1).
    EXPECT_EQ(ml[0], 0);
    // Cluster 1: value live [3, 8) = 5 cycles over II=4: max 2.
    EXPECT_EQ(ml[1], 2);
}

TEST(MaxLive, StoresProduceNothing)
{
    DdgBuilder b;
    b.op("v", OpClass::IntAlu);
    b.op("st", OpClass::Store, {"v"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("v"), 0);
    p.assign(b.id("st"), 0);
    const auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("v"), 0}, {b.id("st"), 1}}), 1);
    // v live [1,1): 0; store defines nothing.
    EXPECT_EQ(ml[0], 0);
}

TEST(MaxLive, ManyOverlappingValues)
{
    // II=1 with lifetime 4 each: 4 simultaneous copies of each value.
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    p.assign(b.id("a"), 0);
    p.assign(b.id("c"), 0);
    const auto ml = computeMaxLive(
        g, m, p, starts(g, {{b.id("a"), 0}, {b.id("c"), 5}}), 1);
    EXPECT_EQ(ml[0], 4); // live [1,5) wraps II=1 four times
}

TEST(MaxLive, UnreadValueBeforeCycleZeroHoldsNoRegister)
{
    // Starts before normalization may be negative. A value nobody
    // reads is not live, however early it is defined, and an
    // unscheduled-looking start is no error.
    DdgBuilder b;
    b.op("dead", OpClass::FpDiv); // lat 18, no reader
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    Ddg g = b.take();
    const auto m = MachineConfig::unified();
    Partition p(1, g.numNodeSlots());
    for (NodeId n : g.nodes())
        p.assign(n, 0);
    const auto ml = computeMaxLive(
        g, m, p,
        starts(g, {{b.id("dead"), -40}, {b.id("a"), -9},
                   {b.id("c"), -7}}),
        4);
    EXPECT_EQ(ml[0], 1); // only a, live [-8, -7)
}

/**
 * MaxLive the per-cycle way: every cycle of every live range bumps
 * its modulo phase. Ranges come only from actual readers.
 */
std::vector<int>
referenceMaxLive(const Ddg &ddg, const MachineConfig &mach,
                 const Partition &part, const std::vector<int> &start,
                 int ii)
{
    const int clusters = mach.numClusters();
    std::vector<std::vector<int>> press(clusters,
                                        std::vector<int>(ii, 0));
    auto add_range = [&](int c, int def, int last_use) {
        for (int t = def; t < last_use; ++t)
            ++press[c][((t % ii) + ii) % ii];
    };
    for (NodeId v : ddg.nodes()) {
        const DdgNode &node = ddg.node(v);
        if (!producesValue(node.cls))
            continue;
        const bool is_copy = node.cls == OpClass::Copy;
        const int def = start[v] + (is_copy ? mach.busLatency()
                                            : mach.latency(node.cls));
        for (int c = 0; c < clusters; ++c) {
            if (!is_copy && c != part.clusterOf(v))
                continue;
            bool read = false;
            int last = 0;
            for (EdgeId eid : ddg.outEdges(v)) {
                const DdgEdge &e = ddg.edge(eid);
                if (e.kind != EdgeKind::RegFlow ||
                    part.clusterOf(e.dst) != c)
                    continue;
                const int use = start[e.dst] + ii * e.distance;
                last = read ? std::max(last, use) : use;
                read = true;
            }
            if (read)
                add_range(c, def, last);
        }
    }
    std::vector<int> max_live(clusters, 0);
    for (int c = 0; c < clusters; ++c)
        max_live[c] = *std::max_element(press[c].begin(), press[c].end());
    return max_live;
}

/** A random scheduled loop: graph, partition, starts and II. */
struct RandomSchedule
{
    MachineConfig mach = MachineConfig::unified();
    Ddg g;
    Partition part;
    std::vector<int> start;
    int ii = 1;
    int wrapping = 0; //!< RegFlow lifetimes of at least one II
    int negative = 0; //!< nodes that start before cycle 0
};

/**
 * Nodes in id order, every RegFlow edge forward, copies among them
 * with readers in any cluster; each node starts where one chosen
 * incoming value has lived 0-5 IIs (other values get what follows,
 * including empty and negative lifetimes), or anywhere in
 * [-3 II, 3 II] without a producer.
 */
RandomSchedule
randomSchedule(Rng &rng)
{
    const char *configs[] = {"unified", "2c1b2l64r", "4c2b4l64r"};
    const OpClass classes[] = {OpClass::IntAlu, OpClass::FpMul,
                               OpClass::FpDiv, OpClass::Load,
                               OpClass::Store, OpClass::Copy};
    RandomSchedule r;
    r.mach = MachineConfig::fromString(configs[rng.uniformInt(0, 2)]);
    r.ii = static_cast<int>(rng.uniformInt(1, 9));
    const int nodes = static_cast<int>(rng.uniformInt(1, 30));
    const int clusters = r.mach.numClusters();
    r.part = Partition(clusters, nodes);
    r.start.assign(nodes, 0);
    const auto def_of = [&](NodeId u) {
        const OpClass cls = r.g.node(u).cls;
        return r.start[u] + (cls == OpClass::Copy
                                 ? r.mach.busLatency()
                                 : r.mach.latency(cls));
    };
    for (int i = 0; i < nodes; ++i) {
        const NodeId v =
            r.g.addNode(classes[rng.uniformInt(0, 5)],
                        "n" + std::to_string(i));
        r.part.assign(v, static_cast<int>(
                             rng.uniformInt(0, clusters - 1)));
        r.start[v] = static_cast<int>(
            rng.uniformInt(-3 * r.ii, 3 * r.ii));
        const int preds = v == 0 ? 0
                                 : static_cast<int>(
                                       rng.uniformInt(0, 3));
        for (int k = 0; k < preds; ++k) {
            const auto u = static_cast<NodeId>(rng.uniformInt(0, v - 1));
            if (!producesValue(r.g.node(u).cls))
                continue;
            const int d = static_cast<int>(rng.uniformInt(0, 2));
            r.g.addEdge(u, v,
                        rng.chance(0.85) ? EdgeKind::RegFlow
                                         : EdgeKind::Memory,
                        d);
            if (k == 0) {
                const int life = static_cast<int>(
                    rng.uniformInt(0, 5 * r.ii));
                r.start[v] = def_of(u) + life - r.ii * d;
            }
        }
    }
    for (EdgeId eid : r.g.edges()) {
        const DdgEdge &e = r.g.edge(eid);
        if (e.kind == EdgeKind::RegFlow &&
            r.start[e.dst] + r.ii * e.distance - def_of(e.src) >= r.ii)
            ++r.wrapping;
    }
    for (NodeId n : r.g.nodes())
        r.negative += r.start[n] < 0;
    return r;
}

TEST(MaxLive, MatchesPerCycleReference)
{
    // One scratch across schedules of every II and cluster count.
    Rng rng(2026);
    MaxLiveScratch scratch;
    std::vector<int> got;
    int wrapping = 0, negative = 0, multi_cluster = 0;
    for (int i = 0; i < 2000; ++i) {
        const RandomSchedule r = randomSchedule(rng);
        const auto want =
            referenceMaxLive(r.g, r.mach, r.part, r.start, r.ii);
        computeMaxLive(r.g, r.mach, r.part, r.start, r.ii, scratch,
                       got);
        ASSERT_EQ(got, want) << "schedule " << i;
        ASSERT_EQ(computeMaxLive(r.g, r.mach, r.part, r.start, r.ii),
                  want)
            << "schedule " << i;
        wrapping += r.wrapping;
        negative += r.negative;
        multi_cluster += r.mach.numClusters() > 1;
    }
    EXPECT_GT(wrapping, 0);
    EXPECT_GT(negative, 0);
    EXPECT_GT(multi_cluster, 0);
}

TEST(MaxLive, InvariantUnderWholeIiShifts)
{
    // MaxLive depends on the modulo phases only, so the scheduler may
    // keep the figure it measured before normalizing its starts.
    Rng rng(77);
    for (int i = 0; i < 500; ++i) {
        RandomSchedule r = randomSchedule(rng);
        const auto base =
            computeMaxLive(r.g, r.mach, r.part, r.start, r.ii);
        for (int k : {-3, -1, 1, 4}) {
            std::vector<int> shifted = r.start;
            for (int &t : shifted)
                t += k * r.ii;
            ASSERT_EQ(computeMaxLive(r.g, r.mach, r.part, shifted, r.ii),
                      base)
                << "schedule " << i << " shifted by " << k << " II";
        }
    }
}

} // namespace
} // namespace cvliw
