/**
 * @file
 * DDG analysis tests: topological order, ASAP/ALAP, SCCs, positive
 * cycles and RecMII, including the per-SCC RecMII against a
 * whole-graph reference search.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "support/rng.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace
{

Ddg
chainGraph()
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);           // lat 2
    b.op("f1", OpClass::FpAlu, {"ld"});  // lat 3
    b.op("f2", OpClass::FpMul, {"f1"});  // lat 6
    b.op("st", OpClass::Store, {"f2"});
    return b.take();
}

TEST(TopoOrder, RespectsEdges)
{
    const Ddg g = chainGraph();
    const auto order = topoOrder(g);
    ASSERT_EQ(order.size(), 4u);
    std::vector<int> pos(g.numNodeSlots());
    for (std::size_t i = 0; i < order.size(); ++i)
        pos[order[i]] = static_cast<int>(i);
    for (EdgeId eid : g.edges()) {
        const DdgEdge &e = g.edge(eid);
        if (e.distance == 0) {
            EXPECT_LT(pos[e.src], pos[e.dst]);
        }
    }
}

TEST(TopoOrder, IgnoresLoopCarriedEdges)
{
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu);
    b.flow("acc", "acc", 1); // recurrence, not a topo cycle
    const Ddg g = b.take();
    EXPECT_EQ(topoOrder(g).size(), 1u);
}

TEST(ComputeTimes, AsapAlongChain)
{
    const auto m = MachineConfig::unified();
    const Ddg g = chainGraph();
    const auto t = computeTimes(g, m);
    EXPECT_EQ(t.asap[0], 0);  // ld
    EXPECT_EQ(t.asap[1], 2);  // f1 after load (lat 2)
    EXPECT_EQ(t.asap[2], 5);  // f2 after f1 (lat 3)
    EXPECT_EQ(t.asap[3], 11); // st after mul (lat 6)
    EXPECT_EQ(t.length, 12);  // st start 11 + store latency 1
}

TEST(ComputeTimes, AlapAndMobility)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);          // critical: a->c
    b.op("b", OpClass::IntAlu);          // slack path
    b.op("c", OpClass::FpDiv, {"a", "b"});
    const Ddg g = b.take();
    const auto t = computeTimes(g, m);
    // Critical path: a(1) -> c(18): length 19.
    EXPECT_EQ(t.length, 19);
    EXPECT_EQ(t.mobility(b.id("a")), 0);
    EXPECT_EQ(t.mobility(b.id("b")), 0); // both feed c with lat 1
    EXPECT_EQ(t.mobility(b.id("c")), 0);
}

TEST(ComputeTimes, MobilityOfSlackNode)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("slow", OpClass::FpDiv);          // 18 cycles
    b.op("fast", OpClass::IntAlu);         // 1 cycle, lots of slack
    b.op("join", OpClass::FpAlu, {"slow", "fast"});
    const Ddg g = b.take();
    const auto t = computeTimes(g, m);
    EXPECT_EQ(t.mobility(b.id("slow")), 0);
    EXPECT_EQ(t.mobility(b.id("fast")), 17); // can start 0..17
}

TEST(ComputeTimes, HeightAndDepth)
{
    const auto m = MachineConfig::unified();
    const Ddg g = chainGraph();
    const auto t = computeTimes(g, m);
    EXPECT_EQ(t.depth[0], 0);
    EXPECT_EQ(t.height[3], 0);
    EXPECT_EQ(t.height[0], 11); // ld -> f1 -> f2 -> st latencies
    EXPECT_EQ(t.depth[3], 11);
}

TEST(Scc, SingleNodesAreOwnComponents)
{
    const Ddg g = chainGraph();
    const auto comp = stronglyConnectedComponents(g);
    // Four distinct components.
    std::vector<int> ids;
    for (NodeId n : g.nodes())
        ids.push_back(comp[n]);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(ids.size(), 4u);
}

TEST(Scc, DetectsRecurrenceComponent)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("x", OpClass::FpAlu, {"a"});
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1); // x <-> y recurrence
    const Ddg g = b.take();
    const auto comp = stronglyConnectedComponents(g);
    EXPECT_EQ(comp[b.id("x")], comp[b.id("y")]);
    EXPECT_NE(comp[b.id("a")], comp[b.id("x")]);
}

TEST(NodesOnRecurrences, SelfLoopAndCycle)
{
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu);
    b.flow("acc", "acc", 1);
    b.op("free", OpClass::IntAlu);
    const Ddg g = b.take();
    const auto on = nodesOnRecurrences(g);
    EXPECT_TRUE(on[b.id("acc")]);
    EXPECT_FALSE(on[b.id("free")]);
}

TEST(RecMii, AcyclicGraphIsOne)
{
    const auto m = MachineConfig::unified();
    EXPECT_EQ(recurrenceMii(chainGraph(), m), 1);
}

TEST(RecMii, SelfLoopFpAdd)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu); // lat 3
    b.flow("acc", "acc", 1);
    // Cycle: latency 3, distance 1 => RecMII 3.
    EXPECT_EQ(recurrenceMii(b.take(), m), 3);
}

TEST(RecMii, TwoNodeCycleWithDistanceTwo)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("x", OpClass::FpMul); // lat 6
    b.op("y", OpClass::FpAlu, {"x"}); // lat 3
    b.flow("y", "x", 2);
    // Cycle latency 9, distance 2 => ceil(9/2) = 5.
    EXPECT_EQ(recurrenceMii(b.take(), m), 5);
}

TEST(RecMii, TakesWorstCycle)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.flow("a", "a", 1); // ratio 1
    b.op("d", OpClass::FpDiv);
    b.flow("d", "d", 1); // ratio 18
    EXPECT_EQ(recurrenceMii(b.take(), m), 18);
}

TEST(HasPositiveCycle, ThresholdBehaviour)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("acc", OpClass::FpAlu);
    b.flow("acc", "acc", 1);
    const Ddg g = b.take();
    EXPECT_TRUE(hasPositiveCycle(g, m, 2));
    EXPECT_FALSE(hasPositiveCycle(g, m, 3));
}

TEST(RecMii, LongerLoopCarriedChain)
{
    const auto m = MachineConfig::unified();
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    b.op("z", OpClass::FpAlu, {"y"});
    b.flow("z", "x", 1);
    // 3 fp adds (3 cycles each) over distance 1 => RecMII 9.
    EXPECT_EQ(recurrenceMii(b.take(), m), 9);
}

/**
 * The whole-graph RecMII search the per-SCC one replaced: a
 * Bellman-Ford binary search over every edge of the graph, kept here
 * as the reference.
 */
int
wholeGraphRecMii(const Ddg &ddg, const MachineConfig &mach)
{
    const auto edges = flattenEdges(ddg, mach);
    const int num_nodes = ddg.numNodes();
    const int slots = ddg.numNodeSlots();
    std::vector<long long> dist;
    auto positive = [&](long long ii) {
        return hasPositiveCycleFlat(edges.data(), edges.size(), num_nodes,
                                    slots, static_cast<int>(ii), dist);
    };

    long long hi = 1;
    for (const FlatEdge &e : edges)
        hi += e.latency;
    if (!positive(1))
        return 1;
    long long lo = 1;
    while (lo + 1 < hi) {
        const long long mid = lo + (hi - lo) / 2;
        if (positive(mid))
            lo = mid;
        else
            hi = mid;
    }
    return static_cast<int>(hi);
}

/**
 * A random valid DDG: distance-0 edges only go forward in id order
 * (so it stays acyclic at distance 0), loop-carried edges go
 * anywhere, self-loops included; @p carried of them.
 */
Ddg
randomRecurrenceGraph(Rng &rng, int nodes, int carried)
{
    const OpClass classes[] = {OpClass::IntAlu, OpClass::IntMul,
                               OpClass::FpAlu, OpClass::FpMul,
                               OpClass::FpDiv, OpClass::Load};
    Ddg g;
    for (int i = 0; i < nodes; ++i) {
        g.addNode(classes[rng.uniformInt(0, 5)],
                  "n" + std::to_string(i));
    }
    for (int i = 1; i < nodes; ++i) {
        const int preds = static_cast<int>(rng.uniformInt(0, 2));
        for (int p = 0; p < preds; ++p) {
            const auto src = static_cast<NodeId>(rng.uniformInt(0, i - 1));
            if (rng.chance(0.2)) {
                g.addEdge(src, i, EdgeKind::Memory, 0,
                          static_cast<int>(rng.uniformInt(0, 4)));
            } else {
                g.addEdge(src, i, EdgeKind::RegFlow, 0);
            }
        }
    }
    for (int k = 0; k < carried; ++k) {
        const auto src = static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        const auto dst = rng.chance(0.3)
                             ? src
                             : static_cast<NodeId>(
                                   rng.uniformInt(0, nodes - 1));
        g.addEdge(src, dst, EdgeKind::RegFlow,
                  static_cast<int>(rng.uniformInt(1, 3)));
    }
    return g;
}

TEST(RecMii, PerSccMatchesWholeGraphSearch)
{
    // Every seed-42 suite loop on the clustered and unified configs.
    const auto suite = loadOrBuildSuite(42);
    ASSERT_FALSE(suite.empty());
    int above_one = 0;
    for (const char *cfg :
         {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r", "unified"}) {
        const auto m = MachineConfig::fromString(cfg);
        for (const Loop &loop : suite) {
            const int rec = recurrenceMii(loop.ddg, m);
            ASSERT_EQ(rec, wholeGraphRecMii(loop.ddg, m))
                << loop.name() << " on " << cfg;
            above_one += rec > 1;
        }
    }
    EXPECT_GT(above_one, 0);

    // Generated graphs: self-loops, several SCCs per graph, and no
    // recurrence at all; each shape must actually occur.
    Rng rng(4242);
    const auto m = MachineConfig::unified();
    int self_loops = 0, multi_scc = 0, acyclic = 0;
    for (int i = 0; i < 300; ++i) {
        const int nodes = static_cast<int>(rng.uniformInt(1, 40));
        const int carried = static_cast<int>(rng.uniformInt(0, 6));
        const Ddg g = randomRecurrenceGraph(rng, nodes, carried);
        ASSERT_EQ(recurrenceMii(g, m), wholeGraphRecMii(g, m))
            << "graph " << i;

        const auto comp = stronglyConnectedComponents(g);
        std::vector<bool> recurrence(g.numNodeSlots(), false);
        bool self_loop = false;
        for (EdgeId eid : g.edges()) {
            const DdgEdge &e = g.edge(eid);
            if (e.src == e.dst) {
                self_loop = true;
                recurrence[comp[e.src]] = true;
            } else if (comp[e.src] == comp[e.dst]) {
                recurrence[comp[e.src]] = true;
            }
        }
        const auto recurrences =
            std::count(recurrence.begin(), recurrence.end(), true);
        self_loops += self_loop;
        multi_scc += recurrences >= 2;
        acyclic += recurrences == 0;
    }
    EXPECT_GT(self_loops, 0);
    EXPECT_GT(multi_scc, 0);
    EXPECT_GT(acyclic, 0);
}

TEST(RecMii, MemoTracksMachineAndMutation)
{
    // One memo, one graph, two machines whose latencies differ, then
    // a mutation: every answer must match a fresh computation.
    DdgBuilder b;
    b.op("x", OpClass::FpMul);
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1);
    b.op("acc", OpClass::IntAlu);
    b.flow("acc", "acc", 1);
    Ddg g = b.take();
    const NodeId x = b.id("x"), y = b.id("y"), acc = b.id("acc");
    const auto m1 = MachineConfig::unified();
    auto m2 = MachineConfig::custom(1, ClusterResources{4, 4, 4, 0}, 1,
                                    1, 64);
    m2.setLatency(OpClass::FpMul, 2);

    AnalysisCache cache;
    auto rec_of = [&](const MachineConfig &m, NodeId n) {
        return cache.componentRecMii(g, m)[cache.scc(g)[n]];
    };
    EXPECT_EQ(rec_of(m1, x), sccRecMii(g, m1, {x, y}));
    EXPECT_EQ(rec_of(m1, x), 9);
    EXPECT_EQ(rec_of(m2, x), sccRecMii(g, m2, {x, y}));
    EXPECT_NE(rec_of(m2, x), 9);
    EXPECT_EQ(rec_of(m1, x), 9); // back to the first machine
    EXPECT_EQ(rec_of(m1, acc), 1);
    EXPECT_EQ(recurrenceMii(g, m2, &cache), recurrenceMii(g, m2));

    // Close x -> y -> acc -> x: one recurrence of latency 6 + 3 + 1.
    g.addEdge(y, acc, EdgeKind::RegFlow, 0);
    g.addEdge(acc, x, EdgeKind::RegFlow, 1);
    EXPECT_EQ(cache.scc(g)[x], cache.scc(g)[acc]);
    EXPECT_EQ(rec_of(m1, acc), sccRecMii(g, m1, {x, y, acc}));
    EXPECT_EQ(recurrenceMii(g, m1, &cache), 10);
    EXPECT_EQ(recurrenceMii(g, m1), 10);
    EXPECT_EQ(recurrenceMii(g, m2, &cache), recurrenceMii(g, m2));
}

} // namespace
} // namespace cvliw
