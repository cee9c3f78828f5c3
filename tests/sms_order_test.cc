/**
 * @file
 * SMS ordering tests: completeness, recurrence priority and the
 * neighbour-adjacency property that keeps placement windows
 * one-sided.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "ddg/builder.hh"
#include "eval/service.hh"
#include "sched/sms_order.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace
{

/**
 * The SMS order as first written, on node-based containers: one
 * std::map bucket per SCC, member vectors copied into the recurrence
 * sets, sccRecMii per set and a std::set ready list. smsOrder must
 * reproduce it exactly. Also counts, in @p ties, the pairs of
 * adjacent recurrence sets whose RecMII is equal (the tie-break on
 * the smallest member decides their order).
 */
std::vector<NodeId>
referenceSmsOrder(const Ddg &ddg, const MachineConfig &mach,
                  int &ties)
{
    const NodeTimes times = computeTimes(ddg, mach);
    const auto comp = stronglyConnectedComponents(ddg);

    std::map<int, std::vector<NodeId>> by_comp;
    for (NodeId n : ddg.nodes())
        by_comp[comp[n]].push_back(n);

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
    for (std::size_t s = 1; s < sets.size(); ++s)
        ties += sets[s].recMii == sets[s - 1].recMii;
    if (!rest.empty())
        sets.push_back({0, 0, std::move(rest)});

    std::vector<int> rank(ddg.numNodeSlots(), 0);
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (NodeId n : sets[s].nodes)
            rank[n] = static_cast<int>(s);
    }

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
    return order;
}

/**
 * A random valid DDG: distance-0 edges only go forward in id order,
 * loop-carried edges (self-loops included) go anywhere, and a few
 * nodes are removed again, so the graph has tombstones.
 */
Ddg
randomLoop(Rng &rng)
{
    const OpClass classes[] = {OpClass::IntAlu, OpClass::IntMul,
                               OpClass::FpAlu, OpClass::FpMul,
                               OpClass::FpDiv, OpClass::Load};
    const int nodes = static_cast<int>(rng.uniformInt(1, 40));
    Ddg g;
    for (int i = 0; i < nodes; ++i) {
        g.addNode(classes[rng.uniformInt(0, 5)],
                  "n" + std::to_string(i));
    }
    for (int i = 1; i < nodes; ++i) {
        const int preds = static_cast<int>(rng.uniformInt(0, 2));
        for (int p = 0; p < preds; ++p) {
            const auto src =
                static_cast<NodeId>(rng.uniformInt(0, i - 1));
            g.addEdge(src, i, EdgeKind::RegFlow, 0);
        }
    }
    const int carried = static_cast<int>(rng.uniformInt(0, 8));
    for (int k = 0; k < carried; ++k) {
        const auto src =
            static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
        const auto dst = rng.chance(0.4)
                             ? src
                             : static_cast<NodeId>(
                                   rng.uniformInt(0, nodes - 1));
        g.addEdge(src, dst, EdgeKind::RegFlow,
                  static_cast<int>(rng.uniformInt(1, 3)));
    }
    if (nodes > 2 && rng.chance(0.3))
        g.removeNode(static_cast<NodeId>(rng.uniformInt(0, nodes - 1)));
    return g;
}

TEST(SmsOrder, MatchesMapSetReference)
{
    // One scratch and one memo across every graph, as in a worker.
    AnalysisCache cache;
    SmsScratch scratch;
    std::vector<NodeId> order;
    int ties = 0, graphs = 0;
    auto check = [&](const Ddg &g, const MachineConfig &m,
                     const std::string &what) {
        const auto want = referenceSmsOrder(g, m, ties);
        smsOrder(g, m, cache, scratch, order);
        ASSERT_EQ(order, want) << what;
        ASSERT_EQ(smsOrder(g, m), want) << what;
        ++graphs;
    };

    const auto suite = loadOrBuildSuite(42);
    ASSERT_EQ(suite.size(), 678u);
    for (const char *cfg : {"unified", "unified32r"}) {
        const auto m = MachineConfig::fromString(cfg);
        for (const Loop &loop : suite)
            check(loop.ddg, m, loop.name() + " on " + cfg);
    }
    // Clustered: the graph the scheduler actually orders, with
    // replicas and copies.
    for (const char *cfg : {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r"}) {
        const auto m = MachineConfig::fromString(cfg);
        const SuiteResult results =
            CompileService::shared().compileSuite(suite, m);
        ASSERT_EQ(results.loops.size(), suite.size());
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (results.loops[i].ok) {
                check(results.loops[i].finalDdg, m,
                      suite[i].name() + " final on " + cfg);
            }
        }
    }
    const int suite_ties = ties;

    Rng rng(1515);
    for (int i = 0; i < 300; ++i) {
        const Ddg g = randomLoop(rng);
        check(g, MachineConfig::unified(), "graph " + std::to_string(i));
    }
    // Every clustered compile succeeds at 64 registers.
    EXPECT_EQ(graphs, 5 * 678 + 300);
    // Equal-RecMII recurrence sets occur in both populations, so the
    // tie-break is exercised, not just the primary key.
    EXPECT_GT(suite_ties, 0);
    EXPECT_GT(ties, suite_ties);
}

TEST(SmsOrder, ContainsEveryNodeOnce)
{
    DdgBuilder b;
    b.op("a", OpClass::Load);
    b.op("x", OpClass::FpAlu, {"a"});
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1);
    b.op("st", OpClass::Store, {"y"});
    const Ddg g = b.take();
    const auto order = smsOrder(g, MachineConfig::unified());
    ASSERT_EQ(order.size(), 4u);
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, g.nodes().toVector());
}

TEST(SmsOrder, TightestRecurrenceFirst)
{
    DdgBuilder b;
    b.op("fast", OpClass::IntAlu); // self-loop RecMII 1
    b.flow("fast", "fast", 1);
    b.op("slow", OpClass::FpDiv);  // self-loop RecMII 18
    b.flow("slow", "slow", 1);
    b.op("free", OpClass::IntAlu);
    const Ddg g = b.take();
    const auto order = smsOrder(g, MachineConfig::unified());
    // The most constraining recurrence must be ordered first.
    EXPECT_EQ(order.front(), b.id("slow"));
    // The free node comes after all recurrence nodes.
    EXPECT_EQ(order.back(), b.id("free"));
}

TEST(SmsOrder, AdjacencyInConnectedComponent)
{
    // Within a connected component, every node after the first must
    // have a neighbour among the already ordered nodes, so its
    // placement window is bounded on at least one side.
    const auto loops = buildBenchmark("su2cor");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    int checked = 0;
    for (std::size_t li = 0; li < 4 && li < loops.size(); ++li) {
        const Ddg &g = loops[li].ddg;
        const auto order = smsOrder(g, m);
        std::vector<bool> placed(g.numNodeSlots(), false);
        std::vector<bool> first_of_component(g.numNodeSlots(), false);

        for (NodeId n : order) {
            bool has_neighbor = false;
            for (EdgeId eid : g.inEdges(n))
                has_neighbor |= placed[g.edge(eid).src];
            for (EdgeId eid : g.outEdges(n))
                has_neighbor |= placed[g.edge(eid).dst];
            if (!has_neighbor) {
                // Allowed only as the seed of a new region; count
                // them and verify they are few.
                first_of_component[n] = true;
            }
            placed[n] = true;
            ++checked;
        }
        int seeds = 0;
        for (NodeId n : g.nodes())
            seeds += first_of_component[n];
        // Seeds are rare relative to the graph size (one per
        // weakly-connected region plus recurrence set starts).
        EXPECT_LT(seeds, g.numNodes() / 2);
    }
    EXPECT_GT(checked, 0);
}

TEST(SccRecMii, MatchesExpectedRatios)
{
    DdgBuilder b;
    b.op("x", OpClass::FpMul);        // 6
    b.op("y", OpClass::FpAlu, {"x"}); // 3
    b.flow("y", "x", 1);              // cycle lat 9, dist 1
    const Ddg g = b.take();
    const std::vector<NodeId> members{b.id("x"), b.id("y")};
    EXPECT_EQ(sccRecMii(g, MachineConfig::unified(), members), 9);
}

TEST(SccRecMii, NoCycleGivesZero)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    const Ddg g = b.take();
    EXPECT_EQ(
        sccRecMii(g, MachineConfig::unified(), {b.id("a")}), 0);
}

TEST(SmsOrder, CopiesAreOrderedToo)
{
    Ddg g;
    const NodeId p = g.addNode(OpClass::IntAlu, "p");
    const NodeId c = g.addNode(OpClass::Copy, "p.copy");
    const NodeId w = g.addNode(OpClass::IntAlu, "w");
    g.addEdge(p, c, EdgeKind::RegFlow, 0);
    g.addEdge(c, w, EdgeKind::RegFlow, 0);
    const auto order =
        smsOrder(g, MachineConfig::fromString("2c1b2l64r"));
    EXPECT_EQ(order.size(), 3u);
}

} // namespace
} // namespace cvliw
