/**
 * @file
 * Partitioner tests: assignment container, edge weighting (with and
 * without the analysis memo), greedy matching, the bucket fold of
 * parallel edges (checked against the sort-based fold it replaced),
 * coarsening hierarchy, the multilevel driver and the refinement
 * hill-climb (checked against a full-pass reference).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "partition/edge_weights.hh"
#include "partition/matching.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/comms.hh"
#include "sched/mii.hh"
#include "sched/pseudo.hh"
#include "support/rng.hh"
#include "workloads/generator.hh"
#include "workloads/profiles.hh"
#include "workloads/suite.hh"

namespace cvliw
{
namespace
{

TEST(Partition, AssignAndQuery)
{
    Partition p(4, 3);
    EXPECT_FALSE(p.isAssigned(0));
    p.assign(0, 2);
    EXPECT_TRUE(p.isAssigned(0));
    EXPECT_EQ(p.clusterOf(0), 2);
    // Grows on demand (copies/replicas get ids beyond the original).
    p.assign(10, 1);
    EXPECT_EQ(p.clusterOf(10), 1);
}

TEST(Partition, UsageCountsByKind)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("f", OpClass::FpAlu, {"ld"});
    b.op("i", OpClass::IntAlu);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("ld"), 0);
    p.assign(b.id("f"), 0);
    p.assign(b.id("i"), 1);

    const auto usage = p.usage(g, m);
    EXPECT_EQ(usage[size_t(ResourceKind::MemPort)][0], 1);
    EXPECT_EQ(usage[size_t(ResourceKind::FpFu)][0], 1);
    EXPECT_EQ(usage[size_t(ResourceKind::IntFu)][1], 1);
    EXPECT_EQ(usage[size_t(ResourceKind::IntFu)][0], 0);
    EXPECT_EQ(p.opCounts(g), (std::vector<int>{2, 1}));
}

TEST(EdgeWeights, RecurrenceEdgesAreHeaviest)
{
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1);                 // recurrence x<->y
    b.op("a", OpClass::IntAlu);
    b.op("z", OpClass::FpDiv, {"a", "y"});
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const auto w = computeEdgeWeights(g, m);

    // Find one recurrence edge and one slack edge.
    long long rec_weight = 0, slack_weight = 0;
    for (EdgeId eid : g.edges()) {
        const DdgEdge &e = g.edge(eid);
        if (e.src == b.id("x") && e.dst == b.id("y"))
            rec_weight = w[eid];
        if (e.src == b.id("a"))
            slack_weight = w[eid];
    }
    EXPECT_GT(rec_weight, slack_weight);
    EXPECT_GT(rec_weight, 64); // recurrence bonus applied
}

TEST(EdgeWeights, MemoryEdgesAreFree)
{
    DdgBuilder b;
    b.op("v", OpClass::IntAlu);
    b.op("st", OpClass::Store, {"v"});
    b.op("ld", OpClass::Load);
    b.mem("st", "ld", 1);
    const Ddg g = b.take();
    const auto w =
        computeEdgeWeights(g, MachineConfig::fromString("2c1b2l64r"));
    for (EdgeId eid : g.edges()) {
        if (g.edge(eid).kind == EdgeKind::Memory)
            EXPECT_EQ(w[eid], 0);
        else
            EXPECT_GT(w[eid], 0);
    }
}

TEST(Matching, PrefersHeavyEdges)
{
    std::vector<MatchEdge> edges{
        {0, 1, 10}, {1, 2, 100}, {2, 3, 10}, {0, 3, 1}};
    const auto pairs =
        greedyMatching(4, edges, [](int, int) { return true; });
    // Heaviest first: (1,2) matched, then (0,3).
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0], (std::pair<int, int>(1, 2)));
    EXPECT_EQ(pairs[1], (std::pair<int, int>(0, 3)));
}

TEST(Matching, RespectsFeasibility)
{
    std::vector<MatchEdge> edges{{0, 1, 100}, {0, 2, 10}};
    const auto pairs = greedyMatching(
        3, edges, [](int a, int b) { return !(a == 0 && b == 1); });
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0], (std::pair<int, int>(0, 2)));
}

TEST(Matching, Deterministic)
{
    std::vector<MatchEdge> edges{{0, 1, 5}, {2, 3, 5}, {1, 2, 5}};
    const auto p1 =
        greedyMatching(4, edges, [](int, int) { return true; });
    const auto p2 =
        greedyMatching(4, edges, [](int, int) { return true; });
    EXPECT_EQ(p1, p2);
}

TEST(EdgeWeights, AnalysisMemoGivesTheSameWeights)
{
    // The pipeline hands the memo minimumIi filled (SCCs, topological
    // order) to the weighting; the weights must not change.
    const auto loops = buildBenchmark("su2cor");
    const auto m = MachineConfig::fromString("4c2b4l64r");
    for (std::size_t i = 0; i < 6 && i < loops.size(); ++i) {
        const Ddg &g = loops[i].ddg;
        AnalysisCache cache;
        const int mii = minimumIi(g, m, &cache);
        EXPECT_EQ(computeEdgeWeights(g, m, &cache),
                  computeEdgeWeights(g, m))
            << loops[i].name();
        PseudoScratch a, b;
        EXPECT_EQ(multilevelPartition(g, m, mii, &a, &cache)
                      .partition.vec(),
                  multilevelPartition(g, m, mii, &b).partition.vec())
            << loops[i].name();
    }
}

/**
 * The sort-based fold EdgeFolder replaced, kept as its oracle: sort
 * by (a, b), then sum runs of equal keys.
 */
void
sortedFold(std::vector<MatchEdge> &edges)
{
    std::sort(edges.begin(), edges.end(),
              [](const MatchEdge &x, const MatchEdge &y) {
                  return std::tie(x.a, x.b) < std::tie(y.a, y.b);
              });
    std::size_t kept = 0;
    for (const MatchEdge &e : edges) {
        if (kept > 0 && edges[kept - 1].a == e.a &&
            edges[kept - 1].b == e.b) {
            edges[kept - 1].weight += e.weight;
        } else {
            edges[kept++] = e;
        }
    }
    edges.resize(kept);
}

TEST(Matching, BucketFoldMatchesSortedFold)
{
    Rng rng(31337);
    EdgeFolder folder; // one folder: its buffers carry across calls
    int folded_pairs = 0;
    for (int round = 0; round < 300; ++round) {
        const int verts = static_cast<int>(rng.uniformInt(2, 40));
        const int count = static_cast<int>(rng.uniformInt(0, 150));
        std::vector<MatchEdge> edges;
        for (int i = 0; i < count; ++i) {
            if (!edges.empty() && rng.uniformInt(0, 3) == 0) {
                // A duplicate key, weight of its own.
                MatchEdge dup = edges[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(edges.size()) - 1))];
                dup.weight = rng.uniformInt(1, 1000);
                edges.push_back(dup);
                continue;
            }
            int a = static_cast<int>(rng.uniformInt(0, verts - 1));
            int b = static_cast<int>(rng.uniformInt(0, verts - 1));
            if (a == b)
                continue;
            if (a > b)
                std::swap(a, b);
            edges.push_back({a, b, rng.uniformInt(1, 1000)});
        }
        std::vector<MatchEdge> want = edges;
        sortedFold(want);
        std::vector<MatchEdge> got = edges;
        folder.fold(got, verts);
        folded_pairs += static_cast<int>(edges.size() - got.size());

        // Grouped by ascending a; the same keys and sums as the sort.
        for (std::size_t i = 1; i < got.size(); ++i)
            EXPECT_LE(got[i - 1].a, got[i].a) << "round " << round;
        std::vector<MatchEdge> got_sorted = got;
        sortedFold(got_sorted);
        ASSERT_EQ(got_sorted.size(), got.size()) << "duplicate key left";
        ASSERT_EQ(got_sorted.size(), want.size()) << "round " << round;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got_sorted[i].a, want[i].a);
            EXPECT_EQ(got_sorted[i].b, want[i].b);
            EXPECT_EQ(got_sorted[i].weight, want[i].weight);
        }

        // Unique keys make the matching order total: the same visit
        // order from either fold.
        sortForMatching(got);
        sortForMatching(want);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].a, want[i].a);
            EXPECT_EQ(got[i].b, want[i].b);
        }
    }
    EXPECT_GT(folded_pairs, 0);
}

TEST(Coarsen, StopsAtCapacityFrontier)
{
    DdgBuilder b;
    for (int i = 0; i < 12; ++i)
        b.op("n" + std::to_string(i), OpClass::IntAlu);
    for (int i = 0; i + 1 < 12; ++i)
        b.flow("n" + std::to_string(i), "n" + std::to_string(i + 1));
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const auto hier =
        coarsen(g, m, 3, computeEdgeWeights(g, m));

    const int last = hier.numLevels() - 1;
    // Never fewer macro-nodes than clusters; every node mapped; and
    // no macro exceeds the capacity available * II = 1 * 3 int ops.
    EXPECT_GE(hier.numGroups(last), 4);
    std::vector<int> members(hier.numGroups(last), 0);
    for (NodeId n : g.nodes()) {
        const int grp = hier.groupOf(n, last);
        ASSERT_GE(grp, 0);
        ++members[grp];
    }
    for (int count : members)
        EXPECT_LE(count, 3);
}

TEST(Coarsen, HierarchyLevelsNest)
{
    DdgBuilder b;
    for (int i = 0; i < 16; ++i)
        b.op("n" + std::to_string(i), OpClass::IntAlu);
    for (int i = 0; i + 1 < 16; ++i)
        b.flow("n" + std::to_string(i), "n" + std::to_string(i + 1));
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto hier = coarsen(g, m, 8, computeEdgeWeights(g, m));

    ASSERT_GE(hier.numLevels(), 2);
    for (int l = 1; l < hier.numLevels(); ++l) {
        // Same group at level l-1 implies same group at level l.
        for (NodeId x : g.nodes()) {
            for (NodeId y : g.nodes()) {
                if (hier.groupOf(x, l - 1) == hier.groupOf(y, l - 1)) {
                    EXPECT_EQ(hier.groupOf(x, l), hier.groupOf(y, l));
                }
            }
        }
        EXPECT_LE(hier.numGroups(l), hier.numGroups(l - 1));
    }
}

TEST(Coarsen, MembersOfGroup)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::IntAlu, {"a"});
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto hier = coarsen(g, m, 4, computeEdgeWeights(g, m));
    const auto members = hier.membersOf(b.id("a"), 0);
    EXPECT_EQ(members.size(), 1u);
}

TEST(Coarsen, FoldedParallelEdgesDecideTheNextLevel)
{
    // Three heavy pairs contract at level 1. Between the macros, AB
    // and CD are joined by two light edges (a-c, b-d) that fold into
    // one of weight 20, and AB and EF by a single edge of weight 15.
    // The one level-2 contraction must take the folded edge; either
    // light edge alone would lose to a-e.
    DdgBuilder b;
    for (const char *n : {"a", "b", "c", "d", "e", "f"})
        b.op(n, OpClass::IntAlu);
    std::vector<long long> w;
    auto edge = [&](const char *src, const char *dst, long long weight) {
        const EdgeId e = b.flow(src, dst);
        if (w.size() <= static_cast<std::size_t>(e))
            w.resize(static_cast<std::size_t>(e) + 1, 0);
        w[e] = weight;
    };
    edge("a", "b", 100);
    edge("c", "d", 100);
    edge("e", "f", 100);
    edge("a", "c", 10);
    edge("b", "d", 10);
    edge("a", "e", 15);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto hier = coarsen(g, m, 8, w);

    ASSERT_EQ(hier.numLevels(), 3);
    EXPECT_EQ(hier.numGroups(1), 3);
    EXPECT_EQ(hier.numGroups(2), 2);
    auto group = [&](const char *n) { return hier.groupOf(b.id(n), 2); };
    EXPECT_EQ(group("a"), group("c"));
    EXPECT_EQ(group("b"), group("d"));
    EXPECT_EQ(group("a"), group("b"));
    EXPECT_EQ(group("e"), group("f"));
    EXPECT_NE(group("a"), group("e"));
}

TEST(Multilevel, UnifiedPutsEverythingInClusterZero)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("c", OpClass::FpAlu, {"a"});
    const Ddg g = b.take();
    const auto pr =
        multilevelPartition(g, MachineConfig::unified(), 1);
    for (NodeId n : g.nodes())
        EXPECT_EQ(pr.partition.clusterOf(n), 0);
}

TEST(Multilevel, KeepsConnectedChainsTogether)
{
    // Two independent chains on a 2-cluster machine must land in
    // separate clusters: zero communications.
    DdgBuilder b;
    for (int c = 0; c < 2; ++c) {
        const std::string p = "c" + std::to_string(c) + "_";
        b.op(p + "0", OpClass::Load);
        for (int i = 1; i < 5; ++i) {
            b.op(p + std::to_string(i), OpClass::FpAlu,
                 {p + std::to_string(i - 1)});
        }
    }
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    const auto pr = multilevelPartition(g, m, minimumIi(g, m));
    EXPECT_EQ(findCommunications(g, pr.partition.vec()).count(), 0);
}

TEST(Multilevel, AssignsEveryNode)
{
    const auto loops = buildBenchmark("hydro2d");
    const auto m = MachineConfig::fromString("4c2b2l64r");
    for (std::size_t i = 0; i < 5 && i < loops.size(); ++i) {
        const Ddg &g = loops[i].ddg;
        const auto pr = multilevelPartition(g, m, minimumIi(g, m));
        for (NodeId n : g.nodes()) {
            const int c = pr.partition.clusterOf(n);
            EXPECT_GE(c, 0);
            EXPECT_LT(c, 4);
        }
    }
}

TEST(Refine, NeverWorsensTheMetric)
{
    const auto loops = buildBenchmark("wave5");
    const auto m = MachineConfig::fromString("4c1b2l64r");
    for (std::size_t i = 0; i < 5 && i < loops.size(); ++i) {
        const Ddg &g = loops[i].ddg;
        const int ii = minimumIi(g, m);
        // Degenerate start: everything in cluster 0.
        Partition p(4, g.numNodeSlots());
        for (NodeId n : g.nodes())
            p.assign(n, 0);
        PseudoScratch scratch;
        const auto before = pseudoSchedule(g, m, p.vec(), ii, scratch);
        const Partition refined = refinePartition(g, m, p, ii);
        const auto after =
            pseudoSchedule(g, m, refined.vec(), ii, scratch);
        EXPECT_FALSE(before.better(after));
    }
}

/** Outcome of a refinement, with its probe and commit counts. */
struct RefineRun
{
    std::vector<int> assign;
    std::uint64_t probes = 0;
    std::uint64_t commits = 0;
};

/**
 * Reference hill-climb: every pass probes every node until a full
 * pass commits nothing (no converged-tail stop), at most
 * @p max_passes passes.
 */
RefineRun
referenceRefine(const Ddg &ddg, const MachineConfig &mach,
                const std::vector<int> &initial, int ii,
                int max_passes = 4)
{
    PseudoScratch s;
    PseudoResult best = s.bind(ddg, mach, initial, ii);
    for (int pass = 0; pass < max_passes; ++pass) {
        bool improved = false;
        for (NodeId n : ddg.nodes()) {
            if (ddg.node(n).cls == OpClass::Copy)
                continue;
            const int home = s.assignment()[n];
            int best_cluster = home;
            for (int c = 0; c < mach.numClusters(); ++c) {
                if (c == home || c == best_cluster)
                    continue;
                PseudoResult r;
                if (s.probeMove(n, c, best, r)) {
                    best = r;
                    best_cluster = c;
                }
            }
            if (best_cluster != home) {
                s.commitMove(n, best_cluster);
                improved = true;
            }
        }
        if (!improved)
            break;
    }
    return {s.assignment(), s.probeCount(), s.commitCount()};
}

TEST(Refine, MatchesFullPassReference)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(4242);
    std::uint64_t ref_probes = 0, probes = 0, committing = 0;
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        for (int index = 0; index < 2; ++index) {
            const Loop loop = generateLoop(profiles[pi], rng, index);
            const Ddg &g = loop.ddg;
            for (const char *cfg : {"2c1b2l64r", "4c2b2l64r"}) {
                const auto m = MachineConfig::fromString(cfg);
                const int mii = minimumIi(g, m);
                Partition start(m.numClusters(), g.numNodeSlots());
                for (NodeId n : g.nodes()) {
                    start.assign(n, static_cast<int>(rng.uniformInt(
                                        0, m.numClusters() - 1)));
                }
                for (int ii : {mii, mii + 1}) {
                    const RefineRun ref =
                        referenceRefine(g, m, start.vec(), ii);
                    PseudoScratch scratch;
                    const Partition got =
                        refinePartition(g, m, start, ii, &scratch);
                    for (NodeId n : g.nodes()) {
                        ASSERT_EQ(got.clusterOf(n), ref.assign[n])
                            << loop.name() << " on " << cfg << " at II "
                            << ii << ", node " << n;
                    }
                    EXPECT_EQ(scratch.commitCount(), ref.commits)
                        << loop.name() << " on " << cfg;
                    EXPECT_LE(scratch.probeCount(), ref.probes)
                        << loop.name() << " on " << cfg;
                    ref_probes += ref.probes;
                    probes += scratch.probeCount();
                    committing += ref.commits > 0;
                }
            }
        }
    }
    // The walk covered climbs that commit, and the stop saved probes.
    EXPECT_GT(committing, 0u);
    EXPECT_LT(probes, ref_probes);
}

TEST(Refine, SplitsOverloadedCluster)
{
    DdgBuilder b;
    for (int i = 0; i < 8; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    const auto m = MachineConfig::fromString("4c1b2l64r");
    Partition p(4, g.numNodeSlots());
    for (NodeId n : g.nodes())
        p.assign(n, 0);
    const Partition refined = refinePartition(g, m, p, 2);
    // 8 loads, 1 port per cluster, II=2: needs all 4 clusters.
    const auto counts = refined.opCounts(g);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(counts[c], 2);
}

} // namespace
} // namespace cvliw
