/**
 * @file
 * Replication subgraph tests (Figure 4): minimal parent sets,
 * communicated-parent cut-off, per-cluster instance reuse and
 * recurrence subgraphs.
 */

#include <gtest/gtest.h>

#include "core/subgraph.hh"
#include "paper_graph.hh"
#include "sched/comms.hh"

namespace cvliw
{
namespace
{

TEST(Subgraph, PaperSD)
{
    PaperExample ex;
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    ReplicaIndex index(ex.ddg, ex.part);
    const auto sd = findReplicationSubgraph(
        ex.ddg, ex.part, ex.id("D"), comms.communicated, index);

    // S_D = {D, B, C, A}, all into cluster 4 (our cluster 3).
    EXPECT_EQ(sd.targetClusters, std::vector<int>{3});
    EXPECT_EQ(sd.numMembers(), 4);
    for (const char *n : {"D", "B", "C", "A"}) {
        EXPECT_TRUE(sd.contains(ex.id(n))) << n;
        EXPECT_EQ(sd.clustersOf(ex.id(n)).toVector(),
                  std::vector<int>{3});
    }
    EXPECT_FALSE(sd.contains(ex.id("E")));
    EXPECT_EQ(sd.totalNewInstances(), 4);
}

TEST(Subgraph, PaperSEStopsAtCommunicatedD)
{
    PaperExample ex;
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    ReplicaIndex index(ex.ddg, ex.part);
    const auto se = findReplicationSubgraph(
        ex.ddg, ex.part, ex.id("E"), comms.communicated, index);

    // S_E = {E, A}: D is not included because its value is already
    // communicated (available in the other clusters).
    EXPECT_EQ(se.targetClusters, (std::vector<int>{1, 3}));
    EXPECT_EQ(se.numMembers(), 2);
    EXPECT_EQ(se.clustersOf(ex.id("E")).toVector(),
              (std::vector<int>{1, 3}));
    EXPECT_EQ(se.clustersOf(ex.id("A")).toVector(),
              (std::vector<int>{1, 3}));
    EXPECT_FALSE(se.contains(ex.id("D")));
    EXPECT_EQ(se.totalNewInstances(), 4);
}

TEST(Subgraph, PaperSJ)
{
    PaperExample ex;
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    ReplicaIndex index(ex.ddg, ex.part);
    const auto sj = findReplicationSubgraph(
        ex.ddg, ex.part, ex.id("J"), comms.communicated, index);

    // S_J = {J, I} into clusters 1 and 4 (ours 0 and 3); E is
    // communicated and therefore excluded.
    EXPECT_EQ(sj.targetClusters, (std::vector<int>{0, 3}));
    EXPECT_EQ(sj.numMembers(), 2);
    EXPECT_EQ(sj.clustersOf(ex.id("J")).toVector(),
              (std::vector<int>{0, 3}));
    EXPECT_EQ(sj.clustersOf(ex.id("I")).toVector(),
              (std::vector<int>{0, 3}));
    EXPECT_EQ(sj.totalNewInstances(), 4);
}

TEST(Subgraph, ExistingInstancesNotRequired)
{
    PaperExample ex;
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    ReplicaIndex index(ex.ddg, ex.part);
    // Pretend A already has replicas everywhere (as after S_E).
    const NodeId fake1 = ex.ddg.addReplica(ex.id("A"), ".r1");
    ex.part.assign(fake1, 1);
    index.addInstance(ex.id("A"), 1, fake1);
    const NodeId fake3 = ex.ddg.addReplica(ex.id("A"), ".r3");
    ex.part.assign(fake3, 3);
    index.addInstance(ex.id("A"), 3, fake3);

    const auto sd = findReplicationSubgraph(
        ex.ddg, ex.part, ex.id("D"), comms.communicated, index);
    // A no longer needs replication: S_D = {D, B, C}.
    EXPECT_EQ(sd.numMembers(), 3);
    EXPECT_FALSE(sd.contains(ex.id("A")));
}

TEST(Subgraph, TargetOverrideRestrictsClusters)
{
    PaperExample ex;
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    ReplicaIndex index(ex.ddg, ex.part);
    const auto se = findReplicationSubgraph(
        ex.ddg, ex.part, ex.id("E"), comms.communicated, index, {},
        {1});
    EXPECT_EQ(se.targetClusters, std::vector<int>{1});
    EXPECT_EQ(se.clustersOf(ex.id("E")).toVector(),
              std::vector<int>{1});
    EXPECT_EQ(se.totalNewInstances(), 2);
}

TEST(Subgraph, RecurrenceReplicatesWholeCycle)
{
    // com on a recurrence pulls the whole cycle in (the replica set
    // must compute the same sequence independently).
    DdgBuilder b;
    b.op("x", OpClass::FpAlu);
    b.op("y", OpClass::FpAlu, {"x"});
    b.flow("y", "x", 1);
    b.op("w", OpClass::FpAlu, {"y"});
    Ddg g = b.take();
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("x"), 0);
    p.assign(b.id("y"), 0);
    p.assign(b.id("w"), 1);

    const auto comms = findCommunications(g, p.vec());
    ReplicaIndex index(g, p);
    const auto sy = findReplicationSubgraph(
        g, p, b.id("y"), comms.communicated, index);
    EXPECT_TRUE(sy.contains(b.id("y")));
    EXPECT_TRUE(sy.contains(b.id("x")));
    EXPECT_EQ(sy.totalNewInstances(), 2);
}

TEST(Subgraph, LoadsAreReplicableAndStopAtNothing)
{
    // Loads replicate fine (centralized memory). The walk follows
    // register operands only.
    DdgBuilder b;
    b.op("addr", OpClass::IntAlu);
    b.op("ld", OpClass::Load, {"addr"});
    b.op("w", OpClass::FpAlu, {"ld"});
    Ddg g = b.take();
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("addr"), 0);
    p.assign(b.id("ld"), 0);
    p.assign(b.id("w"), 1);
    const auto comms = findCommunications(g, p.vec());
    ReplicaIndex index(g, p);
    const auto s = findReplicationSubgraph(
        g, p, b.id("ld"), comms.communicated, index);
    EXPECT_TRUE(s.contains(b.id("ld")));
    EXPECT_TRUE(s.contains(b.id("addr")));
}

TEST(Subgraph, MemoryParentsNotPulledIn)
{
    DdgBuilder b;
    b.op("v", OpClass::IntAlu);
    b.op("st", OpClass::Store, {"v"});
    b.op("ld", OpClass::Load);
    b.mem("st", "ld", 1); // store feeds load through memory
    b.op("w", OpClass::FpAlu, {"ld"});
    Ddg g = b.take();
    Partition p(2, g.numNodeSlots());
    p.assign(b.id("v"), 0);
    p.assign(b.id("st"), 0);
    p.assign(b.id("ld"), 0);
    p.assign(b.id("w"), 1);
    const auto comms = findCommunications(g, p.vec());
    ReplicaIndex index(g, p);
    const auto s = findReplicationSubgraph(
        g, p, b.id("ld"), comms.communicated, index);
    // The store is NOT replicated; the load alone suffices.
    EXPECT_EQ(s.numMembers(), 1);
    EXPECT_TRUE(s.contains(b.id("ld")));
}

TEST(ReplicaIndex, TracksInstances)
{
    PaperExample ex;
    ReplicaIndex index(ex.ddg, ex.part);
    EXPECT_TRUE(index.hasInstance(ex.id("A"), 2));
    EXPECT_FALSE(index.hasInstance(ex.id("A"), 0));
    EXPECT_EQ(index.instance(ex.id("A"), 2), ex.id("A"));
    index.addInstance(ex.id("A"), 0, 99);
    EXPECT_EQ(index.instance(ex.id("A"), 0), 99);
    index.removeInstance(ex.id("A"), 0);
    EXPECT_FALSE(index.hasInstance(ex.id("A"), 0));
}

} // namespace
} // namespace cvliw
