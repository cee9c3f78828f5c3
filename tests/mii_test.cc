/**
 * @file
 * ResMII / MII tests.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "sched/mii.hh"

namespace cvliw
{
namespace
{

TEST(ResMii, EmptyishGraphIsOne)
{
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    EXPECT_EQ(resourceMii(b.take(), MachineConfig::unified()), 1);
}

TEST(ResMii, MemoryBound)
{
    // 9 loads on a machine with 4 total memory ports -> ceil(9/4)=3.
    DdgBuilder b;
    for (int i = 0; i < 9; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    EXPECT_EQ(resourceMii(g, MachineConfig::unified()), 3);
    // Clustering does not change the pooled resource bound.
    EXPECT_EQ(resourceMii(g, MachineConfig::fromString("4c1b2l64r")),
              3);
}

TEST(ResMii, PerKindMaximum)
{
    DdgBuilder b;
    for (int i = 0; i < 5; ++i)
        b.op("f" + std::to_string(i), OpClass::FpAlu);
    b.op("ld", OpClass::Load);
    const Ddg g = b.take();
    // 5 fp ops / 4 fp units = 2; 1 load / 4 ports = 1.
    EXPECT_EQ(resourceMii(g, MachineConfig::unified()), 2);
}

TEST(ResMii, UniversalFusPoolEverything)
{
    DdgBuilder b;
    for (int i = 0; i < 9; ++i)
        b.op("x" + std::to_string(i), OpClass::FpMul);
    // 2 clusters x 4 universal FUs = 8 units -> ceil(9/8) = 2.
    const auto m = MachineConfig::universal(2, 4, 1, 1, 64);
    EXPECT_EQ(resourceMii(b.take(), m), 2);
}

TEST(Mii, MaxOfResourceAndRecurrence)
{
    DdgBuilder b;
    b.op("acc", OpClass::FpDiv); // RecMII 18 via self loop
    b.flow("acc", "acc", 1);
    b.op("ld", OpClass::Load);
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    EXPECT_EQ(resourceMii(g, m), 1);
    EXPECT_EQ(minimumIi(g, m), 18);
}

TEST(Mii, ResourceDominated)
{
    DdgBuilder b;
    for (int i = 0; i < 12; ++i)
        b.op("ld" + std::to_string(i), OpClass::Load);
    const Ddg g = b.take();
    EXPECT_EQ(minimumIi(g, MachineConfig::unified()), 3);
}

TEST(Mii, CopiesAreIgnored)
{
    Ddg g;
    const NodeId a = g.addNode(OpClass::IntAlu, "a");
    const NodeId c = g.addNode(OpClass::Copy, "a.copy");
    g.addEdge(a, c, EdgeKind::RegFlow, 0);
    EXPECT_EQ(resourceMii(g, MachineConfig::fromString("2c1b2l64r")),
              1);
}

TEST(ResMii, MissingUnitIsATypedError)
{
    // No FP unit anywhere: no II can fit the loop. The caller gets a
    // typed error (an invalid_argument) instead of a process exit.
    DdgBuilder b;
    b.op("f0", OpClass::FpAlu);
    b.op("f1", OpClass::FpAlu, {"f0"});
    const Ddg g = b.take();
    const auto no_fp =
        MachineConfig::custom(2, ClusterResources{2, 0, 2, 0}, 1, 1, 32);
    EXPECT_THROW(resourceMii(g, no_fp), MachineLacksUnit);
    EXPECT_THROW(minimumIi(g, no_fp), std::invalid_argument);

    // A loop that only needs the units the machine has is fine.
    DdgBuilder ib;
    ib.op("i0", OpClass::IntAlu);
    ib.op("ld", OpClass::Load, {"i0"});
    EXPECT_EQ(resourceMii(ib.take(), no_fp), 1);
}

TEST(Mii, CachedMatchesUncached)
{
    // minimumIi with a memo runs the same kernel as without one, and
    // leaves the SCCs and per-component RecMII in it for the
    // scheduler.
    DdgBuilder b;
    b.op("x", OpClass::FpMul);        // 6
    b.op("y", OpClass::FpAlu, {"x"}); // 3
    b.flow("y", "x", 1);              // RecMII 9
    b.op("acc", OpClass::IntAlu);
    b.flow("acc", "acc", 2);          // RecMII 1
    const Ddg g = b.take();
    const auto m = MachineConfig::unified();
    AnalysisCache cache;
    EXPECT_EQ(minimumIi(g, m, &cache), 9);
    EXPECT_EQ(minimumIi(g, m), 9);
    const auto &comp = cache.scc(g);
    const auto &rec = cache.componentRecMii(g, m);
    EXPECT_EQ(rec[comp[b.id("x")]], 9);
    EXPECT_EQ(comp[b.id("x")], comp[b.id("y")]);
    EXPECT_EQ(rec[comp[b.id("acc")]], 1);
}

} // namespace
} // namespace cvliw
