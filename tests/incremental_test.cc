/**
 * @file
 * Tests for the incremental refinement engine and the config-keyed
 * caches:
 *  - the delta move evaluation (PseudoScratch::probeMove), bind()
 *    and the incremental communication count stay bit-identical to
 *    the from-scratch pseudoSchedule / findCommunications oracles
 *    over random move sequences on generated loops, including a
 *    register-starved config where the register sweep decides
 *    probes, a machine with no units of one kind, and one scratch
 *    rebound across graphs and machines,
 *  - CommInfo::update patches exactly to what a full rescan computes,
 *  - AnalysisCache / SchedulerCache never reuse results across
 *    machine configs (the generation-only-key regression).
 */

#include <gtest/gtest.h>

#include "ddg/builder.hh"
#include "partition/multilevel.hh"
#include "partition/partition.hh"
#include "sched/comms.hh"
#include "sched/mii.hh"
#include "sched/pseudo.hh"
#include "sched/scheduler.hh"
#include "sched/sms_order.hh"
#include "workloads/generator.hh"
#include "workloads/profiles.hh"

namespace cvliw
{
namespace
{

void
expectSameResult(const PseudoResult &a, const PseudoResult &b,
                 const char *what)
{
    EXPECT_EQ(a.iiPart, b.iiPart) << what;
    EXPECT_EQ(a.overflow, b.overflow) << what;
    EXPECT_EQ(a.regOverflow, b.regOverflow) << what;
    EXPECT_EQ(a.length, b.length) << what;
    EXPECT_EQ(a.comms, b.comms) << what;
    EXPECT_EQ(a.imbalance, b.imbalance) << what;
}

void
expectSameComms(const CommInfo &a, const CommInfo &b, const char *what)
{
    EXPECT_EQ(a.producers, b.producers) << what;
    EXPECT_EQ(a.targetClusters, b.targetClusters) << what;
    EXPECT_EQ(a.communicated, b.communicated) << what;
}

/** What a random move walk exercised, summed over walks. */
struct ProbeStats
{
    // Probes whose oracle result has a register-width deficit.
    int regAccepted = 0;
    int regRejected = 0;
    /** Rejected, but would win with the deficit taken as 0. */
    int regRejectedBySweep = 0;
    /** Probes the O(1) capacity bound decides (see pseudo.hh). */
    int capacityRejects = 0;
    /** Accepted moves of a node whose kind has no units. */
    int zeroUnitAccepted = 0;
};

/**
 * Walk 80 random single-node moves of @p loop on @p m at @p ii from
 * @p start (a random assignment when null), checking every probe, and
 * the bind() results at the start and the end, against the
 * from-scratch oracle. @p inc may carry a binding of another graph or
 * machine from an earlier walk.
 */
void
checkRandomMoves(const Loop &loop, const MachineConfig &m, int ii,
                 PseudoScratch &inc, Rng &rng, ProbeStats &stats,
                 const std::vector<int> *start = nullptr)
{
    const auto nodes = loop.ddg.nodes().toVector();

    std::vector<int> assign(loop.ddg.numNodeSlots(), 0);
    if (start) {
        assign = *start;
    } else {
        for (NodeId n : nodes) {
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));
        }
    }

    PseudoScratch oracle;
    PseudoResult best = inc.bind(loop.ddg, m, assign, ii);
    expectSameResult(best,
                     pseudoSchedule(loop.ddg, m, assign, ii, oracle),
                     loop.name().c_str());

    for (int step = 0; step < 80; ++step) {
        const NodeId n = nodes[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(nodes.size()) - 1))];
        if (loop.ddg.node(n).cls == OpClass::Copy)
            continue;
        const int c =
            static_cast<int>(rng.uniformInt(0, m.numClusters() - 1));
        if (c == inc.assignment()[n])
            continue;

        std::vector<int> moved = inc.assignment();
        moved[n] = c;
        const PseudoResult full =
            pseudoSchedule(loop.ddg, m, moved, ii, oracle);

        // Does the O(1) bound decide this probe? Count n's kind on c
        // after the move, from the oracle's side.
        const ResourceKind kind = m.resourceFor(loop.ddg.node(n).cls);
        const int units = m.available(kind);
        int u = 0;
        for (NodeId v : nodes) {
            if (moved[v] == c &&
                loop.ddg.node(v).cls != OpClass::Copy &&
                m.resourceFor(loop.ddg.node(v).cls) == kind)
                ++u;
        }
        if (units > 0 && (u + units - 1) / units > best.iiPart)
            ++stats.capacityRejects;

        PseudoResult out;
        const bool accepted = inc.probeMove(n, c, best, out);
        ASSERT_EQ(accepted, full.better(best))
            << loop.name() << " step " << step;
        if (full.regOverflow > 0) {
            PseudoResult width0 = full;
            width0.regOverflow = 0;
            ++(accepted ? stats.regAccepted : stats.regRejected);
            if (!accepted && width0.better(best))
                ++stats.regRejectedBySweep;
        }
        if (accepted && units == 0)
            ++stats.zeroUnitAccepted;
        if (accepted) {
            expectSameResult(out, full, loop.name().c_str());
            best = out;
            inc.commitMove(n, c);
        } else if (step % 5 == 0) {
            // Also walk through non-improving states so the
            // sequence is not a pure hill-climb.
            inc.commitMove(n, c);
            best = full;
        }

        ASSERT_EQ(inc.commCount(),
                  findCommunications(loop.ddg, inc.assignment()).count())
            << loop.name() << " step " << step;
    }

    // Rebinding the walked-to assignment at the next II agrees too.
    const std::vector<int> reached = inc.assignment();
    expectSameResult(inc.bind(loop.ddg, m, reached, ii + 1),
                     pseudoSchedule(loop.ddg, m, reached, ii + 1, oracle),
                     loop.name().c_str());
}

TEST(Incremental, DeltaPseudoMatchesOracleOnRandomMoves)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(2026);
    ProbeStats stats;
    for (std::size_t pi = 0; pi < profiles.size(); pi += 3) {
        const Loop loop = generateLoop(profiles[pi], rng, 0);
        for (const char *cfg : {"2c1b2l64r", "4c2b4l64r"}) {
            const auto m = MachineConfig::fromString(cfg);
            PseudoScratch inc;
            checkRandomMoves(loop, m, minimumIi(loop.ddg, m), inc, rng,
                             stats);
        }
    }

    // A register-starved config, on every profile: the probes the
    // register sweep decides must be exercised, accepted and
    // rejected, so that branch cannot go silently dead.
    const auto starved = MachineConfig::fromString("2c1b2l16r");
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        for (int index = 0; index < 3; ++index) {
            const Loop loop = generateLoop(profiles[pi], rng, index);
            PseudoScratch inc;
            checkRandomMoves(loop, starved, minimumIi(loop.ddg, starved),
                             inc, rng, stats);
        }
    }
    EXPECT_GT(stats.regAccepted, 0);
    EXPECT_GT(stats.regRejected, 0);
    EXPECT_GT(stats.regRejectedBySweep, 0);
}

TEST(Incremental, ProbePathMatchesOracleOnSharedScratch)
{
    // One scratch rebound across loops and two machines, so a
    // snapshot that outlived its bind() would show. The custom
    // machine has no FP units: FP ops take the 1000 * u overflow
    // penalty, where the O(1) capacity reject must not fire. Its II
    // comes from 4c2b2l64r (the zero-unit machine has no ResMII).
    // On 4c2b2l64r the walks start from the multilevel partition,
    // where bus pressure is low enough for the capacity bound to
    // decide probes; random starts are bus-bound.
    const auto clustered = MachineConfig::fromString("4c2b2l64r");
    const auto no_fp = MachineConfig::custom(
        2, ClusterResources{2, 0, 2, 0}, 1, 1, 64);
    const auto &profiles = specFp95Profiles();
    Rng rng(1313);
    PseudoScratch inc;
    ProbeStats stats;
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        for (int index = 0; index < 2; ++index) {
            const Loop loop = generateLoop(profiles[pi], rng, index);
            const int ii = minimumIi(loop.ddg, clustered);
            checkRandomMoves(loop, no_fp, ii, inc, rng, stats);
            const std::vector<int> start =
                multilevelPartition(loop.ddg, clustered, ii)
                    .partition.vec();
            checkRandomMoves(loop, clustered, ii, inc, rng, stats,
                             &start);
        }
    }
    EXPECT_GT(stats.capacityRejects, 0);
    EXPECT_GT(stats.zeroUnitAccepted, 0);
}

TEST(Incremental, CommInfoUpdateMatchesRescanOnRandomMoves)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(77);
    for (std::size_t pi = 0; pi < profiles.size(); pi += 4) {
        const Loop loop = generateLoop(profiles[pi], rng, 1);
        const auto nodes = loop.ddg.nodes().toVector();
        const auto m = MachineConfig::fromString("4c2b2l64r");

        std::vector<int> assign(loop.ddg.numNodeSlots(), 0);
        for (NodeId n : nodes) {
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));
        }
        CommInfo inc = findCommunications(loop.ddg, assign);

        for (int step = 0; step < 120; ++step) {
            const NodeId n = nodes[static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<int>(nodes.size()) - 1))];
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));

            // Moving n changes its own targets and its producers'.
            std::vector<NodeId> touched{n};
            for (NodeId p : loop.ddg.flowPreds(n))
                touched.push_back(p);
            inc.update(loop.ddg, assign, touched);

            expectSameComms(inc,
                            findCommunications(loop.ddg, assign),
                            loop.name().c_str());
        }
    }
}

TEST(Incremental, CommInfoUpdateHandlesGraphEdits)
{
    // Edit the graph the way the replicator does: add a replica,
    // rewire a consumer, remove a dead node.
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("x", OpClass::IntAlu, {"a"});
    b.op("s", OpClass::Store, {"x"});
    Ddg g = b.take();
    const NodeId a = 0, x = 1, s = 2;

    std::vector<int> assign{0, 1, 1};
    CommInfo inc = findCommunications(g, assign);
    EXPECT_EQ(inc.count(), 1); // a -> x crosses clusters

    // Replicate a into cluster 1 and rewire x to it.
    const NodeId r = g.addReplica(a, ".r1");
    assign.resize(g.numNodeSlots(), -1);
    assign[r] = 1;
    for (EdgeId eid : g.inEdges(x).toVector()) {
        if (g.edge(eid).src == a)
            g.removeEdge(eid);
    }
    g.addEdge(r, x, EdgeKind::RegFlow);
    inc.update(g, assign, {a, r, x});
    expectSameComms(inc, findCommunications(g, assign), "rewired");
    EXPECT_EQ(inc.count(), 0);

    // Now a is dead: remove it.
    g.removeNode(a);
    inc.update(g, assign, {a});
    expectSameComms(inc, findCommunications(g, assign), "removed");
    (void)s;
}

TEST(ConfigKeyedCaches, AnalysisTimesNotReusedAcrossConfigs)
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("m", OpClass::FpMul, {"ld"});
    b.op("st", OpClass::Store, {"m"});
    const Ddg g = b.take();

    const auto slow = MachineConfig::fromString("4c2b4l64r");
    auto fast = MachineConfig::fromString("4c2b4l64r");
    fast.setLatency(OpClass::Load, 1);
    fast.setLatency(OpClass::FpMul, 1);

    AnalysisCache cache;
    const NodeTimes t_slow = cache.times(g, slow); // copy: the slot
                                                   // is overwritten
    EXPECT_EQ(t_slow.asap[1], slow.latency(OpClass::Load));

    // Same cache, same graph generation, different machine: the key
    // regression was returning the slow-machine times here.
    const NodeTimes &t_fast = cache.times(g, fast);
    EXPECT_EQ(t_fast.asap[1], 1);
    EXPECT_NE(t_fast.asap[2], t_slow.asap[2]);

    // And switching back recomputes again instead of mixing.
    EXPECT_EQ(cache.times(g, slow).asap[1],
              slow.latency(OpClass::Load));
}

TEST(ConfigKeyedCaches, SchedulerOrderNotReusedAcrossConfigs)
{
    const auto &profiles = specFp95Profiles();
    Rng rng(5);
    const Loop loop = generateLoop(profiles[0], rng, 0);

    const auto a = MachineConfig::fromString("4c2b4l64r");
    auto bcfg = MachineConfig::fromString("4c2b4l64r");
    bcfg.setLatency(OpClass::Load, 9);
    bcfg.setLatency(OpClass::FpAlu, 1);

    SchedulerCache shared;
    const auto order_a = shared.order(loop.ddg, a);
    AnalysisCache fresh_b;
    const auto expect_b = smsOrder(loop.ddg, bcfg, fresh_b);
    EXPECT_EQ(shared.order(loop.ddg, bcfg), expect_b);

    AnalysisCache fresh_a;
    EXPECT_EQ(shared.order(loop.ddg, a),
              smsOrder(loop.ddg, a, fresh_a));
    (void)order_a;
}

TEST(ConfigKeyedCaches, ConfigIdentityStamps)
{
    const auto a = MachineConfig::fromString("4c2b4l64r");
    const auto b = MachineConfig::fromString("4c2b4l64r");
    // Same name, separate constructions: distinct machines as far as
    // caches are concerned.
    EXPECT_NE(a.id(), b.id());

    // Copies describe the same machine and share the stamp.
    const MachineConfig c = a;
    EXPECT_EQ(c.id(), a.id());

    // A latency override changes analysis-relevant behaviour.
    auto d = a;
    d.setLatency(OpClass::Load, 7);
    EXPECT_NE(d.id(), a.id());
}

} // namespace
} // namespace cvliw
