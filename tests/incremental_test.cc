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
 *    rebound across graphs and machines; and over every probe of
 *    hand-built loops with parallel flow edges and a self-loop,
 *  - every branch of the probe path is taken (the read-only verdict,
 *    the full path, a suffix ASAP, a rebase at commit),
 *  - the difference-array register sweep agrees with the sorted
 *    event sweep it replaced,
 *  - CommInfo::update patches exactly to what a full rescan computes,
 *  - AnalysisCache / SchedulerCache never reuse results across
 *    machine configs (the generation-only-key regression).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "ddg/analysis.hh"
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
    // Branches of the probe path, read from the engine's counters.
    /** Rejected by the read-only verdict on the cheap fields. */
    int verdictRejects = 0;
    /** Left open by that verdict: applied and evaluated. */
    int fullEvals = 0;
    /** Ran ASAP from a topological position past 0. */
    int suffixAsaps = 0;
    /** Commits that rebased the ASAP base. */
    int rebases = 0;
};

/** Is the probe of moving @p n to @p c decided by the O(1) bound? */
bool
capacityDecides(const Ddg &ddg, const MachineConfig &m,
                const std::vector<int> &moved, NodeId n, int c,
                const PseudoResult &best)
{
    const ResourceKind kind = m.resourceFor(ddg.node(n).cls);
    const int units = m.available(kind);
    int u = 0;
    for (NodeId v : ddg.nodes()) {
        if (moved[v] == c && ddg.node(v).cls != OpClass::Copy &&
            m.resourceFor(ddg.node(v).cls) == kind)
            ++u;
    }
    return units > 0 && (u + units - 1) / units > best.iiPart;
}

/**
 * Probe moving @p n to @p c against @p best on @p inc and on the
 * oracle: the verdict must agree, an accepted result must match, and
 * the engine's branch counters feed @p stats. Returns the verdict.
 */
bool
checkProbe(const Ddg &ddg, const MachineConfig &m, int ii,
           PseudoScratch &inc, NodeId n, int c, const PseudoResult &best,
           ProbeStats &stats, const std::string &what,
           PseudoResult *full_out = nullptr)
{
    PseudoScratch oracle;
    std::vector<int> moved = inc.assignment();
    moved[n] = c;
    const PseudoResult full = pseudoSchedule(ddg, m, moved, ii, oracle);
    if (full_out)
        *full_out = full;
    const bool capacity = capacityDecides(ddg, m, moved, n, c, best);
    if (capacity)
        ++stats.capacityRejects;

    const std::uint64_t full0 = inc.fullEvalCount();
    const std::uint64_t suffix0 = inc.suffixAsapCount();
    PseudoResult out;
    const bool accepted = inc.probeMove(n, c, best, out);
    EXPECT_EQ(accepted, full.better(best))
        << what << ": node " << n << " to " << c;
    if (accepted)
        expectSameResult(out, full, what.c_str());
    const bool evaluated = inc.fullEvalCount() > full0;
    if (evaluated)
        ++stats.fullEvals;
    else if (!accepted && !capacity)
        ++stats.verdictRejects;
    EXPECT_TRUE(evaluated || !accepted) << what;
    if (inc.suffixAsapCount() > suffix0)
        ++stats.suffixAsaps;

    if (full.regOverflow > 0) {
        PseudoResult width0 = full;
        width0.regOverflow = 0;
        ++(accepted ? stats.regAccepted : stats.regRejected);
        if (!accepted && width0.better(best))
            ++stats.regRejectedBySweep;
    }
    if (accepted && m.available(m.resourceFor(ddg.node(n).cls)) == 0)
        ++stats.zeroUnitAccepted;
    return accepted;
}

/** Commit moving @p n to @p c, counting the rebase it must do. */
void
commitCounted(PseudoScratch &inc, NodeId n, int c, ProbeStats &stats)
{
    const std::uint64_t rebases0 = inc.rebaseCount();
    inc.commitMove(n, c);
    if (inc.rebaseCount() > rebases0)
        ++stats.rebases;
}

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

        PseudoResult full;
        const bool accepted =
            checkProbe(loop.ddg, m, ii, inc, n, c, best, stats,
                       loop.name() + " step " + std::to_string(step),
                       &full);
        if (accepted) {
            best = full;
            commitCounted(inc, n, c, stats);
        } else if (step % 5 == 0) {
            // Also walk through non-improving states so the
            // sequence is not a pure hill-climb.
            commitCounted(inc, n, c, stats);
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
    // No branch of the probe path went dead.
    EXPECT_GT(stats.verdictRejects, 0);
    EXPECT_GT(stats.fullEvals, 0);
    EXPECT_GT(stats.suffixAsaps, 0);
    EXPECT_GT(stats.rebases, 0);
}

/**
 * A loop with two register-flow edges p -> n (distance 0 and 1), a
 * self-loop on the value producer acc and a producer (p) with
 * consumers of several kinds, so moves shift a producer's consumer
 * count by 2 and a value's own home interacts with its self-loop.
 */
Ddg
parallelFlowLoop()
{
    DdgBuilder b;
    b.op("ld", OpClass::Load);
    b.op("p", OpClass::FpAlu, {"ld"});
    b.op("n", OpClass::FpMul, {"p"});
    b.flow("p", "n", 1);
    b.op("acc", OpClass::FpAlu, {"n"});
    b.flow("acc", "acc", 1);
    b.op("q", OpClass::IntAlu, {"ld"});
    b.op("r", OpClass::IntAlu, {"q", "p"});
    b.op("st", OpClass::Store, {"acc"});
    return b.take();
}

/**
 * Nine independent ops, three of every kind: several (kind, cluster)
 * cells share the resource II, no move ever communicates (so the bus
 * never masks the resource II), and a move that drains one of the
 * cells must leave the II where the others hold it.
 */
Ddg
tiedPressureLoop()
{
    DdgBuilder b;
    for (int i = 0; i < 3; ++i) {
        const std::string k = std::to_string(i);
        b.op("ld" + k, OpClass::Load);
        b.op("a" + k, OpClass::IntAlu);
        b.op("f" + k, OpClass::FpAlu);
    }
    return b.take();
}

/**
 * Bind @p assign on @p inc, then check every (node, cluster) probe
 * against the oracle, once against the bound result and once against
 * @p other (a different best, so ties and wins on every field occur).
 */
void
checkEveryProbe(const Ddg &g, const MachineConfig &m, int ii,
                PseudoScratch &inc, const std::vector<int> &assign,
                const PseudoResult &other, ProbeStats &stats,
                const std::string &what)
{
    PseudoScratch oracle;
    const PseudoResult bound = inc.bind(g, m, assign, ii);
    expectSameResult(bound, pseudoSchedule(g, m, assign, ii, oracle),
                     what.c_str());
    for (const PseudoResult &best : {bound, other}) {
        for (NodeId n : g.nodes()) {
            for (int c = 0; c < m.numClusters(); ++c) {
                if (c != inc.assignment()[n])
                    checkProbe(g, m, ii, inc, n, c, best, stats, what);
            }
        }
    }
}

/**
 * Check every probe of @p g on roomy and register-starved files, on 2
 * and 4 clusters: from every assignment on 2 clusters and a sample on
 * 4, then again after a committed move.
 */
void
checkHandBuiltLoop(const Ddg &g, Rng &rng, PseudoScratch &inc,
                   ProbeStats &stats)
{
    const auto nodes = g.nodes().toVector();
    for (const char *cfg :
         {"2c1b2l64r", "2c1b2l4r", "4c2b2l64r", "4c1b4l8r"}) {
        const auto m = MachineConfig::fromString(cfg);
        const int clusters = m.numClusters();
        const int mii = minimumIi(g, m);
        const int count = clusters == 2 ? 1 << nodes.size() : 300;
        for (int k = 0; k < count; ++k) {
            std::vector<int> assign(g.numNodeSlots(), 0);
            std::vector<int> other(g.numNodeSlots(), 0);
            for (std::size_t i = 0; i < nodes.size(); ++i) {
                assign[nodes[i]] =
                    clusters == 2 ? (k >> i) & 1
                                  : static_cast<int>(
                                        rng.uniformInt(0, clusters - 1));
                other[nodes[i]] =
                    static_cast<int>(rng.uniformInt(0, clusters - 1));
            }
            const int ii = mii + k % 2;
            PseudoScratch oracle;
            const PseudoResult other_best =
                pseudoSchedule(g, m, other, ii, oracle);
            const std::string what =
                std::string(cfg) + " assignment " + std::to_string(k);
            checkEveryProbe(g, m, ii, inc, assign, other_best, stats,
                            what);

            // A committed move rebases the engine; every probe from
            // the moved state must still agree.
            const NodeId n = nodes[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(nodes.size()) - 1))];
            const int c = (inc.assignment()[n] + 1) % clusters;
            commitCounted(inc, n, c, stats);
            EXPECT_EQ(inc.commCount(),
                      findCommunications(g, inc.assignment()).count())
                << what;
            const PseudoResult moved =
                pseudoSchedule(g, m, inc.assignment(), ii, oracle);
            for (NodeId v : nodes) {
                for (int to = 0; to < clusters; ++to) {
                    if (to != inc.assignment()[v])
                        checkProbe(g, m, ii, inc, v, to, moved, stats,
                                   what + " after commit");
                }
            }
        }
    }
}

TEST(Incremental, EveryProbeMatchesOracleOnHandBuiltLoops)
{
    Rng rng(616);
    ProbeStats stats;
    PseudoScratch inc; // one scratch, rebound across both graphs
    checkHandBuiltLoop(parallelFlowLoop(), rng, inc, stats);
    checkHandBuiltLoop(tiedPressureLoop(), rng, inc, stats);
    EXPECT_GT(stats.verdictRejects, 0);
    EXPECT_GT(stats.fullEvals, 0);
    EXPECT_GT(stats.suffixAsaps, 0);
    EXPECT_GT(stats.rebases, 0);
    EXPECT_GT(stats.regAccepted + stats.regRejected, 0);
}

/**
 * The register deficit by the sorted event sweep the pseudo-scheduler
 * used before its difference array: ASAP where cut flow edges pay the
 * bus, one interval per value instance, events sorted by (time,
 * delta) so that ends come before starts at equal times.
 */
int
sortedSweepDeficit(const Ddg &ddg, const MachineConfig &mach,
                   const std::vector<int> &cluster_of)
{
    std::vector<int> est(ddg.numNodeSlots(), 0);
    for (NodeId n : topoOrder(ddg)) {
        for (EdgeId eid : ddg.inEdges(n)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.distance != 0)
                continue;
            int lat = ddg.edgeLatency(eid, mach);
            if (e.kind == EdgeKind::RegFlow &&
                cluster_of[e.src] != cluster_of[e.dst])
                lat += mach.busLatency();
            est[n] = std::max(est[n], est[e.src] + lat);
        }
    }
    const int clusters = mach.numClusters();
    std::vector<std::vector<std::pair<int, int>>> events(clusters);
    std::vector<int> carried(clusters, 0);
    for (NodeId v : ddg.nodes()) {
        const OpClass cls = ddg.node(v).cls;
        if (!producesValue(cls) || cls == OpClass::Copy)
            continue;
        std::vector<int> last(clusters, -1), max_dist(clusters, 0);
        for (EdgeId eid : ddg.outEdges(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (e.kind != EdgeKind::RegFlow)
                continue;
            const int c = cluster_of[e.dst];
            if (e.distance == 0)
                last[c] = std::max(last[c], est[e.dst]);
            else
                max_dist[c] = std::max(max_dist[c], e.distance);
        }
        const int def = est[v] + mach.latency(cls);
        for (int c = 0; c < clusters; ++c) {
            if (last[c] < 0 && max_dist[c] == 0)
                continue;
            const int begin =
                c == cluster_of[v] ? def : def + mach.busLatency();
            if (last[c] > begin) {
                events[c].push_back({begin, +1});
                events[c].push_back({last[c], -1});
            }
            carried[c] += max_dist[c];
        }
    }
    int deficit = 0;
    for (int c = 0; c < clusters; ++c) {
        std::sort(events[c].begin(), events[c].end());
        int live = 0, peak = 0;
        for (const auto &ev : events[c]) {
            live += ev.second;
            peak = std::max(peak, live);
        }
        deficit += std::max(0, peak + carried[c] - mach.regsPerCluster());
    }
    return deficit;
}

TEST(Incremental, WidthSweepMatchesSortedEventOracle)
{
    // The 16-register starved configs, where widths exceed the file:
    // the difference array must report the sorted sweep's deficit,
    // on random assignments and on the multilevel partitions.
    const auto &profiles = specFp95Profiles();
    Rng rng(1616);
    int deficits = 0, checked = 0;
    for (const char *cfg : {"2c1b2l16r", "4c2b2l16r"}) {
        const auto m = MachineConfig::fromString(cfg);
        PseudoScratch scratch;
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            for (int index = 0; index < 2; ++index) {
                const Loop loop = generateLoop(profiles[pi], rng, index);
                const Ddg &g = loop.ddg;
                const int ii = minimumIi(g, m);
                std::vector<std::vector<int>> assigns{
                    multilevelPartition(g, m, ii).partition.vec()};
                for (int k = 0; k < 6; ++k) {
                    std::vector<int> a(g.numNodeSlots(), 0);
                    for (NodeId n : g.nodes()) {
                        a[n] = static_cast<int>(
                            rng.uniformInt(0, m.numClusters() - 1));
                    }
                    assigns.push_back(std::move(a));
                }
                for (const auto &a : assigns) {
                    const int want = sortedSweepDeficit(g, m, a);
                    EXPECT_EQ(pseudoSchedule(g, m, a, ii, scratch)
                                  .regOverflow,
                              want)
                        << loop.name() << " on " << cfg;
                    deficits += want > 0;
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(deficits, 0);
    EXPECT_GT(checked, deficits);
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
