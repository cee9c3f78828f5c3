/**
 * @file
 * Oracle tests for the flat communication layer. The code the flat
 * layer replaced is kept here, test-only, as the oracle:
 *  - the map-based subgraph walk (node -> cluster list, node-sized
 *    flag arrays cleared per target),
 *  - the O(pool) share scan and the per-term Rational weight sum,
 *  - the vector<bool>-per-call removable analysis and the nested
 *    usage capacity check,
 *  - findCommunications / CommInfo::update with one target vector per
 *    producer.
 * An observer checks every replication round of every compile of the
 * seed-42 suite on the three pinned configs (and MacroNode mode on
 * 4c1b2l64r): member lists, exact weights, feasibility and the chosen
 * candidate must all equal the oracle's, recomputed from scratch on
 * the round's graph. CommInfo patches are checked against the old
 * update after random edits, the pass's final CommInfo against a
 * rescan, and an operator-new hook checks that a no-round pass and a
 * communication scan into a reused CommInfo make no heap allocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "core/replicator.hh"
#include "eval/result_cache.hh"
#include "partition/multilevel.hh"
#include "sched/comms.hh"
#include "sched/copies.hh"
#include "sched/mii.hh"
#include "support/rng.hh"
#include "workloads/generator.hh"
#include "workloads/profiles.hh"
#include "workloads/suite_io.hh"

// --- Global operator-new hook (this binary only). --------------------
// The allocation test flips g_count_news on around the calls it
// measures; outside that window the operators are plain malloc/free
// pass-throughs.
namespace
{
std::atomic<bool> g_count_news{false};
std::atomic<std::size_t> g_new_calls{0};
} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_news.load(std::memory_order_relaxed))
        g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cvliw
{
namespace
{

// --- Oracle: communications with one target vector per producer. ----

struct OldCommInfo
{
    std::vector<NodeId> producers;
    std::vector<std::vector<int>> targetClusters;
    std::vector<bool> communicated;
};

void
oldRemoteClustersOf(const Ddg &ddg, const std::vector<int> &cluster_of,
                    NodeId n, std::vector<int> &remote)
{
    remote.clear();
    const DdgNode &node = ddg.node(n);
    if (!node.alive || node.cls == OpClass::Copy ||
        !producesValue(node.cls)) {
        return;
    }
    for (EdgeId eid : ddg.outEdgesRaw(n)) {
        const DdgEdge &e = ddg.edge(eid);
        if (!e.alive || e.kind != EdgeKind::RegFlow)
            continue;
        if (ddg.node(e.dst).cls == OpClass::Copy)
            continue;
        const int c = cluster_of[e.dst];
        if (c != cluster_of[n])
            remote.push_back(c);
    }
    std::sort(remote.begin(), remote.end());
    remote.erase(std::unique(remote.begin(), remote.end()),
                 remote.end());
}

OldCommInfo
oldFindCommunications(const Ddg &ddg,
                      const std::vector<int> &cluster_of)
{
    OldCommInfo info;
    info.communicated.assign(ddg.numNodeSlots(), false);
    std::vector<int> remote;
    for (NodeId n : ddg.nodes()) {
        oldRemoteClustersOf(ddg, cluster_of, n, remote);
        if (remote.empty())
            continue;
        info.communicated[n] = true;
        info.producers.push_back(n);
        info.targetClusters.push_back(remote);
    }
    return info;
}

std::vector<NodeId>
oldUpdate(OldCommInfo &info, const Ddg &ddg,
          const std::vector<int> &cluster_of,
          std::vector<NodeId> touched)
{
    info.communicated.resize(ddg.numNodeSlots(), false);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    std::vector<std::vector<int>> fresh(touched.size());
    for (std::size_t i = 0; i < touched.size(); ++i)
        oldRemoteClustersOf(ddg, cluster_of, touched[i], fresh[i]);

    std::vector<NodeId> changed, producers;
    std::vector<std::vector<int>> targets;
    std::size_t pi = 0, ti = 0;
    while (pi < info.producers.size() || ti < touched.size()) {
        if (ti == touched.size() ||
            (pi < info.producers.size() &&
             info.producers[pi] < touched[ti])) {
            producers.push_back(info.producers[pi]);
            targets.push_back(std::move(info.targetClusters[pi]));
            ++pi;
            continue;
        }
        const NodeId t = touched[ti];
        const bool comm_now = !fresh[ti].empty();
        bool differs;
        if (pi < info.producers.size() && info.producers[pi] == t) {
            differs = !comm_now || info.targetClusters[pi] != fresh[ti];
            ++pi;
        } else {
            differs = comm_now;
        }
        if (comm_now) {
            producers.push_back(t);
            targets.push_back(std::move(fresh[ti]));
        }
        info.communicated[t] = comm_now;
        if (differs)
            changed.push_back(t);
        ++ti;
    }
    info.producers = std::move(producers);
    info.targetClusters = std::move(targets);
    return changed;
}

/** First difference between the flat and the oracle CommInfo. */
std::string
commsDiff(const CommInfo &flat, const OldCommInfo &old)
{
    if (flat.producers != old.producers)
        return "producer lists differ";
    for (int i = 0; i < flat.count(); ++i) {
        if (flat.targetsOf(i).toVector() != old.targetClusters[i]) {
            return "targets of producer " +
                   std::to_string(flat.producers[i]) + " differ";
        }
    }
    if (flat.communicated != old.communicated)
        return "communicated flags differ";
    return {};
}

// --- Oracle: map-based subgraphs, share scan, per-term weights. ------

struct OldSubgraph
{
    NodeId com = invalidNode;
    std::vector<int> targetClusters;
    std::map<NodeId, std::vector<int>> required;

    bool
    needsIn(NodeId n, int cluster) const
    {
        auto it = required.find(n);
        return it != required.end() &&
               std::binary_search(it->second.begin(), it->second.end(),
                                  cluster);
    }
};

OldSubgraph
oldFindSubgraph(const Ddg &ddg, const Partition &part, NodeId com,
                const std::vector<bool> &communicated,
                const ReplicaIndex &index,
                const std::vector<NodeId> &extra_seeds)
{
    OldSubgraph sg;
    sg.com = com;
    const NodeId com_sem = ddg.node(com).semanticId;
    const int home = part.clusterOf(com);
    for (NodeId w : ddg.flowSuccs(com)) {
        const int c = part.clusterOf(w);
        if (c != home)
            sg.targetClusters.push_back(c);
    }
    std::sort(sg.targetClusters.begin(), sg.targetClusters.end());
    sg.targetClusters.erase(std::unique(sg.targetClusters.begin(),
                                        sg.targetClusters.end()),
                            sg.targetClusters.end());

    for (int t : sg.targetClusters) {
        std::vector<NodeId> worklist;
        std::vector<char> visited(ddg.numNodeSlots(), 0);
        std::vector<char> required_here(ddg.numNodeSlots(), 0);
        auto seed = [&](NodeId n) {
            if (visited[n])
                return;
            visited[n] = 1;
            if (!index.hasInstance(ddg.node(n).semanticId, t)) {
                sg.required[n].push_back(t);
                required_here[n] = 1;
            }
            worklist.push_back(n);
        };
        seed(com);
        for (NodeId n : extra_seeds) {
            const DdgNode &sn = ddg.node(n);
            if (sn.cls == OpClass::Store)
                continue;
            if (communicated[n] && sn.semanticId != com_sem)
                continue;
            seed(n);
        }
        while (!worklist.empty()) {
            const NodeId v = worklist.back();
            worklist.pop_back();
            if (!required_here[v])
                continue;
            for (EdgeId eid : ddg.inEdgesRaw(v)) {
                const DdgEdge &pe = ddg.edge(eid);
                if (!pe.alive || pe.kind != EdgeKind::RegFlow)
                    continue;
                const NodeId p = pe.src;
                if (visited[p])
                    continue;
                if (communicated[p] &&
                    ddg.node(p).semanticId != com_sem)
                    continue;
                visited[p] = 1;
                if (!index.hasInstance(ddg.node(p).semanticId, t)) {
                    sg.required[p].push_back(t);
                    required_here[p] = 1;
                }
                worklist.push_back(p);
            }
        }
    }
    for (auto &[n, clusters] : sg.required)
        std::sort(clusters.begin(), clusters.end());
    return sg;
}

std::vector<NodeId>
oldRemovable(const Ddg &ddg, const Partition &part, NodeId com,
             const std::vector<bool> &communicated)
{
    const int home = part.clusterOf(com);
    std::vector<bool> removable(ddg.numNodeSlots(), false);
    std::vector<NodeId> worklist{com};
    auto try_remove = [&](NodeId v) {
        if (removable[v])
            return false;
        const DdgNode &node = ddg.node(v);
        if (node.cls == OpClass::Store || node.liveOut)
            return false;
        for (EdgeId eid : ddg.outEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow)
                continue;
            if (part.clusterOf(e.dst) == home && !removable[e.dst])
                return false;
        }
        removable[v] = true;
        return true;
    };
    while (!worklist.empty()) {
        const NodeId v = worklist.back();
        worklist.pop_back();
        if (!try_remove(v))
            continue;
        if (v != com && communicated[v])
            continue;
        for (EdgeId eid : ddg.inEdgesRaw(v)) {
            const DdgEdge &e = ddg.edge(eid);
            if (!e.alive || e.kind != EdgeKind::RegFlow)
                continue;
            if (part.clusterOf(e.src) == home && !removable[e.src])
                worklist.push_back(e.src);
        }
    }
    std::vector<NodeId> out;
    for (NodeId n = 0; n < ddg.numNodeSlots(); ++n) {
        if (removable[n])
            out.push_back(n);
    }
    return out;
}

std::vector<int>
oldExtra(const Ddg &ddg, const MachineConfig &mach,
         const OldSubgraph &sg)
{
    const int clusters = mach.numClusters();
    std::vector<int> extra(
        static_cast<std::size_t>(ResourceKind::NumResourceKinds) *
            static_cast<std::size_t>(clusters),
        0);
    for (const auto &[v, cs] : sg.required) {
        const auto k =
            static_cast<int>(mach.resourceFor(ddg.node(v).cls));
        for (int c : cs)
            ++extra[static_cast<std::size_t>(k * clusters + c)];
    }
    return extra;
}

bool
oldFeasible(const Ddg &ddg, const MachineConfig &mach, int ii,
            const OldSubgraph &sg,
            const std::vector<std::vector<int>> &usage)
{
    const int clusters = mach.numClusters();
    const auto extra = oldExtra(ddg, mach, sg);
    for (int k = 0;
         k < static_cast<int>(ResourceKind::NumResourceKinds); ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        for (int c = 0; c < clusters; ++c) {
            const int x = extra[static_cast<std::size_t>(k * clusters + c)];
            if (x == 0)
                continue;
            const int avail = mach.available(kind);
            if (avail == 0 || usage[k][c] + x > avail * ii)
                return false;
        }
    }
    return true;
}

Rational
oldWeight(const Ddg &ddg, const MachineConfig &mach, int ii,
          const OldSubgraph &sg, const std::vector<OldSubgraph> &all,
          const std::vector<NodeId> &removable,
          const std::vector<std::vector<int>> &usage)
{
    const int clusters = mach.numClusters();
    const auto extra = oldExtra(ddg, mach, sg);
    Rational weight(0);
    for (const auto &[v, cs] : sg.required) {
        const ResourceKind res = mach.resourceFor(ddg.node(v).cls);
        for (int c : cs) {
            const int avail = mach.available(res);
            if (avail == 0) {
                weight += Rational(1000000);
                continue;
            }
            const int k = static_cast<int>(res);
            const Rational term(
                usage[k][c] +
                    extra[static_cast<std::size_t>(k * clusters + c)],
                static_cast<std::int64_t>(avail) * ii);
            int share = 0;
            for (const OldSubgraph &other : all)
                share += other.needsIn(v, c) ? 1 : 0;
            weight += term / Rational(share);
        }
    }
    for (NodeId u : removable) {
        const int avail =
            mach.available(mach.resourceFor(ddg.node(u).cls));
        if (avail != 0)
            weight -= Rational(1, static_cast<std::int64_t>(avail) * ii);
    }
    return weight;
}

/** The map's iteration order, flattened to (node, cluster) pairs. */
std::vector<std::pair<NodeId, int>>
pairsOf(const OldSubgraph &sg)
{
    std::vector<std::pair<NodeId, int>> out;
    for (const auto &[n, cs] : sg.required) {
        for (int c : cs)
            out.emplace_back(n, c);
    }
    return out;
}

std::vector<std::pair<NodeId, int>>
pairsOf(const ReplicationSubgraph &sg)
{
    std::vector<std::pair<NodeId, int>> out;
    for (std::size_t i = 0; i < sg.replicaNodes.size(); ++i)
        out.emplace_back(sg.replicaNodes[i], sg.replicaClusters[i]);
    return out;
}

/**
 * Recomputes every round from scratch with the oracle code and
 * records the first few disagreements.
 */
class OracleObserver : public ReplicationObserver
{
  public:
    void
    onRound(const ReplicationRound &round) override
    {
        ++rounds;
        const Ddg &ddg = round.ddg;
        const Partition &part = round.part;
        const OldCommInfo comms =
            oldFindCommunications(ddg, part.vec());
        const std::string comms_diff = commsDiff(round.comms, comms);
        if (!comms_diff.empty()) {
            fail("comms: " + comms_diff);
            return;
        }
        if (round.pool.size() != comms.producers.size()) {
            fail("pool size");
            return;
        }

        const ReplicaIndex index(ddg, part);
        std::vector<OldSubgraph> pool;
        for (NodeId com : comms.producers) {
            std::vector<NodeId> seeds;
            if (round.macroSeeds) {
                for (NodeId m : round.macroSeeds->membersOf(com, 1)) {
                    if (ddg.node(m).alive && m != com)
                        seeds.push_back(m);
                }
            }
            pool.push_back(oldFindSubgraph(ddg, part, com,
                                           comms.communicated, index,
                                           seeds));
        }

        const auto usage = part.usage(ddg, round.mach);
        int best = -1;
        Rational best_weight;
        int best_size = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            const ReplicationSubgraph &flat = round.pool[i];
            const std::string at = " of " + std::to_string(pool[i].com);
            if (flat.com != pool[i].com ||
                flat.targetClusters != pool[i].targetClusters ||
                pairsOf(flat) != pairsOf(pool[i])) {
                fail("members" + at);
                return;
            }
            ++candidates;
            const bool feasible = oldFeasible(ddg, round.mach, round.ii,
                                              pool[i], usage);
            if (feasible != (round.feasible[i] != 0)) {
                fail("feasibility" + at);
                return;
            }
            if (!feasible)
                continue;
            const Rational w = oldWeight(
                ddg, round.mach, round.ii, pool[i], pool,
                oldRemovable(ddg, part, pool[i].com, comms.communicated),
                usage);
            if (w != round.weights[i]) {
                fail("weight" + at + ": " + w.toString() + " vs " +
                     round.weights[i].toString());
                return;
            }
            const int size = static_cast<int>(pairsOf(pool[i]).size());
            if (best < 0 || w < best_weight ||
                (w == best_weight &&
                 std::tie(size, pool[i].com) <
                     std::tie(best_size, pool[best].com))) {
                best = static_cast<int>(i);
                best_weight = w;
                best_size = size;
            }
        }
        if (best != round.chosen)
            fail("chosen " + std::to_string(round.chosen) + " vs " +
                 std::to_string(best));
    }

    void
    fail(const std::string &what)
    {
        if (failures++ < 5)
            messages += "\n  " + where + ": " + what;
    }

    std::string where;
    long long rounds = 0;
    long long candidates = 0;
    int failures = 0;
    std::string messages;
};

/** Compile the whole seed-42 suite on @p cfg under the observer. */
void
checkSuiteRounds(const char *cfg, const PipelineOptions &opts,
                 long long &rounds_out)
{
    const auto suite = loadOrBuildSuite(42);
    ASSERT_EQ(suite.size(), 678u);
    const auto m = MachineConfig::fromString(cfg);
    OracleObserver observer;
    CompileCaches caches;
    caches.subgraph.observer = &observer;
    long long telemetry_rounds = 0;
    for (const Loop &loop : suite) {
        observer.where = loop.name() + " on " + cfg;
        const CompileResult r = compile(loop.ddg, m, opts, &caches);
        telemetry_rounds += r.telemetry.replicationRounds;
    }
    EXPECT_EQ(observer.failures, 0) << observer.messages;
    EXPECT_EQ(observer.rounds, telemetry_rounds) << cfg;
    EXPECT_GT(observer.candidates, observer.rounds) << cfg;
    rounds_out = observer.rounds;
}

TEST(ReplicationOracle, EveryRoundMatchesOnPinnedConfigs)
{
    for (const char *cfg : {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r"}) {
        long long rounds = 0;
        checkSuiteRounds(cfg, PipelineOptions{}, rounds);
        EXPECT_GT(rounds, 0) << cfg;
    }
}

TEST(ReplicationOracle, EveryMacroNodeRoundMatches)
{
    PipelineOptions opts;
    opts.mode = ReplicationMode::MacroNode;
    long long rounds = 0;
    checkSuiteRounds("4c1b2l64r", opts, rounds);
    EXPECT_GT(rounds, 0);
}

TEST(ReplicationOracle, CommInfoPatchMatchesOldUpdateAfterRandomEdits)
{
    // Random cluster moves plus the replicator's edits (add a replica
    // and rewire a consumer to it, remove a node): the flat patch
    // must report the old patch's changed nodes and end equal to it
    // and to a rescan.
    const auto &profiles = specFp95Profiles();
    Rng rng(2024);
    const auto m = MachineConfig::fromString("4c2b2l64r");
    int edits = 0;
    for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
        Loop loop = generateLoop(profiles[pi], rng, 2);
        Ddg &g = loop.ddg;
        std::vector<int> assign(g.numNodeSlots(), 0);
        for (NodeId n : g.nodes())
            assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));
        CommInfo flat;
        findCommunications(g, assign, flat);
        OldCommInfo old = oldFindCommunications(g, assign);
        std::vector<NodeId> touched, changed;

        for (int step = 0; step < 80; ++step) {
            const auto live = g.nodes().toVector();
            const NodeId n = live[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(live.size()) - 1))];
            touched.clear();
            const int op = static_cast<int>(rng.uniformInt(0, 2));
            if (op == 0) {
                assign[n] = static_cast<int>(
                rng.uniformInt(0, m.numClusters() - 1));
                touched.push_back(n);
                for (NodeId p : g.flowPreds(n))
                    touched.push_back(p);
            } else if (op == 1 && producesValue(g.node(n).cls)) {
                // Replicate n next to one of its consumers.
                const auto succs = g.flowSuccs(n).toVector();
                if (succs.empty())
                    continue;
                const NodeId w = succs.front();
                const NodeId r = g.addReplica(n, ".r");
                assign.resize(g.numNodeSlots(), -1);
                assign[r] = assign[w];
                for (EdgeId eid : g.inEdges(w).toVector()) {
                    const DdgEdge e = g.edge(eid);
                    if (e.src == n && e.kind == EdgeKind::RegFlow) {
                        g.removeEdge(eid);
                        g.addEdge(r, w, EdgeKind::RegFlow, e.distance);
                    }
                }
                for (NodeId p : g.flowPreds(n)) {
                    g.addEdge(p, r, EdgeKind::RegFlow, 0);
                    touched.push_back(p);
                }
                touched.insert(touched.end(), {n, r, w});
            } else if (op == 2 && live.size() > 4) {
                for (NodeId p : g.flowPreds(n))
                    touched.push_back(p);
                touched.push_back(n);
                g.removeNode(n);
            } else {
                continue;
            }
            ++edits;
            const auto old_changed = oldUpdate(old, g, assign, touched);
            flat.update(g, assign, touched, changed);
            ASSERT_EQ(changed, old_changed) << loop.name();
            ASSERT_EQ(commsDiff(flat, old), "") << loop.name();
            ASSERT_EQ(commsDiff(findCommunications(g, assign), old), "")
                << loop.name();
        }
    }
    EXPECT_GT(edits, 300);
}

TEST(ReplicationOracle, FinalCommInfoAndCopiesMatchARescan)
{
    // The CommInfo a pass hands back is a rescan of its final graph,
    // and copy insertion from it builds the graph the scanning
    // overload builds.
    const auto suite = loadOrBuildSuite(42);
    SubgraphScratch scratch;
    CommInfo comms;
    int passes_with_rounds = 0;
    for (const char *cfg : {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r"}) {
        const auto m = MachineConfig::fromString(cfg);
        for (std::size_t i = 0; i < suite.size(); i += 5) {
            const Ddg &original = suite[i].ddg;
            const int mii = minimumIi(original, m);
            const auto pr = multilevelPartition(original, m, mii);
            Ddg g = original;
            Partition part = pr.partition;
            ReplicationStats stats;
            reduceCommunications(g, part, m, mii, &stats,
                                 ReplicationMode::MinWeight, nullptr,
                                 &scratch, nullptr, &comms);
            passes_with_rounds += stats.roundsConsidered > 0 ? 1 : 0;
            ASSERT_EQ(commsDiff(comms,
                                oldFindCommunications(g, part.vec())),
                      "")
                << suite[i].name() << " on " << cfg;

            g.compact();
            Ddg scanned = g;
            Partition scanned_part = part;
            const auto a = insertCopies(g, part, m, comms);
            const auto b = insertCopies(scanned, scanned_part, m);
            EXPECT_EQ(a.copies, b.copies);
            EXPECT_EQ(a.producerOf, b.producerOf);
            EXPECT_EQ(ddgContentDigest(g), ddgContentDigest(scanned))
                << suite[i].name() << " on " << cfg;
            EXPECT_EQ(part.vec(), scanned_part.vec());
        }
    }
    EXPECT_GT(passes_with_rounds, 20);
}

TEST(ReplicationOracle, NoRoundPassAndScanDoNotAllocate)
{
    const auto suite = loadOrBuildSuite(42);
    const Loop *largest = &suite.front();
    for (const Loop &loop : suite) {
        if (loop.ddg.numNodes() > largest->ddg.numNodes())
            largest = &loop;
    }
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(largest->ddg, m);
    const auto pr = multilevelPartition(largest->ddg, m, mii);
    Ddg g = largest->ddg;
    Partition part = pr.partition;
    // An II whose bus capacity fits every communication: no round.
    const int comms_count = findCommunications(g, part.vec()).count();
    ASSERT_GT(comms_count, 0);
    const int roomy_ii = minBusIi(comms_count, m);

    SubgraphScratch scratch;
    CommInfo comms;
    ReplicationStats stats;
    for (int warm = 0; warm < 2; ++warm) {
        reduceCommunications(g, part, m, roomy_ii, &stats,
                             ReplicationMode::MinWeight, nullptr,
                             &scratch);
        reduceCommunications(g, part, m, roomy_ii, &stats,
                             ReplicationMode::MinWeight, nullptr,
                             &scratch, nullptr, &comms);
        findCommunications(g, part.vec(), comms);
    }

    g_new_calls.store(0);
    g_count_news.store(true);
    const bool ok_scratch = reduceCommunications(
        g, part, m, roomy_ii, &stats, ReplicationMode::MinWeight,
        nullptr, &scratch);
    const bool ok_out = reduceCommunications(
        g, part, m, roomy_ii, &stats, ReplicationMode::MinWeight,
        nullptr, &scratch, nullptr, &comms);
    findCommunications(g, part.vec(), comms);
    g_count_news.store(false);

    EXPECT_TRUE(ok_scratch);
    EXPECT_TRUE(ok_out);
    EXPECT_EQ(stats.roundsConsidered, 0);
    EXPECT_EQ(comms.count(), comms_count);
    EXPECT_EQ(g_new_calls.load(), 0u);
}

} // namespace
} // namespace cvliw
