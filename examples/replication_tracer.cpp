/**
 * @file
 * Replication tracer: walks the paper's worked example (Figure 3 and
 * Figure 6) step by step, printing the replication subgraphs, the
 * removable instructions and the exact rational weights, then
 * applying the chosen replication and showing the updated state.
 *
 * Run it to see the numbers from section 3.3 of the paper appear:
 * weight(S_D) = 49/16, weight(S_E) = 31/16, weight(S_J) = 40/16,
 * and after replicating S_E: 44/8 and 42/8.
 */

#include <iostream>

#include "core/removable.hh"
#include "core/replicator.hh"
#include "core/weights.hh"
#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "ddg/dot.hh"
#include "sched/comms.hh"

using namespace cvliw;

namespace
{

struct Example
{
    DdgBuilder b;
    Ddg ddg;
    Partition part{4, 0};
    MachineConfig mach = MachineConfig::universal(4, 4, 1, 1, 64);

    Example()
    {
        b.op("A", OpClass::IntAlu);
        b.op("B", OpClass::IntAlu, {"A"});
        b.op("C", OpClass::IntAlu, {"A"});
        b.op("D", OpClass::IntAlu, {"B", "C"});
        b.op("E", OpClass::IntAlu, {"A", "D"});
        b.op("I", OpClass::IntAlu);
        b.op("J", OpClass::IntAlu, {"I", "E"});
        b.op("K", OpClass::IntAlu, {"J"});
        b.op("L", OpClass::IntAlu, {"J"});
        b.op("M", OpClass::IntAlu, {"L"});
        b.op("N", OpClass::IntAlu, {"M"});
        b.op("F", OpClass::IntAlu, {"D"});
        b.op("G", OpClass::IntAlu, {"E", "F"});
        b.op("H", OpClass::IntAlu, {"G", "J"});
        for (const char *n : {"N", "K", "H"})
            b.liveOut(n);
        ddg = b.graph();
        part = Partition(4, ddg.numNodeSlots());
        assign({"L", "M", "N"}, 0);
        assign({"I", "J", "K"}, 1);
        assign({"A", "B", "C", "D", "E"}, 2);
        assign({"F", "G", "H"}, 3);
    }

    void
    assign(std::initializer_list<const char *> names, int c)
    {
        for (const char *n : names)
            part.assign(b.id(n), c);
    }
};

void
printRound(const Example &ex, int ii)
{
    const auto comms = findCommunications(ex.ddg, ex.part.vec());
    std::cout << "communications: " << comms.count()
              << "  bus capacity: " << busCapacity(ex.mach, ii)
              << "  extra_coms: "
              << extraComs(comms.count(), ex.mach, ii) << "\n";

    ReplicaIndex index(ex.ddg, ex.part);
    std::vector<ReplicationSubgraph> pool;
    for (NodeId com : comms.producers) {
        pool.push_back(findReplicationSubgraph(
            ex.ddg, ex.part, com, comms.communicated, index));
    }
    for (const auto &sg : pool) {
        const auto removable = findRemovableInstructions(
            ex.ddg, ex.part, sg.com, comms.communicated);
        const Rational w = subgraphWeight(ex.ddg, ex.mach, ex.part,
                                          ii, sg, pool, removable);
        std::cout << "  S_" << ex.ddg.label(sg.com) << " = {";
        bool first = true;
        for (NodeId n : sg.members()) {
            const Span<int> clusters = sg.clustersOf(n);
            std::cout << (first ? "" : ", ")
                      << ex.ddg.label(n) << "->{";
            for (std::size_t i = 0; i < clusters.size(); ++i)
                std::cout << (i ? "," : "") << clusters[i];
            std::cout << "}";
            first = false;
        }
        std::cout << "}  removable {";
        for (std::size_t i = 0; i < removable.size(); ++i) {
            std::cout << (i ? "," : "")
                      << ex.ddg.label(removable[i]);
        }
        std::cout << "}  weight " << w.toString() << "\n";
    }
}

int
run()
{
    Example ex;
    const int ii = 2;

    std::cout << "=== Figure 3: initial state (II=" << ii
              << ", 1 bus of latency 1) ===\n";
    printRound(ex, ii);

    std::cout << "\n=== replicating the minimum-weight subgraph "
                 "===\n";
    ReplicationStats stats;
    reduceCommunications(ex.ddg, ex.part, ex.mach, ii, &stats);
    std::cout << "replicated " << stats.replicasAdded
              << " instructions, removed " << stats.comsRemoved
              << " communication(s) and "
              << stats.instructionsRemoved
              << " dead instruction(s)\n";

    std::cout << "\n=== Figure 6: updated subgraphs ===\n";
    printRound(ex, ii);

    std::cout << "\n=== final graph (Graphviz) ===\n";
    std::vector<int> clusters(ex.ddg.numNodeSlots(), -1);
    for (NodeId n : ex.ddg.nodes())
        clusters[n] = ex.part.clusterOf(n);
    writeDot(std::cout, ex.ddg, clusters);
    return 0;
}

} // namespace

int
main()
{
    // A duplicate or unknown node name while building the graph is
    // reported, not fatal.
    try {
        return run();
    } catch (const InvalidDdg &e) {
        std::cerr << "replication_tracer: " << e.what() << "\n";
        return 1;
    }
}
