/**
 * @file
 * Quickstart: build a small loop by hand, compile it for a clustered
 * VLIW with and without instruction replication, and print the
 * kernels plus the headline numbers.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "core/pipeline.hh"
#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "vliw/kernel.hh"
#include "vliw/simulator.hh"

using namespace cvliw;

namespace
{

int
run()
{
    // A DAXPY-like loop body with a shared index chain feeding two
    // memory streams:
    //   y[i] = a * x[i] + y[i]
    DdgBuilder b;
    b.op("i", OpClass::IntAlu);           // induction variable
    b.flow("i", "i", 1);                  //   i = i + 1
    b.op("addr_x", OpClass::IntAlu, {"i"});
    b.op("addr_y", OpClass::IntAlu, {"i"});
    b.op("x", OpClass::Load, {"addr_x"});
    b.op("y", OpClass::Load, {"addr_y"});
    b.op("ax", OpClass::FpMul, {"x"});    // a is loop-invariant
    b.op("sum", OpClass::FpAlu, {"ax", "y"});
    b.op("st", OpClass::Store, {"sum", "addr_y"});
    const Ddg loop = b.take();

    const auto machine = MachineConfig::fromString("4c1b2l64r");
    std::cout << "machine: " << machine.name() << " (issue width "
              << machine.issueWidth() << ", "
              << machine.regsPerCluster() << " regs/cluster)\n\n";

    // --- baseline: state-of-the-art partitioning, no replication ----
    PipelineOptions base;
    base.replication = false;
    const auto baseline = compile(loop, machine, base);

    // --- the paper's technique ---------------------------------------
    const auto replicated = compile(loop, machine);

    for (const auto *tag : {"baseline", "replication"}) {
        const CompileResult &r =
            tag[0] == 'b' ? baseline : replicated;
        std::cout << "--- " << tag << " ---\n";
        std::cout << "MII=" << r.mii << "  II=" << r.ii
                  << "  length=" << r.schedule.length
                  << "  SC=" << r.schedule.stageCount
                  << "  comms=" << r.comsFinal
                  << "  replicas=" << r.repl.replicasAdded << "\n";
        KernelView(r.finalDdg, machine, r.partition, r.schedule)
            .print(std::cout);
        std::cout << "\n";
    }

    // Functional validation against a sequential execution.
    const auto rep =
        simulate(replicated.finalDdg, machine, replicated.partition,
                 replicated.schedule, loop, 8);
    std::cout << "simulation: "
              << (rep.ok ? "values match the sequential reference"
                         : rep.errors.front())
              << " (" << rep.valuesChecked << " values checked)\n";

    // IPC for a loop that runs 100 iterations per visit.
    std::cout << "IPC (N=100): baseline " << baseline.ipc(100)
              << "  replication " << replicated.ipc(100) << "  ("
              << (replicated.ipc(100) / baseline.ipc(100) - 1.0) *
                     100.0
              << "% speedup)\n";
    return rep.ok ? 0 : 1;
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
        std::cerr << "quickstart: " << e.what() << "\n";
        return 1;
    }
}
