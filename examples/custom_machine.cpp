/**
 * @file
 * Custom machine: schedule a DSP-style FIR filter kernel on a
 * TI-C6x-inspired 2-cluster machine (heterogeneous FU counts, custom
 * latencies) and study how bus bandwidth changes the result. Shows
 * the public API needed to model machines beyond the paper's table.
 */

#include <iostream>

#include "core/pipeline.hh"
#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "support/table.hh"
#include "vliw/kernel.hh"

using namespace cvliw;

namespace
{

/** An 8-tap FIR inner loop: acc += h[k] * x[i+k], unrolled by 4. */
Ddg
firKernel()
{
    DdgBuilder b;
    b.op("i", OpClass::IntAlu);
    b.flow("i", "i", 1);
    for (int k = 0; k < 4; ++k) {
        const std::string s = std::to_string(k);
        b.op("ax" + s, OpClass::IntAlu, {"i"});
        b.op("x" + s, OpClass::Load, {"ax" + s});
        b.op("h" + s, OpClass::Load); // coefficient (invariant addr)
        b.op("m" + s, OpClass::FpMul, {"x" + s, "h" + s});
    }
    // Accumulation tree + loop-carried accumulator.
    b.op("s01", OpClass::FpAlu, {"m0", "m1"});
    b.op("s23", OpClass::FpAlu, {"m2", "m3"});
    b.op("acc", OpClass::FpAlu, {"s01", "s23"});
    b.flow("acc", "acc", 1);
    b.liveOut("acc");
    return b.take();
}

int
run()
{
    const Ddg fir = firKernel();

    // A C6x-flavoured machine: each cluster has 2 int units, 1
    // multiplier-ish fp unit and 1 memory port; single-cycle fp mul
    // (DSP MACs), 4-cycle loads.
    ClusterResources res;
    res.intFus = 2;
    res.fpFus = 1;
    res.memPorts = 1;

    TextTable table;
    table.addRow({"machine", "mode", "MII", "II", "len", "SC",
                  "comms", "replicas"});

    for (const int buses : {1, 2}) {
        auto m = MachineConfig::custom(2, res, buses, 2, 64);
        m.setLatency(OpClass::FpMul, 2);
        m.setLatency(OpClass::Load, 4);

        for (const bool repl : {false, true}) {
            PipelineOptions opts;
            opts.replication = repl;
            const auto r = compile(fir, m, opts);
            if (!r.ok) {
                std::cerr << "compilation failed\n";
                return 1;
            }
            table.addRow({
                std::to_string(buses) + "-bus",
                repl ? "replication" : "baseline",
                std::to_string(r.mii),
                std::to_string(r.ii),
                std::to_string(r.schedule.length),
                std::to_string(r.schedule.stageCount),
                std::to_string(r.comsFinal),
                std::to_string(r.repl.replicasAdded),
            });

            if (buses == 1 && repl) {
                std::cout << "kernel on the 1-bus machine with "
                             "replication:\n";
                KernelView(r.finalDdg, m, r.partition, r.schedule)
                    .print(std::cout);
                std::cout << "\n";
            }
        }
    }

    table.print(std::cout);
    std::cout << "\nFIR executes "
              << "(N-1+SC)*II cycles per visit; fewer comms means "
                 "a smaller II on the narrow-bus machine.\n";
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
        std::cerr << "custom_machine: " << e.what() << "\n";
        return 1;
    }
}
