/**
 * @file
 * Suite explorer: compile one synthetic SPECfp95 benchmark across
 * machine configurations and print per-benchmark IPC, II
 * distributions and replication statistics.
 *
 * Usage: suite_explorer [benchmark] [config ...]
 *   benchmark defaults to su2cor; configs default to the paper's
 *   six plus "unified".
 */

#include <iostream>
#include <string>
#include <vector>

#include "eval/runner.hh"
#include "support/strutil.hh"
#include "support/table.hh"

using namespace cvliw;

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "su2cor";
    std::vector<std::string> configs;
    for (int i = 2; i < argc; ++i)
        configs.push_back(argv[i]);
    if (configs.empty()) {
        configs = {"unified",   "2c1b2l64r", "2c2b4l64r",
                   "4c1b2l64r", "4c2b2l64r", "4c2b4l64r",
                   "4c4b4l64r"};
    }

    // Parse every machine name first: a bad one ends the run with its
    // message before any compile.
    std::vector<MachineConfig> machines;
    for (const auto &cfg : configs) {
        try {
            machines.push_back(MachineConfig::fromString(cfg));
        } catch (const InvalidMachine &e) {
            std::cerr << "suite_explorer: " << e.what() << "\n";
            return 1;
        }
    }

    const auto loops = buildBenchmark(bench);
    std::cout << bench << ": " << loops.size()
              << " modulo-schedulable inner loops\n\n";

    TextTable table;
    table.addRow({"config", "mode", "IPC", "avg II", "avg MII",
                  "comms", "removed", "replicas", "+insns"});

    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        const std::string &cfg = configs[ci];
        const MachineConfig &m = machines[ci];
        for (const bool replication : {false, true}) {
            if (m.isUnified() && replication)
                continue;
            PipelineOptions opts;
            opts.replication = replication;
            const auto res = runSuite(loops, m, opts);
            const auto aggs = aggregateByBenchmark(loops, res);
            const auto &a = aggs.at(bench);
            table.addRow({
                cfg,
                replication ? "replication" : "baseline",
                fixed(a.ipc(), 3),
                fixed(a.iiSum / a.weight, 2),
                fixed(a.miiSum / a.weight, 2),
                fixed(a.comsInitialDyn / a.weight, 3),
                percent(a.comsRemovedFraction()),
                std::to_string(a.replicasStatic),
                percent(a.addedFraction()),
            });
        }
    }
    table.print(std::cout);

    std::cout << "\ncolumns: IPC = useful instructions/cycle; comms "
                 "= dynamic communications per useful instruction "
                 "before replication;\nremoved = fraction of "
                 "communications eliminated; +insns = dynamic "
                 "instruction increase from replicas.\n";
    return 0;
}
