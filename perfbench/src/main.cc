/**
 * @file
 * perfbench: runs the repo benchmark's workloads. perfbench/run.py
 * builds and runs it; see perfbench/README.md for the workloads and metrics.
 *
 * Usage:
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--suite-seed N] [--loops N] [--out-dir DIR]
 *             [--corrupt-one]
 *   perfbench --write-suite-cache PATH
 *
 * Prints notes and a metric table, then, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Untraced
 * runs report the end-to-end metrics, traced runs the per-layer ones.
 * Exits 1 when any operation failed or any output was wrong.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "workloads.hh"
#include "workloads/suite.hh"
#include "workloads/suite_io.hh"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--suite-seed N] "
                 "[--loops N] [--out-dir DIR] [--corrupt-one]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        usage("not a non-negative integer");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-one") {
            args.corruptOne = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--write-suite-cache") {
            cvliw::saveSuite(cvliw::buildSuite(42), value, 42);
            return 0;
        } else if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = parseUnsigned(value);
        } else if (flag == "--suite-seed") {
            args.suiteSeed = parseUnsigned(value);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value);
            if (!(args.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            args.trace = parseUnsigned(value) != 0;
        } else if (flag == "--loops") {
            args.loops = parseUnsigned(value);
        } else if (flag == "--out-dir") {
            args.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }

    const std::map<std::string, RunReport (*)(const Args &)> workloads = {
        {"sweep_clustered", runSweepClustered},
        {"sweep_unified", runSweepUnified},
        {"serve_mixed", runServeMixed},
        {"warm_restart", runWarmRestart},
    };
    const auto it = workloads.find(args.workload);
    if (it == workloads.end())
        usage(("unknown workload '" + args.workload + "'").c_str());

    RunReport report;
    try {
        report = it->second(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    Metrics metrics;
    if (args.trace)
        addPerLayer(metrics, report);
    else
        addEndToEnd(metrics, report);
    const bool correct = report.tally.failed == 0;
    std::printf("workload %s, seed %llu, %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "untraced");
    for (const std::string &note : report.notes)
        std::printf("  %s\n", note.c_str());
    std::printf("  operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(report.tally.attempted),
                static_cast<unsigned long long>(report.tally.failed));
    metrics.printTable();
    std::printf("%s\n", metrics.json(correct, report.tally).c_str());
    return correct ? 0 : 1;
}
