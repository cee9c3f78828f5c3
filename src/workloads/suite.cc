#include "workloads/suite.hh"

namespace cvliw
{

namespace
{

/** Per-benchmark sub-seed so benchmarks are independent streams. */
std::uint64_t
benchSeed(std::uint64_t seed, std::size_t bench_index)
{
    return seed * 0x9e3779b97f4a7c15ULL + bench_index * 0x100000001b3ULL;
}

} // namespace

std::vector<Loop>
buildSuite(std::uint64_t seed)
{
    std::vector<Loop> suite;
    const auto &profiles = specFp95Profiles();
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        Rng rng(benchSeed(seed, b));
        for (int i = 0; i < profiles[b].numLoops; ++i)
            suite.push_back(generateLoop(profiles[b], rng, i));
    }
    return suite;
}

std::vector<Loop>
buildBenchmark(const std::string &benchmark, std::uint64_t seed)
{
    const auto &profiles = specFp95Profiles();
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        if (profiles[b].name != benchmark)
            continue;
        Rng rng(benchSeed(seed, b));
        std::vector<Loop> loops;
        for (int i = 0; i < profiles[b].numLoops; ++i)
            loops.push_back(generateLoop(profiles[b], rng, i));
        return loops;
    }
    throw UnknownBenchmark("unknown benchmark '" + benchmark + "'");
}

} // namespace cvliw
