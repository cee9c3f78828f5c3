#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "eval/digest.hh"
#include "eval/metrics.hh"
#include "eval/result_cache.hh"
#include "eval/runner.hh"
#include "vliw/checker.hh"
#include "vliw/simulator.hh"
#include "workloads/suite.hh"
#include "workloads/suite_io.hh"

namespace perfbench
{

using namespace cvliw;

void
Metrics::add(const std::string &name, double value,
             const std::string &unit)
{
    entries_.push_back({name, value, unit});
}

void
Metrics::printTable() const
{
    for (const Entry &e : entries_)
        std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

std::string
Metrics::json(bool correct, const Tally &tally) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        // %.17g keeps every digit; JSON has no NaN or infinity.
        const double v = std::isfinite(e.value) ? e.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    out += "}}";
    return out;
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
interquartileMean(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t cut = values.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < values.size() - cut; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * cut);
}

double
peakRssMb()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

SuiteSource
loadSuite(const Args &args)
{
    SuiteSource s;
    const Clock::time_point t0 = Clock::now();
    if (args.suiteSeed == 42 && !defaultSuiteCachePath().empty() &&
        std::ifstream(defaultSuiteCachePath()).good()) {
        s.loops = loadOrBuildSuite(42);
        s.source = "cache";
    } else {
        s.loops = buildSuite(args.suiteSeed);
        s.source = "buildSuite";
    }
    if (args.loops > 0 && args.loops < s.loops.size())
        s.loops.resize(args.loops);
    s.loadMs = msSince(t0);
    return s;
}

std::uint64_t
suiteContentDigest(const std::vector<Loop> &suite)
{
    ResultDigest d;
    for (const Loop &loop : suite)
        d.mix(ddgContentDigest(loop.ddg));
    return d.h;
}

std::uint64_t
resultDigest(const CompileResult &result)
{
    ResultDigest d;
    mixCompileResult(d, result);
    return d.h;
}

bool
Verifier::verify(const Ddg &original, const MachineConfig &mach,
                 const CompileResult &result)
{
    bool ok = result.ok;
    if (ok) {
        Clock::time_point t0 = Clock::now();
        ok = checkSchedule(result.finalDdg, mach, result.partition,
                           result.schedule)
                 .empty();
        checkMs += msSince(t0);
    }
    if (ok) {
        Clock::time_point t0 = Clock::now();
        ok = simulate(result.finalDdg, mach, result.partition,
                      result.schedule, original)
                 .ok;
        simulateMs += msSince(t0);
    }
    return ok;
}

void
corruptSchedule(CompileResult &result)
{
    for (NodeId v : result.finalDdg.nodes()) {
        if (v < static_cast<NodeId>(result.schedule.start.size())) {
            result.schedule.start[v] = -1;
            return;
        }
    }
}

Quality
suiteQuality(const std::vector<Loop> &suite,
             const std::vector<SuiteResult> &per_machine)
{
    Quality q;
    std::vector<double> ipcs;
    long long sum_ii = 0;
    long long sum_mii = 0;
    for (const SuiteResult &results : per_machine) {
        ipcs.push_back(suiteHmeanIpc(suite, results));
        for (const CompileResult &r : results.loops) {
            if (!r.ok)
                continue;
            sum_ii += r.ii;
            sum_mii += r.mii;
        }
    }
    q.ipcHmean = ipcs.empty() ? 0.0 : hmean(ipcs);
    q.iiExcessPct =
        sum_mii > 0 ? 100.0 * static_cast<double>(sum_ii - sum_mii) /
                          static_cast<double>(sum_mii)
                    : 0.0;
    return q;
}

namespace
{

/** A fixed amount of compiler-like work; returns a checksum. */
std::uint64_t
calibrationKernel()
{
    // About 2 MB of nodes and map entries, more than a core's own
    // caches hold: a kernel that fits in them slows down less than the
    // compiler when the host is busy (see perfbench/README.md).
    constexpr int kNodes = 20000;
    constexpr int kKeys = 20000;
    constexpr int kDegree = 4;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    // A random graph of small adjacency vectors, walked breadth-first.
    std::vector<std::vector<int>> succ(kNodes);
    for (int v = 0; v < kNodes; ++v)
        for (int e = 0; e < kDegree; ++e)
            succ[v].push_back(static_cast<int>(next() % kNodes));
    std::uint64_t sum = 0;
    std::vector<int> dist(kNodes);
    std::vector<int> queue;
    for (int src = 0; src < 4; ++src) {
        std::fill(dist.begin(), dist.end(), -1);
        queue.assign(1, src);
        dist[src] = 0;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const int v = queue[head];
            for (int w : succ[v])
                if (dist[w] < 0) {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
        }
        for (int d : dist)
            sum += static_cast<std::uint64_t>(d + 1);
    }
    // Sorting and an ordered and a hashed map.
    std::vector<std::uint64_t> keys(kKeys);
    for (std::uint64_t &k : keys)
        k = next() % (10 * kKeys);
    std::sort(keys.begin(), keys.end());
    std::map<std::uint64_t, int> ordered;
    std::unordered_map<std::uint64_t, int> hashed;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ordered[keys[i]] += static_cast<int>(i);
        hashed[keys[keys.size() - 1 - i]] += 1;
    }
    for (const auto &kv : ordered)
        sum += kv.first * static_cast<std::uint64_t>(hashed[kv.first]);
    return sum;
}

} // namespace

double
calibrationMs()
{
    static volatile std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    sink = sink + calibrationKernel();
    return msSince(t0);
}

double
hostScale()
{
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i)
        ms.push_back(calibrationMs());
    return kReferenceCalibrationMs / median(ms);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
