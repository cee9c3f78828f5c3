/**
 * @file
 * warm_restart: set-up compiles the clustered suite once into a
 * ResultCache and saves it (CVRCACHE). Each timed operation is a
 * restart: a fresh cache loads the file and serves every job of the
 * suite as a hit. This covers the cache's read and disk path and the
 * suite format's graph codec, which no other workload times.
 */

#include <cstdio>
#include <memory>

#include "eval/result_cache.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace cvliw;

namespace
{

constexpr int kSetupReps = 5;
constexpr std::size_t kServeSampleStride = 8;

} // namespace

RunReport
runWarmRestart(const Args &args)
{
    RunReport r;
    const std::vector<std::string> configs = {"2c1b2l64r", "4c2b2l64r",
                                              "4c2b4l64r"};
    const std::string path = args.outDir + "/warm_restart.cvrcache";
    SuiteSource suite;
    std::vector<MachineConfig> machines;
    std::vector<SuiteResult> direct;
    std::vector<double> load_ms;
    std::vector<double> save_ms;
    const PipelineOptions plain;
    r.e2e.setupS = medianSetupSeconds(kSetupReps, [&] {
        suite = loadSuite(args);
        load_ms.push_back(suite.loadMs);
        machines = machinesOf(configs);
        direct.assign(machines.size(), SuiteResult{});
        ResultCache cache;
        for (std::size_t m = 0; m < machines.size(); ++m)
            for (const Loop &l : suite.loops) {
                direct[m].loops.push_back(compile(l.ddg, machines[m]));
                const CompileResult &res = direct[m].loops.back();
                cache.getOrCompute(
                    makeResultCacheKey(l.ddg, machines[m], plain),
                    [&] { return res; });
            }
        const Clock::time_point t0 = Clock::now();
        cache.saveTo(path);
        save_ms.push_back(msSince(t0));
    });
    r.layers.suiteLoadMs = median(load_ms);
    r.layers.cacheSaveMs = median(save_ms);
    const std::size_t n = suite.loops.size();

    // The reference every served result must equal, and be correct.
    Verifier v;
    std::vector<std::uint64_t> want(machines.size() * n);
    std::vector<char> correct(machines.size() * n);
    for (std::size_t m = 0; m < machines.size(); ++m)
        for (std::size_t l = 0; l < n; ++l) {
            if (args.corruptOne && m == 0 && l == 0)
                corruptSchedule(direct[m].loops[l]);
            want[m * n + l] = resultDigest(direct[m].loops[l]);
            correct[m * n + l] =
                v.verify(suite.loops[l].ddg, machines[m], direct[m].loops[l]);
        }
    r.layers.checkMs = v.checkMs;
    r.layers.simulateMs = v.simulateMs;
    r.e2e.quality = suiteQuality(suite.loops, direct);

    // Each restart serves the jobs in a fresh seeded order.
    std::vector<std::size_t> order(machines.size() * n);
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(args.seed);

    PipelineOptions opts;
    std::vector<double> restart_ms;
    std::vector<double> cache_load_ms;
    std::vector<double> serve_ms; // restart start to a job's result
    std::vector<double> p50, p99;  // of serve_ms, per restart
    std::vector<double> hit_us;
    std::vector<CompileResult> served(order.size());
    double entries_loaded = 0.0;
    HostSpeed host;
    const Clock::time_point t_end = deadlineAfter(args.seconds);
    do {
        shuffle(order, rng);
        for (CompileResult &res : served)
            res = CompileResult();
        serve_ms.clear();
        const double scale = host.scale();
        const Clock::time_point t0 = Clock::now();
        auto cache = std::make_unique<ResultCache>();
        entries_loaded = static_cast<double>(cache->loadFrom(path));
        Clock::time_point t_prev = Clock::now();
        cache_load_ms.push_back(msBetween(t0, t_prev));
        opts.resultCache = cache.get();
        for (std::size_t i = 0; i < order.size(); ++i) {
            const std::size_t job = order[i];
            served[job] = compile(suite.loops[job % n].ddg,
                                  machines[job / n], opts);
            const Clock::time_point t = Clock::now();
            // Positions are in seeded random order, so every
            // kServeSampleStride-th one samples the time-to-serve
            // distribution without storing every job's time.
            if (i % kServeSampleStride == 0)
                serve_ms.push_back(msBetween(t0, t) * scale);
            if (args.trace)
                hit_us.push_back(msBetween(t_prev, t) * 1000.0);
            t_prev = t;
        }
        restart_ms.push_back(msBetween(t0, t_prev) * scale);
        p50.push_back(quantile(serve_ms, 0.50));
        p99.push_back(quantile(serve_ms, 0.99));

        // Outside the timed operation: every job a hit, every result
        // equal to the direct compile, which itself verified.
        const ResultCacheStats cs = cache->stats();
        r.tally.attempted += order.size();
        r.tally.failed += cs.misses;
        for (std::size_t job = 0; job < order.size(); ++job)
            if (!correct[job] || resultDigest(served[job]) != want[job])
                ++r.tally.failed;
    } while (Clock::now() < t_end);

    const double restart_mean_ms = interquartileMean(restart_ms);
    r.e2e.loopsPerS =
        static_cast<double>(order.size()) / (restart_mean_ms / 1000.0);
    r.e2e.p50Ms = interquartileMean(p50);
    r.e2e.p99Ms = interquartileMean(p99);
    r.layers.cacheLoadMs = median(cache_load_ms);
    r.layers.cacheEntriesLoaded = entries_loaded;
    r.layers.cacheHitUs = median(hit_us);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "restarts: %zu, each loading %.0f entries and serving %zu "
                  "jobs; restart_ms %.3f (scaled, interquartile mean)",
                  restart_ms.size(), entries_loaded, order.size(),
                  restart_mean_ms);
    r.notes.push_back(buf);

    if (args.trace) {
        // The layers set-up paid for: the clustered suite's compiles.
        std::vector<Job> jobs;
        for (std::size_t m = 0; m < machines.size(); ++m)
            for (std::size_t l = 0; l < n; ++l)
                jobs.push_back({l, m});
        r.layers.trace = tracedPasses(
            suite.loops, machines, jobs, args.seconds / 3.0,
            tracePath(args));
    }
    return r;
}

} // namespace perfbench
