/**
 * @file
 * sweep_clustered and sweep_unified: one caller compiles the whole
 * suite with `compile()`, cache off, in a closed loop over a seeded
 * order of (loop, machine) jobs, repeating the suite until the run
 * time is spent. The clustered configs are where the partitioner
 * dominates; the unified ones bypass partitioning and replication,
 * so the scheduler, MII and spill code dominate there.
 */

#include <cstdio>

#include "eval/digest.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace cvliw;

namespace
{

/** Combined digest of the paper's three configs at suite seed 42. */
constexpr std::uint64_t kPinnedDigest = 0xf607a8cc685dd8a4ull;
constexpr int kSetupReps = 15;
/**
 * Set-up compiles every kWarmupStride-th loop on every machine once,
 * so the compiler's per-thread scratch state is warm when timing
 * starts and lazy first-compile work is charged to set-up, not to the
 * first loops. The same jobs for every seed, so set-up does the same
 * work in every run.
 */
constexpr std::size_t kWarmupStride = 4;

/** Every (loop, machine) job, in an order drawn from @p seed. */
std::vector<Job>
seededOrder(std::size_t loops, std::size_t machines, std::uint64_t seed)
{
    std::vector<Job> jobs;
    for (std::size_t m = 0; m < machines; ++m)
        for (std::size_t l = 0; l < loops; ++l)
            jobs.push_back({l, m});
    Rng rng(seed);
    shuffle(jobs, rng);
    return jobs;
}

/** One line per machine: each layer's share of compile time. */
void
noteLayerShares(RunReport &r, const std::vector<std::string> &configs)
{
    for (std::size_t m = 0; m < configs.size(); ++m) {
        const SelfTimes &t = r.layers.trace.perMachine[m];
        double total = 0.0;
        for (const auto &kv : t)
            total += kv.second;
        std::string line = "layer shares " + configs[m] + ":";
        for (const char *layer : {"partition", "sched", "core", "pipeline"}) {
            char buf[48];
            std::snprintf(buf, sizeof buf, " %s %.1f%%", layer,
                          total > 0.0 ? 100.0 * layerMs(t, layer) / total
                                      : 0.0);
            line += buf;
        }
        r.notes.push_back(line);
    }
}

/**
 * @param pinned the configs are the pinned digest's: report whether
 *        the full seed-42 suite still reproduces it
 */
RunReport
runSweep(const Args &args, const std::vector<std::string> &configs,
         bool pinned)
{
    RunReport r;
    SuiteSource suite;
    std::vector<MachineConfig> machines;
    std::vector<Job> order;
    std::vector<double> load_ms;
    r.e2e.setupS = medianSetupSeconds(kSetupReps, [&] {
        suite = loadSuite(args);
        machines = machinesOf(configs);
        order = seededOrder(suite.loops.size(), machines.size(),
                            args.seed);
        load_ms.push_back(suite.loadMs);
        for (const MachineConfig &mach : machines)
            for (std::size_t l = 0; l < suite.loops.size();
                 l += kWarmupStride)
                compile(suite.loops[l].ddg, mach);
    });
    r.layers.suiteLoadMs = median(load_ms);
    const std::size_t n = suite.loops.size();
    r.notes.push_back("suite: seed " + std::to_string(args.suiteSeed) +
                      ", source " + suite.source + ", " +
                      std::to_string(n) + " loops, content " +
                      hex(suiteContentDigest(suite.loops)));

    // results[m].loops[l]: the first result of job (l, m).
    std::vector<SuiteResult> results(machines.size());
    for (SuiteResult &s : results)
        s.loops.resize(n);
    // Times each job ran; a job that fails verification fails them all.
    std::vector<std::uint32_t> runs(order.size(), 0);

    if (args.trace) {
        r.layers.trace = tracedPasses(
            suite.loops, machines, order, args.seconds,
            tracePath(args));
        noteLayerShares(r, configs);
        for (const Job &job : order) {
            results[job.machine].loops[job.loop] =
                compile(suite.loops[job.loop].ddg, machines[job.machine]);
            ++runs[job.machine * n + job.loop];
        }
        r.tally.attempted = order.size();
    } else {
        std::vector<std::uint64_t> first_digest(order.size(), 0);
        // Per pass: its rate and latency percentiles, scaled, and its
        // unscaled rate for the log. Nothing grows with the number of
        // passes but these, so peak RSS does not track host speed.
        std::vector<double> job_ms(order.size());
        std::vector<double> rate, p50, p99, raw_rate;
        std::uint64_t mismatched = 0;
        HostSpeed host;
        const Clock::time_point t_end = deadlineAfter(args.seconds);
        // Whole passes, at least one, so every pass times the same
        // work and every job has a result to verify.
        do {
            double pass_ms = 0.0;
            double raw_pass_ms = 0.0;
            for (std::size_t k = 0; k < order.size(); ++k) {
                const double scale = host.scale();
                const Job &job = order[k];
                const Clock::time_point t0 = Clock::now();
                CompileResult res = compile(suite.loops[job.loop].ddg,
                                            machines[job.machine]);
                const double ms = msSince(t0);
                raw_pass_ms += ms;
                pass_ms += ms * scale;
                job_ms[k] = ms * scale;
                const std::size_t slot = job.machine * n + job.loop;
                if (runs[slot]++ == 0) {
                    first_digest[slot] = resultDigest(res);
                    results[job.machine].loops[job.loop] = std::move(res);
                } else if (resultDigest(res) != first_digest[slot]) {
                    ++mismatched; // a compile that is not deterministic
                }
            }
            rate.push_back(order.size() / (pass_ms / 1000.0));
            raw_rate.push_back(order.size() / (raw_pass_ms / 1000.0));
            p50.push_back(quantile(job_ms, 0.50));
            p99.push_back(quantile(job_ms, 0.99));
        } while (Clock::now() < t_end);
        r.e2e.loopsPerS = interquartileMean(rate);
        r.e2e.p50Ms = interquartileMean(p50);
        r.e2e.p99Ms = interquartileMean(p99);
        r.tally.attempted = rate.size() * order.size();
        r.tally.failed = mismatched;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "compiles: %zu passes of %zu jobs; unscaled "
                      "loops_per_s %.1f",
                      rate.size(), order.size(), interquartileMean(raw_rate));
        r.notes.push_back(buf);

        ResultDigest combined;
        std::string line = "digest:";
        for (std::size_t m = 0; m < machines.size(); ++m) {
            const std::uint64_t h = digestSuiteResult(results[m]);
            combined.mix(h);
            line += " " + configs[m] + " " + hex(h);
        }
        line += ", combined " + hex(combined.h);
        if (pinned && args.suiteSeed == 42 && args.loops == 0)
            line += combined.h == kPinnedDigest
                        ? " (equals pinned " + hex(kPinnedDigest) + ")"
                        : " (DIFFERS from pinned " + hex(kPinnedDigest) +
                              ")";
        r.notes.push_back(line);
    }

    if (args.corruptOne)
        corruptSchedule(results[0].loops[0]);
    Verifier v;
    for (std::size_t m = 0; m < machines.size(); ++m)
        for (std::size_t l = 0; l < n; ++l)
            if (!v.verify(suite.loops[l].ddg, machines[m],
                          results[m].loops[l]))
                r.tally.failed += runs[m * n + l];
    r.layers.checkMs = v.checkMs;
    r.layers.simulateMs = v.simulateMs;
    r.e2e.quality = suiteQuality(suite.loops, results);
    return r;
}

} // namespace

RunReport
runSweepClustered(const Args &args)
{
    return runSweep(args, {"2c1b2l64r", "4c2b2l64r", "4c2b4l64r"}, true);
}

RunReport
runSweepUnified(const Args &args)
{
    return runSweep(args, {"unified", "unified32r"}, false);
}

} // namespace perfbench
