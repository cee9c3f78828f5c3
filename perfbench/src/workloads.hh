/**
 * @file
 * The benchmark's workloads and the report each one fills.
 *
 * Every workload reports every metric of BENCHMARK.json (the result
 * line carries the full end-to-end set, or the full per-layer set in a
 * traced run), so the metric names stay the same across workloads. A
 * layer that a workload bypasses reports 0 for it; that zero is itself
 * a prediction (a partitioner change must not move sweep_unified).
 * serve_mixed, which BENCHMARK.json does not list, adds the frontier's
 * metrics to its traced runs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"
#include "replay.hh"

namespace perfbench
{

/** One (loop, machine) compile job. */
struct Job
{
    std::size_t loop = 0;    //!< index into the suite
    std::size_t machine = 0; //!< index into the machine list
};

/** What the timed, untraced run measures. */
struct EndToEnd
{
    double setupS = 0.0;
    double loopsPerS = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    Quality quality;
};

/** What the traced replay of a job list measures. */
struct TraceSummary
{
    ReplayCounters counters;     //!< exact counts of the first pass
    SelfTimes self;              //!< mean self time per traced pass
    double compileMs = 0.0;      //!< mean compile-span time per pass
    double matchRatio = 0.0;     //!< replays digest-equal to compile()
    double counterMatchRatio = 0.0; //!< replays whose counts match telemetry
    double overheadPct = 0.0;    //!< traced pass vs untraced pass
    /** Per-machine self times of the first pass. */
    std::vector<SelfTimes> perMachine;
};

/** The per-layer measurements of one traced run. */
struct LayerReport
{
    double suiteLoadMs = 0.0;
    TraceSummary trace;
    double checkMs = 0.0;
    double simulateMs = 0.0;
    /**
     * eval: the frontier and the cache's write path. Only serve_mixed
     * sets `serving`, and only its traced runs print these metrics.
     */
    bool serving = false;
    double submitUsP99 = 0.0;
    double queueWaitP99Ms = 0.0;
    double workerBusyPct = 0.0;
    double cacheHitRatio = 0.0;
    double cacheDedupJoins = 0.0;
    double backlogJobs = 0.0;
    // eval: the cache's read and disk path (warm_restart).
    double cacheLoadMs = 0.0;
    double cacheEntriesLoaded = 0.0;
    double cacheHitUs = 0.0;
    double cacheSaveMs = 0.0;
    // the harness itself
    double genLagP99Ms = 0.0;
};

/** Everything one run of a workload produced. */
struct RunReport
{
    EndToEnd e2e;
    LayerReport layers;
    Tally tally;
    /** Human-readable lines printed before the metrics. */
    std::vector<std::string> notes;
};

RunReport runSweepClustered(const Args &args);
RunReport runSweepUnified(const Args &args);
RunReport runServeMixed(const Args &args);
RunReport runWarmRestart(const Args &args);

/**
 * The traced run over @p jobs: untraced `compile()` passes alternate
 * with traced replay passes until @p seconds have passed (at least one
 * of each). The first traced pass is written to @p trace_path.
 */
TraceSummary tracedPasses(const std::vector<cvliw::Loop> &suite,
                          const std::vector<cvliw::MachineConfig> &machines,
                          const std::vector<Job> &jobs, double seconds,
                          const std::string &trace_path);

/**
 * Run @p setup @p reps times; the median wall time in seconds, each
 * scaled to the reference host by the mean of a calibration just
 * before and one just after it.
 */
template <typename F>
double
medianSetupSeconds(int reps, F &&setup)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        const double before = hostScale();
        const Clock::time_point t0 = Clock::now();
        setup();
        const double ms = msSince(t0);
        s.push_back(ms / 1000.0 * (before + hostScale()) / 2.0);
    }
    return median(s);
}

/** Machine configs by name. */
std::vector<cvliw::MachineConfig>
machinesOf(const std::vector<std::string> &names);

/** The end-to-end metric set, in BENCHMARK.json order. */
void addEndToEnd(Metrics &m, const RunReport &r);

/** The per-layer metric set, in BENCHMARK.json order. */
void addPerLayer(Metrics &m, const RunReport &r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
