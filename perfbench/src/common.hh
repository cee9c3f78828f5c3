/**
 * @file
 * Shared plumbing of the repo benchmark: command-line arguments, the
 * metric sink that prints the final JSON line, timing and percentile
 * helpers, suite loading, and the output verifier every workload runs
 * outside its timed region.
 *
 * The benchmark calls only the compiler's public API; nothing here
 * reaches into `src/` internals.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "eval/runner.hh"
#include "machine/config.hh"
#include "support/rng.hh"
#include "workloads/generator.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Milliseconds elapsed since @p t0. */
inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

/** The time point @p seconds from now. */
inline Clock::time_point
deadlineAfter(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/** Fisher-Yates shuffle of @p v driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, cvliw::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniformInt(
                                0, static_cast<std::int64_t>(i) - 1))]);
}

/** Parsed command line (see main.cc for the flags). */
struct Args
{
    std::string workload;
    /** Seeds the workload's own randomness: job order, arrivals. */
    std::uint64_t seed = 1;
    /** Seeds the loop suite; 42 is the suite the digests pin. */
    std::uint64_t suiteSeed = 42;
    double seconds = 10.0;
    bool trace = false;
    /** Use only the first N loops of the suite (0 = all 678). */
    std::size_t loops = 0;
    /** Test hook: corrupt one result before verification. */
    bool corruptOne = false;
    /** Where trace files and the warm-restart cache file go. */
    std::string outDir = ".";
};

/** Where a traced run writes its Chrome trace. */
inline std::string
tracePath(const Args &args)
{
    return args.outDir + "/trace-" + args.workload + ".json";
}

/** Every operation a workload attempted, and those that failed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Named metrics with units, printed as the benchmark's last line. */
class Metrics
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** One human-readable line per metric, for the log. */
    void printTable() const;

    /** The result object: correct, attempted, failed, metrics. */
    std::string json(bool correct, const Tally &tally) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * The @p p-quantile (0..1) of @p values by linear interpolation
 * between closest ranks; 0 for an empty sample.
 */
double quantile(std::vector<double> values, double p);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Mean of the middle half of @p values (the interquartile mean): as
 * robust to outliers as the median, but it moves smoothly when a run
 * mixes two host speeds instead of jumping between them.
 */
double interquartileMean(std::vector<double> values);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** The loop suite a run works on, and how it was obtained. */
struct SuiteSource
{
    std::vector<cvliw::Loop> loops;
    /** "cache" (seed 42 through loadOrBuildSuite) or "buildSuite". */
    std::string source;
    double loadMs = 0.0;
};

/**
 * The suite for @p args: seed 42 loads through `loadOrBuildSuite`
 * (the serialized suite the build writes), any other seed generates
 * with `buildSuite(seed)` so a foreign seed never reuses the seed-42
 * file. Truncated to `args.loops` when set.
 */
SuiteSource loadSuite(const Args &args);

/** Content digest of a whole suite (every graph, in order). */
std::uint64_t suiteContentDigest(const std::vector<cvliw::Loop> &suite);

/** eval/digest.hh's per-result digest, as one value. */
std::uint64_t resultDigest(const cvliw::CompileResult &result);

/**
 * Output verification outside the timed region: a result must be Ok,
 * pass `checkSchedule`, and simulate to the reference interpreter's
 * values. Accumulates the time the checker and simulator take.
 */
class Verifier
{
  public:
    /** @return true when @p result is a correct schedule of @p original. */
    bool verify(const cvliw::Ddg &original,
                const cvliw::MachineConfig &mach,
                const cvliw::CompileResult &result);

    double checkMs = 0.0;
    double simulateMs = 0.0;
};

/**
 * Test hook behind `--corrupt-one`: break @p result's schedule so
 * that the checker must reject it (one live node left unscheduled).
 */
void corruptSchedule(cvliw::CompileResult &result);

/** Harmonic-mean IPC and II excess over a set of suite results. */
struct Quality
{
    double ipcHmean = 0.0;   //!< hmean over machines of suiteHmeanIpc
    double iiExcessPct = 0.0; //!< 100 * (sum II - sum MII) / sum MII
};

/**
 * Quality of @p per_machine results (each parallel to @p suite, one
 * entry per machine config).
 */
Quality suiteQuality(const std::vector<cvliw::Loop> &suite,
                     const std::vector<cvliw::SuiteResult> &per_machine);

/**
 * Host speed. The shared host's speed drifts by up to half over seconds
 * to minutes (other tenants, not time slicing: CPU time tracks wall
 * time), which moves every wall-clock metric alike. calibrationMs()
 * times a fixed kernel of CPU work that does not call the compiler
 * (graph walks over small allocations, sorting, ordered and hashed
 * maps: the compiler's kind of work); a workload runs it next to its
 * timed work and reports times scaled by kReferenceCalibrationMs /
 * calibrationMs(), that is, as they would be on a host where the
 * kernel takes the reference time. The kernel is part of the
 * benchmark, so no change to `src/` moves it.
 */
constexpr double kReferenceCalibrationMs = 14.0;

/** Wall time of one run of the calibration kernel, in ms. */
double calibrationMs();

/**
 * Host speed now: kReferenceCalibrationMs over the median of three
 * runs of the calibration kernel. Multiply a wall time by it to get
 * the reference host's time.
 */
double hostScale();

/** hostScale(), re-measured once it is older than 250 ms. */
class HostSpeed
{
  public:
    double
    scale()
    {
        if (msSince(at_) >= 250.0) {
            scale_ = hostScale();
            at_ = Clock::now();
        }
        return scale_;
    }

  private:
    double scale_ = hostScale();
    Clock::time_point at_ = Clock::now();
};

/** Format @p v as 16 lowercase hex digits. */
std::string hex(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
