/**
 * @file
 * The traced run's replay of the compile pipeline (core/pipeline.cc):
 * the same calls into the public passes, in the same order, each
 * wrapped in a span the benchmark records itself. Spans stay in
 * memory and are written at the end of the run as Chrome trace-event
 * JSON, the format support/trace emits, so the same viewers open
 * both.
 *
 * The replay must produce the result `compile()` produces; the
 * traced run digest-compares the two on every loop and reports the
 * share that match. A mismatch means the pipeline changed and this
 * file has to follow it.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** One recorded call. */
struct Span
{
    const char *name = "";  //!< the function called (string literal)
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;        //!< index of the enclosing span, -1 at top
    std::uint32_t loop = 0; //!< shared by every span of one compile
    int ii = 0;             //!< II attempt the call belongs to (0: none)
};

/** Append-only in-memory span store. */
class SpanRecorder
{
  public:
    /** Start a span now; returns its index for close(). */
    int open(const char *name, std::uint32_t loop, int parent, int ii);
    void close(int index) { spans_[index].end = Clock::now(); }

    const std::vector<Span> &spans() const { return spans_; }
    void clear() { spans_.clear(); }

    /** Write the spans as Chrome trace-event JSON; false on IO error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Exact counts the replay observes at each call boundary. */
struct ReplayCounters
{
    std::uint64_t loops = 0;
    std::uint64_t multilevelCalls = 0;
    std::uint64_t refineCalls = 0;
    std::uint64_t refineProbes = 0;  //!< PseudoScratch probes, all calls
    std::uint64_t refineCommits = 0; //!< PseudoScratch commits, all calls
    std::uint64_t replicationRounds = 0;
    std::uint64_t comsRemoved = 0;
    std::uint64_t nodesReplicated = 0;
    std::uint64_t copiesInserted = 0;
    std::uint64_t scheduleCalls = 0;
    std::uint64_t scheduleOk = 0;
    std::uint64_t spills = 0;
    std::uint64_t iiAttempts = 0;
    /** II increases by FailCause (index = enum value). */
    std::array<std::uint64_t, 5> iiIncrease{};
};

/**
 * Compile @p original for @p mach exactly as `compile()` does with
 * default options, recording one span per pass call under one
 * "compile" span tagged @p loop. @p caches plays the role of a
 * worker's CompileCaches.
 */
cvliw::CompileResult replayCompile(const cvliw::Ddg &original,
                                   const cvliw::MachineConfig &mach,
                                   cvliw::CompileCaches &caches,
                                   SpanRecorder &rec, std::uint32_t loop,
                                   ReplayCounters &counters);

/** Self time per span name, in milliseconds. */
using SelfTimes = std::map<std::string, double>;

/**
 * Add the self time of every span in [@p from, @p to) of @p spans to
 * @p out: its duration minus the part its children cover. Parents of
 * spans in the range must lie in the range or before @p from.
 */
void addSelfTimes(const std::vector<Span> &spans, std::size_t from,
                  std::size_t to, SelfTimes &out);

/** Sum of @p t over spans of @p layer ("pipeline" = unattributed). */
double layerMs(const SelfTimes &t, const std::string &layer);

/** Layer of a span name recorded by replayCompile. */
const char *layerOf(const std::string &span_name);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
