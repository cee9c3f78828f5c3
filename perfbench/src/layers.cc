#include <cstdio>

#include "workloads.hh"

namespace perfbench
{

using namespace cvliw;

std::vector<MachineConfig>
machinesOf(const std::vector<std::string> &names)
{
    std::vector<MachineConfig> out;
    for (const std::string &n : names)
        out.push_back(MachineConfig::fromString(n));
    return out;
}

namespace
{

/** Do the replay's counts equal the telemetry compile() returned? */
bool
countersMatch(const ReplayCounters &c, const CompileTelemetry &t)
{
    return c.iiAttempts == t.iiAttempts &&
           c.refineProbes == t.refineProbes &&
           c.refineCommits == t.refineCommits &&
           c.replicationRounds == t.replicationRounds &&
           static_cast<std::int64_t>(c.comsRemoved) == t.comsRemoved &&
           c.spills == t.spillRetries;
}

void
addCounters(ReplayCounters &into, const ReplayCounters &c)
{
    into.loops += c.loops;
    into.multilevelCalls += c.multilevelCalls;
    into.refineCalls += c.refineCalls;
    into.refineProbes += c.refineProbes;
    into.refineCommits += c.refineCommits;
    into.replicationRounds += c.replicationRounds;
    into.comsRemoved += c.comsRemoved;
    into.nodesReplicated += c.nodesReplicated;
    into.copiesInserted += c.copiesInserted;
    into.scheduleCalls += c.scheduleCalls;
    into.scheduleOk += c.scheduleOk;
    into.spills += c.spills;
    into.iiAttempts += c.iiAttempts;
    for (std::size_t i = 0; i < c.iiIncrease.size(); ++i)
        into.iiIncrease[i] += c.iiIncrease[i];
}

} // namespace

TraceSummary
tracedPasses(const std::vector<Loop> &suite,
             const std::vector<MachineConfig> &machines,
             const std::vector<Job> &jobs, double seconds,
             const std::string &trace_path)
{
    TraceSummary out;
    std::vector<SelfTimes> per_machine(machines.size());
    std::vector<std::uint64_t> digests(jobs.size());
    std::vector<CompileTelemetry> telemetry(jobs.size());
    std::vector<double> untraced_ms;
    std::vector<double> traced_ms;
    CompileCaches caches; // the replay's long-lived worker state
    SpanRecorder rec;
    std::size_t matches = 0;
    std::size_t counter_matches = 0;

    const auto untraced = [&](bool first) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const CompileResult r = compile(suite[jobs[j].loop].ddg,
                                            machines[jobs[j].machine]);
            if (first) {
                digests[j] = resultDigest(r);
                telemetry[j] = r.telemetry;
            }
        }
        untraced_ms.push_back(msSince(t0));
    };
    const auto traced = [&](bool first) {
        rec.clear();
        std::vector<CompileResult> replayed(first ? jobs.size() : 0);
        std::vector<ReplayCounters> counts(jobs.size());
        std::vector<std::size_t> from(jobs.size());
        const Clock::time_point t0 = Clock::now();
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            from[j] = rec.spans().size();
            CompileResult r = replayCompile(
                suite[jobs[j].loop].ddg, machines[jobs[j].machine],
                caches, rec, static_cast<std::uint32_t>(j), counts[j]);
            if (first)
                replayed[j] = std::move(r);
        }
        traced_ms.push_back(msSince(t0));
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            // Spans of job j: [from[j], from[j + 1]).
            const std::size_t to =
                j + 1 < jobs.size() ? from[j + 1] : rec.spans().size();
            addSelfTimes(rec.spans(), from[j], to,
                         per_machine[jobs[j].machine]);
            const Span &top = rec.spans()[from[j]];
            out.compileMs += msBetween(top.start, top.end);
        }
        if (!first)
            return;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            matches += resultDigest(replayed[j]) == digests[j];
            counter_matches += countersMatch(counts[j], telemetry[j]);
            addCounters(out.counters, counts[j]);
        }
        if (!trace_path.empty() && !rec.writeChromeJson(trace_path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_path.c_str());
    };

    const Clock::time_point t_end = deadlineAfter(seconds);
    // Pairs alternate which pass runs first, so drift and warm-up
    // fall on both sides of the overhead comparison.
    for (int pair = 0; pair == 0 || Clock::now() < t_end; ++pair) {
        if (pair % 2 == 0) {
            untraced(pair == 0);
            traced(pair == 0);
        } else {
            traced(false);
            untraced(false);
        }
    }

    const double passes = static_cast<double>(traced_ms.size());
    out.compileMs /= passes;
    out.perMachine = per_machine;
    for (SelfTimes &t : out.perMachine)
        for (auto &kv : t) {
            kv.second /= passes;
            out.self[kv.first] += kv.second;
        }
    if (matches != jobs.size())
        std::fprintf(stderr,
                     "perfbench: the replay differs from compile() on %zu "
                     "of %zu jobs; core/pipeline.cc changed and "
                     "perfbench/src/replay.cc must follow it\n",
                     jobs.size() - matches, jobs.size());
    const double n = jobs.empty() ? 1.0 : static_cast<double>(jobs.size());
    out.matchRatio = static_cast<double>(matches) / n;
    out.counterMatchRatio = static_cast<double>(counter_matches) / n;
    const double base = median(untraced_ms);
    out.overheadPct =
        base > 0.0 ? 100.0 * (median(traced_ms) - base) / base : 0.0;
    return out;
}

void
addEndToEnd(Metrics &m, const RunReport &r)
{
    const double ok =
        r.tally.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(r.tally.failed) /
                        static_cast<double>(r.tally.attempted);
    m.add("setup_s", r.e2e.setupS, "s");
    m.add("loops_per_s", r.e2e.loopsPerS, "1/s");
    m.add("latency_p50_ms", r.e2e.p50Ms, "ms");
    m.add("latency_p99_ms", r.e2e.p99Ms, "ms");
    m.add("ipc_hmean", r.e2e.quality.ipcHmean, "ipc");
    m.add("ii_excess_pct", r.e2e.quality.iiExcessPct, "%");
    m.add("ok_ratio", ok, "ratio");
    m.add("peak_rss_mb", peakRssMb(), "MiB");
}

void
addPerLayer(Metrics &m, const RunReport &r)
{
    const LayerReport &l = r.layers;
    const TraceSummary &t = l.trace;
    const ReplayCounters &c = t.counters;
    const auto self = [&](const char *name) {
        const auto it = t.self.find(name);
        return it == t.self.end() ? 0.0 : it->second;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto count = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const auto increase = [&](FailCause cause) {
        return count(c.iiIncrease[static_cast<std::size_t>(cause)]);
    };

    m.add("workloads.suite_load_ms", l.suiteLoadMs, "ms");
    m.add("sched.mii_ms", self("minimumIi"), "ms");
    m.add("partition.multilevel_ms", self("multilevelPartition"), "ms");
    m.add("partition.multilevel_calls", count(c.multilevelCalls), "count");
    m.add("partition.refine_ms", self("refinePartition"), "ms");
    m.add("partition.refine_calls", count(c.refineCalls), "count");
    m.add("partition.refine_probes", count(c.refineProbes), "count");
    m.add("partition.refine_commits", count(c.refineCommits), "count");
    m.add("partition.refine_commit_ratio",
          ratio(count(c.refineCommits), count(c.refineProbes)), "ratio");
    m.add("partition.share_pct",
          100.0 * ratio(layerMs(t.self, "partition"), t.compileMs), "%");
    m.add("core.replicate_ms", self("reduceCommunications"), "ms");
    m.add("core.replication_rounds", count(c.replicationRounds), "count");
    m.add("core.coms_removed", count(c.comsRemoved), "count");
    m.add("core.nodes_replicated", count(c.nodesReplicated), "count");
    m.add("core.spill_ms", self("spillOneValue"), "ms");
    m.add("core.spills", count(c.spills), "count");
    m.add("sched.comms_ms", self("findCommunications"), "ms");
    m.add("sched.copies_ms", self("insertCopies"), "ms");
    m.add("sched.copies_inserted", count(c.copiesInserted), "count");
    m.add("sched.schedule_ms", self("scheduleAtIi"), "ms");
    m.add("sched.schedule_calls", count(c.scheduleCalls), "count");
    m.add("sched.schedule_ok_ratio",
          ratio(count(c.scheduleOk), count(c.scheduleCalls)), "ratio");
    m.add("pipeline.compile_ms", t.compileMs, "ms");
    m.add("pipeline.ii_attempts", count(c.iiAttempts), "count");
    m.add("pipeline.ii_increase.bus", increase(FailCause::Bus), "count");
    m.add("pipeline.ii_increase.recurrence",
          increase(FailCause::Recurrence), "count");
    m.add("pipeline.ii_increase.registers",
          increase(FailCause::Registers), "count");
    m.add("pipeline.ii_increase.resources",
          increase(FailCause::Resources), "count");
    m.add("pipeline.unattributed_pct",
          100.0 * ratio(self("compile"), t.compileMs), "%");
    m.add("pipeline.replay_match_ratio", t.matchRatio, "ratio");
    m.add("pipeline.counter_match_ratio", t.counterMatchRatio, "ratio");
    m.add("vliw.check_ms", l.checkMs, "ms");
    m.add("vliw.simulate_ms", l.simulateMs, "ms");
    m.add("eval.cache_load_ms", l.cacheLoadMs, "ms");
    m.add("eval.cache_entries_loaded", l.cacheEntriesLoaded, "count");
    m.add("eval.cache_hit_us", l.cacheHitUs, "us");
    m.add("eval.cache_save_ms", l.cacheSaveMs, "ms");
    m.add("bench.trace_overhead_pct", t.overheadPct, "%");
    if (!l.serving)
        return;
    m.add("eval.submit_us_p99", l.submitUsP99, "us");
    m.add("eval.queue_wait_p99_ms", l.queueWaitP99Ms, "ms");
    m.add("eval.worker_busy_pct", l.workerBusyPct, "%");
    m.add("eval.cache_hit_ratio", l.cacheHitRatio, "ratio");
    m.add("eval.cache_dedup_joins", l.cacheDedupJoins, "count");
    m.add("eval.backlog_jobs", l.backlogJobs, "count");
    m.add("bench.gen_lag_p99_ms", l.genLagP99Ms, "ms");
}

} // namespace perfbench
