#include "replay.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/replicator.hh"
#include "core/spill.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/comms.hh"
#include "sched/copies.hh"
#include "sched/mii.hh"

namespace perfbench
{

using namespace cvliw;

int
SpanRecorder::open(const char *name, std::uint32_t loop, int parent,
                   int ii)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.loop = loop;
    s.ii = ii;
    spans_.push_back(s);
    spans_.back().start = Clock::now();
    return static_cast<int>(spans_.size()) - 1;
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const Clock::time_point epoch =
        spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch)
            .count();
    };
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"span\":\"%zu\",\"parent\":\"%d\","
                      "\"loop\":\"%u\",\"ii\":\"%d\"}}",
                      i ? "," : "", s.name, layerOf(s.name), us(s.start),
                      us(s.end) - us(s.start), i, s.parent, s.loop,
                      s.ii);
        os << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

namespace
{

/** RAII span over one pass call. */
class Scoped
{
  public:
    Scoped(SpanRecorder &rec, const char *name, std::uint32_t loop,
           int parent, int ii)
        : rec_(rec), index_(rec.open(name, loop, parent, ii))
    {
    }
    ~Scoped() { rec_.close(index_); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder &rec_;
    int index_;
};

/** The pipeline's per-cluster capacity test (core/pipeline.cc). */
bool
clusterCapacityOk(const Ddg &ddg, const MachineConfig &mach,
                  const Partition &part, int ii)
{
    const auto usage = part.usage(ddg, mach);
    constexpr auto num_kinds =
        static_cast<std::size_t>(ResourceKind::NumResourceKinds);
    for (std::size_t k = 0; k < num_kinds; ++k) {
        const auto kind = static_cast<ResourceKind>(k);
        if (kind == ResourceKind::Bus)
            continue;
        for (int c = 0; c < mach.numClusters(); ++c) {
            if (usage[k][c] != 0 &&
                usage[k][c] > mach.available(kind) * ii)
                return false;
        }
    }
    return true;
}

} // namespace

CompileResult
replayCompile(const Ddg &original, const MachineConfig &mach,
              CompileCaches &caches, SpanRecorder &rec,
              std::uint32_t loop, ReplayCounters &n)
{
    const PipelineOptions opts;
    ++n.loops;
    const int top = rec.open("compile", loop, -1, 0);
    PseudoScratch &pseudo = caches.pseudo;
    const auto probed = [&](auto &&call) {
        const std::uint64_t p0 = pseudo.probeCount();
        const std::uint64_t c0 = pseudo.commitCount();
        call();
        n.refineProbes += pseudo.probeCount() - p0;
        n.refineCommits += pseudo.commitCount() - c0;
    };

    CompileResult result;
    {
        Scoped s(rec, "minimumIi", loop, top, 0);
        result.mii = minimumIi(original, mach);
    }
    result.usefulOps = original.numNodes();

    PartitionResult pr;
    {
        Scoped s(rec, "multilevelPartition", loop, top,
                 result.mii);
        probed([&] {
            pr = multilevelPartition(original, mach, result.mii,
                                     &pseudo);
        });
        ++n.multilevelCalls;
    }

    const SchedulerOptions sched_opts;
    int reg_stagnation = 0;
    int best_worst_live = std::numeric_limits<int>::max();

    for (int ii = result.mii; ii <= opts.maxIi; ++ii) {
        ++n.iiAttempts;
        const auto bump = [&](FailCause cause) {
            result.iiIncreases.push_back(cause);
            ++n.iiIncrease[static_cast<std::size_t>(cause)];
        };
        if (ii > result.mii) {
            Scoped s(rec, "refinePartition", loop, top, ii);
            probed([&] {
                pr.partition = refinePartition(original, mach,
                                               pr.partition, ii,
                                               &pseudo);
            });
            ++n.refineCalls;
        }

        Ddg work = original;
        Partition part = pr.partition;
        ReplicationStats rstats;

        if (!mach.isUnified()) {
            bool repl_ok = true;
            {
                Scoped s(rec, "reduceCommunications", loop, top,
                         ii);
                repl_ok = reduceCommunications(
                    work, part, mach, ii, &rstats, opts.mode,
                    &pr.hierarchy, &caches.subgraph, nullptr);
            }
            n.replicationRounds +=
                static_cast<std::uint64_t>(rstats.roundsConsidered);
            n.comsRemoved += static_cast<std::uint64_t>(rstats.comsRemoved);
            n.nodesReplicated +=
                static_cast<std::uint64_t>(rstats.replicasAdded);
            int coms = 0;
            {
                Scoped s(rec, "findCommunications", loop, top,
                         ii);
                coms = findCommunications(work, part.vec()).count();
            }
            if (!repl_ok || extraComs(coms, mach, ii) > 0) {
                bump(FailCause::Bus);
                continue;
            }
            if (!clusterCapacityOk(work, mach, part, ii)) {
                bump(FailCause::Resources);
                continue;
            }
            result.comsFinal = coms;
        } else {
            result.comsFinal = 0;
        }

        // The pipeline's graph copies and compaction: unattributed time.
        work.compact();
        const Ddg pre_copy = work;
        const Partition pre_copy_part = part;

        {
            Scoped s(rec, "insertCopies", loop, top, ii);
            n.copiesInserted += insertCopies(work, part, mach).copies.size();
        }
        ScheduleAttempt attempt;
        {
            Scoped s(rec, "scheduleAtIi", loop, top, ii);
            attempt = scheduleAtIi(work, mach, part, ii, sched_opts,
                                   &caches.sched);
        }
        ++n.scheduleCalls;
        n.scheduleOk += attempt.ok ? 1 : 0;

        int spills_done = 0;
        int spill_budget = opts.spilling ? 4 * mach.numClusters() + 8 : 0;
        while (!attempt.ok && attempt.cause == FailCause::Registers &&
               spill_budget-- > 0) {
            bool spilled = false;
            {
                Scoped s(rec, "spillOneValue", loop, top, ii);
                spilled = spillOneValue(work, part, mach, attempt.sched);
            }
            if (!spilled)
                break;
            ++spills_done;
            Scoped s(rec, "scheduleAtIi", loop, top, ii);
            attempt = scheduleAtIi(work, mach, part, ii, sched_opts,
                                   &caches.sched);
            ++n.scheduleCalls;
            n.scheduleOk += attempt.ok ? 1 : 0;
        }
        n.spills += static_cast<std::uint64_t>(spills_done);

        if (!attempt.ok) {
            if (attempt.cause == FailCause::Registers &&
                !attempt.sched.maxLive.empty()) {
                const int worst = *std::max_element(
                    attempt.sched.maxLive.begin(),
                    attempt.sched.maxLive.end());
                if (worst < best_worst_live) {
                    best_worst_live = worst;
                    reg_stagnation = 0;
                } else if (++reg_stagnation >=
                           opts.registerStagnationLimit) {
                    rec.close(top);
                    return result;
                }
            } else {
                reg_stagnation = 0;
            }
            bump(attempt.cause);
            continue;
        }

        result.ok = true;
        result.ii = ii;
        result.spills = spills_done;
        result.schedule = attempt.sched;
        result.finalDdg = std::move(work);
        result.partition = std::move(part);
        result.repl = rstats;
        result.finalDdg.compact();
        rec.close(top);
        return result;
    }
    rec.close(top);
    return result;
}

void
addSelfTimes(const std::vector<Span> &spans, std::size_t from,
             std::size_t to, SelfTimes &out)
{
    std::vector<double> child_ms(to - from, 0.0);
    for (std::size_t i = from; i < to; ++i) {
        const Span &s = spans[i];
        if (s.parent >= static_cast<int>(from))
            child_ms[s.parent - from] += msBetween(s.start, s.end);
    }
    for (std::size_t i = from; i < to; ++i) {
        const Span &s = spans[i];
        out[s.name] += msBetween(s.start, s.end) - child_ms[i - from];
    }
}

const char *
layerOf(const std::string &span_name)
{
    static const std::map<std::string, const char *> layers = {
        {"compile", "pipeline"},
        {"minimumIi", "sched"},
        {"multilevelPartition", "partition"},
        {"refinePartition", "partition"},
        {"reduceCommunications", "core"},
        {"findCommunications", "sched"},
        {"insertCopies", "sched"},
        {"scheduleAtIi", "sched"},
        {"spillOneValue", "core"},
    };
    const auto it = layers.find(span_name);
    return it == layers.end() ? "" : it->second;
}

double
layerMs(const SelfTimes &t, const std::string &layer)
{
    double ms = 0.0;
    for (const auto &kv : t)
        if (layer == layerOf(kv.first))
            ms += kv.second;
    return ms;
}

} // namespace perfbench
