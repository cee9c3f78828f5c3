/**
 * @file
 * serve_mixed: one Frontier with two workers serves two tenants.
 *
 *  - interactive (weight 1, through a ResultCache): an open loop of
 *    single-loop requests on 4c2b2l64r at a fixed seeded Poisson
 *    rate; about a third of the requests repeat an earlier loop, so
 *    the cache serves hits and joins in-flight duplicates. Latency is
 *    measured from each request's due time, so a stalled generator
 *    shows up as latency rather than as a lower offered rate.
 *  - bulk (weight 4, cache off): a closed loop that keeps a fixed
 *    number of whole-suite batches on 4c2b4l64r outstanding.
 *
 * With the dispatcher and the load generator that is four threads.
 * This is the only workload that exercises frontier scheduling, fair
 * share, cache publishing, hits, dedup joins and queueing. It is not
 * listed in BENCHMARK.json: on a loaded shared host its latencies
 * varied from run to run by more than any bound the benchmark allows
 * (see perfbench/README.md). Run it by name.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>

#include "eval/frontier.hh"
#include "eval/result_cache.hh"
#include "workloads.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace cvliw;

namespace
{

// The offered load is fixed here, so every run and every commit
// receives the same load.
/**
 * Interactive demand stays well under the weight-1 tenant's fair share
 * (1/5 of the pool) even when the host runs at half speed; near that
 * share its queue, and so its latency, would grow without bound.
 */
constexpr double kInteractiveRatePerS = 200.0;
/**
 * An arrival repeats an earlier request's loop with this chance, and
 * is submitted twice at once (a client's double submit) with the
 * second; together about a third of the requests repeat a loop. The
 * repeats are cache hits; the double submits mostly land while the
 * first copy compiles and join it in the cache.
 */
constexpr double kRepeatShare = 0.25;
constexpr double kDoubleSubmitShare = 0.1;
constexpr std::size_t kBulkOutstanding = 2;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 5;
/** Interactive jobs still queued at the window's end that flag a backlog. */
constexpr double kBacklogFlagJobs = 0.1 * kInteractiveRatePerS;

/** One interactive request of the seeded arrival schedule. */
struct Request
{
    std::size_t loop = 0; //!< index into the interactive pool
    double dueMs = 0.0;   //!< from the start of the window
    bool repeat = false;  //!< repeats an earlier request's loop
};

/** Everything set-up builds, kept alive for the whole run. */
struct Setup
{
    SuiteSource suite;
    /** Loops interactive requests draw from: the suite, then more. */
    std::vector<Loop> pool;
    std::vector<Request> requests;
    std::vector<MachineConfig> machines; //!< [0] interactive, [1] bulk
    std::unique_ptr<ResultCache> cache;
    std::unique_ptr<Frontier> frontier;
};

void
buildSetup(const Args &args, Setup &s)
{
    s.frontier.reset();
    s.suite = loadSuite(args);
    s.machines = machinesOf({"4c2b2l64r", "4c2b4l64r"});

    // The arrival schedule. Fresh requests take the next fresh
    // ordinal; a repeat names an earlier request's loop.
    Rng rng(args.seed);
    s.requests.clear();
    std::size_t fresh = 0;
    double t_ms = 0.0;
    for (;;) {
        // Exponential gaps: a Poisson process at the fixed rate.
        t_ms += -std::log(1.0 - rng.uniformReal()) /
                kInteractiveRatePerS * 1000.0;
        if (t_ms >= args.seconds * 1000.0)
            break;
        Request req;
        req.dueMs = t_ms;
        req.repeat = !s.requests.empty() && rng.chance(kRepeatShare);
        req.loop = req.repeat
                       ? s.requests[static_cast<std::size_t>(rng.uniformInt(
                                        0, static_cast<std::int64_t>(
                                               s.requests.size()) -
                                               1))]
                             .loop
                       : fresh++;
        s.requests.push_back(req);
        if (rng.chance(kDoubleSubmitShare)) {
            req.repeat = true;
            s.requests.push_back(req);
        }
    }

    // Distinct loops for the fresh requests: the suite, then suites of
    // the following seeds, in an order drawn from the suite seed. The
    // pool's size and order do not depend on --seed, so every run
    // requests the same loops in the same order; only arrival times
    // and repeats vary.
    const std::size_t pool_size = std::max(
        fresh, static_cast<std::size_t>(kInteractiveRatePerS * args.seconds));
    s.pool = s.suite.loops;
    for (std::uint64_t k = 1; s.pool.size() < pool_size; ++k) {
        std::vector<Loop> more = buildSuite(args.suiteSeed + k);
        if (args.loops > 0 && args.loops < more.size())
            more.resize(args.loops);
        for (Loop &l : more)
            s.pool.push_back(std::move(l));
    }
    Rng pool_rng(args.suiteSeed);
    shuffle(s.pool, pool_rng);
    s.cache = std::make_unique<ResultCache>();
    s.frontier = std::make_unique<Frontier>(kWorkers);
}

} // namespace

RunReport
runServeMixed(const Args &args)
{
    RunReport r;
    Setup s;
    std::vector<double> load_ms;
    r.e2e.setupS = medianSetupSeconds(kSetupReps, [&] {
        buildSetup(args, s);
        load_ms.push_back(s.suite.loadMs);
    });
    r.layers.suiteLoadMs = median(load_ms);
    const std::vector<Loop> &suite = s.suite.loops;
    const std::size_t n_req = s.requests.size();

    PipelineOptions cached_opts;
    cached_opts.resultCache = s.cache.get();
    const PipelineOptions bulk_opts;
    TenantOptions interactive;
    interactive.tenant = "interactive";
    interactive.weight = 1.0;
    TenantOptions bulk;
    bulk.tenant = "bulk";
    bulk.weight = 4.0;
    std::vector<Frontier::Job> bulk_jobs;
    for (const Loop &l : suite)
        bulk_jobs.push_back({&l.ddg, &s.machines[1], &bulk_opts});

    // Written by the frontier's dispatcher thread in callbacks, read
    // here only after the frontier is destroyed (which joins it).
    // Bulk batches register no callback: one delivery per bulk job
    // would keep the dispatcher busy beside the two workers.
    std::vector<Clock::time_point> done_at(n_req);
    std::uint64_t bulk_not_ok = 0;
    double busy_ms = 0.0; // compile time of every job served

    std::vector<Frontier::BatchHandle> handles(n_req);
    std::vector<Clock::time_point> sent_at(n_req);
    std::vector<double> submit_us;
    std::vector<double> lag_ms;
    // Per bulk job, the digest every served copy must match.
    std::vector<std::uint64_t> bulk_digest(suite.size(), 0);
    std::vector<char> bulk_seen(suite.size(), 0);
    std::uint64_t bulk_served = 0;
    std::uint64_t bulk_mismatched = 0;
    std::deque<Frontier::BatchHandle> outstanding;

    const Clock::time_point start = Clock::now();
    const Clock::time_point end = deadlineAfter(args.seconds);
    const auto due = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               s.requests[i].dueMs));
    };
    const auto harvest = [&](const Frontier::BatchHandle &h) {
        for (std::size_t j = 0; j < h.size(); ++j) {
            const Frontier::JobView v = h.job(j);
            if (v.outcome == JobOutcome::Cancelled)
                continue; // dropped by the end-of-window cancel
            if (v.outcome != JobOutcome::Ok) {
                ++bulk_not_ok;
                continue;
            }
            busy_ms += v.result->telemetry.totalMs;
            const std::uint64_t d = resultDigest(*v.result);
            ++bulk_served;
            if (!bulk_seen[j]) {
                bulk_seen[j] = 1;
                bulk_digest[j] = d;
            } else if (bulk_digest[j] != d) {
                ++bulk_mismatched;
            }
        }
    };

    std::size_t next = 0;
    for (;;) {
        const Clock::time_point now = Clock::now();
        while (!outstanding.empty() && outstanding.front().status().done) {
            harvest(outstanding.front());
            outstanding.pop_front();
        }
        while (now < end && outstanding.size() < kBulkOutstanding) {
            outstanding.push_back(s.frontier->submit(bulk_jobs, bulk));
        }
        if (next < n_req && due(next) <= now) {
            const Loop &l = s.pool[s.requests[next].loop];
            sent_at[next] = now;
            lag_ms.push_back(msBetween(due(next), now));
            handles[next] = s.frontier->submit(
                {{&l.ddg, &s.machines[0], &cached_opts}}, interactive);
            submit_us.push_back(msSince(now) * 1000.0);
            handles[next].onJobDone(
                [&done_at, next](const Frontier::JobView &) {
                    done_at[next] = Clock::now();
                });
            ++next;
            continue;
        }
        if (next >= n_req && now >= end)
            break;
        // Between arrivals, wake now and then to keep the bulk batches
        // topped up; a bulk batch runs for far longer than this.
        const Clock::time_point wake = now + std::chrono::milliseconds(5);
        std::this_thread::sleep_until(next < n_req ? std::min(due(next), wake)
                                                   : wake);
    }

    const std::uint64_t bulk_ok_in_window = s.frontier->statsFor("bulk").jobsOk;
    const TenantStats at_end = s.frontier->statsFor("interactive");
    r.layers.serving = true;
    r.layers.backlogJobs = static_cast<double>(at_end.pendingJobs);
    if (r.layers.backlogJobs > kBacklogFlagJobs)
        r.notes.push_back("BACKLOG: " +
                          std::to_string(at_end.pendingJobs) +
                          " interactive jobs queued at the window's end; "
                          "the offered rate exceeds capacity");
    for (const Frontier::BatchHandle &h : outstanding)
        h.cancel();
    for (const Frontier::BatchHandle &h : handles)
        h.wait();
    for (const Frontier::BatchHandle &h : outstanding) {
        h.wait();
        harvest(h);
    }
    s.frontier.reset(); // drains callbacks and joins the dispatcher
    const double served_ms = msSince(start);
    const ResultCacheStats cs = s.cache->stats();

    // Interactive latency, queue wait and worker time.
    std::vector<double> latency_ms;
    std::vector<double> wait_ms;
    std::uint64_t repeats = 0;
    std::uint64_t interactive_not_ok = 0;
    for (std::size_t i = 0; i < n_req; ++i) {
        repeats += s.requests[i].repeat;
        const Frontier::JobView v = handles[i].job(0);
        latency_ms.push_back(msBetween(due(i), done_at[i]));
        if (v.outcome != JobOutcome::Ok) {
            ++interactive_not_ok;
            continue;
        }
        const CompileTelemetry &t = v.result->telemetry;
        const double compile_ms = t.cacheHit ? 0.0 : t.totalMs;
        wait_ms.push_back(msBetween(sent_at[i], done_at[i]) - compile_ms);
        busy_ms += compile_ms;
    }
    r.e2e.p50Ms = quantile(latency_ms, 0.50);
    r.e2e.p99Ms = quantile(latency_ms, 0.99);
    r.e2e.loopsPerS = static_cast<double>(bulk_ok_in_window) / args.seconds;
    r.layers.submitUsP99 = quantile(submit_us, 0.99);
    r.layers.genLagP99Ms = quantile(lag_ms, 0.99);
    r.layers.queueWaitP99Ms = quantile(wait_ms, 0.99);
    r.layers.workerBusyPct =
        100.0 * busy_ms / (kWorkers * served_ms);
    r.layers.cacheHitRatio =
        cs.hits + cs.misses > 0
            ? static_cast<double>(cs.hits) /
                  static_cast<double>(cs.hits + cs.misses)
            : 0.0;
    r.layers.cacheDedupJoins = static_cast<double>(cs.dedupJoins);

    // Verification: every served result must equal a direct compile()
    // of its job, and that result must check and simulate.
    Verifier v;
    std::uint64_t failed = bulk_mismatched + bulk_not_ok + interactive_not_ok;
    std::vector<SuiteResult> direct(1);
    direct[0].loops.resize(suite.size());
    for (std::size_t j = 0; j < suite.size(); ++j) {
        direct[0].loops[j] = compile(suite[j].ddg, s.machines[1]);
        if (args.corruptOne && j == 0)
            corruptSchedule(direct[0].loops[j]);
        const bool ok = v.verify(suite[j].ddg, s.machines[1],
                                 direct[0].loops[j]);
        if (bulk_seen[j] &&
            (!ok || resultDigest(direct[0].loops[j]) != bulk_digest[j]))
            ++failed;
    }
    std::vector<std::uint64_t> pool_digest(s.pool.size(), 0);
    std::vector<char> pool_ok(s.pool.size(), 0);
    std::vector<char> pool_done(s.pool.size(), 0);
    for (std::size_t i = 0; i < n_req; ++i) {
        const std::size_t p = s.requests[i].loop;
        if (!pool_done[p]) {
            pool_done[p] = 1;
            const CompileResult d = compile(s.pool[p].ddg, s.machines[0]);
            pool_digest[p] = resultDigest(d);
            pool_ok[p] = v.verify(s.pool[p].ddg, s.machines[0], d);
        }
        const Frontier::JobView jv = handles[i].job(0);
        if (jv.outcome == JobOutcome::Ok &&
            (!pool_ok[p] || resultDigest(*jv.result) != pool_digest[p]))
            ++failed;
    }
    r.layers.checkMs = v.checkMs;
    r.layers.simulateMs = v.simulateMs;
    r.tally.attempted = n_req + bulk_served + bulk_not_ok;
    r.tally.failed = failed;
    r.e2e.quality = suiteQuality(suite, direct);

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "offered: interactive %.0f req/s Poisson (%zu requests, "
                  "repeat share %.3f), bulk %zu suite batches outstanding",
                  kInteractiveRatePerS, n_req,
                  n_req ? static_cast<double>(repeats) / n_req : 0.0,
                  kBulkOutstanding);
    r.notes.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "served: bulk %llu jobs, cache hits %llu misses %llu "
                  "dedup joins %llu",
                  static_cast<unsigned long long>(bulk_served),
                  static_cast<unsigned long long>(cs.hits),
                  static_cast<unsigned long long>(cs.misses),
                  static_cast<unsigned long long>(cs.dedupJoins));
    r.notes.push_back(buf);

    if (args.trace) {
        // The layers under the served jobs: the distinct interactive
        // loops and the bulk suite, replayed outside the frontier.
        std::vector<Loop> loops = suite;
        std::vector<Job> jobs;
        for (std::size_t j = 0; j < suite.size(); ++j)
            jobs.push_back({j, 1});
        for (std::size_t p = 0; p < s.pool.size(); ++p)
            if (pool_done[p]) {
                jobs.push_back({loops.size(), 0});
                loops.push_back(s.pool[p]);
            }
        r.layers.trace = tracedPasses(
            loops, s.machines, jobs, args.seconds / 3.0,
            tracePath(args));
    }
    return r;
}

} // namespace perfbench
