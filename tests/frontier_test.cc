/**
 * @file
 * Serving-frontier tests (eval/frontier.hh): per-batch determinism at
 * 1/4/hw workers under concurrent load, priority overtaking, the full
 * cancellation matrix (before start, mid-batch, after finish -
 * idempotent), empty batches, a multi-threaded submit fuzz whose
 * every result is checked against single-batch oracle runs, and
 * per-job isolation of failures, including an invalid caller DDG. The CI
 * ThreadSanitizer job runs this binary to catch data races in the
 * frontier itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ddg/analysis.hh"
#include "ddg/builder.hh"
#include "eval/digest.hh"
#include "eval/frontier.hh"
#include "eval/service.hh"
#include "support/faultpoint.hh"
#include "workloads/suite_io.hh"

namespace cvliw
{
namespace
{

/** Every 8th loop: 85 loops spanning all ten benchmarks and sizes. */
const std::vector<Loop> &
sampleLoops()
{
    static const std::vector<Loop> sample = [] {
        const auto suite = loadOrBuildSuite(42);
        std::vector<Loop> out;
        for (std::size_t i = 0; i < suite.size(); i += 8)
            out.push_back(suite[i]);
        return out;
    }();
    return sample;
}

std::vector<Frontier::Job>
jobsFor(const std::vector<Loop> &loops, const MachineConfig &mach)
{
    std::vector<Frontier::Job> jobs(loops.size());
    for (std::size_t i = 0; i < loops.size(); ++i)
        jobs[i] = Frontier::Job{&loops[i].ddg, &mach, nullptr};
    return jobs;
}

std::uint64_t
digestResults(const std::vector<CompileResult> &results)
{
    ResultDigest d;
    for (const CompileResult &r : results)
        mixCompileResult(d, r);
    return d.h;
}

TEST(Frontier, BatchResultsBitIdenticalAcrossWorkerCounts)
{
    const auto &loops = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const int hw = Frontier::defaultWorkerCount();

    std::vector<std::uint64_t> digests;
    for (int workers : {1, 4, hw}) {
        Frontier frontier(workers);
        EXPECT_EQ(frontier.numWorkers(), workers);
        auto handle = frontier.submit(jobsFor(loops, m));
        handle.wait();
        const auto &results = handle.results();
        ASSERT_EQ(results.size(), loops.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_TRUE(handle.job(i).ran()) << "job " << i;
        digests.push_back(digestResults(results));
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

TEST(Frontier, ConcurrentBatchesMatchDirectCompile)
{
    // Three batches in flight at once on one pool; each must be
    // exactly what a lone compile() loop produces.
    const auto &loops = sampleLoops();
    const std::vector<MachineConfig> machs = {
        MachineConfig::fromString("2c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
        MachineConfig::fromString("4c2b4l64r"),
    };

    Frontier frontier(4);
    std::vector<Frontier::BatchHandle> handles;
    for (const MachineConfig &m : machs)
        handles.push_back(frontier.submit(jobsFor(loops, m)));

    for (std::size_t c = 0; c < machs.size(); ++c) {
        const auto &batched = handles[c].results();
        ASSERT_EQ(batched.size(), loops.size());
        ResultDigest direct;
        for (const Loop &loop : loops)
            mixCompileResult(direct, compile(loop.ddg, machs[c]));
        EXPECT_EQ(digestResults(batched), direct.h) << "config " << c;
    }
}

TEST(Frontier, HighPriorityBatchOvertakesBackground)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");

    // One worker, a long background batch, then a small urgent one:
    // the urgent batch must drain while the background one is still
    // running. 5x the sample gives the worker minutes of queue depth;
    // the urgent submit lands microseconds after the background one.
    std::vector<Loop> background_loops;
    for (int rep = 0; rep < 5; ++rep) {
        background_loops.insert(background_loops.end(), sample.begin(),
                                sample.end());
    }
    std::vector<Loop> urgent_loops(sample.begin(), sample.begin() + 8);

    Frontier frontier(1);
    auto background =
        frontier.submit(jobsFor(background_loops, m), /*priority=*/0);
    auto urgent =
        frontier.submit(jobsFor(urgent_loops, m), /*priority=*/10);
    EXPECT_EQ(urgent.priority(), 10);

    urgent.wait();
    const Frontier::BatchStatus bg = background.status();
    EXPECT_FALSE(bg.done)
        << "background batch finished before the high-priority one";
    EXPECT_LT(bg.compiled, bg.total);

    // Both batches still deliver exact results.
    background.wait();
    ResultDigest direct;
    for (const Loop &loop : urgent_loops)
        mixCompileResult(direct, compile(loop.ddg, m));
    EXPECT_EQ(digestResults(urgent.results()), direct.h);
    EXPECT_EQ(background.status().compiled, background_loops.size());
}

TEST(Frontier, EmptyBatchCompletesImmediately)
{
    Frontier frontier(2);
    auto handle = frontier.submit({});
    EXPECT_TRUE(handle.valid());
    EXPECT_EQ(handle.size(), 0u);
    EXPECT_TRUE(handle.status().done);
    handle.wait(); // returns immediately
    EXPECT_TRUE(handle.results().empty());
    EXPECT_EQ(handle.cancel(), 0u); // nothing to drop
}

TEST(Frontier, OutOfRangeJobIndexThrows)
{
    // Regression: these used to be fatal asserts; an off-by-one in a
    // caller's polling loop must be a catchable error, not a crash.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    Frontier frontier(2);
    std::vector<Frontier::Job> jobs = {
        Frontier::Job{&sample[0].ddg, &m, nullptr},
        Frontier::Job{&sample[1].ddg, &m, nullptr},
    };
    auto handle = frontier.submit(jobs);
    handle.wait();

    EXPECT_THROW(handle.job(jobs.size()), std::out_of_range);
    EXPECT_THROW(handle.job(jobs.size() + 100), std::out_of_range);

    // In-range accessors still work on the same handle afterwards.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(handle.job(i).ran());
        EXPECT_EQ(handle.job(i).outcome, JobOutcome::Ok);
        EXPECT_TRUE(handle.job(i).error.empty());
    }
}

TEST(Frontier, CancelBeforeStartDropsEveryJob)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");

    // Pin the lone worker to a higher-priority batch so the victim's
    // jobs are deterministically unclaimed when cancel() lands.
    Frontier frontier(1);
    auto shield = frontier.submit(jobsFor(sample, m), /*priority=*/5);
    auto victim = frontier.submit(jobsFor(sample, m), /*priority=*/0);

    const std::size_t dropped = victim.cancel();
    EXPECT_EQ(dropped, sample.size());
    victim.wait();
    const Frontier::BatchStatus s = victim.status();
    EXPECT_TRUE(s.done);
    EXPECT_TRUE(s.cancelled);
    EXPECT_EQ(s.compiled, 0u);
    EXPECT_EQ(s.dropped, sample.size());
    for (std::size_t i = 0; i < victim.size(); ++i) {
        EXPECT_FALSE(victim.job(i).ran());
        EXPECT_FALSE(victim.results()[i].ok);
    }
    shield.wait();
}

TEST(Frontier, CancelMidBatchKeepsFinishedPrefixExact)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("2c1b2l64r");

    std::vector<Loop> loops;
    for (int rep = 0; rep < 4; ++rep)
        loops.insert(loops.end(), sample.begin(), sample.end());

    Frontier frontier(2);
    auto handle = frontier.submit(jobsFor(loops, m));
    // Let some work land, then cancel mid-flight.
    while (handle.status().compiled < 8)
        std::this_thread::yield();
    handle.cancel();
    handle.wait();

    const Frontier::BatchStatus s = handle.status();
    EXPECT_TRUE(s.done);
    EXPECT_TRUE(s.cancelled);
    EXPECT_GE(s.compiled, 8u);
    EXPECT_LT(s.compiled, loops.size());
    EXPECT_EQ(s.compiled + s.dropped, loops.size());

    // Claimed-at-cancel jobs finished (cooperative), nothing was
    // interrupted: every ran job holds the exact oracle result, every
    // dropped one the default.
    const auto &results = handle.results();
    std::size_t ran_count = 0;
    for (std::size_t i = 0; i < loops.size(); ++i) {
        if (!handle.job(i).ran()) {
            EXPECT_FALSE(results[i].ok) << "job " << i;
            continue;
        }
        ++ran_count;
        if (ran_count <= 4) { // oracle-check a few, not all 85+
            ResultDigest a, b;
            mixCompileResult(a, results[i]);
            mixCompileResult(b, compile(loops[i].ddg, m));
            EXPECT_EQ(a.h, b.h) << "job " << i;
        }
    }
    EXPECT_EQ(ran_count, s.compiled);

    // The frontier stays healthy for the next tenant. (Named vector:
    // submitted graphs are borrowed until the batch completes.)
    std::vector<Loop> next(sample.begin(), sample.begin() + 4);
    auto after = frontier.submit(jobsFor(next, m));
    after.wait();
    EXPECT_EQ(after.status().compiled, 4u);
}

TEST(Frontier, CancelAfterFinishIsIdempotentNoOp)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 6);

    Frontier frontier(2);
    auto handle = frontier.submit(jobsFor(loops, m));
    handle.wait();
    const std::uint64_t digest = digestResults(handle.results());

    // cancel() on a done batch: drops nothing, flips nothing, and the
    // results stay intact - however often it is called.
    EXPECT_EQ(handle.cancel(), 0u);
    EXPECT_EQ(handle.cancel(), 0u);
    const Frontier::BatchStatus s = handle.status();
    EXPECT_TRUE(s.done);
    EXPECT_FALSE(s.cancelled);
    EXPECT_EQ(s.compiled, loops.size());
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_EQ(digestResults(handle.results()), digest);
}

TEST(Frontier, TryResultsIsNonBlocking)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");

    Frontier frontier(1);
    std::vector<Loop> two(sample.begin(), sample.begin() + 2);
    auto pin = frontier.submit(jobsFor(sample, m), /*priority=*/5);
    auto handle = frontier.submit(jobsFor(two, m));
    // The lone worker is pinned to the shield batch: the low-priority
    // batch cannot be done yet.
    EXPECT_EQ(handle.tryResults(), nullptr);
    handle.wait();
    const auto *results = handle.tryResults();
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->size(), 2u);
    pin.wait();
}

TEST(Frontier, HandleOutlivesFrontier)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 4);

    Frontier::BatchHandle handle;
    {
        Frontier frontier(2);
        handle = frontier.submit(jobsFor(loops, m));
        // The destructor drains the batch before joining the pool.
    }
    EXPECT_TRUE(handle.status().done);
    EXPECT_EQ(handle.results().size(), loops.size());
    EXPECT_EQ(handle.cancel(), 0u); // safe after the frontier died
}

TEST(Frontier, TakeConsumesResultsOnce)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 3);

    Frontier frontier(2);
    auto handle = frontier.submit(jobsFor(loops, m));
    std::vector<CompileResult> taken = handle.take();
    EXPECT_EQ(taken.size(), loops.size());
    EXPECT_TRUE(handle.results().empty()); // consumed
}

TEST(Frontier, MultiThreadedSubmitFuzzMatchesOracle)
{
    // N client threads submit random slices at random priorities and
    // verify every batch against per-job oracle digests computed
    // up front. Catches cross-batch interference: a frontier bug that
    // mixes up results, drops jobs or reuses state across tenants
    // cannot produce the right digests for every (slice, config).
    const auto &sample = sampleLoops();
    const std::vector<MachineConfig> machs = {
        MachineConfig::fromString("2c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
    };

    // Oracle: digest of compile(loop, mach) for every pair.
    std::vector<std::vector<std::uint64_t>> oracle(machs.size());
    for (std::size_t c = 0; c < machs.size(); ++c) {
        oracle[c].resize(sample.size());
        for (std::size_t i = 0; i < sample.size(); ++i) {
            ResultDigest d;
            mixCompileResult(d, compile(sample[i].ddg, machs[c]));
            oracle[c][i] = d.h;
        }
    }

    Frontier frontier(3);
    std::atomic<int> failures{0};
    auto client = [&](unsigned seed) {
        std::mt19937 rng(seed);
        for (int round = 0; round < 6; ++round) {
            const std::size_t c = rng() % machs.size();
            const std::size_t lo = rng() % (sample.size() - 4);
            const std::size_t n = 1 + rng() % 12;
            const std::size_t hi = std::min(sample.size(), lo + n);
            std::vector<Frontier::Job> jobs;
            for (std::size_t i = lo; i < hi; ++i) {
                jobs.push_back(
                    Frontier::Job{&sample[i].ddg, &machs[c], nullptr});
            }
            auto handle = frontier.submit(
                jobs, static_cast<int>(rng() % 5));
            const auto &results = handle.results();
            for (std::size_t i = 0; i < results.size(); ++i) {
                ResultDigest d;
                mixCompileResult(d, results[i]);
                if (d.h != oracle[c][lo + i])
                    ++failures;
            }
        }
    };

    std::vector<std::thread> clients;
    for (unsigned t = 0; t < 4; ++t)
        clients.emplace_back(client, 1000 + t);
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
}

// --- Fault tolerance -------------------------------------------------
//
// Everything below uses the deterministic fault-injection harness
// (support/faultpoint.hh): with one worker the claim order is the
// submission order, so `point@N` targets one specific job exactly.

/** Arm for one test, disarm on the way out whatever happens. */
struct ArmGuard
{
    explicit ArmGuard(const std::string &schedule)
    {
        faults::arm(schedule);
    }
    ~ArmGuard() { faults::disarm(); }
};

/** Oracle digest of compile(loop, mach) with injection off. */
std::uint64_t
oracleDigest(const Loop &loop, const MachineConfig &m)
{
    faults::Suspend suspend;
    ResultDigest d;
    mixCompileResult(d, compile(loop.ddg, m));
    return d.h;
}

TEST(FrontierFaults, FailedJobIsIsolatedFromBatchAndTenants)
{
    // The acceptance scenario: one injected throw fails exactly one
    // job; every other job of that batch AND a whole concurrent
    // batch complete Ok with bit-exact oracle results.
    const auto &sample = sampleLoops();
    const auto mA = MachineConfig::fromString("4c2b2l64r");
    const auto mB = MachineConfig::fromString("2c1b2l64r");
    std::vector<Loop> loopsA(sample.begin(), sample.begin() + 6);
    std::vector<Loop> loopsB(sample.begin() + 6, sample.begin() + 10);

    // Oracles first, before any schedule is armed.
    std::vector<std::uint64_t> oracleA, oracleB;
    for (const Loop &loop : loopsA)
        oracleA.push_back(oracleDigest(loop, mA));
    for (const Loop &loop : loopsB)
        oracleB.push_back(oracleDigest(loop, mB));

    // One worker claims A0 (hit 1), A1 (hit 2), A2 (hit 3: throws),
    // A3..A5, then all of B.
    ArmGuard guard("pipeline.start@3:throw=injected boom");
    Frontier frontier(1);
    auto a = frontier.submit(jobsFor(loopsA, mA));
    auto b = frontier.submit(jobsFor(loopsB, mB));
    a.wait();
    b.wait();

    EXPECT_EQ(a.job(2).outcome, JobOutcome::Failed);
    EXPECT_NE(a.job(2).error.find("injected boom"), std::string::npos)
        << a.job(2).error;
    EXPECT_FALSE(a.job(2).ran());
    EXPECT_FALSE(a.results()[2].ok);
    for (std::size_t i = 0; i < loopsA.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_EQ(a.job(i).outcome, JobOutcome::Ok) << "job " << i;
        EXPECT_TRUE(a.job(i).error.empty()) << "job " << i;
        ResultDigest d;
        mixCompileResult(d, a.results()[i]);
        EXPECT_EQ(d.h, oracleA[i]) << "job " << i;
    }
    for (std::size_t i = 0; i < loopsB.size(); ++i) {
        EXPECT_EQ(b.job(i).outcome, JobOutcome::Ok) << "job " << i;
        ResultDigest d;
        mixCompileResult(d, b.results()[i]);
        EXPECT_EQ(d.h, oracleB[i]) << "job " << i;
    }

    const Frontier::BatchStatus s = a.status();
    EXPECT_TRUE(s.done);
    EXPECT_EQ(s.compiled, loopsA.size() - 1);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.compiled + s.failed, s.total);

    const FrontierStats stats = frontier.stats();
    EXPECT_EQ(stats.jobsFailed, 1u);
    EXPECT_EQ(stats.jobsOk, loopsA.size() + loopsB.size() - 1);
    EXPECT_EQ(stats.pendingJobs, 0u);
}

TEST(FrontierFaults, DistanceZeroCycleFailsOnlyItsJob)
{
    // A caller's DDG whose distance-0 subgraph has a cycle is not a
    // loop body. It must fail as one job with a typed error, not abort
    // the process: every other job still completes bit-exact.
    DdgBuilder b;
    b.op("a", OpClass::IntAlu);
    b.op("b", OpClass::IntAlu, {"a"});
    b.flow("b", "a", 0);
    const Ddg cyclic = b.take();
    EXPECT_THROW(topoOrder(cyclic), InvalidDdg);
    EXPECT_THROW(compile(cyclic, MachineConfig::fromString("4c2b2l64r")),
                 std::invalid_argument);

    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const std::size_t bad = 3;
    std::vector<Frontier::Job> jobs;
    std::vector<std::uint64_t> oracle;
    for (std::size_t i = 0; i < 8; ++i) {
        if (i == bad) {
            jobs.push_back(Frontier::Job{&cyclic, &m, nullptr});
            oracle.push_back(0);
            continue;
        }
        jobs.push_back(Frontier::Job{&sample[i].ddg, &m, nullptr});
        oracle.push_back(oracleDigest(sample[i], m));
    }

    Frontier frontier(2);
    auto handle = frontier.submit(jobs);
    handle.wait();

    EXPECT_EQ(handle.job(bad).outcome, JobOutcome::Failed);
    EXPECT_NE(handle.job(bad).error.find("cycle"), std::string::npos)
        << handle.job(bad).error;
    EXPECT_FALSE(handle.results()[bad].ok);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == bad)
            continue;
        EXPECT_EQ(handle.job(i).outcome, JobOutcome::Ok) << "job " << i;
        ResultDigest d;
        mixCompileResult(d, handle.results()[i]);
        EXPECT_EQ(d.h, oracle[i]) << "job " << i;
    }
    EXPECT_EQ(frontier.stats().jobsFailed, 1u);
}

TEST(FrontierFaults, MachineLackingAUnitFailsOnlyItsJob)
{
    // A machine with no FP unit cannot run a loop with FP ops at any
    // II. That is the caller's input error: one failed job with a
    // typed error, never an exit of the serving process.
    const auto no_fp =
        MachineConfig::custom(2, ClusterResources{2, 0, 2, 0}, 1, 1, 32);
    DdgBuilder b;
    b.op("f0", OpClass::FpAlu);
    b.op("f1", OpClass::FpAlu, {"f0"});
    const Ddg fp_loop = b.take();
    EXPECT_THROW(compile(fp_loop, no_fp), MachineLacksUnit);

    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const std::size_t bad = 5;
    std::vector<Frontier::Job> jobs;
    std::vector<std::uint64_t> oracle;
    for (std::size_t i = 0; i < 8; ++i) {
        if (i == bad) {
            jobs.push_back(Frontier::Job{&fp_loop, &no_fp, nullptr});
            oracle.push_back(0);
            continue;
        }
        jobs.push_back(Frontier::Job{&sample[i].ddg, &m, nullptr});
        oracle.push_back(oracleDigest(sample[i], m));
    }

    Frontier frontier(2);
    auto handle = frontier.submit(jobs);
    handle.wait();

    EXPECT_EQ(handle.job(bad).outcome, JobOutcome::Failed);
    EXPECT_NE(handle.job(bad).error.find("no fp-fu units"),
              std::string::npos)
        << handle.job(bad).error;
    EXPECT_FALSE(handle.results()[bad].ok);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == bad)
            continue;
        EXPECT_EQ(handle.job(i).outcome, JobOutcome::Ok) << "job " << i;
        ResultDigest d;
        mixCompileResult(d, handle.results()[i]);
        EXPECT_EQ(d.h, oracle[i]) << "job " << i;
    }
    EXPECT_EQ(frontier.stats().jobsFailed, 1u);
}

TEST(FrontierFaults, StepBudgetTimesOutPerJob)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 6);

    std::vector<std::uint64_t> oracle;
    for (const Loop &loop : loops)
        oracle.push_back(oracleDigest(loop, m));

    // A negative budget expires at the first checkpoint: the job
    // times out deterministically, before any partial work lands.
    PipelineOptions instant_timeout;
    instant_timeout.stepBudget = -1;

    // Mixed batch: job 3 carries the poisoned options, the rest run
    // with defaults - per-job deadlines never leak across slots.
    std::vector<Frontier::Job> jobs = jobsFor(loops, m);
    jobs[3].opts = &instant_timeout;

    Frontier frontier(2);
    auto handle = frontier.submit(std::move(jobs));
    handle.wait();

    EXPECT_EQ(handle.job(3).outcome, JobOutcome::TimedOut);
    EXPECT_NE(handle.job(3).error.find("step budget"), std::string::npos)
        << handle.job(3).error;
    EXPECT_FALSE(handle.job(3).ran());
    EXPECT_FALSE(handle.results()[3].ok);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_EQ(handle.job(i).outcome, JobOutcome::Ok) << "job " << i;
        ResultDigest d;
        mixCompileResult(d, handle.results()[i]);
        EXPECT_EQ(d.h, oracle[i]) << "job " << i;
    }
    const Frontier::BatchStatus s = handle.status();
    EXPECT_EQ(s.timedOut, 1u);
    EXPECT_EQ(s.compiled, loops.size() - 1);
    EXPECT_EQ(frontier.stats().jobsTimedOut, 1u);

    // A generous budget changes nothing: same bits as no budget.
    PipelineOptions generous;
    generous.stepBudget = 1 << 20;
    std::vector<Frontier::Job> again = jobsFor(loops, m);
    for (auto &job : again)
        job.opts = &generous;
    auto verify = frontier.submit(std::move(again));
    verify.wait();
    for (std::size_t i = 0; i < loops.size(); ++i) {
        ASSERT_EQ(verify.job(i).outcome, JobOutcome::Ok) << "job " << i;
        ResultDigest d;
        mixCompileResult(d, verify.results()[i]);
        EXPECT_EQ(d.h, oracle[i]) << "job " << i;
    }
}

TEST(FrontierFaults, SoftDeadlineTimesOut)
{
    // Wall-clock deadlines are best-effort and timing-dependent; the
    // only deterministic setting is "already expired", which must
    // fail at the first checkpoint.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 2);

    PipelineOptions expired;
    expired.softDeadlineMs = -1.0;
    std::vector<Frontier::Job> jobs = jobsFor(loops, m);
    for (auto &job : jobs)
        job.opts = &expired;

    Frontier frontier(1);
    auto handle = frontier.submit(std::move(jobs));
    handle.wait();
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_EQ(handle.job(i).outcome, JobOutcome::TimedOut)
            << "job " << i;
        EXPECT_NE(handle.job(i).error.find("soft deadline"),
                  std::string::npos)
            << handle.job(i).error;
    }
    EXPECT_EQ(handle.status().timedOut, loops.size());
}

TEST(FrontierFaults, RejectPolicyRefusesOversizedBatch)
{
    // Under Reject, a batch that cannot ever fit (larger than the
    // whole cap) is refused outright - deterministically, with no
    // timing window at all.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 3);

    FrontierLimits limits;
    limits.maxPendingJobs = 2;
    limits.policy = AdmissionPolicy::Reject;
    Frontier frontier(1, limits);
    EXPECT_EQ(frontier.limits().maxPendingJobs, 2u);

    auto handle = frontier.submit(jobsFor(loops, m));
    const Frontier::BatchStatus s = handle.status();
    EXPECT_TRUE(s.done); // born complete, never queued
    EXPECT_EQ(s.rejected, loops.size());
    EXPECT_EQ(s.compiled, 0u);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_EQ(handle.job(i).outcome, JobOutcome::Rejected);
        EXPECT_NE(handle.job(i).error.find("admission control"),
                  std::string::npos)
            << handle.job(i).error;
        EXPECT_FALSE(handle.job(i).ran());
        EXPECT_FALSE(handle.results()[i].ok);
    }
    EXPECT_EQ(handle.cancel(), 0u); // nothing queued to drop

    const FrontierStats stats = frontier.stats();
    EXPECT_EQ(stats.batchesRejected, 1u);
    EXPECT_EQ(stats.jobsRejected, loops.size());
    EXPECT_EQ(stats.jobsSubmitted, 0u); // rejected jobs never admitted

    // The frontier still serves batches that fit.
    std::vector<Loop> two(sample.begin(), sample.begin() + 2);
    auto ok = frontier.submit(jobsFor(two, m));
    ok.wait();
    EXPECT_EQ(ok.status().compiled, 2u);
}

TEST(FrontierFaults, RejectPolicyFastFailsWhenQueueIsFull)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> two(sample.begin(), sample.begin() + 2);
    std::vector<Loop> one(sample.begin() + 2, sample.begin() + 3);

    FrontierLimits limits;
    limits.maxPendingJobs = 2;
    limits.policy = AdmissionPolicy::Reject;

    // Hold the lone worker at its first claim for 300ms: the first
    // batch's two jobs stay pending long past the (microseconds
    // later) second submit, so the rejection is deterministic.
    ArmGuard guard("frontier.claim@1:delay=300");
    Frontier frontier(1, limits);
    auto admitted = frontier.submit(jobsFor(two, m));
    auto refused = frontier.submit(jobsFor(one, m));

    EXPECT_TRUE(refused.status().done);
    EXPECT_EQ(refused.job(0).outcome, JobOutcome::Rejected);
    EXPECT_NE(refused.job(0).error.find("queue full"), std::string::npos)
        << refused.job(0).error;

    admitted.wait();
    EXPECT_EQ(admitted.status().compiled, 2u);
    const FrontierStats stats = frontier.stats();
    EXPECT_EQ(stats.batchesRejected, 1u);
    EXPECT_EQ(stats.jobsOk, 2u);
    EXPECT_EQ(stats.pendingJobs, 0u);

    // With room freed, the same jobs are admitted.
    auto retry = frontier.submit(jobsFor(one, m));
    retry.wait();
    EXPECT_EQ(retry.job(0).outcome, JobOutcome::Ok);
}

TEST(FrontierFaults, BlockPolicyParksSubmitterUntilRoom)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> first(sample.begin(), sample.begin() + 2);
    std::vector<Loop> second(sample.begin() + 2, sample.begin() + 4);

    FrontierLimits limits;
    limits.maxPendingJobs = 2;
    limits.policy = AdmissionPolicy::Block;
    Frontier frontier(1, limits);

    auto a = frontier.submit(jobsFor(first, m));
    // cap == pending: this submit must block until the first batch
    // fully drains (room for 2 means pendingJobs == 0, which the
    // frontier only reaches once every job of `a` is terminal).
    auto b = frontier.submit(jobsFor(second, m));
    EXPECT_TRUE(a.status().done)
        << "blocked submit returned before the queue drained";

    b.wait();
    EXPECT_EQ(b.status().compiled, second.size());
    const FrontierStats stats = frontier.stats();
    EXPECT_EQ(stats.batchesSubmitted, 2u);
    EXPECT_EQ(stats.batchesRejected, 0u);
    EXPECT_EQ(stats.jobsOk, first.size() + second.size());
}

TEST(FrontierFaults, BlockPolicyAdmitsOversizedBatchWhenIdle)
{
    // A batch larger than the cap can never fit; under Block it is
    // admitted alone once the frontier is idle instead of
    // deadlocking the submitter forever.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> one(sample.begin(), sample.begin() + 1);
    std::vector<Loop> big(sample.begin() + 1, sample.begin() + 4);

    FrontierLimits limits;
    limits.maxPendingJobs = 1;
    limits.policy = AdmissionPolicy::Block;
    Frontier frontier(1, limits);

    auto small = frontier.submit(jobsFor(one, m));
    auto oversized = frontier.submit(jobsFor(big, m)); // parks, then admits
    EXPECT_TRUE(small.status().done);
    oversized.wait();
    EXPECT_EQ(oversized.status().compiled, big.size());
    EXPECT_EQ(frontier.stats().jobsOk, one.size() + big.size());
}

TEST(FrontierFaults, DestructorDrainsFailingJobs)
{
    // The drain-on-destruction contract holds when every remaining
    // job throws: the workers absorb each failure, the batch lands
    // with structured outcomes, and the handle stays safe after the
    // frontier is gone.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 6);

    ArmGuard guard("pipeline.start@1+:throw=tenant is down");
    Frontier::BatchHandle handle;
    {
        Frontier frontier(2);
        handle = frontier.submit(jobsFor(loops, m));
    }
    const Frontier::BatchStatus s = handle.status();
    EXPECT_TRUE(s.done);
    EXPECT_EQ(s.failed, loops.size());
    EXPECT_EQ(s.compiled, 0u);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_EQ(handle.job(i).outcome, JobOutcome::Failed) << "job " << i;
        EXPECT_NE(handle.job(i).error.find("tenant is down"),
                  std::string::npos)
            << "job " << i;
        EXPECT_FALSE(handle.results()[i].ok);
    }
    EXPECT_EQ(handle.cancel(), 0u); // safe after the frontier died
}

TEST(FrontierFaults, HandleOutlivesFrontierWithMixedOutcomes)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 8);

    std::vector<std::uint64_t> oracle;
    for (const Loop &loop : loops)
        oracle.push_back(oracleDigest(loop, m));

    PipelineOptions instant_timeout;
    instant_timeout.stepBudget = -1;
    std::vector<Frontier::Job> jobs = jobsFor(loops, m);
    for (std::size_t i = 1; i < jobs.size(); i += 2)
        jobs[i].opts = &instant_timeout;

    Frontier::BatchHandle handle;
    {
        Frontier frontier(3);
        handle = frontier.submit(std::move(jobs));
    }
    for (std::size_t i = 0; i < loops.size(); ++i) {
        if (i % 2 == 1) {
            EXPECT_EQ(handle.job(i).outcome, JobOutcome::TimedOut)
                << "job " << i;
            EXPECT_FALSE(handle.job(i).error.empty()) << "job " << i;
        } else {
            EXPECT_EQ(handle.job(i).outcome, JobOutcome::Ok) << "job " << i;
            ResultDigest d;
            mixCompileResult(d, handle.results()[i]);
            EXPECT_EQ(d.h, oracle[i]) << "job " << i;
        }
    }
    const Frontier::BatchStatus s = handle.status();
    EXPECT_EQ(s.compiled, loops.size() / 2);
    EXPECT_EQ(s.timedOut, loops.size() / 2);
}

TEST(FrontierFaults, CancelAfterFailureIsIdempotentNoOp)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 3);

    ArmGuard guard("pipeline.start@2:throw=mid boom");
    Frontier frontier(1);
    auto handle = frontier.submit(jobsFor(loops, m));
    handle.wait();
    EXPECT_EQ(handle.job(0).outcome, JobOutcome::Ok);
    EXPECT_EQ(handle.job(1).outcome, JobOutcome::Failed);
    EXPECT_EQ(handle.job(2).outcome, JobOutcome::Ok);

    // cancel() on a finished batch with failures: still a no-op,
    // outcomes and counters untouched.
    EXPECT_EQ(handle.cancel(), 0u);
    EXPECT_EQ(handle.cancel(), 0u);
    const Frontier::BatchStatus s = handle.status();
    EXPECT_TRUE(s.done);
    EXPECT_FALSE(s.cancelled);
    EXPECT_EQ(s.compiled, 2u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_EQ(handle.job(1).outcome, JobOutcome::Failed);
}

TEST(FrontierFaults, DestructionAfterCancelWithFailuresInFlight)
{
    // The nastiest interleaving: jobs failing, a cancel mid-batch,
    // then the frontier destroyed - every job must still reach a
    // terminal outcome and the accounting must close exactly.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 12);

    // Each claim is slowed by 20ms so the cancel below lands while
    // jobs are deterministically still unclaimed (12 x 20ms of queue
    // versus a cancel issued right after the second failure).
    ArmGuard guard(
        "frontier.claim@1+:delay=20;pipeline.start@1+:throw=down");
    Frontier::BatchHandle handle;
    {
        Frontier frontier(1);
        handle = frontier.submit(jobsFor(loops, m));
        while (handle.status().failed < 2)
            std::this_thread::yield();
        handle.cancel();
    }
    const Frontier::BatchStatus s = handle.status();
    EXPECT_TRUE(s.done);
    EXPECT_TRUE(s.cancelled);
    EXPECT_GE(s.failed, 2u);
    EXPECT_EQ(s.compiled, 0u);
    EXPECT_EQ(s.failed + s.dropped, s.total);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        const JobOutcome outcome = handle.job(i).outcome;
        ASSERT_TRUE(outcome == JobOutcome::Failed ||
                    outcome == JobOutcome::Cancelled)
            << "job " << i << ": " << toString(outcome);
        if (outcome == JobOutcome::Failed) {
            EXPECT_FALSE(handle.job(i).error.empty()) << "job " << i;
        }
        EXPECT_FALSE(handle.job(i).ran()) << "job " << i;
    }
}

TEST(FrontierFaults, StatsSnapshotClosesTheBooks)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> six(sample.begin(), sample.begin() + 6);
    std::vector<Loop> four(sample.begin() + 6, sample.begin() + 10);

    Frontier frontier(1);
    // A finished batch, an empty batch, and a cancelled-before-start
    // batch (the shield pins the lone worker, as in
    // CancelBeforeStartDropsEveryJob).
    auto shield = frontier.submit(jobsFor(six, m), /*priority=*/5);
    auto victim = frontier.submit(jobsFor(four, m), /*priority=*/0);
    EXPECT_EQ(victim.cancel(), four.size());
    auto empty = frontier.submit({});
    shield.wait();
    victim.wait();

    const FrontierStats stats = frontier.stats();
    EXPECT_EQ(stats.batchesSubmitted, 3u);
    EXPECT_EQ(stats.batchesRejected, 0u);
    EXPECT_EQ(stats.jobsSubmitted, six.size() + four.size());
    EXPECT_EQ(stats.jobsOk, six.size());
    EXPECT_EQ(stats.jobsCancelled, four.size());
    EXPECT_EQ(stats.jobsFailed, 0u);
    EXPECT_EQ(stats.jobsTimedOut, 0u);
    EXPECT_EQ(stats.jobsRejected, 0u);
    EXPECT_EQ(stats.pendingJobs, 0u);
    // The books close: every admitted job reached exactly one
    // terminal state.
    EXPECT_EQ(stats.jobsSubmitted, stats.jobsOk + stats.jobsFailed +
                                       stats.jobsTimedOut +
                                       stats.jobsCancelled +
                                       stats.pendingJobs);
}

TEST(FrontierEnvFaults, ScheduleInvariantsHold)
{
    // CI sweep entry point: run with CVLIW_FAULTS set to any seeded
    // schedule (throwing ones included) and the serving invariants
    // must hold - Ok jobs are bit-exact, non-Ok jobs carry an error,
    // nothing hangs, and the frontier serves cleanly afterwards.
    const std::string schedule = faults::envSchedule();
    if (schedule.empty())
        GTEST_SKIP() << "set CVLIW_FAULTS to exercise this test";

    const auto &sample = sampleLoops();
    const std::vector<MachineConfig> machs = {
        MachineConfig::fromString("2c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
    };
    std::vector<Loop> loops(sample.begin(), sample.begin() + 24);

    // Oracles with injection off (earlier tests may have disarmed the
    // env schedule; (re)arm it only after these).
    faults::disarm();
    std::vector<std::vector<std::uint64_t>> oracle(machs.size());
    for (std::size_t c = 0; c < machs.size(); ++c) {
        for (const Loop &loop : loops)
            oracle[c].push_back(oracleDigest(loop, machs[c]));
    }

    faults::arm(schedule);
    Frontier frontier(0); // hardware concurrency: stress the pool
    std::vector<Frontier::BatchHandle> handles;
    for (int round = 0; round < 2; ++round) {
        for (std::size_t c = 0; c < machs.size(); ++c) {
            handles.push_back(
                frontier.submit(jobsFor(loops, machs[c]),
                                /*priority=*/round));
        }
    }
    // Streaming must survive the sweep too: every batch gets a
    // callback, so frontier.dispatch schedules exercise the
    // dispatcher's exception boundary, and exactly-once delivery is
    // checked below against the job count.
    std::mutex delivered_mutex;
    std::vector<std::size_t> delivered(handles.size(), 0);
    for (std::size_t h = 0; h < handles.size(); ++h) {
        handles[h].onJobDone([&delivered_mutex, &delivered,
                              h](const Frontier::JobView &) {
            std::lock_guard<std::mutex> lock(delivered_mutex);
            ++delivered[h];
        });
    }
    std::size_t not_ok = 0;
    for (std::size_t h = 0; h < handles.size(); ++h) {
        auto &handle = handles[h];
        handle.wait();
        const std::size_t c = h % machs.size();
        for (std::size_t i = 0; i < loops.size(); ++i) {
            const JobOutcome outcome = handle.job(i).outcome;
            if (outcome == JobOutcome::Ok) {
                EXPECT_TRUE(handle.job(i).ran());
                ResultDigest d;
                mixCompileResult(d, handle.results()[i]);
                EXPECT_EQ(d.h, oracle[c][i])
                    << "batch " << h << " job " << i;
            } else {
                ++not_ok;
                ASSERT_TRUE(outcome == JobOutcome::Failed ||
                            outcome == JobOutcome::TimedOut)
                    << toString(outcome);
                EXPECT_FALSE(handle.job(i).error.empty());
                EXPECT_FALSE(handle.job(i).ran());
                EXPECT_FALSE(handle.results()[i].ok);
            }
        }
    }
    const FrontierStats stats = frontier.stats();
    EXPECT_EQ(stats.pendingJobs, 0u);
    EXPECT_EQ(stats.jobsSubmitted, stats.jobsOk + stats.jobsFailed +
                                       stats.jobsTimedOut);
    EXPECT_EQ(stats.jobsFailed + stats.jobsTimedOut, not_ok);

    // Exactly-once streaming under injection: the dispatcher is
    // asynchronous, so give it (a bounded) moment to drain, then
    // every batch must have seen one callback per job - a throwing
    // frontier.dispatch schedule included.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const std::size_t expected = handles.size() * loops.size();
    while (std::chrono::steady_clock::now() < deadline) {
        std::lock_guard<std::mutex> lock(delivered_mutex);
        std::size_t total = 0;
        for (std::size_t d : delivered)
            total += d;
        if (total >= expected)
            break;
        std::this_thread::yield();
    }
    {
        std::lock_guard<std::mutex> lock(delivered_mutex);
        for (std::size_t h = 0; h < handles.size(); ++h) {
            EXPECT_EQ(delivered[h], loops.size()) << "batch " << h;
        }
    }

    // Recovery: with injection off again the same frontier (and its
    // quarantined-or-not caches) serves bit-exact results.
    faults::disarm();
    auto after = frontier.submit(jobsFor(loops, machs[0]));
    after.wait();
    for (std::size_t i = 0; i < loops.size(); ++i) {
        ASSERT_EQ(after.job(i).outcome, JobOutcome::Ok) << "job " << i;
        ResultDigest d;
        mixCompileResult(d, after.results()[i]);
        EXPECT_EQ(d.h, oracle[0][i]) << "job " << i;
    }
}

TEST(Frontier, ServiceCompileBatchIsSubmitWait)
{
    // The synchronous facade and a hand-rolled submit().wait() agree,
    // and concurrent facade calls (previously serialized) interleave
    // safely on one service.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 10);

    CompileService service(2);
    std::vector<CompileResult> via_service;
    std::vector<CompileResult> via_frontier;
    std::thread a([&] {
        via_service = service.compileBatch(jobsFor(loops, m));
    });
    std::thread b([&] {
        auto handle = service.frontier().submit(jobsFor(loops, m));
        via_frontier = handle.take();
    });
    a.join();
    b.join();
    EXPECT_EQ(digestResults(via_service), digestResults(via_frontier));

    // The tenant-aware facade overload is the same compile: a named
    // tenant at a different weight changes scheduling, never bits.
    TenantOptions tenant;
    tenant.tenant = "facade";
    tenant.weight = 2.0;
    const auto via_tenant =
        service.compileBatch(jobsFor(loops, m), tenant);
    EXPECT_EQ(digestResults(via_tenant), digestResults(via_service));
    EXPECT_EQ(service.frontier().statsFor("facade").jobsOk,
              loops.size());
}

// --- Fair share ------------------------------------------------------

TEST(FrontierFairShare, BackgroundTenantIsNotStarved)
{
    // The starvation regression the fair-share redesign exists for:
    // under the old strict-priority claim rule this exact scenario
    // parked the background tenant until the saturating high-priority
    // stream drained. Now priority never crosses tenants - the
    // weight-1 tenant keeps a bounded share of the lone worker and
    // its small batch completes while the bulk tenant is still busy.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");

    std::vector<Loop> bulk_loops;
    for (int rep = 0; rep < 3; ++rep)
        bulk_loops.insert(bulk_loops.end(), sample.begin(),
                          sample.end());
    std::vector<Loop> bg_loops(sample.begin(), sample.begin() + 4);

    TenantOptions bulk;
    bulk.tenant = "bulk";
    bulk.weight = 8.0;
    bulk.priority = 10; // high priority must NOT starve other tenants
    TenantOptions background;
    background.tenant = "interactive";
    background.weight = 1.0;

    Frontier frontier(1);
    auto heavy = frontier.submit(jobsFor(bulk_loops, m), bulk);
    auto small = frontier.submit(jobsFor(bg_loops, m), background);
    EXPECT_EQ(heavy.tenant(), "bulk");
    EXPECT_EQ(small.tenant(), "interactive");

    small.wait();
    const Frontier::BatchStatus bulk_status = heavy.status();
    EXPECT_FALSE(bulk_status.done)
        << "background tenant starved behind the bulk stream";
    EXPECT_LT(bulk_status.compiled, bulk_status.total);

    // Fairness changes when results land, never what they are.
    ResultDigest direct;
    for (const Loop &loop : bg_loops)
        mixCompileResult(direct, compile(loop.ddg, m));
    EXPECT_EQ(digestResults(small.results()), direct.h);

    heavy.wait();
    EXPECT_EQ(heavy.status().compiled, bulk_loops.size());

    const TenantStats bg_stats = frontier.statsFor("interactive");
    EXPECT_EQ(bg_stats.jobsOk, bg_loops.size());
    EXPECT_GT(bg_stats.p99LatencyMs, 0.0);
    EXPECT_GE(bg_stats.p99LatencyMs, bg_stats.p50LatencyMs);
    EXPECT_GT(bg_stats.throughputJobsPerSec, 0.0);
}

TEST(FrontierFairShare, SingleTenantKeepsLegacyPriorityOrder)
{
    // All legacy submits share the default tenant, whose batches tie
    // on virtual time - so (priority, seq) is still the complete
    // order and the pre-fair-share overtaking behaviour survives
    // unchanged (HighPriorityBatchOvertakesBackground pins the full
    // scenario; this pins the tenant identity).
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 4);

    Frontier frontier(2);
    auto handle = frontier.submit(jobsFor(loops, m), /*priority=*/3);
    EXPECT_EQ(handle.tenant(), "");
    EXPECT_EQ(handle.priority(), 3);
    handle.wait();
    EXPECT_EQ(frontier.statsFor().jobsOk, loops.size());
    EXPECT_EQ(frontier.statsFor().tenant, "");
}

TEST(FrontierFairShare, PerTenantCountersSumToAggregate)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> six(sample.begin(), sample.begin() + 6);
    std::vector<Loop> four(sample.begin() + 6, sample.begin() + 10);
    std::vector<Loop> two(sample.begin() + 10, sample.begin() + 12);

    FrontierLimits limits;
    limits.maxPendingJobs = 10;
    limits.policy = AdmissionPolicy::Reject;
    Frontier frontier(1, limits);

    TenantOptions served;
    served.tenant = "served";
    TenantOptions flaky;
    flaky.tenant = "flaky";
    TenantOptions refused;
    refused.tenant = "refused";

    auto a = frontier.submit(jobsFor(six, m), served);
    auto b = frontier.submit(jobsFor(four, m), flaky);
    // Queue now holds 10 of 10: this whole batch is refused.
    auto c = frontier.submit(jobsFor(two, m), refused);
    EXPECT_TRUE(c.status().done);
    EXPECT_EQ(c.status().rejected, two.size());
    // Cancel what the worker has not claimed of the flaky tenant.
    b.cancel();
    a.wait();
    b.wait();

    const FrontierStats agg = frontier.stats();
    EXPECT_EQ(agg.pendingJobs, 0u);
    EXPECT_EQ(agg.blockedJobs, 0u);
    // The books close per job...
    EXPECT_EQ(agg.jobsSubmitted, agg.jobsOk + agg.jobsFailed +
                                     agg.jobsTimedOut +
                                     agg.jobsCancelled +
                                     agg.pendingJobs);
    // ...and every aggregate counter is exactly the sum of its
    // per-tenant splits.
    FrontierStats sum;
    for (const TenantStats &t : frontier.tenantStats()) {
        sum.batchesSubmitted += t.batchesSubmitted;
        sum.batchesRejected += t.batchesRejected;
        sum.jobsSubmitted += t.jobsSubmitted;
        sum.jobsOk += t.jobsOk;
        sum.jobsFailed += t.jobsFailed;
        sum.jobsTimedOut += t.jobsTimedOut;
        sum.jobsCancelled += t.jobsCancelled;
        sum.jobsRejected += t.jobsRejected;
        sum.jobsShed += t.jobsShed;
        sum.pendingJobs += t.pendingJobs;
        sum.pendingCost += t.pendingCost;
    }
    EXPECT_EQ(sum.batchesSubmitted, agg.batchesSubmitted);
    EXPECT_EQ(sum.batchesRejected, agg.batchesRejected);
    EXPECT_EQ(sum.jobsSubmitted, agg.jobsSubmitted);
    EXPECT_EQ(sum.jobsOk, agg.jobsOk);
    EXPECT_EQ(sum.jobsFailed, agg.jobsFailed);
    EXPECT_EQ(sum.jobsTimedOut, agg.jobsTimedOut);
    EXPECT_EQ(sum.jobsCancelled, agg.jobsCancelled);
    EXPECT_EQ(sum.jobsRejected, agg.jobsRejected);
    EXPECT_EQ(sum.jobsShed, agg.jobsShed);
    EXPECT_EQ(sum.pendingJobs, agg.pendingJobs);
    EXPECT_EQ(sum.pendingCost, agg.pendingCost);

    // The per-tenant records carry the right rates.
    const TenantStats refused_stats = frontier.statsFor("refused");
    EXPECT_EQ(refused_stats.jobsRejected, two.size());
    EXPECT_DOUBLE_EQ(refused_stats.rejectRate, 1.0);
    EXPECT_DOUBLE_EQ(refused_stats.cancelRate, 0.0);
    const TenantStats served_stats = frontier.statsFor("served");
    EXPECT_EQ(served_stats.jobsOk, six.size());
    EXPECT_DOUBLE_EQ(served_stats.rejectRate, 0.0);
    EXPECT_GT(served_stats.p50LatencyMs, 0.0);
    const TenantStats flaky_stats = frontier.statsFor("flaky");
    EXPECT_EQ(flaky_stats.jobsOk + flaky_stats.jobsCancelled,
              four.size());
    if (flaky_stats.jobsCancelled > 0) {
        EXPECT_GT(flaky_stats.cancelRate, 0.0);
    }

    // An unknown tenant snapshots to a zeroed record, not a crash.
    const TenantStats ghost = frontier.statsFor("never-seen");
    EXPECT_EQ(ghost.tenant, "never-seen");
    EXPECT_EQ(ghost.jobsSubmitted, 0u);
    EXPECT_DOUBLE_EQ(ghost.weight, 1.0);
}

// --- Streaming completions -------------------------------------------

TEST(FrontierStreaming, CallbackFiresOncePerJobInCompletionOrder)
{
    // One worker claims FIFO within the one batch, so the completion
    // order is the job order - and the streamed views must carry the
    // exact bits that wait() + results() hand out.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 8);

    std::mutex mu;
    std::vector<std::size_t> order;
    ResultDigest streamed;
    Frontier::BatchHandle handle;
    {
        Frontier frontier(1);
        handle = frontier.submit(jobsFor(loops, m));
        handle.onJobDone([&](const Frontier::JobView &view) {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(view.index);
            EXPECT_EQ(view.outcome, JobOutcome::Ok);
            EXPECT_TRUE(view.ran());
            EXPECT_TRUE(view.error.empty());
            ASSERT_NE(view.result, nullptr);
            mixCompileResult(streamed, *view.result);
        });
        // Destruction drains the batch AND delivers every callback.
    }
    ASSERT_EQ(order.size(), loops.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i) << "completion order broke FIFO";
    // Streaming vs wait(): bit-identical.
    EXPECT_EQ(streamed.h, digestResults(handle.results()));
}

TEST(FrontierStreaming, LateRegistrationReplaysAllCompletions)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("2c1b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 5);

    // (a) Registered after wait() on a live frontier: the dispatcher
    // replays the backlog asynchronously.
    Frontier frontier(2);
    auto handle = frontier.submit(jobsFor(loops, m));
    handle.wait();
    std::atomic<std::size_t> delivered{0};
    handle.onJobDone([&](const Frontier::JobView &view) {
        EXPECT_EQ(view.outcome, JobOutcome::Ok);
        ++delivered;
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (delivered.load() < loops.size() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
    EXPECT_EQ(delivered.load(), loops.size());

    // (b) Registered after the frontier died: delivery is synchronous
    // on the registering thread - no completion is ever lost.
    Frontier::BatchHandle orphan;
    {
        Frontier scoped(2);
        orphan = scoped.submit(jobsFor(loops, m));
    }
    std::size_t replayed = 0;
    orphan.onJobDone([&](const Frontier::JobView &view) {
        EXPECT_NE(view.outcome, JobOutcome::Pending);
        ++replayed;
    });
    EXPECT_EQ(replayed, loops.size());
}

TEST(FrontierStreaming, ThrowingCallbackDoesNotBreakDelivery)
{
    // A crashing consumer is the consumer's bug: the dispatcher logs
    // it and keeps delivering - every job still streams exactly once
    // and the frontier serves the next batch untouched.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 6);

    std::atomic<std::size_t> delivered{0};
    {
        Frontier frontier(2);
        auto handle = frontier.submit(jobsFor(loops, m));
        handle.onJobDone([&](const Frontier::JobView &) {
            ++delivered;
            throw std::runtime_error("consumer crashed");
        });
        auto clean = frontier.submit(jobsFor(loops, m));
        clean.wait();
        EXPECT_EQ(clean.status().compiled, loops.size());
    }
    EXPECT_EQ(delivered.load(), loops.size());
}

TEST(FrontierStreaming, NextDonePollsEveryJobThenDrains)
{
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 6);

    Frontier frontier(1);
    auto handle = frontier.submit(jobsFor(loops, m));

    std::vector<std::size_t> polled;
    while (auto i = handle.nextDone()) {
        const Frontier::JobView view = handle.job(*i);
        EXPECT_EQ(view.index, *i);
        EXPECT_EQ(view.outcome, JobOutcome::Ok);
        ASSERT_NE(view.result, nullptr);
        EXPECT_TRUE(view.result->ok);
        polled.push_back(*i);
    }
    ASSERT_EQ(polled.size(), loops.size());
    for (std::size_t i = 0; i < polled.size(); ++i)
        EXPECT_EQ(polled[i], i); // one worker: completion FIFO
    // Drained is sticky: both polls agree with the done status.
    EXPECT_TRUE(handle.status().done);
    EXPECT_FALSE(handle.nextDone().has_value());
    EXPECT_FALSE(handle.tryNextDone().has_value());
}

TEST(FrontierStreaming, CancelledAndShedJobsStreamToo)
{
    // Terminal is terminal: admission sheds and cancel drops land on
    // the stream like compiled jobs, so a consumer draining
    // nextDone() always sees size() events.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 6);

    FrontierLimits limits;
    limits.maxPendingJobs = 4;
    limits.policy = AdmissionPolicy::Reject;
    Frontier frontier(1, limits);

    TenantOptions partial;
    partial.tenant = "partial";
    partial.allowPartial = true;
    auto handle = frontier.submit(jobsFor(loops, m), partial);
    std::size_t ok = 0, shed = 0;
    while (auto i = handle.nextDone()) {
        const Frontier::JobView view = handle.job(*i);
        if (view.outcome == JobOutcome::Ok)
            ++ok;
        else if (view.outcome == JobOutcome::Rejected)
            ++shed;
    }
    EXPECT_EQ(ok, 4u);
    EXPECT_EQ(shed, 2u);

    // Same for cancel drops: on an unlimited frontier, pin the lone
    // worker with a higher-priority same-tenant batch, cancel the
    // victim, and its stream must deliver every drop.
    Frontier plain(1);
    auto pin = plain.submit(jobsFor(loops, m), /*priority=*/5);
    auto victim = plain.submit(jobsFor(loops, m), /*priority=*/0);
    const std::size_t dropped = victim.cancel();
    std::size_t streamed_drops = 0;
    while (auto i = victim.nextDone()) {
        if (victim.job(*i).outcome == JobOutcome::Cancelled)
            ++streamed_drops;
    }
    EXPECT_EQ(streamed_drops, dropped);
    pin.wait();
}

// --- Admission: cost caps, partial shedding, blocked accounting ------

TEST(FrontierAdmission, PartialShedAdmitsLongestPrefix)
{
    // Empty frontier + cap 4 + batch of 6 with allowPartial: exactly
    // jobs 0..3 are admitted and 4..5 land Rejected at submit - no
    // timing window anywhere.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 6);

    FrontierLimits limits;
    limits.maxPendingJobs = 4;
    limits.policy = AdmissionPolicy::Reject;
    Frontier frontier(2, limits);

    TenantOptions tenant;
    tenant.tenant = "shedder";
    tenant.allowPartial = true;
    auto handle = frontier.submit(jobsFor(loops, m), tenant);

    // The tail is terminal immediately, before any compile finishes.
    for (std::size_t i = 4; i < 6; ++i) {
        const Frontier::JobView view = handle.job(i);
        EXPECT_EQ(view.outcome, JobOutcome::Rejected) << "job " << i;
        EXPECT_NE(view.error.find("shed"), std::string::npos)
            << view.error;
    }
    handle.wait();
    const Frontier::BatchStatus s = handle.status();
    EXPECT_TRUE(s.done);
    EXPECT_EQ(s.compiled, 4u);
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.compiled + s.rejected, s.total);

    // Shed jobs are booked in jobsShed, disjoint from whole-batch
    // jobsRejected, and the books still close exactly.
    const FrontierStats stats = frontier.stats();
    EXPECT_EQ(stats.batchesSubmitted, 1u);
    EXPECT_EQ(stats.batchesRejected, 0u);
    EXPECT_EQ(stats.jobsSubmitted, 4u);
    EXPECT_EQ(stats.jobsShed, 2u);
    EXPECT_EQ(stats.jobsRejected, 0u);
    EXPECT_EQ(stats.jobsOk, 4u);
    EXPECT_EQ(stats.pendingJobs, 0u);
    EXPECT_EQ(stats.pendingCost, 0u);
    const TenantStats ts = frontier.statsFor("shedder");
    EXPECT_EQ(ts.jobsShed, 2u);
    EXPECT_DOUBLE_EQ(ts.rejectRate, 2.0 / 6.0);
}

TEST(FrontierAdmission, CostCapBoundsQueueByEstimatedWork)
{
    // The cost-weighted cap: pending is measured in graph nodes, not
    // job count, so one small-looking batch of big loops is bounded
    // like the minutes of work it actually is.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> two(sample.begin(), sample.begin() + 2);
    const auto cost0 =
        static_cast<std::uint64_t>(two[0].ddg.numNodes());

    FrontierLimits limits;
    limits.maxPendingCost = cost0; // room for job 0, never both
    limits.policy = AdmissionPolicy::Reject;
    Frontier frontier(1, limits);
    EXPECT_EQ(frontier.limits().maxPendingCost, cost0);

    // Without partial consent the whole batch is refused, naming the
    // cost cap.
    auto refused = frontier.submit(jobsFor(two, m));
    EXPECT_TRUE(refused.status().done);
    EXPECT_EQ(refused.job(0).outcome, JobOutcome::Rejected);
    EXPECT_NE(refused.job(0).error.find("queue cost full"),
              std::string::npos)
        << refused.job(0).error;

    // With consent the prefix that fits under the cost cap (exactly
    // job 0) is admitted and compiled.
    TenantOptions partial;
    partial.allowPartial = true;
    auto shed = frontier.submit(jobsFor(two, m), partial);
    shed.wait();
    EXPECT_EQ(shed.job(0).outcome, JobOutcome::Ok);
    EXPECT_EQ(shed.job(1).outcome, JobOutcome::Rejected);
    EXPECT_EQ(frontier.stats().jobsShed, 1u);
    EXPECT_EQ(frontier.stats().pendingCost, 0u);
}

TEST(FrontierAdmission, ProgressGuaranteeAdmitsOversizedJobWhenIdle)
{
    // A cost cap smaller than any single job must not wedge partial
    // submitters: with nothing pending, one job is always admitted.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> loops(sample.begin(), sample.begin() + 3);

    FrontierLimits limits;
    limits.maxPendingCost = 1; // every loop is bigger than this
    limits.policy = AdmissionPolicy::Reject;
    Frontier frontier(1, limits);

    TenantOptions partial;
    partial.allowPartial = true;
    auto handle = frontier.submit(jobsFor(loops, m), partial);
    handle.wait();
    EXPECT_EQ(handle.job(0).outcome, JobOutcome::Ok);
    EXPECT_EQ(handle.job(1).outcome, JobOutcome::Rejected);
    EXPECT_EQ(handle.job(2).outcome, JobOutcome::Rejected);
    EXPECT_EQ(handle.status().compiled, 1u);
}

TEST(FrontierAdmission, BlockedSubmitterJobsAreAccounted)
{
    // The pendingJobs under-count regression: jobs committed by a
    // parked Block-policy submitter were invisible to stats() - a
    // queue snapshot during the handoff read 2 pending when 4 were
    // outstanding. blockedJobs closes the gap.
    const auto &sample = sampleLoops();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    std::vector<Loop> first(sample.begin(), sample.begin() + 2);
    std::vector<Loop> second(sample.begin() + 2, sample.begin() + 4);

    FrontierLimits limits;
    limits.maxPendingJobs = 2;
    limits.policy = AdmissionPolicy::Block;

    // Slow every claim so the parked window is long enough to
    // observe deterministically from this thread.
    ArmGuard guard("frontier.claim@1+:delay=50");
    Frontier frontier(1, limits);
    auto a = frontier.submit(jobsFor(first, m)); // fills the cap
    std::thread parked([&] {
        auto b = frontier.submit(jobsFor(second, m)); // parks
        b.wait();
    });

    // The parked submitter's 2 jobs must show up in blockedJobs
    // while it waits (pending 2 + blocked 2 = the true commitment).
    bool observed = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
        const FrontierStats s = frontier.stats();
        EXPECT_LE(s.pendingJobs, 2u); // cap honoured throughout
        if (s.blockedJobs == second.size()) {
            observed = true;
            break;
        }
        if (s.jobsOk >= first.size() + second.size())
            break; // everything drained before we caught the window
        std::this_thread::yield();
    }
    parked.join();
    EXPECT_TRUE(observed)
        << "parked submitter's jobs never appeared in blockedJobs";

    // After the handoff the transient is gone and the books close.
    const FrontierStats s = frontier.stats();
    EXPECT_EQ(s.blockedJobs, 0u);
    EXPECT_EQ(s.pendingJobs, 0u);
    EXPECT_EQ(s.jobsOk, first.size() + second.size());
    EXPECT_EQ(s.jobsSubmitted, s.jobsOk);
}

} // namespace
} // namespace cvliw
