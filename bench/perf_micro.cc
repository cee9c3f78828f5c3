/**
 * @file
 * google-benchmark micro-benchmarks: throughput of the partitioner,
 * the modulo scheduler, the replication pass and the end-to-end
 * pipeline on representative generated loops. These are tooling
 * benchmarks (compiler speed), not paper figures.
 *
 * scripts/bench.sh runs this binary with --benchmark_format=json and
 * records the result as BENCH_pipeline.json at the repo root, so the
 * compile-throughput trajectory is tracked PR over PR.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

#include "core/pipeline.hh"
#include "core/replicator.hh"
#include "ddg/analysis.hh"
#include "eval/frontier.hh"
#include "eval/result_cache.hh"
#include "eval/service.hh"
#include "partition/edge_weights.hh"
#include "partition/multilevel.hh"
#include "partition/refine.hh"
#include "sched/comms.hh"
#include "sched/copies.hh"
#include "sched/mii.hh"
#include "sched/scheduler.hh"
#include "support/trace.hh"
#include "workloads/suite.hh"
#include "workloads/suite_io.hh"

namespace
{

using namespace cvliw;

const std::vector<Loop> &
suite()
{
    static const std::vector<Loop> s = loadOrBuildSuite(42);
    return s;
}

/**
 * The @p idx-th loop of benchmark @p bench in suite order (the first
 * suite loop when the benchmark has fewer).
 */
const Loop &
sampleLoop(const char *bench, int idx)
{
    int seen = 0;
    for (const Loop &loop : suite()) {
        if (loop.benchmark == bench && seen++ == idx)
            return loop;
    }
    return suite().front();
}

/** The @p rank-th largest loop of the whole suite (rank 0 = largest). */
const Loop &
largestLoop(int rank)
{
    // Stable, so equal-sized loops keep suite order.
    static const std::vector<std::size_t> by_size = [] {
        std::vector<std::size_t> order(suite().size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [](std::size_t a, std::size_t b) {
                             return suite()[a].ddg.numNodes() >
                                    suite()[b].ddg.numNodes();
                         });
        return order;
    }();
    return suite()[by_size[static_cast<std::size_t>(rank) %
                           by_size.size()]];
}

void
BM_MultilevelPartition(benchmark::State &state)
{
    const Loop &loop = sampleLoop("su2cor", 3);
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const int mii = minimumIi(loop.ddg, m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            multilevelPartition(loop.ddg, m, mii));
    }
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_MultilevelPartition);

void
BM_ModuloSchedule(benchmark::State &state)
{
    const Loop &loop = sampleLoop("hydro2d", 2);
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    // Prepare a feasible II graph once.
    Ddg g = loop.ddg;
    Partition part = pr.partition;
    reduceCommunications(g, part, m, mii + 4);
    insertCopies(g, part, m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleAtIi(g, m, part, mii + 4));
    }
}
BENCHMARK(BM_ModuloSchedule);

/** scheduleAtIi on the largest suite loop: the scheduler hot path. */
void
BM_ScheduleAtIiLargest(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    Ddg g = loop.ddg;
    Partition part = pr.partition;
    reduceCommunications(g, part, m, mii + 6);
    insertCopies(g, part, m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleAtIi(g, m, part, mii + 6));
    }
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_ScheduleAtIiLargest)->Arg(0)->Arg(1);

/**
 * scheduleAtIi with a shared SchedulerCache, as the pipeline drives
 * it: the SMS order / node times / topo order are generation-cached
 * across attempts, leaving the placement loop itself.
 */
void
BM_ScheduleAtIiCached(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    Ddg g = loop.ddg;
    Partition part = pr.partition;
    reduceCommunications(g, part, m, mii + 6);
    insertCopies(g, part, m);
    SchedulerCache cache;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleAtIi(g, m, part, mii + 6, {}, &cache));
    }
    state.SetLabel(std::to_string(g.numNodes()) + " nodes");
}
BENCHMARK(BM_ScheduleAtIiCached)->Arg(0)->Arg(1);

/** RecMII binary search: dominated by Bellman-Ford edge relaxation. */
void
BM_RecurrenceMii(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    for (auto _ : state)
        benchmark::DoNotOptimize(recurrenceMii(loop.ddg, m));
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_RecurrenceMii)->Arg(0)->Arg(1);

/**
 * refinePartition alone, from a degenerate everything-in-cluster-0
 * start on the largest suite loops: the partitioner's hot path, and
 * the workload the incremental move evaluation exists for.
 */
void
BM_RefinePartition(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    Partition p(m.numClusters(), loop.ddg.numNodeSlots());
    for (NodeId n : loop.ddg.nodes())
        p.assign(n, 0);
    PseudoScratch scratch;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            refinePartition(loop.ddg, m, p, mii, &scratch));
    }
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_RefinePartition)->Arg(0)->Arg(2);

/**
 * coarsen() alone on the largest suite loop at its MII: the edge
 * fold, the per-level matching sort and the renumbering, without the
 * edge weighting, bin-packing or refinement around it.
 */
void
BM_Coarsen(benchmark::State &state)
{
    const Loop &loop = largestLoop(0);
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto weights = computeEdgeWeights(loop.ddg, m);
    for (auto _ : state)
        benchmark::DoNotOptimize(coarsen(loop.ddg, m, mii, weights));
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_Coarsen);

/**
 * The communication scan on the largest suite loop under its initial
 * 4c2b4l64r partition: what every II attempt pays once.
 */
void
BM_FindCommunications(benchmark::State &state)
{
    const Loop &loop = largestLoop(0);
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            findCommunications(loop.ddg, pr.partition.vec()).count());
    }
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_FindCommunications);

/**
 * Copy insertion on the largest suite loop after replication at
 * MII + 6 on 4c2b4l64r; each iteration copies the graph (the
 * pipeline's work copy) and inserts the copies.
 */
void
BM_InsertCopies(benchmark::State &state)
{
    const Loop &loop = largestLoop(0);
    const auto m = MachineConfig::fromString("4c2b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    Ddg replicated = loop.ddg;
    Partition replicated_part = pr.partition;
    reduceCommunications(replicated, replicated_part, m, mii + 6);
    replicated.compact();
    std::size_t copies = 0;
    for (auto _ : state) {
        Ddg g = replicated;
        Partition part = replicated_part;
        copies = insertCopies(g, part, m).copies.size();
        benchmark::DoNotOptimize(copies);
    }
    state.SetLabel(std::to_string(copies) + " copies");
}
BENCHMARK(BM_InsertCopies);

void
BM_ReplicationPass(benchmark::State &state)
{
    const Loop &loop = sampleLoop("tomcatv", 1);
    const auto m = MachineConfig::fromString("4c1b2l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    for (auto _ : state) {
        Ddg g = loop.ddg;
        Partition part = pr.partition;
        ReplicationStats stats;
        reduceCommunications(g, part, m, mii + 2, &stats);
        benchmark::DoNotOptimize(stats.replicasAdded);
    }
}
BENCHMARK(BM_ReplicationPass);

/**
 * A rounds-dominated replication pass: one bus of latency 4 starves
 * the largest loops into ~8 selection rounds, which is where the
 * incremental CommInfo patching and subgraph-pool reuse pay off.
 */
void
BM_ReplicationHeavy(benchmark::State &state)
{
    const Loop &loop = largestLoop(2);
    const auto m = MachineConfig::fromString("4c1b4l64r");
    const int mii = minimumIi(loop.ddg, m);
    const auto pr = multilevelPartition(loop.ddg, m, mii);
    for (auto _ : state) {
        Ddg g = loop.ddg;
        Partition part = pr.partition;
        ReplicationStats stats;
        reduceCommunications(g, part, m, mii, &stats);
        benchmark::DoNotOptimize(stats.replicasAdded);
    }
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_ReplicationHeavy);

void
BM_EndToEndCompile(benchmark::State &state)
{
    const Loop &loop =
        sampleLoop(state.range(0) == 0 ? "wave5" : "fpppp", 0);
    const auto m = MachineConfig::fromString("4c2b4l64r");
    for (auto _ : state)
        benchmark::DoNotOptimize(compile(loop.ddg, m));
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_EndToEndCompile)->Arg(0)->Arg(1);

/**
 * The headline number: full compile() (partition, replication, copy
 * insertion, modulo scheduling across II retries) on the largest
 * loops of the suite. This is what BENCH_pipeline.json tracks.
 */
void
BM_EndToEndCompileLargest(benchmark::State &state)
{
    const Loop &loop = largestLoop(static_cast<int>(state.range(0)));
    const auto m = MachineConfig::fromString("4c2b4l64r");
    for (auto _ : state)
        benchmark::DoNotOptimize(compile(loop.ddg, m));
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_EndToEndCompileLargest)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_SuiteGeneration(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(buildSuite(42));
}
BENCHMARK(BM_SuiteGeneration);

/**
 * loadSuite vs BM_SuiteGeneration: what every binary saves per
 * process by reading the build-generated suite cache instead of
 * regenerating 678 loops. One iteration is one whole loadSuite call:
 * map the file, check the header and index, verify and parse every
 * record (on several threads on multi-core hosts), unmap.
 */
void
BM_SuiteLoad(benchmark::State &state)
{
    // PID-suffixed so concurrent perf_micro runs (baseline vs head
    // builds) never truncate each other's file mid-load.
    const std::string path = "/tmp/cvliw_perf_suite." +
                             std::to_string(::getpid()) + ".cvsuite";
    saveSuite(suite(), path, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(loadSuite(path));
    std::remove(path.c_str());
}
BENCHMARK(BM_SuiteLoad);

/**
 * CompileService batch throughput: the whole suite compiled for one
 * config on a persistent pool with long-lived per-worker caches.
 * Arg = worker count (0 = hardware concurrency); compare Arg(1)
 * against Arg(0) for the multi-worker speedup. Results are
 * bit-identical for every worker count (tests/service_test.cc).
 */
void
BM_BatchCompile(benchmark::State &state)
{
    const auto &loops = suite();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    int workers = static_cast<int>(state.range(0));
    if (workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw ? static_cast<int>(hw) : 1;
    }
    CompileService service(workers);
    for (auto _ : state)
        benchmark::DoNotOptimize(service.compileSuite(loops, m));
    state.SetLabel(std::to_string(workers) + " workers, " +
                   std::to_string(loops.size()) + " loops");
}
BENCHMARK(BM_BatchCompile)->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The cost of tracing (support/trace.hh): each iteration runs one
 * disarmed and one armed full-suite sweep on the same pool and
 * reports both, plus the armed-over-disarmed overhead. The disarmed
 * sweep is the contract that matters - disarmed spans are one
 * relaxed load, so `disarmed_ms` must track BM_BatchCompile/0 -
 * while `overhead_pct` prices what CVLIW_TRACE actually costs.
 */
void
BM_TraceOverhead(benchmark::State &state)
{
    const auto &loops = suite();
    const auto m = MachineConfig::fromString("4c2b2l64r");
    const unsigned hw = std::thread::hardware_concurrency();
    CompileService service(hw ? static_cast<int>(hw) : 1);
    using Clock = std::chrono::steady_clock;

    trace::disarm();
    trace::clear();
    double disarmed_ms = 0.0, armed_ms = 0.0;
    for (auto _ : state) {
        const auto t0 = Clock::now();
        benchmark::DoNotOptimize(service.compileSuite(loops, m));
        const auto t1 = Clock::now();
        trace::arm(); // buffer only: no exit-time write
        benchmark::DoNotOptimize(service.compileSuite(loops, m));
        const auto t2 = Clock::now();
        trace::disarm();
        trace::clear(); // pool is idle: no open spans
        disarmed_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        armed_ms +=
            std::chrono::duration<double, std::milli>(t2 - t1).count();
    }
    const auto iters = static_cast<double>(state.iterations());
    state.counters["disarmed_ms"] = disarmed_ms / iters;
    state.counters["armed_ms"] = armed_ms / iters;
    state.counters["overhead_pct"] =
        disarmed_ms > 0.0
            ? 100.0 * (armed_ms - disarmed_ms) / disarmed_ms
            : 0.0;
    state.SetLabel(std::to_string(loops.size()) + " loops/sweep");
}
BENCHMARK(BM_TraceOverhead)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The heavy-traffic shape: many configs x many loops in one batch,
 * crossing config boundaries without a barrier.
 */
void
BM_BatchCompileMultiConfig(benchmark::State &state)
{
    std::vector<Loop> loops;
    for (std::size_t i = 0; i < suite().size(); i += 4)
        loops.push_back(suite()[i]);
    const std::vector<MachineConfig> machs = {
        MachineConfig::fromString("2c1b2l64r"),
        MachineConfig::fromString("4c2b2l64r"),
        MachineConfig::fromString("4c2b4l64r"),
    };
    CompileService service;
    for (auto _ : state)
        benchmark::DoNotOptimize(service.compileSuite(loops, machs));
    state.SetLabel(std::to_string(service.numWorkers()) +
                   " workers, " + std::to_string(loops.size()) +
                   " loops x 3 configs");
}
BENCHMARK(BM_BatchCompileMultiConfig)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The multi-tenant serving shape (eval/frontier.hh): a large
 * low-priority background sweep (half the suite) shares the pool
 * with a small high-priority batch submitted right after it. The
 * frontier must let the urgent tenant overtake: its latency is
 * reported as the hi_latency_ms counter, and the overtake counter
 * stays 1.0 as long as every iteration saw the high-priority batch
 * finish while the background one was still running - the acceptance
 * criterion of the serving-frontier PR. Total iteration time (both
 * batches drained) is the measured number, comparable to
 * BM_BatchCompile's per-suite cost.
 */
void
BM_FrontierMixedTenants(benchmark::State &state)
{
    std::vector<Loop> background_loops;
    for (std::size_t i = 0; i < suite().size(); i += 2)
        background_loops.push_back(suite()[i]);
    std::vector<Loop> urgent_loops;
    for (std::size_t i = 0; i < suite().size(); i += 48)
        urgent_loops.push_back(suite()[i]);
    const auto m = MachineConfig::fromString("4c2b2l64r");

    auto jobs = [&](const std::vector<Loop> &loops) {
        std::vector<Frontier::Job> js(loops.size());
        for (std::size_t i = 0; i < loops.size(); ++i)
            js[i] = Frontier::Job{&loops[i].ddg, &m, nullptr};
        return js;
    };

    Frontier frontier;
    double overtakes = 0;
    double hi_latency_ms = 0;
    std::int64_t iterations = 0;
    for (auto _ : state) {
        auto background = frontier.submit(jobs(background_loops),
                                          /*priority=*/0);
        const auto t0 = std::chrono::steady_clock::now();
        auto urgent = frontier.submit(jobs(urgent_loops),
                                      /*priority=*/10);
        urgent.wait();
        const auto t1 = std::chrono::steady_clock::now();
        overtakes += background.status().done ? 0.0 : 1.0;
        hi_latency_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        ++iterations;
        background.wait();
    }
    state.counters["overtake"] =
        iterations ? overtakes / static_cast<double>(iterations) : 0.0;
    state.counters["hi_latency_ms"] =
        iterations ? hi_latency_ms / static_cast<double>(iterations)
                   : 0.0;
    state.SetLabel(std::to_string(frontier.numWorkers()) +
                   " workers, " +
                   std::to_string(background_loops.size()) +
                   " background + " +
                   std::to_string(urgent_loops.size()) +
                   " high-priority loops");
}
BENCHMARK(BM_FrontierMixedTenants)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Fault-isolation overhead guard: a healthy tenant shares the pool
 * with a tenant whose every job times out instantly (stepBudget = -1
 * expires at the first checkpoint - deterministic, no fault points
 * armed, so this also measures the disarmed faults::point() cost on
 * the hot path). The measured number is the healthy tenant's batch
 * latency with the faulty neighbour present; the healthy_solo_ms
 * counter is the same batch on the same frontier with no neighbour,
 * and overhead_pct their relative gap. Per-job error isolation is
 * cheap bookkeeping plus a cache rebuild on the faulty worker, so the
 * gap must stay within noise of the faulty tenant's (tiny) queue
 * share - a regression here means failures started bleeding into
 * healthy tenants' throughput.
 */
void
BM_FrontierFaultyTenant(benchmark::State &state)
{
    std::vector<Loop> healthy_loops;
    for (std::size_t i = 0; i < suite().size(); i += 4)
        healthy_loops.push_back(suite()[i]);
    std::vector<Loop> faulty_loops;
    for (std::size_t i = 0; i < suite().size(); i += 16)
        faulty_loops.push_back(suite()[i]);
    const auto m = MachineConfig::fromString("4c2b2l64r");
    PipelineOptions instant_timeout;
    instant_timeout.stepBudget = -1;

    auto jobs = [&](const std::vector<Loop> &loops,
                    const PipelineOptions *opts) {
        std::vector<Frontier::Job> js(loops.size());
        for (std::size_t i = 0; i < loops.size(); ++i)
            js[i] = Frontier::Job{&loops[i].ddg, &m, opts};
        return js;
    };

    Frontier frontier;
    double with_faulty_ms = 0;
    double solo_ms = 0;
    std::int64_t iterations = 0;
    for (auto _ : state) {
        // Phase 1 (measured): healthy batch with the faulty tenant
        // submitted first at equal priority, so its timed-out jobs
        // interleave with the healthy ones on every worker.
        const auto t0 = std::chrono::steady_clock::now();
        auto faulty =
            frontier.submit(jobs(faulty_loops, &instant_timeout));
        auto healthy = frontier.submit(jobs(healthy_loops, nullptr));
        healthy.wait();
        const auto t1 = std::chrono::steady_clock::now();
        faulty.wait();

        // Phase 2 (baseline, excluded from the measured time): the
        // same healthy batch, no neighbour.
        state.PauseTiming();
        const auto t2 = std::chrono::steady_clock::now();
        auto solo = frontier.submit(jobs(healthy_loops, nullptr));
        solo.wait();
        const auto t3 = std::chrono::steady_clock::now();
        state.ResumeTiming();

        with_faulty_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        solo_ms +=
            std::chrono::duration<double, std::milli>(t3 - t2).count();
        ++iterations;
    }
    const double avg_with =
        iterations ? with_faulty_ms / static_cast<double>(iterations)
                   : 0.0;
    const double avg_solo =
        iterations ? solo_ms / static_cast<double>(iterations) : 0.0;
    state.counters["healthy_solo_ms"] = avg_solo;
    state.counters["overhead_pct"] =
        avg_solo > 0 ? 100.0 * (avg_with - avg_solo) / avg_solo : 0.0;
    state.SetLabel(std::to_string(frontier.numWorkers()) +
                   " workers, " + std::to_string(healthy_loops.size()) +
                   " healthy + " + std::to_string(faulty_loops.size()) +
                   " timing-out loops");
}
BENCHMARK(BM_FrontierFaultyTenant)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The starvation guard the fair-share redesign is pinned by: a
 * saturating bulk tenant (weight 8, priority 10, half the suite per
 * batch) shares the pool with a weight-1 background tenant submitting
 * a 4-loop batch right after it. Under the old strict-priority claim
 * rule the background tenant waited for the entire bulk stream; under
 * weighted fair share its latency must stay bounded by its pool
 * share, not by the bulk queue depth. Counters:
 *
 *  - bg_p99_ms: the background tenant's p99 submit-to-done latency
 *    from the frontier's own per-tenant histogram - THE pinned
 *    number; a regression here means starvation is back.
 *  - bg_first_done_ms: streaming latency to the background batch's
 *    *first* completed job (nextDone), reported beside...
 *  - bg_wait_ms: ...the full batch wait() latency, so the gap shows
 *    what streaming consumers gain over batch waiters.
 *  - starved: fraction of iterations where the bulk batch finished
 *    before the background one - 0.0 when fairness holds.
 */
void
BM_FrontierStarvation(benchmark::State &state)
{
    std::vector<Loop> bulk_loops;
    for (std::size_t i = 0; i < suite().size(); i += 2)
        bulk_loops.push_back(suite()[i]);
    std::vector<Loop> bg_loops;
    for (std::size_t i = 0; i < suite().size(); i += 160)
        bg_loops.push_back(suite()[i]);
    const auto m = MachineConfig::fromString("4c2b2l64r");

    auto jobs = [&](const std::vector<Loop> &loops) {
        std::vector<Frontier::Job> js(loops.size());
        for (std::size_t i = 0; i < loops.size(); ++i)
            js[i] = Frontier::Job{&loops[i].ddg, &m, nullptr};
        return js;
    };

    TenantOptions bulk;
    bulk.tenant = "bulk";
    bulk.weight = 8.0;
    bulk.priority = 10;
    TenantOptions background;
    background.tenant = "background";
    background.weight = 1.0;

    Frontier frontier;
    double first_done_ms = 0;
    double wait_ms = 0;
    double starved = 0;
    std::int64_t iterations = 0;
    for (auto _ : state) {
        auto heavy = frontier.submit(jobs(bulk_loops), bulk);
        const auto t0 = std::chrono::steady_clock::now();
        auto small = frontier.submit(jobs(bg_loops), background);
        // Streaming consumer: latency to the first landed job...
        benchmark::DoNotOptimize(small.nextDone());
        const auto t1 = std::chrono::steady_clock::now();
        // ...versus the batch waiter's latency to the last.
        small.wait();
        const auto t2 = std::chrono::steady_clock::now();
        starved += heavy.status().done ? 1.0 : 0.0;
        first_done_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        wait_ms +=
            std::chrono::duration<double, std::milli>(t2 - t0).count();
        ++iterations;
        heavy.wait();
    }
    state.counters["bg_p99_ms"] =
        frontier.statsFor("background").p99LatencyMs;
    state.counters["bg_first_done_ms"] =
        iterations ? first_done_ms / static_cast<double>(iterations)
                   : 0.0;
    state.counters["bg_wait_ms"] =
        iterations ? wait_ms / static_cast<double>(iterations) : 0.0;
    state.counters["starved"] =
        iterations ? starved / static_cast<double>(iterations) : 0.0;
    state.SetLabel(std::to_string(frontier.numWorkers()) +
                   " workers, " + std::to_string(bulk_loops.size()) +
                   " bulk (w=8,p=10) + " +
                   std::to_string(bg_loops.size()) +
                   " background (w=1) loops");
}
BENCHMARK(BM_FrontierStarvation)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Result-cache hit path on the largest suite loop: key derivation
 * (three content digests over the graph, machine and options) plus
 * the locked lookup and the result copy-out. Compare against
 * BM_EndToEndCompileLargest/0 - the same compile served cold - for
 * the cache's speedup; the cold_ms counter carries this bench's own
 * one-shot cold measurement so the ratio is visible in one record.
 * The acceptance bar is >= 10x.
 */
void
BM_ResultCacheHit(benchmark::State &state)
{
    const Loop &loop = largestLoop(0);
    const auto m = MachineConfig::fromString("4c2b4l64r");
    ResultCache cache;
    PipelineOptions opts;
    opts.resultCache = &cache;

    const auto t0 = std::chrono::steady_clock::now();
    compile(loop.ddg, m, opts); // prime: the one cold compile
    const auto t1 = std::chrono::steady_clock::now();

    for (auto _ : state)
        benchmark::DoNotOptimize(compile(loop.ddg, m, opts));

    state.counters["cold_ms"] =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    state.SetLabel(std::to_string(loop.ddg.numNodes()) + " nodes");
}
BENCHMARK(BM_ResultCacheHit);

/**
 * The dedup storm: a full pool races one batch of identical jobs
 * through a fresh cache every iteration, so exactly one worker
 * compiles as the in-flight leader while the rest join its result.
 * The measured time is the whole batch; the compiles_per_batch
 * counter (misses per iteration - pinned to 1.0 by the cache-contract
 * tests) is the proof the storm cost one compile, not numWorkers.
 */
void
BM_DedupStorm(benchmark::State &state)
{
    const Loop &loop = largestLoop(1);
    const auto m = MachineConfig::fromString("4c2b2l64r");
    constexpr std::size_t kJobs = 64;

    Frontier frontier;
    double misses = 0;
    std::int64_t iterations = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ResultCache cache;
        PipelineOptions opts;
        opts.resultCache = &cache;
        std::vector<Frontier::Job> jobs(
            kJobs, Frontier::Job{&loop.ddg, &m, &opts});
        state.ResumeTiming();

        auto handle = frontier.submit(jobs);
        handle.wait();

        state.PauseTiming();
        misses += static_cast<double>(cache.stats().misses);
        ++iterations;
        state.ResumeTiming();
    }
    state.counters["compiles_per_batch"] =
        iterations ? misses / static_cast<double>(iterations) : 0.0;
    state.SetLabel(std::to_string(frontier.numWorkers()) +
                   " workers, " + std::to_string(kJobs) +
                   " identical jobs");
}
BENCHMARK(BM_DedupStorm)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Warm restart: a fresh process loads the persistent tier (CVRCACHE
 * v1, written by a prior run) and serves a suite sweep entirely from
 * it. Measured per iteration: loadFrom (header + index + per-record
 * digest validation + graph parses) plus every "compile" as a hit.
 * Compare against BM_BatchCompile for what the restart skipped.
 */
void
BM_WarmRestart(benchmark::State &state)
{
    std::vector<Loop> loops;
    for (std::size_t i = 0; i < suite().size(); i += 8)
        loops.push_back(suite()[i]);
    const auto m = MachineConfig::fromString("4c2b2l64r");

    const std::string path = "/tmp/cvliw_perf_warm." +
                             std::to_string(::getpid()) + ".cvrcache";
    {
        ResultCache warm;
        PipelineOptions opts;
        opts.resultCache = &warm;
        for (const Loop &loop : loops)
            compile(loop.ddg, m, opts);
        warm.saveTo(path);
    }

    std::size_t loaded = 0;
    for (auto _ : state) {
        ResultCache cache;
        loaded = cache.loadFrom(path);
        PipelineOptions opts;
        opts.resultCache = &cache;
        for (const Loop &loop : loops)
            benchmark::DoNotOptimize(compile(loop.ddg, m, opts));
    }
    state.counters["entries"] = static_cast<double>(loaded);
    state.SetLabel(std::to_string(loops.size()) + " loops from disk");
    std::remove(path.c_str());
}
BENCHMARK(BM_WarmRestart)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
