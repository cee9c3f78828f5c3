/**
 * @file
 * The multi-tenant serving frontier: asynchronous batch submission
 * over one persistent compile worker pool, scheduled by weighted
 * fair-share with aging, with streaming per-job completions.
 *
 * ## Why a frontier
 *
 * `CompileService` (eval/service.hh) runs one synchronous batch at a
 * time, so a long full-suite digest job starves every other client of
 * the worker pool until it drains. The frontier turns that batch
 * engine into a serving layer: any number of clients submit batches
 * concurrently, each batch belongs to a *tenant* with a fair-share
 * weight, and the shared workers divide their service time between
 * tenants in proportion to those weights - a small interactive tenant
 * makes steady progress while a saturating bulk tenant sweeps the
 * suite (bench/perf_micro.cc's BM_FrontierStarvation pins the bounded
 * background latency; examples/frontier_server.cpp simulates N
 * concurrent tenants).
 *
 * ## Scheduling model: weighted fair share + aging
 *
 *  - **Tenants and weights.** `submit(jobs, TenantOptions)` names the
 *    submitting tenant and its weight. Service is divided between
 *    tenants with ready work in proportion to weight: a weight-8
 *    tenant gets ~8x the compile *cost* throughput of a weight-1
 *    tenant, and - unlike the strict-priority scheduler this
 *    replaces - the weight-1 tenant's share never drops to zero, so
 *    its latency stays bounded no matter how much high-weight work
 *    streams in.
 *  - **The claim rule (virtual time).** Each tenant carries a virtual
 *    time: the cost it has been served so far divided by its weight
 *    (cost = the job graph's node count, the same estimate admission
 *    uses). Workers always claim from the ready tenant with the
 *    *smallest* virtual time. This is classic deficit/virtual-time
 *    fair queueing, and it ages naturally: while a tenant waits, the
 *    tenants being served advance their virtual times past it, so the
 *    waiting tenant's claim eligibility strictly grows and it is
 *    served within a bounded amount of foreign work.
 *  - **Bounded idle credit.** A tenant idle for a long time keeps its
 *    old (small) virtual time; unclamped, it could monopolize the
 *    pool on return to "catch up". On the idle-to-active transition
 *    its virtual time is clamped to at least the global virtual clock
 *    minus `FrontierLimits::agingCreditCost / weight` - the aging
 *    credit bounds the burst an idle tenant may claim (default 0: no
 *    retroactive credit, fresh and returning tenants start level).
 *  - **Priority within a tenant.** Ties in virtual time - in
 *    particular *all batches of one tenant* - are broken by the
 *    submission priority (higher first), then submission order. The
 *    legacy `submit(jobs, priority)` API maps to one shared default
 *    tenant, so single-tenant processes keep the exact strict-
 *    priority-then-FIFO schedule they had before fair share existed.
 *  - **FIFO within a batch.** Jobs of one batch are claimed in index
 *    order, so a batch streams through the pool front to back.
 *  - **Cooperative cancellation.** `BatchHandle::cancel()` drops the
 *    jobs nobody claimed yet and lets in-flight jobs finish; nothing
 *    is interrupted mid-compile. Cancelling a finished batch is a
 *    no-op (idempotent).
 *  - **Per-worker caches across batches.** Each worker owns one
 *    long-lived `CompileCaches` reused across every batch, tenant and
 *    config it ever serves. This is safe because every memo inside is
 *    keyed on (`Ddg::generation()`, `MachineConfig::id()`) - the PR 2
 *    contract - so a hit can never surface a stale result, and reuse
 *    only recycles buffer capacity.
 *
 * ## Streaming completions
 *
 * Results land per *job*, not per batch; clients need not wait for a
 * batch's tail to start consuming its head:
 *
 *  - **Callbacks.** `BatchHandle::onJobDone(cb)` registers one
 *    callback per batch, fired once per job as it reaches a terminal
 *    state. Callbacks run on the frontier's *dispatcher thread* -
 *    never on a worker (a slow consumer cannot stall the pool), never
 *    concurrently with each other, in completion order. Jobs already
 *    terminal at registration are replayed, so no completion is ever
 *    lost. A throwing callback is caught and logged; later deliveries
 *    still happen.
 *  - **Polling.** `nextDone()` blocks until the next not-yet-consumed
 *    job is terminal and returns its index (nullopt once every job
 *    was consumed); `tryNextDone()` is the non-blocking variant. The
 *    consumption cursor is per batch, shared by all handle copies.
 *  - **JobView.** `job(i)` snapshots one job's terminal state -
 *    outcome, error text, and a pointer to its result - in one call;
 *    it is what callbacks receive, and the only per-job accessor.
 *
 * ## Determinism
 *
 * Every job is compiled independently: its result depends only on its
 * own (ddg, mach, opts), never on the worker that ran it, the claim
 * order, tenant weights, or what other batches were in flight. Fair
 * share and streaming change *when* a result lands, never *what* it
 * is: a batch produces **bit-identical** results for any worker count,
 * any weight mix and either consumption style (tests/frontier_test.cc
 * pins 1/4/hw workers, fuzzes concurrent submitters against
 * single-batch oracle runs, and digests streaming vs wait()).
 *
 * ## Failure semantics
 *
 * Jobs fail *individually*, never collectively. Each worker wraps its
 * claimed compile in a catch-everything boundary: an exception
 * becomes a structured `JobOutcome::Failed` with the error text kept
 * per job, a cooperative deadline expiry (support/deadline.hh) becomes
 * `TimedOut`, and in every case the worker, the rest of the batch,
 * every other batch and the process itself carry on untouched. After
 * any non-Ok outcome the worker's `CompileCaches` is quarantined -
 * discarded and rebuilt - so a throw out of a mid-mutation memo can
 * never leak state into later jobs. Partial work of a failed/
 * timed-out job is discarded: `results()[i]` holds a default
 * CompileResult.
 *
 * ## Admission control
 *
 * A frontier constructed with a non-zero `FrontierLimits` cap bounds
 * its queue by *estimated cost* (`maxPendingCost`, the sum of pending
 * jobs' node counts - a 1000-node loop occupies the pool three orders
 * of magnitude longer than a 3-node one, so counting jobs would let
 * one tenant park minutes of work behind a small-looking cap) and/or
 * by job count (`maxPendingJobs`). When a submit would overflow a
 * cap:
 *
 *  - `AdmissionPolicy::Reject` (default) fast-fails the whole batch:
 *    the returned handle is already complete with every outcome
 *    `Rejected` and an explanatory error string.
 *  - `AdmissionPolicy::Block` parks the submitter until the pool
 *    drains enough room (a batch larger than the whole cap is
 *    admitted alone once the frontier is idle, so oversized batches
 *    cannot deadlock). Jobs committed by a parked submitter are
 *    reported in `FrontierStats::blockedJobs` so queue snapshots
 *    never under-count the handoff.
 *  - **Partial shedding**: a batch submitted with
 *    `TenantOptions::allowPartial` is never parked or refused whole;
 *    admission admits the longest prefix that fits the caps and sheds
 *    the tail per job (`Rejected` outcomes, immediately terminal,
 *    streamed like any completion). If nothing is pending, at least
 *    one job is always admitted so oversized jobs still progress.
 *
 * ## Metrics
 *
 * `stats()` snapshots the aggregate books; `statsFor(tenant)` /
 * `tenantStats()` snapshot one consistent `TenantStats` per tenant:
 * p50/p99 completion latency, throughput, cancel/reject rates, live
 * queue depth and cost. Per-tenant counters sum exactly to the
 * aggregate (pinned by tests).
 *
 * ## Lifetime contract
 *
 * `submit` copies the job descriptors, but the pointed-to graphs,
 * machine configs and options are borrowed: they must stay alive and
 * unmodified until the batch completes. Results live in the control
 * block and remain readable for as long as any handle copy exists,
 * even after the frontier itself is gone (the destructor drains every
 * submitted batch - and delivers every pending callback - then joins
 * the workers and the dispatcher).
 */

#ifndef CVLIW_EVAL_FRONTIER_HH
#define CVLIW_EVAL_FRONTIER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hh"

namespace cvliw
{

namespace detail
{
struct BatchControl;
struct FrontierState;
struct TenantState;
} // namespace detail

/**
 * Terminal state of one submitted job (see the "Failure semantics"
 * section of the file comment). `Pending` is the only non-terminal
 * value and is never observed once the batch is done.
 */
enum class JobOutcome : std::uint8_t
{
    Pending,   //!< not finished yet (never seen on a done batch)
    Ok,        //!< compile ran to completion; results()[i] is valid
    Failed,    //!< compile threw; errorOf(i) holds the reason
    TimedOut,  //!< cooperative deadline/budget expired mid-compile
    Cancelled, //!< dropped by cancel() before any worker claimed it
    Rejected,  //!< refused or shed by admission control at submit time
};

/** Stable lowercase name of @p outcome (for logs and tests). */
const char *toString(JobOutcome outcome);

/** What submit() does when an admission cap would be exceeded. */
enum class AdmissionPolicy : std::uint8_t
{
    Reject, //!< fast-fail the batch: every job outcome = Rejected
    Block,  //!< park the submitter until the pool drains enough room
};

/**
 * Who is submitting, with what share of the pool (see the
 * "Scheduling model" section of the file comment). Tenants are named:
 * every batch submitted under the same name shares one fair-share
 * account and one `TenantStats` record. The weight is a property of
 * the tenant, not the batch - the most recent submit's weight wins
 * (steady-state tenants pass the same weight every time).
 */
struct TenantOptions
{
    /** Tenant identity; "" is the shared default tenant. */
    std::string tenant;

    /**
     * Fair-share weight: this tenant's service rate relative to other
     * tenants with ready work (2.0 = twice the compile cost per unit
     * time of a 1.0 tenant). Non-positive values are treated as 1.0.
     */
    double weight = 1.0;

    /**
     * Ordering *within* this tenant: among its own batches, higher
     * priority is claimed first (ties FIFO by submission). Priority
     * never crosses tenants - that is what the weight is for.
     */
    int priority = 0;

    /**
     * Let admission shed the tail of this batch instead of refusing
     * it whole (Reject) or parking the submitter (Block): the longest
     * prefix that fits the caps is admitted, the rest land as
     * `Rejected` immediately. See "Admission control".
     */
    bool allowPartial = false;
};

/** Admission caps for one frontier (default: unlimited). */
struct FrontierLimits
{
    /**
     * Maximum jobs pending (submitted, not yet terminal) across all
     * batches; 0 = unlimited. A single batch larger than the cap is
     * only ever admitted when the frontier is idle (Block), shed down
     * to it (allowPartial) or rejected outright (Reject).
     */
    std::size_t maxPendingJobs = 0;

    /**
     * Maximum pending *estimated cost* - the sum of pending jobs'
     * graph node counts; 0 = unlimited. The cost-weighted cap is the
     * one that actually bounds queue *time*: node count tracks
     * compile cost, job count does not.
     */
    std::uint64_t maxPendingCost = 0;

    AdmissionPolicy policy = AdmissionPolicy::Reject;

    /**
     * Aging credit: how much unserved cost a tenant may "bank" while
     * idle, in the same node-count units as job cost. On the
     * idle-to-active transition the tenant's virtual time is clamped
     * to >= (global virtual clock - agingCreditCost / weight). 0 (the
     * default) grants no retroactive credit.
     */
    std::uint64_t agingCreditCost = 0;
};

/**
 * Monotonic per-frontier counters plus the live queue depth; one
 * consistent snapshot via Frontier::stats(). Job counts are terminal
 * and disjoint: jobsSubmitted (admitted jobs) ==
 * jobsOk + jobsFailed + jobsTimedOut + jobsCancelled + pendingJobs,
 * and refused jobs are counted only in jobsRejected (whole-batch
 * refusals) or jobsShed (partial-admission sheds). Every counter is
 * also kept per tenant (TenantStats) and the per-tenant values sum
 * exactly to these aggregates.
 */
struct FrontierStats
{
    std::uint64_t batchesSubmitted = 0; //!< admitted batches
    std::uint64_t batchesRejected = 0;  //!< refused by admission
    std::uint64_t jobsSubmitted = 0;    //!< jobs admitted to the queue
    std::uint64_t jobsOk = 0;
    std::uint64_t jobsFailed = 0;
    std::uint64_t jobsTimedOut = 0;
    std::uint64_t jobsCancelled = 0;
    std::uint64_t jobsRejected = 0; //!< whole-batch admission refusals
    std::uint64_t jobsShed = 0;     //!< partial-admission tail sheds
    std::size_t pendingJobs = 0;    //!< current queue depth (admitted)
    std::uint64_t pendingCost = 0;  //!< node-count cost of pendingJobs

    /**
     * Jobs committed by submitters currently parked inside a
     * Block-policy submit(): not yet admitted (not in pendingJobs)
     * but not refusable either. pendingJobs + blockedJobs is the true
     * outstanding commitment; ignoring blockedJobs is the transient
     * under-count this field exists to close.
     */
    std::size_t blockedJobs = 0;
};

/**
 * One tenant's serving record; a consistent snapshot via
 * Frontier::statsFor / tenantStats. Counter fields mirror
 * FrontierStats (and sum to it across tenants); the derived fields
 * are computed at snapshot time.
 */
struct TenantStats
{
    std::string tenant;  //!< tenant name ("" = default tenant)
    double weight = 1.0; //!< current fair-share weight

    std::uint64_t batchesSubmitted = 0;
    std::uint64_t batchesRejected = 0;
    std::uint64_t jobsSubmitted = 0;
    std::uint64_t jobsOk = 0;
    std::uint64_t jobsFailed = 0;
    std::uint64_t jobsTimedOut = 0;
    std::uint64_t jobsCancelled = 0;
    std::uint64_t jobsRejected = 0;
    std::uint64_t jobsShed = 0;
    std::size_t pendingJobs = 0;
    std::uint64_t pendingCost = 0;

    /**
     * Completion latency of this tenant's Ok jobs - submit() to
     * terminal, wall clock, ms - at the 50th/99th percentile
     * (log-bucket resolution; see eval/metrics.hh LatencyHistogram).
     * 0 while no job completed.
     */
    double p50LatencyMs = 0.0;
    double p99LatencyMs = 0.0;

    /**
     * Ok jobs per second over the tenant's observed serving window
     * (first submit to latest terminal job). 0 until a job completed.
     */
    double throughputJobsPerSec = 0.0;

    /** jobsCancelled / jobsSubmitted (0 when nothing submitted). */
    double cancelRate = 0.0;

    /**
     * (jobsRejected + jobsShed) / everything this tenant ever asked
     * for (admitted + refused); 0 when nothing was asked.
     */
    double rejectRate = 0.0;
};

class Frontier
{
  public:
    /** One compile job: a loop body and the machine to compile for. */
    struct Job
    {
        const Ddg *ddg = nullptr;
        const MachineConfig *mach = nullptr;
        const PipelineOptions *opts = nullptr; //!< null = defaults
    };

    /**
     * Snapshot of one batch's progress (see BatchHandle::status).
     * When done, compiled + failed + timedOut + dropped + rejected
     * == total.
     */
    struct BatchStatus
    {
        bool done = false;      //!< every job reached a terminal state
        bool cancelled = false; //!< cancel() was called before done
        std::size_t compiled = 0; //!< jobs that completed Ok
        std::size_t failed = 0;   //!< jobs whose compile threw
        std::size_t timedOut = 0; //!< jobs past their deadline/budget
        std::size_t dropped = 0;  //!< jobs dropped by cancellation
        std::size_t rejected = 0; //!< jobs refused/shed by admission
        std::size_t total = 0;    //!< jobs submitted
    };

    /**
     * One job's state in one snapshot: the unified per-job accessor
     * (and the payload streaming callbacks receive). `result` points
     * into the batch's result array: null while the job is Pending, a
     * default CompileResult (`ok == false`) for every non-Ok terminal
     * outcome, the exact compile result for Ok. The pointer stays
     * valid while any handle copy exists and take() has not consumed
     * the batch.
     */
    struct JobView
    {
        std::size_t index = 0;
        JobOutcome outcome = JobOutcome::Pending;

        /**
         * Why the job is not Ok: exception text for Failed/TimedOut,
         * the admission message for Rejected, empty otherwise.
         */
        std::string error;

        const CompileResult *result = nullptr;

        /** True when the job completed Ok. */
        bool ran() const { return outcome == JobOutcome::Ok; }
    };

    /** Streaming completion callback; see BatchHandle::onJobDone. */
    using JobCallback = std::function<void(const JobView &)>;

    /**
     * Shared, copyable reference to one submitted batch: the client's
     * end of the frontier. All methods are safe from any thread, at
     * any time - including after the frontier that issued the handle
     * was destroyed (the control block is shared ownership). The one
     * exception is take(), which invalidates concurrently held
     * results; see its contract.
     */
    class BatchHandle
    {
      public:
        /** Empty handle; every accessor below requires valid(). */
        BatchHandle();
        ~BatchHandle();
        BatchHandle(const BatchHandle &);
        BatchHandle(BatchHandle &&) noexcept;
        BatchHandle &operator=(const BatchHandle &);
        BatchHandle &operator=(BatchHandle &&) noexcept;

        bool valid() const { return ctl_ != nullptr; }

        /** Jobs submitted in this batch. */
        std::size_t size() const;

        /** Tenant this batch was submitted under. */
        const std::string &tenant() const;

        /** Intra-tenant priority the batch was submitted with. */
        int priority() const;

        /**
         * Block until the batch completes: every job compiled, or the
         * batch cancelled and its in-flight jobs drained. Callbacks
         * registered via onJobDone may still be in flight on the
         * dispatcher when wait() returns; frontier destruction
         * delivers them all.
         */
        void wait() const;

        /** Non-blocking progress snapshot. */
        BatchStatus status() const;

        /**
         * Unified per-job accessor: outcome, error and result of job
         * @p i in one consistent snapshot (see JobView). Callable at
         * any time; before the job finishes, outcome is Pending and
         * result is null.
         * @throws std::out_of_range when @p i >= size() - a caller
         *         input error, recoverable, unlike the fatal empty-
         *         handle misuse
         */
        JobView job(std::size_t i) const;

        /**
         * Register the batch's streaming callback: fired exactly once
         * per job, with its JobView, as jobs reach terminal states -
         * in completion order, sequentially, on the frontier's
         * dispatcher thread (never a worker, never the caller). Jobs
         * already terminal are replayed immediately. At most one
         * callback per batch (fatal otherwise). A callback that
         * throws is caught and logged; delivery of later jobs is
         * unaffected. If the frontier is already gone, delivery is
         * synchronous on the calling thread (the batch is complete by
         * then - the destructor drained it).
         */
        void onJobDone(JobCallback cb) const;

        /**
         * Streaming poll: block until some job this batch has not yet
         * handed out through nextDone() reaches a terminal state and
         * return its index, in completion order; nullopt once all
         * jobs were consumed. The consumption cursor is shared by
         * every copy of the handle (one stream per batch). Typical
         * loop:
         * ```
         * while (auto i = handle.nextDone())
         *     use(handle.job(*i));
         * ```
         */
        std::optional<std::size_t> nextDone() const;

        /**
         * Non-blocking nextDone(): nullopt when no unconsumed job is
         * terminal *right now* (check status().done to tell "drained"
         * from "not yet").
         */
        std::optional<std::size_t> tryNextDone() const;

        /**
         * Non-blocking: the results when the batch is complete,
         * nullptr otherwise. One result per job in job order; jobs
         * dropped by cancel() hold default CompileResult (ok ==
         * false). The pointer stays valid while any handle copy
         * exists and take() has not consumed the batch.
         */
        const std::vector<CompileResult> *tryResults() const;

        /** wait(), then the results (see tryResults). */
        const std::vector<CompileResult> &results() const;

        /**
         * wait(), then move the results out. Consumes the batch: at
         * most one take() per batch, and results()/tryResults()/
         * JobView::result see an empty vector / dangling slots
         * afterwards. The one non-concurrent operation: the caller
         * must ensure no other thread is reading this batch's results
         * (through any handle copy, JobViews included) when take()
         * runs - the move invalidates what they hold.
         */
        std::vector<CompileResult> take();

        /**
         * Cooperatively cancel: jobs nobody claimed yet are dropped;
         * in-flight jobs finish and keep their results. Idempotent,
         * and a no-op on a finished batch. Dropped jobs stream to
         * onJobDone/nextDone consumers like any completion.
         * @return the number of jobs dropped by this call
         */
        std::size_t cancel() const;

      private:
        friend class Frontier;
        explicit BatchHandle(std::shared_ptr<detail::BatchControl> ctl);

        std::shared_ptr<detail::BatchControl> ctl_;
    };

    /**
     * Pool size a default-constructed frontier uses: the
     * CVLIW_THREADS environment variable, then hardware concurrency,
     * then 1. An unparsable or out-of-range CVLIW_THREADS (trailing
     * junk, overflow, non-positive) is ignored with a once-per-process
     * stderr warning. Does not construct anything.
     */
    static int defaultWorkerCount();

    /**
     * Start the worker pool (plus one streaming dispatcher thread).
     * @param workers thread count; <= 0 picks defaultWorkerCount()
     * @param limits admission control (default: unlimited queue)
     */
    explicit Frontier(int workers = 0, FrontierLimits limits = {});

    /**
     * Drains every submitted batch, delivers every pending streaming
     * callback, then joins workers and dispatcher.
     */
    ~Frontier();

    Frontier(const Frontier &) = delete;
    Frontier &operator=(const Frontier &) = delete;

    int numWorkers() const
    {
        return static_cast<int>(workers_.size());
    }

    /**
     * Submit @p jobs as one batch for @p tenant (fair-share identity,
     * weight, intra-tenant priority, partial-admission consent - see
     * TenantOptions). Returns immediately unless admission control
     * says otherwise (see the file comment). The batch runs
     * concurrently with every other batch in flight. Safe from any
     * thread. An empty batch completes immediately and bypasses
     * admission control.
     */
    BatchHandle submit(std::vector<Job> jobs,
                       const TenantOptions &tenant);

    /**
     * Legacy single-tenant submit: every caller shares the default
     * tenant ("", weight 1), @p priority orders batches within it -
     * the exact pre-fair-share behaviour. Prefer the TenantOptions
     * overload for anything multi-tenant.
     */
    BatchHandle submit(std::vector<Job> jobs, int priority = 0);

    /** One consistent snapshot of the aggregate serving counters. */
    FrontierStats stats() const;

    /**
     * One consistent snapshot of @p tenant's serving record. A tenant
     * that never submitted yields a zeroed record carrying the name.
     */
    TenantStats statsFor(const std::string &tenant = std::string()) const;

    /** Snapshots of every tenant ever seen, in name order. */
    std::vector<TenantStats> tenantStats() const;

    /** The admission limits this frontier was constructed with. */
    const FrontierLimits &limits() const { return limits_; }

  private:
    void workerMain(std::size_t worker_index);
    void dispatcherMain();

    /** Emit aggregate + per-tenant metrics into a scrape. */
    void collectMetrics(class MetricsEmitter &em) const;

    // Shared with every BatchControl so handles outlive the frontier:
    // the mutex, the condition variables, the ready frontier, the
    // tenant table and the dispatch queue all live here (frontier.cc).
    std::shared_ptr<detail::FrontierState> state_;

    std::vector<std::thread> workers_;

    // Streaming-callback delivery thread (see onJobDone).
    std::thread dispatcher_;

    // One long-lived cache set per worker, index-aligned with
    // workers_. Only worker i touches caches_[i]; held by pointer so
    // a worker can quarantine (rebuild) its caches after a job threw
    // out of a possibly mid-mutation memo.
    std::vector<std::unique_ptr<CompileCaches>> caches_;

    FrontierLimits limits_;

    /** Scrape-time registration with MetricsRegistry::global(). */
    std::uint64_t metricsCollectorId_ = 0;
    std::string metricsLabel_; //!< `frontier="N"` instance label value
};

} // namespace cvliw

#endif // CVLIW_EVAL_FRONTIER_HH
