/**
 * @file
 * The in-process service core of `photon_sim serve`: a job queue in
 * front of N resident workers, one shared GlobalStore, and admission
 * dedup keyed by GPU-BBV fingerprint. Transport-free by design — the
 * socket / file-drop front end (serve/daemon.hpp) and the tests drive
 * the same object.
 *
 * Request lifecycle:
 *
 *   submit(spec) ── admission ──┬─ new key ──► queue ──► worker runs it
 *                               └─ key in flight ──► attach as waiter
 *
 * A worker executing a job owns a private Platform (bit-identical to a
 * serial run), seeds its KernelCache/analysis store from the shared
 * store's matching GPU group, and publishes fresh records back after
 * the run. Concurrent identical requests (same learned GPU-BBV
 * fingerprint, or same spec before one is learned) collapse onto the
 * one in-flight run: when the leader finishes, its result fans out to
 * every waiter, flagged dedup_collapsed.
 *
 * Admission dedup extends in time through the answer cache: a finished
 * job's ok result is kept under its exact spec label together with the
 * GlobalStore version it was seeded from. While that version is still
 * current, a repeat of the label is answered at submit without running
 * anything (flagged answer_cached); a run that published records of its
 * own moved the version, so its next repeat executes against the new
 * state. The cache is in memory only, like the fingerprint registry.
 */

#ifndef PHOTON_SERVE_SERVER_HPP
#define PHOTON_SERVE_SERVER_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/global_store.hpp"
#include "service/work_steal.hpp"
#include "sim/config.hpp"

namespace photon::serve {

/** Server construction options. */
struct ServerOptions
{
    std::uint32_t workers = 2; ///< resident worker threads (0 acts as 1)
    SamplingConfig sampling{};
    GlobalStore::Options store{};
    /** Start with the queue held: nothing executes until resume().
     *  Deterministic-admission mode for tests and benches. */
    bool startPaused = false;
    /** Attach the resident functional-trace store to every worker
     *  Platform (DESIGN.md §15): a launch captured by any job replays
     *  for every later job, and traces persist across restarts via the
     *  v5 checkpoint. false restores capture-nothing, replay-nothing. */
    bool traceReuse = true;
};

/** Outcome of one request (leader result, fanned out to waiters). */
struct ServeResult
{
    service::JobSpec spec;
    bool ok = false;
    std::string error;

    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint32_t kernels = 0;    ///< launches in the job
    std::uint32_t kernelHits = 0; ///< launches served by kernel-sampling
    bool cacheHit = false;        ///< every launch was a cache hit
    bool dedupCollapsed = false;  ///< this request rode a leader's run
    /** Answered from an earlier run seeded from the current store
     *  version; nothing was simulated for this request. */
    bool answerCached = false;
    bool analysisReused = false;  ///< any launch reused a stored analysis
    /** Leader's simulation wall time; 0 for a cached answer. */
    double wallSeconds = 0.0;
    std::uint64_t fingerprint = 0; ///< admission key the request used
};

/** Snapshot for `photon_sim status` / `photon_sim cache`. */
struct ServerStatus
{
    std::uint32_t workers = 0;
    std::size_t queued = 0;           ///< admitted, not yet running
    std::size_t running = 0;          ///< executing on a worker now
    std::uint64_t submitted = 0;      ///< requests accepted (incl. waiters)
    std::uint64_t completed = 0;      ///< requests answered
    bool draining = false;
    StoreStats store;
    std::size_t storeKernelRecords = 0;
    std::size_t storeAnalyses = 0;
    std::size_t storeIntervalEntries = 0; ///< interval-memo entries held
    std::size_t storeTraces = 0; ///< functional traces resident (v5)
};

/** The resident simulation service. */
class SimServer
{
  public:
    using Ticket = std::uint64_t;

    explicit SimServer(ServerOptions options);
    ~SimServer(); ///< drains (finishes queued work, checkpoints)

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /**
     * Admit one request. Invalid specs and submissions during drain
     * yield a ticket whose result is already a failure. A valid spec
     * whose cached answer is still current yields a finished ticket
     * holding that answer; otherwise the request enqueues a new job or
     * attaches to the in-flight run with the same admission
     * fingerprint.
     */
    Ticket submit(const service::JobSpec &spec);

    /** Block until @p ticket's job finished; consumes the ticket. */
    ServeResult wait(Ticket ticket);

    /** submit + wait. */
    ServeResult runSync(const service::JobSpec &spec);

    /** Release the queue of a startPaused server. */
    void resume();

    /** Stop admitting, finish everything queued/in-flight, flush the
     *  checkpoint, join the workers. Idempotent. */
    void drain();

    PHOTON_PHASE_EXEMPT ServerStatus status() const;

    GlobalStore &store() { return store_; }

  private:
    /** One admitted job: the leader's spec plus every rider's ticket. */
    struct Pending
    {
        service::JobSpec spec;
        std::uint64_t key = 0;
        std::uint32_t waiters = 0; ///< tickets beyond the leader's
        bool done = false;
        ServeResult result;
    };
    using PendingPtr = std::shared_ptr<Pending>;

    /** A ticket's view of its job: the rider's own spec plus whether
     *  it collapsed onto another request's run. */
    struct TicketState
    {
        PendingPtr job;
        service::JobSpec spec;
        bool collapsed = false;
    };

    void workerLoop(std::size_t worker);
    /** Run @p spec on a fresh Platform; @p seeded receives the store
     *  version the job was seeded from. */
    ServeResult executeJob(const service::JobSpec &spec,
                           std::uint64_t &seeded);
    /** Keep @p job's ok result as the answer for its label when the
     *  version it was seeded from (@p seeded) is still current; the
     *  caller holds mu_. */
    PHOTON_REQUIRES_LOCK(mu_)
    void rememberAnswerLocked(const Pending &job, std::uint64_t seeded);
    /** Record an already-completed result; the caller holds mu_
     *  (enforced by the lint lock-set pass at every call site). */
    PHOTON_REQUIRES_LOCK(mu_)
    Ticket finishedTicketLocked(ServeResult result);

    ServerOptions opts_;

    GlobalStore store_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< workers: queue / stop / resume
    std::condition_variable doneCv_; ///< waiters: job completion
    /** Ready jobs, spread round-robin over per-worker deques with
     *  steal-half rebalancing — the same scheduler the campaign runner
     *  uses (service/work_steal.hpp), so one long-running job never
     *  strands later submissions behind it in a single FIFO. */
    service::WorkStealDeques<PendingPtr> queue_;
    /** admission key -> job not yet finished (queued or running). */
    PHOTON_SHARED_STATE
    PHOTON_GUARDED_BY(mu_)
    std::map<std::uint64_t, PendingPtr> inFlight_;
    PHOTON_SHARED_STATE
    PHOTON_GUARDED_BY(mu_)
    std::map<Ticket, TicketState> tickets_;
    /** spec label -> last ok answer, every entry seeded from
     *  answersVersion_; served only while that version is current, and
     *  dropped as a whole once it moves. */
    PHOTON_SHARED_STATE
    PHOTON_GUARDED_BY(mu_)
    std::map<std::string, ServeResult> answers_;
    PHOTON_GUARDED_BY(mu_)
    std::uint64_t answersVersion_ = 0;
    Ticket nextTicket_ = 1;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::size_t running_ = 0;
    bool paused_ = false;
    bool draining_ = false;
    bool stop_ = false;

    std::vector<std::thread> workers_;
};

} // namespace photon::serve

#endif // PHOTON_SERVE_SERVER_HPP
