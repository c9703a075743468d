/**
 * @file
 * Coalescer — the admission-control queue that turns many clients'
 * independent requests into single HeOpGraph wavefronts.
 *
 * This is the serving layer's scale play, the paper's batching argument
 * lifted one more level: limb-batching amortised dispatch overhead
 * across a polynomial's rows, ciphertext-batching across one caller's
 * ops, and the coalescer amortises it across *clients*. Requests from
 * any number of sessions land in one queue. Admission is group commit:
 * an idle worker runs whatever is queued right away (up to max_batch)
 * in a single graph, and everything that arrives while that batch
 * executes forms the next one. A lone client never waits for company;
 * under load, batches grow on their own with the queue that piles up
 * during execution. The queue is bounded: past max_queue waiting
 * requests, Submit sheds with kResourceExhausted.
 *
 * Key handling: the batch graph carries per-node relinearization keys
 * (each request's ops point at the key version its session had loaded
 * at submit time, pinned via shared_ptr so a mid-flight key reload
 * never invalidates them), so keyless
 * stages (Add/Mul/ModSwitch — including the expensive tensor product)
 * batch across *all* clients while key-switching stages sub-batch per
 * client key (see HeOpGraph).
 *
 * Locking: the queue/result mutex is a leaf lock released before any
 * kernel executes — batch execution holds NO serve lock, so the
 * documented HeOpGraph → ScratchArena → ThreadPool order is untouched
 * (ARCHITECTURE.md lock-ordering table).
 */

#ifndef HENTT_SERVE_COALESCER_H
#define HENTT_SERVE_COALESCER_H

#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "serve/session.h"
#include "serve/wire.h"

namespace hentt::serve {

/** Admission-control knobs. */
struct BatchConfig {
    /** Most requests admitted into one wavefront batch. */
    std::size_t max_batch = 64;
    /** Most requests waiting for admission; a Submit beyond it is shed
     *  with kResourceExhausted. */
    std::size_t max_queue = 4096;
    /** false = the unbatched ablation: every request executes as its
     *  own batch of one (bench_serve's comparison baseline). */
    bool coalesce = true;
};

/** Outcome of polling a request. */
struct PollResult {
    /** False while the request is queued or executing. */
    bool done = false;
    /** OK iff the whole program evaluated; otherwise the first failed
     *  output's Status with full provenance. */
    Status status;
    std::vector<he::Ciphertext> outputs;
};

/** The admission queue + its worker thread (see file comment). */
class Coalescer
{
  public:
    Coalescer(BatchConfig config,
              std::shared_ptr<he::ScratchArena> arena);
    ~Coalescer();

    Coalescer(const Coalescer &) = delete;
    Coalescer &operator=(const Coalescer &) = delete;

    /** Launch the worker thread. */
    void Start();

    /** Stop the worker; every still-queued request settles with
     *  kUnavailable (blocked waiters return). Idempotent. */
    void Stop();

    /**
     * Enqueue a program for @p session: materialised inputs, ops over
     * slots (inputs first, then op results), and the output slots to
     * return. Fails fast with kFailedPrecondition when the program
     * key-switches but the session has loaded no keys, and with
     * kResourceExhausted when max_queue requests are already waiting.
     * Returns the request id to poll or wait on.
     */
    [[nodiscard]] Result<u64>
    Submit(std::shared_ptr<Session> session,
           std::vector<he::Ciphertext> inputs,
           std::vector<WireProgram::Op> ops, std::vector<u32> outputs)
        HENTT_EXCLUDES(mutex_);

    /** Non-blocking result check; a done result is consumed (a second
     *  poll of the same id reports it unknown). Results are scoped to
     *  the submitting session: @p session_id must match the owner
     *  recorded at Submit, otherwise — and for genuinely unknown ids —
     *  the poll comes back done with kFailedPrecondition ("unknown
     *  request id", deliberately indistinguishable so ids enumerate
     *  nothing), and the owner's result is left untouched. */
    [[nodiscard]] PollResult Poll(u64 request_id, u64 session_id)
        HENTT_EXCLUDES(mutex_);

    /** Blocking Poll (the daemon's kAwait): waits until the request
     *  settles. Same ownership scoping — a foreign @p session_id fails
     *  immediately rather than blocking on a result it may never
     *  consume. */
    [[nodiscard]] PollResult Wait(u64 request_id, u64 session_id)
        HENTT_EXCLUDES(mutex_);

    /** Abandon every request @p session_id owns — queued ones are
     *  dropped, executing ones complete and are discarded, undelivered
     *  results are freed. Connection-teardown hook (no orphans). */
    void DropSessionRequests(u64 session_id) HENTT_EXCLUDES(mutex_);

    /** Batching counters (the session_* fields stay zero; the daemon
     *  overlays them from its SessionManager). */
    WireStats StatsSnapshot() const HENTT_EXCLUDES(mutex_);

    /** The worker arena sessions borrow. */
    const std::shared_ptr<he::ScratchArena> &arena() const
    {
        return arena_;
    }

  private:
    struct Request {
        u64 id = 0;
        std::shared_ptr<Session> session;
        /** The session's key version at submit time, pinned so a
         *  concurrent LoadKeys reload cannot destroy the key this
         *  request's graph nodes point at mid-execution. */
        std::shared_ptr<const he::RelinKey> rk;
        std::vector<he::Ciphertext> inputs;
        std::vector<WireProgram::Op> ops;
        std::vector<u32> outputs;
    };

    void WorkerLoop() HENTT_EXCLUDES(mutex_);

    /** Run one admitted batch through a shared HeOpGraph per engine
     *  state. Called with no serve lock held. */
    std::vector<std::pair<u64, PollResult>>
    ExecuteBatch(std::vector<Request> &batch);

    BatchConfig config_;
    std::shared_ptr<he::ScratchArena> arena_;

    mutable Mutex mutex_;
    CondVar cv_work_;  ///< signalled on submit and stop
    CondVar cv_done_;  ///< signalled when results land
    bool stop_ HENTT_GUARDED_BY(mutex_) = false;
    bool started_ HENTT_GUARDED_BY(mutex_) = false;
    u64 next_request_id_ HENTT_GUARDED_BY(mutex_) = 1;
    std::deque<Request> queue_ HENTT_GUARDED_BY(mutex_);
    /** Requests admitted or queued, keyed by id → owning session id.
     *  Erased when the result lands (or the request is dropped). */
    std::map<u64, u64> inflight_ HENTT_GUARDED_BY(mutex_);
    /** Settled, not-yet-polled results, id → result. */
    std::map<u64, PollResult> done_ HENTT_GUARDED_BY(mutex_);
    /** Owning session of each done_ entry (so a closing connection can
     *  free results nobody will poll). */
    std::map<u64, u64> done_owner_ HENTT_GUARDED_BY(mutex_);
    WireStats stats_ HENTT_GUARDED_BY(mutex_);

    std::thread worker_;
};

}  // namespace hentt::serve

#endif  // HENTT_SERVE_COALESCER_H
