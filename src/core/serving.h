// Streaming, deadline-aware serving front-end (the multi-client half of
// the paper's Figure 1b service).
//
// Many independent Clients submit LookupRequests concurrently; the
// front-end admits up to `max_inflight_requests` of them (rejecting the
// rest with a backpressure status) and a single batcher thread drains the
// queue, pooling EVERY pending request's answer jobs — full and hot table,
// both logical servers — into one cross-table engine submission. Each
// admitted request is represented by a RequestHandle:
//
//   - Per-table partial results stream out as the engine finishes each
//     (request, table) job group — the small hot table typically lands
//     long before the full table — pulled with NextPartial()/WaitPartial()
//     or pushed through SubmitOptions::on_partial.
//   - Cancel() unwinds a still-queued request without touching the batch,
//     and flips a mid-batch request's JobContext so the answer engine
//     skips its not-yet-started shard tasks (the reclaimed workers drain
//     live requests' jobs instead) and it completes kCancelled; either
//     way the handle still resolves.
//   - A per-request deadline (or ServiceConfig::default_deadline_us)
//     expires requests that are still queued when it passes — they
//     complete kDeadlineExpired without burning answer work, and the
//     batcher caps its linger at the earliest queued deadline. A deadline
//     that passes mid-batch is observed by the engine through the same
//     JobContext: remaining shard tasks are skipped and the request
//     completes kDeadlineExpired instead of assembling a result nobody
//     will read.
//   - Priority classes: kInteractive requests' jobs run before kBatch
//     jobs inside every pooled batch (the pool's two-level dequeue keeps
//     that true even for slots reclaimed from skipped work), and kBatch
//     is only admitted into the bottom 3/4 of the admission slots so a
//     background flood can never squeeze interactive traffic out.
//   - The batching window is either the fixed `batcher_linger_us` or,
//     with `adaptive_linger`, sized from an EWMA of request inter-arrival
//     time and drained queue depth (capped at `batcher_linger_us`).
//
// Within a batch, jobs are ordered hot-table-first (per priority class):
// the engine pool drains its queue in submission order, so every
// request's tiny hot jobs — its first streamable partial — finish before
// the long full-table jobs monopolize the workers.
//
// The client-side phase (oblivious planning + DPF key generation) runs on
// the submitting thread inside SubmitRequest*/Submit*, so each client's
// RNG advances in its own submission order: final results are
// bit-identical to serialized sequential Lookups for any client
// interleaving, shard count, layout, and placement — and reassembling the
// streamed partials reproduces the same bytes.
//
// Stop() (also run by the destructor) stops admitting, drains every
// already-admitted request so no handle is left dangling, and joins the
// batcher thread — see its comment for the three-phase ordering the
// networked server node layers its own shutdown on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/request_types.h"
#include "src/core/service.h"
#include "src/pir/answer_engine.h"

namespace gpudpf {

// One client's lookup, addressed to the front-end. The client pointer must
// stay valid until the request reaches a terminal status.
struct LookupRequest {
    PrivateEmbeddingService::Client* client = nullptr;
    std::vector<std::uint64_t> wanted;
};

// A lookup whose client-side phase (planning + DPF key generation) already
// ran somewhere else — on the other end of a network connection
// (src/net/server_node.h deserializes wire frames into this). Both tables'
// per-bin jobs for both logical servers, parsed and ready to pool into the
// next batch alongside in-process requests.
struct RawLookup {
    PbrSession::BinJobs full_server0;
    PbrSession::BinJobs full_server1;
    PbrSession::BinJobs hot_server0;
    PbrSession::BinJobs hot_server1;
    bool has_hot = false;
    // Sharded-fleet range scoping: with has_range set, every bin job of
    // each table is clipped to the bin-relative eval window
    // [*_row_begin, *_row_end) — the node evaluates the same keys over
    // only its assigned slice of every bin, and the resulting shares are
    // PARTIAL: they only sum to the full answer share across all shards
    // (src/pir/shard_merge.h). Windows must satisfy begin <= end <= every
    // bin's DPF domain size; SubmitRaw rejects violations as
    // kInvalidRequest so a bad remote request cannot poison a pooled
    // batch. Windows are sized from the table's bin size, so on a ragged
    // last bin the engine clips them to the bin's rows.
    bool has_range = false;
    std::uint64_t full_row_begin = 0;
    std::uint64_t full_row_end = 0;
    std::uint64_t hot_row_begin = 0;
    std::uint64_t hot_row_end = 0;
};

// One table's raw answer shares of a RawLookup, streamed as soon as that
// table's job group completes — the networked mirror of TablePartial,
// before any client-side reconstruction. `server0[b]`/`server1[b]` are the
// two logical servers' shares for bin b, index-aligned with the submitted
// bin jobs; sending them back verbatim keeps the remote client's
// Reconstruct() bit-identical to the in-process path.
struct RawTablePartial {
    bool hot = false;
    std::vector<PirResponse> server0;
    std::vector<PirResponse> server1;
};

class ServingFrontEnd {
  public:
    struct Options {
        std::size_t max_inflight_requests = 64;
        // Fixed batching window; the adaptive window's cap.
        std::uint64_t batcher_linger_us = 50;
        // Size the window from observed traffic instead (see
        // ServiceConfig::adaptive_linger).
        bool adaptive_linger = false;
        std::uint64_t linger_ewma_half_life_us = 1'000;
        // Deadline for requests that don't carry their own; 0 = none.
        std::uint64_t default_deadline_us = 0;
        // Attach each request's JobContext to its engine jobs so (job,
        // shard) tasks of cancelled/expired requests are skipped and the
        // pool freed early. Off withholds the context from the engine
        // only (abandoned jobs run to completion and are discarded) —
        // kept as a knob so the cancel-heavy bench can measure exactly
        // what skipping reclaims. The front-end's own lifecycle handling
        // (no partials for dead requests, mid-batch expiry completing
        // kDeadlineExpired) is not affected by this knob.
        bool skip_abandoned_work = true;
    };

    // Explicitly "no deadline" for SubmitOptions::deadline_us, overriding
    // a configured default_deadline_us.
    static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

    using TablePartial = PrivateEmbeddingService::TablePartial;

    // Per-request knobs of the streaming submission path.
    struct SubmitOptions {
        RequestPriority priority = RequestPriority::kInteractive;
        // Microseconds from submission until the request expires; 0 means
        // "use Options::default_deadline_us", kNoDeadline opts out.
        std::uint64_t deadline_us = 0;
        // Fired once per table partial, from the answer-pool worker that
        // finished the group (concurrently with other requests' callbacks):
        // must be thread-safe, must not throw, and must not block on pool
        // work. Partials are also always queued for NextPartial/WaitPartial.
        std::function<void(const TablePartial&)> on_partial;
        // Fired exactly once with the terminal status, from the batcher
        // thread (or the canceller's thread for a queued cancel), after
        // the admission slot is released and the handle is resolvable.
        std::function<void(RequestStatus)> on_complete;
    };

    class RequestHandle;

    // Running totals, for observability and the serving benches.
    struct Counters {
        std::uint64_t batches = 0;           // pooled batches dispatched
        std::uint64_t completed = 0;         // requests finished kComplete
        std::uint64_t cancelled = 0;         // ... kCancelled
        std::uint64_t deadline_expired = 0;  // ... kDeadlineExpired
        std::uint64_t failed = 0;            // ... kFailed
        std::uint64_t rejected_queue_full = 0;
        std::uint64_t rejected_invalid = 0;
        // Work reclaimed from cancelled/expired requests after dispatch:
        // engine jobs completed with a skipped (empty) response, and the
        // (job, shard) pool tasks those jobs never ran. Zero unless
        // Options::skip_abandoned_work is on.
        std::uint64_t jobs_skipped = 0;
        std::uint64_t shards_skipped = 0;
        // Window the most recent batch waited (us); tracks the adaptive
        // policy's decisions.
        std::uint64_t last_linger_us = 0;
    };

    ServingFrontEnd(PrivateEmbeddingService* service, Options options);
    ~ServingFrontEnd();

    ServingFrontEnd(const ServingFrontEnd&) = delete;
    ServingFrontEnd& operator=(const ServingFrontEnd&) = delete;

    // Non-blocking admission: rejects with kQueueFull when this priority
    // class's slots are all admitted-but-not-completed, kInvalidRequest
    // for an empty wanted list (before any client-side work).
    RequestHandle SubmitRequest(LookupRequest request,
                                SubmitOptions options);
    RequestHandle SubmitRequest(LookupRequest request);

    // Blocking admission: waits for a free slot instead of rejecting.
    // Only returns a non-ok handle after Shutdown() (kShutdown) or for a
    // malformed request (kInvalidRequest). Used by the synchronous
    // Client::Lookup wrapper; do not call from the batcher thread or a
    // partial/completion callback (i.e. from code completing another
    // request).
    RequestHandle SubmitRequestOrWait(LookupRequest request,
                                      SubmitOptions options);
    RequestHandle SubmitRequestOrWait(LookupRequest request);

    // Per-request knobs of the raw (already-prepared) submission path.
    // Mirrors SubmitOptions, with the partial callback carrying the
    // un-reconstructed wire shares instead of decoded embeddings.
    struct RawSubmitOptions {
        RequestPriority priority = RequestPriority::kInteractive;
        std::uint64_t deadline_us = 0;
        // Fired once per table with that table's raw shares, from the
        // answer-pool worker that finished the group. Same contract as
        // SubmitOptions::on_partial: thread-safe, non-throwing,
        // non-blocking on pool work.
        std::function<void(RawTablePartial&&)> on_raw_partial;
        std::function<void(RequestStatus)> on_complete;
    };

    // Non-blocking admission of a lookup whose client-side phase already
    // ran remotely (see RawLookup). Shares the admission slots, priority
    // caps, batching, deadline and cancellation machinery with
    // SubmitRequest — a server node forwarding wire requests here gets
    // max_inflight_requests backpressure (kQueueFull, surfaced over the
    // wire as an explicit rejection) for free. The handle's streamed
    // results arrive only through on_raw_partial; Result() is not
    // meaningful for raw requests (there is no client to reconstruct) and
    // returns an empty LookupResult once the request completes.
    RequestHandle SubmitRaw(RawLookup raw, RawSubmitOptions options)
        GPUDPF_EXCLUDES(mu_);

    // Stops the front-end in three explicit, strictly ordered phases —
    // the same drain ordering a networked node layers its own shutdown on
    // (reject new connections, drain in-flight handles, then join):
    //   1. reject: every later Submit*() returns kShutdown; no new
    //      request can enter the queue.
    //   2. drain: the batcher keeps dispatching until every admitted
    //      request — queued, mid-preparation, or mid-batch — has reached
    //      a terminal status, so no handle is left dangling.
    //   3. join: the batcher thread exits and is joined.
    // Idempotent and safe to race with concurrent submissions: a
    // submission either lands before phase 1 (and is drained by phase 2)
    // or observes kShutdown. Runs in the destructor if not called
    // explicitly.
    void Stop() GPUDPF_EXCLUDES(mu_);

    // Back-compat alias for Stop().
    void Shutdown() GPUDPF_EXCLUDES(mu_) { Stop(); }

    // Requests admitted but not yet completed (queued + being answered).
    std::size_t inflight() const GPUDPF_EXCLUDES(mu_);

    Counters counters() const GPUDPF_EXCLUDES(mu_);

    const Options& options() const { return options_; }

  private:
    // Shared state of one admitted request. The front-end mutex guards
    // stage/queue membership; the request's own mutex guards the result
    // machinery (partials, status, result). Lock order: req->mu may be
    // held while acquiring mu_ (Cancel does, to pin the front-end alive),
    // so never acquire req->mu while holding mu_.
    struct Request {
        // Immutable after enqueue.
        PrivateEmbeddingService::Client* client = nullptr;
        PrivateEmbeddingService::PreparedLookup prep;
        // Raw-mode request (SubmitRaw): the parsed jobs arrived off the
        // wire instead of from a local client (`prep` stays empty), and
        // per-table results leave as raw shares through on_raw_partial
        // instead of decoded TablePartials.
        bool raw = false;
        RawLookup raw_prep;
        std::function<void(RawTablePartial&&)> on_raw_partial;
        RequestPriority priority = RequestPriority::kInteractive;
        bool has_deadline = false;
        std::chrono::steady_clock::time_point deadline{};
        std::function<void(const TablePartial&)> on_partial;
        std::function<void(RequestStatus)> on_complete;

        // Where the request sits in the admission pipeline; guarded by the
        // FRONT-END's mu_ (a cross-object guard the thread-safety analysis
        // cannot express — see src/common/thread_annotations.h; the TSan
        // CI jobs cover this member instead). kQueued -> kDispatched
        // (batcher drain) or kQueued -> kDone (queued cancel / deadline
        // triage); kDispatched -> kDone when its batch finishes. A kDone
        // entry still in the queue vector is a tombstone the batcher drops
        // at drain.
        enum class Stage { kQueued, kDispatched, kDone };
        Stage stage = Stage::kQueued;

        // Result machinery, guarded by mu (compiler-checked). Partials are
        // shared, not copied: one materialization per (request, table)
        // feeds the stream queue, the callback, and final assembly alike;
        // pull consumers pay their copy at pop time.
        Mutex mu;
        CondVar cv;
        std::deque<std::shared_ptr<const TablePartial>> partials
            GPUDPF_GUARDED_BY(mu);
        RequestStatus status GPUDPF_GUARDED_BY(mu) = RequestStatus::kInFlight;
        bool result_ready GPUDPF_GUARDED_BY(mu) = false;
        PrivateEmbeddingService::LookupResult result GPUDPF_GUARDED_BY(mu);
        std::exception_ptr error GPUDPF_GUARDED_BY(mu);

        // The request's shared execution context (src/pir/job_context.h),
        // created at enqueue with the request's priority and deadline and
        // attached to every engine job (when skip_abandoned_work is on).
        // A mid-batch Cancel() flips it; the engine and the assembly path
        // poll it, and completion reads it to pick the terminal status.
        std::shared_ptr<JobContext> context;

        // Scratch for ProcessBatch: this dispatch's per-table partials and
        // the count of job groups still running.
        std::shared_ptr<const TablePartial> full_partial;
        std::shared_ptr<const TablePartial> hot_partial;
        bool has_hot = false;
        std::atomic<std::size_t> groups_remaining{0};
    };

  public:
    // Caller-side view of one admitted request. Movable and cheap to hold;
    // may outlive the front-end once the request is terminal (Shutdown
    // drains everything before the front-end dies).
    class RequestHandle {
      public:
        RequestHandle() = default;

        AdmissionStatus admission() const { return admission_; }
        bool ok() const { return admission_ == AdmissionStatus::kAccepted; }

        // Current lifecycle state (kInFlight until terminal). Only
        // meaningful for admitted handles: a rejected/empty handle
        // reports kFailed (nothing ran and nothing will) — check ok()
        // or admission() to tell backpressure from server failure.
        RequestStatus status() const;

        // Pops the next streamed per-table partial if one is ready; false
        // when none is queued right now (more may still arrive while
        // status() is kInFlight).
        bool NextPartial(TablePartial* out);

        // Blocks for the next partial; false when the stream is over (the
        // request reached a terminal status and every delivered partial
        // was consumed).
        bool WaitPartial(TablePartial* out);

        // Blocks until the request reaches a terminal status.
        void Wait();

        // Wait() + return the final result. Throws the server-side error
        // for kFailed, std::runtime_error for kCancelled/kDeadlineExpired.
        // Consumes the result: call at most once.
        PrivateEmbeddingService::LookupResult Result();

        // Requests cancellation. A still-queued request completes
        // kCancelled immediately (its jobs never run); a mid-batch
        // request's JobContext is flipped — the engine skips its
        // not-yet-started shard tasks (and abandons long shards between
        // tiles) without poisoning the pooled batch, and the request
        // completes kCancelled when the batch does. Returns false,
        // changing nothing, if the request was already terminal (or the
        // handle empty); true guarantees the handle finishes kCancelled.
        bool Cancel();

      private:
        friend class ServingFrontEnd;
        RequestHandle(AdmissionStatus admission, std::shared_ptr<Request> req,
                      ServingFrontEnd* front_end)
            : admission_(admission),
              req_(std::move(req)),
              front_end_(front_end) {}

        AdmissionStatus admission_ = AdmissionStatus::kShutdown;
        std::shared_ptr<Request> req_;
        ServingFrontEnd* front_end_ = nullptr;
    };

  private:
    // Shared admission path behind the public submit entry points.
    RequestHandle SubmitImpl(LookupRequest request, SubmitOptions options,
                             bool blocking) GPUDPF_EXCLUDES(mu_);
    // Client-side phase + enqueue, called with an admission slot held.
    RequestHandle Enqueue(LookupRequest request, SubmitOptions options)
        GPUDPF_EXCLUDES(mu_);
    // kBatch requests only get the bottom 3/4 of the admission slots.
    std::size_t SlotCap(RequestPriority priority) const;
    // Records one request arrival into the adaptive-linger EWMA.
    void NoteArrival(std::chrono::steady_clock::time_point now)
        GPUDPF_REQUIRES(mu_);
    // Batching window for the next batch, honoring the adaptive policy.
    // The batcher's wait loop additionally caps the window at the
    // earliest queued deadline, re-derived after every wake-up.
    std::uint64_t ComputeLingerUs() const GPUDPF_REQUIRES(mu_);
    void BatcherLoop() GPUDPF_EXCLUDES(mu_);
    // Answers one triaged batch (priority-sorted, no tombstones) through a
    // single cross-table engine submission with per-job completion
    // notifications: per-request hot partials stream out as their groups
    // finish, and each request's result is finalized by the worker that
    // completes its last group. Errors land in the requests' error slots.
    void ProcessBatch(const std::vector<std::shared_ptr<Request>>& batch);
    // Moves the request to its terminal status: sets status, wakes
    // waiters, fires on_complete. No-op if already terminal. Call without
    // mu_ held and after the slot is released.
    void CompleteRequest(const std::shared_ptr<Request>& req,
                         RequestStatus final_status);
    // Admission-side half of RequestHandle::Cancel(), called with the
    // request's own mutex held and its status still kInFlight (which pins
    // this front-end alive: the batcher cannot finish completing the
    // request — completion needs that mutex — so Shutdown() cannot
    // return). A queued request is tombstoned, its slot released, and the
    // cancelled counter bumped, with *was_queued set; a dispatched one
    // has its JobContext cancelled, which the engine's shard tasks and
    // the completion path observe. Returns false if the batch already
    // finished (completion is racing in).
    bool MarkCancelled(const std::shared_ptr<Request>& req, bool* was_queued)
        GPUDPF_EXCLUDES(mu_);

    PrivateEmbeddingService* service_;
    Options options_;
    AnswerEngine engine_;

    mutable Mutex mu_;
    CondVar queue_cv_;  // batcher wake-up
    CondVar slot_cv_;   // SubmitRequestOrWait wake-up
    std::vector<std::shared_ptr<Request>> queue_ GPUDPF_GUARDED_BY(mu_);
    // Admitted, not yet completed / admitted, not yet enqueued.
    std::size_t inflight_ GPUDPF_GUARDED_BY(mu_) = 0;
    std::size_t preparing_ GPUDPF_GUARDED_BY(mu_) = 0;
    bool stop_ GPUDPF_GUARDED_BY(mu_) = false;
    // Adaptive-linger inputs.
    double arrival_ewma_us_ GPUDPF_GUARDED_BY(mu_) = 0.0;  // 0 = no samples
    bool have_arrival_ GPUDPF_GUARDED_BY(mu_) = false;
    std::chrono::steady_clock::time_point last_arrival_ GPUDPF_GUARDED_BY(mu_){};
    // Smoothed drained-batch size.
    double depth_ewma_ GPUDPF_GUARDED_BY(mu_) = 0.0;
    Counters counters_ GPUDPF_GUARDED_BY(mu_);
    std::thread batcher_;
};

}  // namespace gpudpf
