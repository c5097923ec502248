/**
 * @file
 * Admission-controlled request queue and deadline-aware micro-batcher
 * of the serving runtime (docs/serving.md).
 *
 * RequestQueue is a bounded MPMC queue: producers (client threads)
 * push requests and are rejected immediately when the queue is full or
 * closed — admission control, not backpressure-by-blocking, so a
 * traffic spike degrades to fast rejections instead of unbounded
 * latency. MicroBatcher drains it into dynamic batches under a
 * max-batch-size / max-wait policy: the first request opens a batch,
 * and the batcher waits for the batch to fill for at most
 * maxWaitMicros — but never past the earliest deadline already in
 * hand, and never once the queue is closed (shutdown flushes
 * immediately).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "neuro/common/mutex.h"

namespace neuro {
namespace serve {

/** The serving clock (monotonic). */
using ServeClock = std::chrono::steady_clock;

/** Terminal disposition of a request. */
enum class RequestStatus
{
    Ok,       ///< classified by a backend.
    Rejected, ///< queue full (admission control) or server stopped.
    Expired,  ///< deadline passed before a worker got to it.
};

/** @return a printable name ("ok", "rejected", "expired"). */
const char *requestStatusName(RequestStatus status);

/** One classification request. */
struct InferenceRequest
{
    uint64_t id = 0;              ///< caller-chosen request id.
    std::vector<uint8_t> pixels;  ///< the sample (owned).
    /** Per-request random stream; derive as
     *  deriveStreamSeed(traceSeed, id) so results are a pure function
     *  of the trace, independent of batching and worker count. */
    uint64_t streamSeed = 0;
    /** Absolute deadline; time_point::max() = none. Checked when a
     *  worker dequeues the request, and it caps the batch fill wait. */
    ServeClock::time_point deadline = ServeClock::time_point::max();
};

/**
 * What the server hands back through the request's future. The three
 * stage timings decompose totalMicros along the pipeline the request
 * travelled: queue (enqueue -> dequeued by the batcher), batch
 * (dequeue -> the formed batch starts computing) and compute (backend
 * start -> completion); the same decomposition feeds the
 * `serve.stage.*` telemetry histograms (docs/observability.md).
 */
struct InferenceResult
{
    uint64_t id = 0;
    RequestStatus status = RequestStatus::Rejected;
    int classIndex = -1;        ///< predicted class (Ok only).
    bool usedFallback = false;  ///< served by the SLO-fallback backend.
    uint32_t batchSize = 0;     ///< size of the batch it rode in.
    double queueMicros = 0.0;   ///< enqueue -> dequeued for batching.
    double batchMicros = 0.0;   ///< dequeue -> batch compute start.
    double computeMicros = 0.0; ///< backend compute -> completion.
    double totalMicros = 0.0;   ///< enqueue -> completion.
};

/** A queued request plus its completion path and stage stamps. */
struct PendingRequest
{
    InferenceRequest request;
    std::promise<InferenceResult> promise;
    /** Callback completion path (the network front end): when set,
     *  fulfill() invokes it instead of the promise. Runs on whatever
     *  thread fulfils the request — a server worker for executed or
     *  expired requests, the submitter for rejections — so it must be
     *  cheap and must not call back into the server. */
    std::function<void(InferenceResult &&)> onComplete;
    ServeClock::time_point enqueueTime;
    /** When the batcher pulled the request off the queue (set by
     *  MicroBatcher::nextBatch; start of its batch-assembly stage). */
    ServeClock::time_point dequeueTime;

    /** Deliver @p result through the request's completion path. */
    void
    fulfill(InferenceResult &&result)
    {
        if (onComplete)
            onComplete(std::move(result));
        else
            promise.set_value(std::move(result));
    }
};

/** Bounded, closeable MPMC request queue. */
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity);

    /**
     * Enqueue a request. @return false (without touching the promise)
     * when the queue is full or closed — the caller owns the
     * rejection path.
     */
    bool push(PendingRequest &&pending);

    /** Stop accepting pushes and wake all waiters; queued requests
     *  remain poppable so shutdown can drain them. */
    void close();

    /** @return true once close() was called. */
    bool closed() const;

    /** @return current queue depth. */
    std::size_t size() const;

  private:
    friend class MicroBatcher;
    /** The server's stop lock is ordered before mutex_
     *  (NEURO_ACQUIRED_BEFORE in server.h), which needs the name. */
    friend class InferenceServer;

    /** Block the calling consumer until a push or close() wakes it or
     *  @p until passes (time_point::max() = no bound).
     *  @return cv_status::timeout once @p until has passed. */
    std::cv_status awaitPush(ServeClock::time_point until)
        NEURO_REQUIRES(mutex_);
    /** Wake the consumer that blocked most recently, if any. */
    void wakeNewest() NEURO_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::deque<PendingRequest> items_ NEURO_GUARDED_BY(mutex_);
    /** Blocked consumers, oldest first (each CondVar lives on its
     *  waiter's stack). A push wakes the newest, whose core is still
     *  warm, so light traffic stays on one worker. */
    std::vector<CondVar *> waiters_ NEURO_GUARDED_BY(mutex_);
    const std::size_t capacity_;
    bool closed_ NEURO_GUARDED_BY(mutex_) = false;
};

/** Batch formation policy. */
struct BatchPolicy
{
    std::size_t maxBatch = 8;     ///< requests per batch, >= 1.
    int64_t maxWaitMicros = 200;  ///< max fill wait after first item.
};

/** Drains a RequestQueue into deadline-aware dynamic batches. */
class MicroBatcher
{
  public:
    MicroBatcher(RequestQueue &queue, BatchPolicy policy);

    /**
     * Block for the next batch.
     *
     * @param idleTimeoutMicros how long to wait for the *first*
     *        request; < 0 waits indefinitely (until close()).
     * @return up to maxBatch requests; empty when the idle timer
     *         fired with nothing queued, or when the queue is closed
     *         and fully drained.
     */
    std::vector<PendingRequest> nextBatch(int64_t idleTimeoutMicros = -1);

  private:
    RequestQueue &queue_;
    BatchPolicy policy_;
};

} // namespace serve
} // namespace neuro
