/**
 * @file
 * The inference server of the serving runtime (docs/serving.md).
 *
 * Workers: a server starts parallelThreadCount() threads when it is
 * built (NEURO_THREADS / --threads; a later change does not resize
 * it). Each pulls micro-batches straight from the admission queue,
 * runs them on its own primary (and fallback) session and fulfils the
 * futures with the classification and its latency breakdown. No pool
 * is shared, so one server never waits on another's batches.
 *
 * SLO & graceful degradation: when sloP99Micros is set and fallback is
 * enabled, the server watches a sliding-window p99; while it exceeds
 * the SLO, batches are routed to the (cheaper) fallback backend — e.g.
 * the count-based SNNwot datapath standing in for the timed SNNwt
 * presentation — and routed back once p99 recovers below 80% of the
 * SLO. Fallback is off by default because switching backends changes
 * answers; the determinism contract (bit-identical results for a fixed
 * trace at any worker count) holds whenever the backend choice is
 * load-independent, i.e. fallback disabled. The SLO window is shared by
 * the workers and evaluated under one small lock once per batch.
 *
 * Telemetry: the registry (telemetry/metrics.h) is the server's only
 * metric store. Every series carries the server's `model` label:
 * per-stage latency histograms (`serve.stage.queue|batch|compute`,
 * plus `serve.latency` end to end), live gauges (`serve.queue_depth`,
 * `serve.inflight`, `serve.batch_occupancy`, `serve.degraded`) and
 * the monotonic counters ServeCounters reads back — each event lands
 * in exactly one of them. Export with NEURO_METRICS (see
 * docs/observability.md). With traceRequests set, every request also
 * emits async queue/batch/compute spans into the Chrome trace sink.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/queue.h"
#include "neuro/telemetry/histogram.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace serve {

/** The serving histogram now lives in the telemetry layer
 *  (telemetry/histogram.h); the alias keeps serve call sites and
 *  tests source-compatible with its pre-promotion spelling. */
using telemetry::LatencyHistogram;

/** Tuning knobs of an InferenceServer. */
struct ServeConfig
{
    std::size_t queueCapacity = 1024; ///< admission-control bound.
    BatchPolicy batch;                ///< micro-batching policy.
    /** p99 latency SLO in microseconds; 0 disables SLO tracking. */
    int64_t sloP99Micros = 0;
    /** Completions per SLO evaluation window. */
    uint64_t sloWindow = 256;
    /** Route to the fallback backend while p99 exceeds the SLO.
     *  Requires a fallback backend; breaks trace-determinism (the
     *  backend choice becomes load-dependent), hence off by default. */
    bool enableFallback = false;
    /** Emit per-request async trace spans (queue/batch/compute lanes)
     *  into the Chrome trace sink when tracing is active. Off by
     *  default: a span costs six trace events per request. */
    bool traceRequests = false;
};

/** Pipeline stages a request travels (see InferenceResult timings). */
enum class Stage
{
    Queue,   ///< admission -> dequeued by the micro-batcher.
    Batch,   ///< dequeue -> the formed batch starts computing.
    Compute, ///< backend compute -> completion.
};

/** Point-in-time serving counters (monotonic since the server's
 *  series were created or last reset). */
struct ServeCounters
{
    uint64_t enqueued = 0;  ///< admitted into the queue.
    uint64_t completed = 0; ///< classified and fulfilled Ok.
    uint64_t rejected = 0;  ///< refused at admission (queue full/closed).
    uint64_t expired = 0;   ///< deadline passed before execution.
    uint64_t batches = 0;   ///< batches executed.
    uint64_t fallbacks = 0; ///< requests served by the fallback.
};

/** Micro-batching inference server over one (or two) backends. */
class InferenceServer
{
  public:
    /**
     * @param primary  backend serving normal traffic.
     * @param config   tuning knobs; see ServeConfig.
     * @param fallback optional cheaper backend for SLO degradation
     *                 (must agree with primary on inputSize).
     * @param model    `model` label of the server's registry series
     *                 (empty = unlabeled). Servers given the same name
     *                 share their series, so name each live server.
     */
    explicit InferenceServer(std::shared_ptr<InferenceBackend> primary,
                             ServeConfig config = {},
                             std::shared_ptr<InferenceBackend> fallback =
                                 nullptr,
                             const std::string &model = "");

    /** Stops and drains (see stop()). */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Submit one request. Always returns a valid future: if admission
     * fails (queue full or server stopped) it is already satisfied
     * with RequestStatus::Rejected.
     */
    std::future<InferenceResult> submit(InferenceRequest request);

    /** Completion callback type of the asynchronous submit path. */
    using CompletionFn = std::function<void(InferenceResult &&)>;

    /**
     * Submit one request with callback completion — the form the
     * network front end (net/frontend.h) uses, where a future-per-
     * request would force a waiter thread per connection. @p
     * onComplete always fires exactly once: on a worker thread for
     * executed or expired requests, or synchronously on this thread
     * when admission rejects. It must be cheap and must not call back
     * into this server (a worker is not reentrant).
     */
    void submit(InferenceRequest request, CompletionFn onComplete);

    /**
     * Close admission, drain every queued request (expired ones are
     * still fulfilled, with RequestStatus::Expired), and join every
     * worker. Idempotent.
     */
    void stop();

    /** @return this server's serving counters (its labeled series). */
    ServeCounters counters() const;

    /** @return this server's end-to-end latency histogram
     *  (`serve.latency{model}`). */
    const LatencyHistogram &latency() const { return *tm_.latency; }

    /** @return this server's per-stage latency histogram
     *  (`serve.stage.queue|batch|compute{model}`). */
    const LatencyHistogram &stageLatency(Stage stage) const;

    /**
     * Zero every `serve.*` series of this server's model — stage and
     * latency histograms, counters, gauges — between measurement runs.
     * Other models' series are untouched.
     */
    void resetStageMetrics();

    /** @return true while SLO degradation has engaged the fallback. */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    /** @return current queue depth (for load generators / tests). */
    std::size_t queueDepth() const { return queue_.size(); }

    const ServeConfig &config() const { return config_; }

  private:
    /** A worker's reusable per-batch vectors (defined in server.cc). */
    struct Scratch;

    void workerLoop();
    void runBatch(std::vector<PendingRequest> &batch,
                  BackendSession &primary, BackendSession *fallback,
                  Scratch &scratch);
    void updateSlo(const std::vector<PendingRequest *> &live,
                   ServeClock::time_point batchEnd);
    void submitPending(PendingRequest &&pending);

    std::shared_ptr<InferenceBackend> primary_;
    std::shared_ptr<InferenceBackend> fallback_;
    ServeConfig config_;
    RequestQueue queue_;
    MicroBatcher batcher_;

    /** SLO control state, not a metric: the current window's
     *  latencies, reset each time a full window is evaluated. Workers
     *  take sloMutex_ once per batch to record into it. */
    Mutex sloMutex_;
    LatencyHistogram windowLatency_ NEURO_GUARDED_BY(sloMutex_);
    std::atomic<bool> degraded_{false};

    /** Registry-owned series labeled with model_ (resolved once at
     *  construction, so the hot path never looks a name up). */
    struct Telemetry
    {
        std::shared_ptr<LatencyHistogram> stageQueue;
        std::shared_ptr<LatencyHistogram> stageBatch;
        std::shared_ptr<LatencyHistogram> stageCompute;
        std::shared_ptr<LatencyHistogram> latency;
        std::shared_ptr<telemetry::Counter> enqueued;
        std::shared_ptr<telemetry::Counter> completed;
        std::shared_ptr<telemetry::Counter> rejected;
        std::shared_ptr<telemetry::Counter> expired;
        std::shared_ptr<telemetry::Counter> batches;
        std::shared_ptr<telemetry::Counter> fallbacks;
        std::shared_ptr<telemetry::Counter> degradeEnter;
        std::shared_ptr<telemetry::Counter> degradeExit;
        std::shared_ptr<telemetry::Gauge> queueDepth;
        std::shared_ptr<telemetry::Gauge> inflight;
        std::shared_ptr<telemetry::Gauge> batchOccupancy;
        std::shared_ptr<telemetry::Gauge> degradedGauge;
    };
    Telemetry tm_;

    /** Serializes stop() against itself; stop() closes the queue while
     *  holding it, giving the documented order: server stop lock
     *  before the queue lock (docs/static_analysis.md). */
    Mutex stopMutex_ NEURO_ACQUIRED_BEFORE(queue_.mutex_);
    /** Started in the constructor, joined under stopMutex_. */
    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace neuro
