#include "neuro/serve/server.h"

#include <chrono>
#include <utility>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"

namespace neuro {
namespace serve {

namespace {

double
microsBetween(ServeClock::time_point from, ServeClock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

} // namespace

struct InferenceServer::Scratch
{
    std::vector<PendingRequest *> live;
    std::vector<const uint8_t *> pixels;
    std::vector<uint64_t> seeds;
    std::vector<int> classes;
};

InferenceServer::InferenceServer(
    std::shared_ptr<InferenceBackend> primary, ServeConfig config,
    std::shared_ptr<InferenceBackend> fallback, const std::string &model)
    : primary_(std::move(primary)), fallback_(std::move(fallback)),
      config_(config), queue_(config.queueCapacity),
      batcher_(queue_, config.batch)
{
    NEURO_ASSERT(primary_ != nullptr, "serve: primary backend required");
    // Resolve every registry series once; the hot path then pays one
    // relaxed atomic per update with no name lookups.
    auto &reg = telemetry::MetricRegistry::instance();
    tm_.stageQueue = reg.histogram("serve.stage.queue", model);
    tm_.stageBatch = reg.histogram("serve.stage.batch", model);
    tm_.stageCompute = reg.histogram("serve.stage.compute", model);
    tm_.latency = reg.histogram("serve.latency", model);
    tm_.enqueued = reg.counter("serve.enqueued", model);
    tm_.completed = reg.counter("serve.completed", model);
    tm_.rejected = reg.counter("serve.rejected", model);
    tm_.expired = reg.counter("serve.expired", model);
    tm_.batches = reg.counter("serve.batches", model);
    tm_.fallbacks = reg.counter("serve.fallbacks", model);
    tm_.degradeEnter = reg.counter("serve.slo.degrade_enter", model);
    tm_.degradeExit = reg.counter("serve.slo.degrade_exit", model);
    tm_.queueDepth = reg.gauge("serve.queue_depth", model);
    tm_.inflight = reg.gauge("serve.inflight", model);
    tm_.batchOccupancy = reg.gauge("serve.batch_occupancy", model);
    tm_.degradedGauge = reg.gauge("serve.degraded", model);
    if (fallback_ != nullptr) {
        NEURO_ASSERT(fallback_->inputSize() == primary_->inputSize(),
                     "serve: fallback input size %zu != primary %zu",
                     fallback_->inputSize(), primary_->inputSize());
    }
    if (config_.enableFallback) {
        NEURO_ASSERT(fallback_ != nullptr,
                     "serve: enableFallback requires a fallback backend");
        NEURO_ASSERT(config_.sloP99Micros > 0,
                     "serve: enableFallback requires sloP99Micros > 0");
    }
    const std::size_t workers = parallelThreadCount();
    workers_.reserve(workers);
    try {
        for (std::size_t w = 0; w < workers; ++w)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        stop(); // join the workers already started.
        throw;
    }
}

InferenceServer::~InferenceServer() { stop(); }

std::future<InferenceResult>
InferenceServer::submit(InferenceRequest request)
{
    PendingRequest pending;
    pending.request = std::move(request);
    std::future<InferenceResult> future = pending.promise.get_future();
    submitPending(std::move(pending));
    return future;
}

void
InferenceServer::submit(InferenceRequest request, CompletionFn onComplete)
{
    PendingRequest pending;
    pending.request = std::move(request);
    pending.onComplete = std::move(onComplete);
    submitPending(std::move(pending));
}

void
InferenceServer::submitPending(PendingRequest &&pending)
{
    NEURO_ASSERT(pending.request.pixels.size() == primary_->inputSize(),
                 "serve: request %llu has %zu pixels, backend wants %zu",
                 (unsigned long long)pending.request.id,
                 pending.request.pixels.size(), primary_->inputSize());
    pending.enqueueTime = ServeClock::now();

    if (queue_.push(std::move(pending))) {
        tm_.enqueued->inc();
        return;
    }
    // push() leaves the request untouched on rejection, so the
    // completion path is still ours to satisfy.
    tm_.rejected->inc();
    InferenceResult result;
    result.id = pending.request.id;
    result.status = RequestStatus::Rejected;
    pending.fulfill(std::move(result));
}

void
InferenceServer::stop()
{
    MutexGuard lock(stopMutex_);
    queue_.close(); // idempotent; a repeat call finds no joinable worker.
    for (std::thread &worker : workers_)
        if (worker.joinable())
            worker.join();
}

ServeCounters
InferenceServer::counters() const
{
    ServeCounters c;
    c.enqueued = tm_.enqueued->value();
    c.completed = tm_.completed->value();
    c.rejected = tm_.rejected->value();
    c.expired = tm_.expired->value();
    c.batches = tm_.batches->value();
    c.fallbacks = tm_.fallbacks->value();
    return c;
}

const LatencyHistogram &
InferenceServer::stageLatency(Stage stage) const
{
    switch (stage) {
    case Stage::Queue: return *tm_.stageQueue;
    case Stage::Batch: return *tm_.stageBatch;
    case Stage::Compute: return *tm_.stageCompute;
    }
    return *tm_.stageQueue; // unreachable.
}

void
InferenceServer::resetStageMetrics()
{
    for (LatencyHistogram *h : {tm_.stageQueue.get(), tm_.stageBatch.get(),
                                tm_.stageCompute.get(), tm_.latency.get()})
        h->reset();
    for (telemetry::Counter *c :
         {tm_.enqueued.get(), tm_.completed.get(), tm_.rejected.get(),
          tm_.expired.get(), tm_.batches.get(), tm_.fallbacks.get(),
          tm_.degradeEnter.get(), tm_.degradeExit.get()})
        c->reset();
    for (telemetry::Gauge *g :
         {tm_.queueDepth.get(), tm_.inflight.get(),
          tm_.batchOccupancy.get(), tm_.degradedGauge.get()})
        g->reset();
}

void
InferenceServer::workerLoop()
{
    const std::unique_ptr<BackendSession> primary = primary_->newSession();
    const std::unique_ptr<BackendSession> fallback =
        fallback_ != nullptr ? fallback_->newSession() : nullptr;
    Scratch scratch;
    for (;;) {
        std::vector<PendingRequest> batch = batcher_.nextBatch();
        if (batch.empty())
            return; // closed and drained.
        runBatch(batch, *primary, fallback.get(), scratch);
    }
}

void
InferenceServer::runBatch(std::vector<PendingRequest> &batch,
                          BackendSession &primary,
                          BackendSession *fallback, Scratch &scratch)
{
    NEURO_PROFILE_SCOPE("serve/batch");
    tm_.batches->inc();

    const auto batchStart = ServeClock::now();
    const auto batchSize = static_cast<uint32_t>(batch.size());

    // Deadline check at dequeue: anything already past its deadline is
    // fulfilled as Expired without spending backend cycles on it.
    std::vector<PendingRequest *> &live = scratch.live;
    live.clear();
    scratch.pixels.clear();
    scratch.seeds.clear();
    for (PendingRequest &pending : batch) {
        if (pending.request.deadline < batchStart) {
            tm_.expired->inc();
            InferenceResult result;
            result.id = pending.request.id;
            result.status = RequestStatus::Expired;
            result.batchSize = batchSize;
            result.queueMicros =
                microsBetween(pending.enqueueTime, pending.dequeueTime);
            result.batchMicros =
                microsBetween(pending.dequeueTime, batchStart);
            result.totalMicros =
                microsBetween(pending.enqueueTime, batchStart);
            pending.fulfill(std::move(result));
        } else {
            live.push_back(&pending);
            scratch.pixels.push_back(pending.request.pixels.data());
            scratch.seeds.push_back(pending.request.streamSeed);
        }
    }
    if (live.empty())
        return;

    const bool useFallback =
        degraded_.load(std::memory_order_relaxed) && fallback != nullptr;
    BackendSession &session = useFallback ? *fallback : primary;

    // The whole batch goes through the session's batched entry point,
    // so dense backends get their weight-reuse/SIMD win on it.
    scratch.classes.assign(live.size(), -1);
    // End of the batch-assembly stage, start of the compute stage, for
    // every request riding in this batch.
    const auto computeStart = ServeClock::now();
    session.classifyBatch(scratch.pixels.data(), scratch.seeds.data(),
                          live.size(), primary_->inputSize(),
                          scratch.classes.data());

    const auto batchEnd = ServeClock::now();
    if (useFallback)
        tm_.fallbacks->inc(live.size());
    // SLO bookkeeping comes before the answers go out, so a caller
    // holding its answers also sees the degradation state they caused.
    if (config_.sloP99Micros > 0)
        updateSlo(live, batchEnd);
    const bool traceSpans = config_.traceRequests && Tracer::enabled();
    for (std::size_t i = 0; i < live.size(); ++i) {
        PendingRequest &pending = *live[i];
        InferenceResult result;
        result.id = pending.request.id;
        result.status = RequestStatus::Ok;
        result.classIndex = scratch.classes[i];
        result.usedFallback = useFallback;
        result.batchSize = batchSize;
        result.queueMicros =
            microsBetween(pending.enqueueTime, pending.dequeueTime);
        result.batchMicros =
            microsBetween(pending.dequeueTime, computeStart);
        result.computeMicros = microsBetween(computeStart, batchEnd);
        result.totalMicros = microsBetween(pending.enqueueTime, batchEnd);
        tm_.latency->record(result.totalMicros);
        tm_.stageQueue->record(result.queueMicros);
        tm_.stageBatch->record(result.batchMicros);
        tm_.stageCompute->record(result.computeMicros);
        if (traceSpans) {
            // One async lane per stage, correlated by request id; the
            // timestamps are backdated to where the boundary actually
            // happened, so Perfetto shows the true pipeline shape.
            Tracer &tracer = Tracer::instance();
            const uint64_t id = pending.request.id;
            tracer.asyncSpan("serve.queue", "serve", 'b', id,
                             pending.enqueueTime);
            tracer.asyncSpan("serve.queue", "serve", 'e', id,
                             pending.dequeueTime);
            tracer.asyncSpan("serve.batch", "serve", 'b', id,
                             pending.dequeueTime);
            tracer.asyncSpan("serve.batch", "serve", 'e', id,
                             computeStart);
            tracer.asyncSpan("serve.compute", "serve", 'b', id,
                             computeStart);
            tracer.asyncSpan("serve.compute", "serve", 'e', id,
                             batchEnd);
        }
        pending.fulfill(std::move(result));
    }
    tm_.completed->inc(live.size());

    // Live gauges, refreshed once per batch (a sampled view, not an
    // exact accounting — the Sampler reads whatever is current). In
    // flight = admitted and not yet answered.
    tm_.queueDepth->set(static_cast<double>(queue_.size()));
    tm_.inflight->set(
        static_cast<double>(tm_.enqueued->value()) -
        static_cast<double>(tm_.completed->value() + tm_.expired->value()));
    tm_.batchOccupancy->set(
        static_cast<double>(batch.size()) /
        static_cast<double>(config_.batch.maxBatch));
}

void
InferenceServer::updateSlo(const std::vector<PendingRequest *> &live,
                           ServeClock::time_point batchEnd)
{
    MutexGuard lock(sloMutex_);
    for (const PendingRequest *pending : live)
        windowLatency_.record(microsBetween(pending->enqueueTime, batchEnd));
    if (windowLatency_.count() < config_.sloWindow)
        return;
    const double p99 = windowLatency_.percentile(0.99);
    const auto slo = static_cast<double>(config_.sloP99Micros);
    if (config_.enableFallback && fallback_ != nullptr) {
        const bool degraded = degraded_.load(std::memory_order_relaxed);
        if (!degraded && p99 > slo) {
            degraded_.store(true, std::memory_order_relaxed);
            tm_.degradeEnter->inc();
            tm_.degradedGauge->set(1.0);
            warn("serve: window p99 %.0fus exceeds SLO %.0fus — "
                 "degrading to %s fallback",
                 p99, slo, backendKindName(fallback_->kind()));
        } else if (degraded && p99 < 0.8 * slo) {
            degraded_.store(false, std::memory_order_relaxed);
            tm_.degradeExit->inc();
            tm_.degradedGauge->set(0.0);
            inform("serve: window p99 %.0fus back under SLO %.0fus — "
                   "restoring primary backend",
                   p99, slo);
        }
    }
    windowLatency_.reset();
}

} // namespace serve
} // namespace neuro
