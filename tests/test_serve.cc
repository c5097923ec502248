// Tests for the serving runtime: micro-batcher timing/coalescing,
// admission control, deadline expiry, shutdown draining, concurrent
// batch workers and per-server isolation, SLO-driven fallback,
// registry round trips, and the determinism contract — a fixed
// request trace yields bit-identical predictions at any worker count,
// including strip-kernel vs scalar-path agreement for the MLP batch
// kernel.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "neuro/common/parallel.h"
#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/mlp/mlp.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/queue.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"
#include "neuro/telemetry/export.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {
namespace {

using namespace std::chrono_literals;

/** Restores the ambient thread count when a test body returns. */
class ThreadCountGuard
{
  public:
    explicit ThreadCountGuard(std::size_t n)
        : saved_(parallelThreadCount())
    {
        setParallelThreadCount(n);
    }
    ~ThreadCountGuard() { setParallelThreadCount(saved_); }

  private:
    std::size_t saved_;
};

/** Open/close latch shared by every session of a GatedBackend; while
 *  closed, grant() lets a counted number of waiters through. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    uint64_t permits = 0;

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }

    void
    grant(uint64_t n)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            permits += n;
        }
        cv.notify_all();
    }

    void
    await()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return open || permits > 0; });
        if (!open)
            --permits;
    }
};

/**
 * Deterministic test backend: classify() = (pixels[0] + streamSeed)
 * mod numClasses. Optionally blocks each classification on a Gate
 * (to hold a worker mid-batch) or sleeps (to inflate latency for SLO
 * tests). Counts the classifyBatch calls running at any moment.
 */
class StubBackend final : public serve::InferenceBackend
{
  public:
    StubBackend(Gate *gate = nullptr,
                std::chrono::microseconds delay = 0us, int bias = 0)
        : gate_(gate), delay_(delay), bias_(bias)
    {
    }

    serve::BackendKind
    kind() const override
    {
        return serve::BackendKind::Mlp;
    }
    std::size_t inputSize() const override { return 4; }
    int numClasses() const override { return 16; }
    std::unique_ptr<serve::BackendSession>
    newSession() const override
    {
        return std::make_unique<Session>(*this);
    }

    std::atomic<uint64_t> classified{0};
    std::atomic<int> batchesInFlight{0};

  private:
    class Session final : public serve::BackendSession
    {
      public:
        explicit Session(const StubBackend &owner) : owner_(owner) {}

        int
        classify(const uint8_t *pixels, std::size_t /*numPixels*/,
                 uint64_t streamSeed) override
        {
            if (owner_.gate_ != nullptr)
                const_cast<StubBackend &>(owner_).gate_->await();
            if (owner_.delay_ > 0us)
                std::this_thread::sleep_for(owner_.delay_);
            const_cast<StubBackend &>(owner_).classified.fetch_add(1);
            return static_cast<int>(
                       (pixels[0] + streamSeed +
                        static_cast<uint64_t>(owner_.bias_)) %
                       static_cast<uint64_t>(owner_.numClasses()));
        }

        void
        classifyBatch(const uint8_t *const *pixels,
                      const uint64_t *streamSeeds, std::size_t count,
                      std::size_t numPixels, int *classes) override
        {
            StubBackend &owner = const_cast<StubBackend &>(owner_);
            owner.batchesInFlight.fetch_add(1);
            serve::BackendSession::classifyBatch(pixels, streamSeeds,
                                                 count, numPixels, classes);
            owner.batchesInFlight.fetch_sub(1);
        }

      private:
        const StubBackend &owner_;
    };

    Gate *gate_;
    std::chrono::microseconds delay_;
    int bias_;
};

/** Poll @p done every 100us for up to 5 s; @return its last value. */
template <typename Predicate>
bool
eventually(Predicate done)
{
    const auto limit = std::chrono::steady_clock::now() + 5s;
    while (!done() && std::chrono::steady_clock::now() < limit)
        std::this_thread::sleep_for(100us);
    return done();
}

serve::InferenceRequest
stubRequest(uint64_t id)
{
    serve::InferenceRequest r;
    r.id = id;
    r.pixels = {static_cast<uint8_t>(id & 0xff), 0, 0, 0};
    r.streamSeed = id * 7;
    return r;
}

// ----------------------------------------------------------- histogram

TEST(LatencyHistogram, PercentilesBoundSamplesWithin12Percent)
{
    serve::LatencyHistogram h;
    for (int v = 1; v <= 100; ++v)
        h.record(static_cast<double>(v));
    EXPECT_EQ(h.count(), 100u);
    const double p50 = h.percentile(0.50);
    const double p99 = h.percentile(0.99);
    EXPECT_GE(p50, 50.0);
    EXPECT_LE(p50, 50.0 * 1.125 + 1.0);
    EXPECT_GE(p99, 99.0);
    EXPECT_LE(p99, 99.0 * 1.125 + 1.0);
    EXPECT_GE(h.maxMicros(), 100.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(LatencyHistogram, SummaryMatchesPercentiles)
{
    serve::LatencyHistogram h;
    for (int v = 0; v < 1000; ++v)
        h.record(static_cast<double>(v % 97));
    const serve::LatencyHistogram::Summary s = h.summary();
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.p50Us, h.percentile(0.50));
    EXPECT_DOUBLE_EQ(s.p95Us, h.percentile(0.95));
    EXPECT_DOUBLE_EQ(s.p99Us, h.percentile(0.99));
}

// -------------------------------------------------------- microbatcher

TEST(MicroBatcher, IdleTimeoutReturnsEmptyBatch)
{
    serve::RequestQueue queue(8);
    serve::MicroBatcher batcher(queue, {4, 200});
    const auto t0 = serve::ServeClock::now();
    const std::vector<serve::PendingRequest> batch =
        batcher.nextBatch(/*idleTimeoutMicros=*/2000);
    const auto elapsed = serve::ServeClock::now() - t0;
    EXPECT_TRUE(batch.empty());
    EXPECT_GE(elapsed, 1ms); // waited for the idle timer...
    EXPECT_LT(elapsed, 2s);  // ...but not forever.
}

TEST(MicroBatcher, CoalescesBacklogUpToMaxBatch)
{
    serve::RequestQueue queue(16);
    serve::MicroBatcher batcher(queue, {3, 200});
    for (uint64_t id = 0; id < 5; ++id) {
        serve::PendingRequest pending;
        pending.request = stubRequest(id);
        ASSERT_TRUE(queue.push(std::move(pending)));
    }
    std::vector<serve::PendingRequest> first = batcher.nextBatch(0);
    std::vector<serve::PendingRequest> second = batcher.nextBatch(0);
    ASSERT_EQ(first.size(), 3u);
    ASSERT_EQ(second.size(), 2u);
    // FIFO order is what makes closed-loop traces reproducible.
    EXPECT_EQ(first[0].request.id, 0u);
    EXPECT_EQ(second[0].request.id, 3u);
}

TEST(MicroBatcher, EarliestDeadlineCapsTheFillWait)
{
    serve::RequestQueue queue(8);
    // A very long fill wait: only the request deadline can cut it
    // short.
    serve::MicroBatcher batcher(queue, {8, 5'000'000});
    serve::PendingRequest pending;
    pending.request = stubRequest(1);
    pending.request.deadline = serve::ServeClock::now() + 5ms;
    ASSERT_TRUE(queue.push(std::move(pending)));
    const auto t0 = serve::ServeClock::now();
    const std::vector<serve::PendingRequest> batch =
        batcher.nextBatch(-1);
    const auto elapsed = serve::ServeClock::now() - t0;
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_LT(elapsed, 2s); // returned at the deadline, not maxWait.
}

TEST(RequestQueue, RejectsWhenFullOrClosed)
{
    serve::RequestQueue queue(2);
    serve::PendingRequest a, b, c;
    EXPECT_TRUE(queue.push(std::move(a)));
    EXPECT_TRUE(queue.push(std::move(b)));
    EXPECT_FALSE(queue.push(std::move(c))); // full.
    queue.close();
    serve::PendingRequest d;
    EXPECT_FALSE(queue.push(std::move(d))); // closed.
    EXPECT_TRUE(queue.closed());
    EXPECT_EQ(queue.size(), 2u); // still drainable after close().
}

// ------------------------------------------------------------- server

TEST(InferenceServer, RejectsWhenQueueFull)
{
    ThreadCountGuard guard(1);
    Gate gate;
    auto backend = std::make_shared<StubBackend>(&gate);
    serve::ServeConfig sc;
    sc.queueCapacity = 2;
    sc.batch.maxBatch = 1;
    sc.batch.maxWaitMicros = 0;
    serve::InferenceServer server(backend, sc, nullptr, "rejects_full");

    // First request is dequeued by the worker and parks on the
    // gate; the next two fill the queue; the fourth must bounce.
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.push_back(server.submit(stubRequest(0)));
    while (server.queueDepth() > 0)
        std::this_thread::sleep_for(100us);
    futures.push_back(server.submit(stubRequest(1)));
    futures.push_back(server.submit(stubRequest(2)));
    std::future<serve::InferenceResult> rejected =
        server.submit(stubRequest(3));
    ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(rejected.get().status, serve::RequestStatus::Rejected);

    gate.release();
    server.stop();
    for (std::future<serve::InferenceResult> &f : futures)
        EXPECT_EQ(f.get().status, serve::RequestStatus::Ok);
    const serve::ServeCounters c = server.counters();
    EXPECT_EQ(c.rejected, 1u);
    EXPECT_EQ(c.completed, 3u);
}

TEST(InferenceServer, ExpiredAtDequeueIsNotClassified)
{
    ThreadCountGuard guard(1);
    Gate gate;
    auto backend = std::make_shared<StubBackend>(&gate);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 1;
    sc.batch.maxWaitMicros = 0;
    serve::InferenceServer server(backend, sc, nullptr, "expires");

    std::future<serve::InferenceResult> first =
        server.submit(stubRequest(0));
    while (server.queueDepth() > 0)
        std::this_thread::sleep_for(100us);
    // Queued behind the gated batch with an already-past deadline:
    // by the time the worker dequeues it, it must expire without
    // touching the backend.
    serve::InferenceRequest late = stubRequest(1);
    late.deadline = serve::ServeClock::now() - 1ms;
    std::future<serve::InferenceResult> expired =
        server.submit(std::move(late));

    gate.release();
    server.stop();
    EXPECT_EQ(first.get().status, serve::RequestStatus::Ok);
    const serve::InferenceResult r = expired.get();
    EXPECT_EQ(r.status, serve::RequestStatus::Expired);
    EXPECT_EQ(r.classIndex, -1);
    EXPECT_EQ(server.counters().expired, 1u);
    EXPECT_EQ(backend->classified.load(), 1u);
}

TEST(InferenceServer, StopDrainsEverythingInFlight)
{
    ThreadCountGuard guard(1);
    Gate gate;
    auto backend = std::make_shared<StubBackend>(&gate);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 2;
    sc.batch.maxWaitMicros = 50;
    serve::InferenceServer server(backend, sc, nullptr, "drains");

    std::vector<std::future<serve::InferenceResult>> futures;
    for (uint64_t id = 0; id < 7; ++id)
        futures.push_back(server.submit(stubRequest(id)));

    // Open the gate while stop() is closing the queue: every admitted
    // request must still be classified and fulfilled.
    std::thread releaser([&] {
        std::this_thread::sleep_for(20ms);
        gate.release();
    });
    server.stop();
    releaser.join();
    for (uint64_t id = 0; id < futures.size(); ++id) {
        const serve::InferenceResult r = futures[id].get();
        EXPECT_EQ(r.status, serve::RequestStatus::Ok);
        EXPECT_EQ(r.classIndex,
                  static_cast<int>((stubRequest(id).pixels[0] +
                                    stubRequest(id).streamSeed) %
                                   16));
    }
    EXPECT_EQ(server.counters().completed, 7u);
    // stop() is idempotent, and a stopped server rejects immediately.
    server.stop();
    std::future<serve::InferenceResult> afterStop =
        server.submit(stubRequest(99));
    EXPECT_EQ(afterStop.get().status, serve::RequestStatus::Rejected);
}

TEST(InferenceServer, StageLatenciesDecomposeTotal)
{
    ThreadCountGuard guard(1);
    auto backend =
        std::make_shared<StubBackend>(nullptr, /*delay=*/200us);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 4;
    sc.batch.maxWaitMicros = 100;
    serve::InferenceServer server(backend, sc, nullptr, "stages");

    constexpr uint64_t kRequests = 32;
    std::vector<std::future<serve::InferenceResult>> futures;
    for (uint64_t id = 0; id < kRequests; ++id)
        futures.push_back(server.submit(stubRequest(id)));

    double stageSum = 0.0;
    double totalSum = 0.0;
    for (auto &f : futures) {
        const serve::InferenceResult r = f.get();
        ASSERT_EQ(r.status, serve::RequestStatus::Ok);
        // Each per-stage component is non-negative and the three
        // stages partition the request's total wall time.
        EXPECT_GE(r.queueMicros, 0.0);
        EXPECT_GE(r.batchMicros, 0.0);
        EXPECT_GE(r.computeMicros, 0.0);
        stageSum += r.queueMicros + r.batchMicros + r.computeMicros;
        totalSum += r.totalMicros;
    }
    server.stop();
    // Stage timestamps come from the same clock reads that produce
    // totalMicros, so the decomposition is tight, not approximate.
    EXPECT_NEAR(stageSum, totalSum, 1e-3 * totalSum + 1.0);

    // The server's labeled stage histograms saw every completion.
    for (serve::Stage stage : {serve::Stage::Queue, serve::Stage::Batch,
                               serve::Stage::Compute})
        EXPECT_EQ(server.stageLatency(stage).count(), kRequests);
    // Compute includes the backend's 200us delay; the p50 must too.
    EXPECT_GE(server.stageLatency(serve::Stage::Compute).percentile(0.5),
              200.0);
}

TEST(InferenceServer, SloDegradesToFallbackAndRecovers)
{
    ThreadCountGuard guard(1);
    // Primary is slow enough to blow a 200us p99 SLO; the fallback
    // answers with a distinct bias so served-by-fallback is visible in
    // the classifications themselves.
    auto primary = std::make_shared<StubBackend>(nullptr, 1000us);
    auto fallback = std::make_shared<StubBackend>(nullptr, 0us, 5);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 4;
    sc.sloP99Micros = 200;
    sc.sloWindow = 8;
    sc.enableFallback = true;
    serve::InferenceServer server(primary, sc, fallback, "slo_recovers");

    uint64_t id = 0;
    auto runWave = [&](int n) {
        std::vector<std::future<serve::InferenceResult>> futures;
        for (int i = 0; i < n; ++i)
            futures.push_back(server.submit(stubRequest(id++)));
        std::vector<serve::InferenceResult> results;
        for (std::future<serve::InferenceResult> &f : futures)
            results.push_back(f.get());
        return results;
    };

    // First waves hit the slow primary until a full SLO window blows
    // the budget and flips the server into degraded mode.
    for (int wave = 0; wave < 8 && !server.degraded(); ++wave)
        runWave(8);
    ASSERT_TRUE(server.degraded());

    // Degraded traffic goes to the fallback (bias 5 shows in answers).
    // degraded() can flip between waves: a wave of fast fallback
    // answers restores the primary, the next all-primary wave
    // re-degrades. Drive waves until one lands entirely inside a
    // degraded stretch.
    bool fullyFallback = false;
    for (int wave = 0; wave < 32 && !fullyFallback; ++wave) {
        const std::vector<serve::InferenceResult> degradedWave =
            runWave(8);
        fullyFallback = true;
        for (const serve::InferenceResult &r : degradedWave)
            fullyFallback = fullyFallback && r.usedFallback;
    }
    EXPECT_TRUE(fullyFallback);
    EXPECT_GT(server.counters().fallbacks, 0u);

    // Fast fallback windows bring p99 back under 80% of the SLO and
    // the server restores the primary.
    for (int wave = 0; wave < 16 && server.degraded(); ++wave)
        runWave(8);
    EXPECT_FALSE(server.degraded());
    server.stop();
}

/**
 * A server runs one batch worker per configured thread: with two
 * threads and maxBatch 1, two requests are two batches computing at
 * the same time, each on its worker's own session.
 */
TEST(InferenceServer, WorkersComputeBatchesConcurrently)
{
    ThreadCountGuard guard(2);
    Gate gate;
    auto backend = std::make_shared<StubBackend>(&gate);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 1;
    sc.batch.maxWaitMicros = 0;
    serve::InferenceServer server(backend, sc, nullptr, "workers");

    std::future<serve::InferenceResult> first =
        server.submit(stubRequest(0));
    std::future<serve::InferenceResult> second =
        server.submit(stubRequest(1));
    // No ASSERT before release(): a failure must not leave a worker
    // parked on the gate for ~InferenceServer.
    EXPECT_TRUE(eventually([&] { return backend->batchesInFlight == 2; }))
        << "only " << backend->batchesInFlight.load()
        << " batch(es) in flight";
    gate.release();
    EXPECT_EQ(first.get().status, serve::RequestStatus::Ok);
    EXPECT_EQ(second.get().status, serve::RequestStatus::Ok);
    server.stop();
}

/**
 * Servers share no workers and no pool lock: while one server is
 * parked inside a gated batch, another server in the same process
 * still completes its own batch.
 */
TEST(InferenceServer, BusyServerDoesNotBlockAnother)
{
    ThreadCountGuard guard(2);
    serve::ServeConfig sc;
    sc.batch.maxBatch = 2;
    sc.batch.maxWaitMicros = 50000;
    Gate gate;
    auto parkedBackend = std::make_shared<StubBackend>(&gate);
    serve::InferenceServer parked(parkedBackend, sc, nullptr,
                                  "isolation.parked");
    serve::InferenceServer other(std::make_shared<StubBackend>(), sc,
                                 nullptr, "isolation.other");

    std::vector<std::future<serve::InferenceResult>> parkedFutures;
    parkedFutures.push_back(parked.submit(stubRequest(0)));
    parkedFutures.push_back(parked.submit(stubRequest(1)));
    const bool isParked =
        eventually([&] { return parkedBackend->batchesInFlight >= 1; });
    EXPECT_TRUE(isParked) << "the gated server never started its batch";

    std::vector<std::future<serve::InferenceResult>> otherFutures;
    otherFutures.push_back(other.submit(stubRequest(2)));
    otherFutures.push_back(other.submit(stubRequest(3)));
    for (std::future<serve::InferenceResult> &f : otherFutures)
        EXPECT_EQ(f.wait_for(5s), std::future_status::ready)
            << "a parked server held up another server's batch";

    gate.release();
    for (std::future<serve::InferenceResult> &f : parkedFutures)
        EXPECT_EQ(f.get().status, serve::RequestStatus::Ok);
    for (std::future<serve::InferenceResult> &f : otherFutures)
        EXPECT_EQ(f.get().status, serve::RequestStatus::Ok);
    parked.stop();
    other.stop();
}

/** @return how many times @p needle occurs in @p haystack. */
std::size_t
occurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size()))
        ++n;
    return n;
}

/**
 * Two servers with different model names in one process: driving one
 * (queue backlog, SLO degradation, completions) must leave every
 * series of the other at zero — no last-writer-wins gauges, no mixed
 * histograms, no shared counters — and the Prometheus export must
 * show both models under one `# TYPE` line per family.
 */
TEST(InferenceServer, ModelLabelKeepsIdleServerSeriesAtZero)
{
    ThreadCountGuard guard(1);
    auto &reg = telemetry::MetricRegistry::instance();
    serve::ServeConfig sc;
    sc.batch.maxBatch = 1;
    sc.batch.maxWaitMicros = 0;
    Gate gate;
    serve::InferenceServer busy(std::make_shared<StubBackend>(&gate), sc,
                                nullptr, "label.busy");
    serve::InferenceServer idle(std::make_shared<StubBackend>(), sc,
                                nullptr, "label.idle");

    // Park request 0 in the backend, queue three behind it, then let
    // exactly one classification through: the busy server's
    // end-of-batch gauge refresh reads a backlog of 3.
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.push_back(busy.submit(stubRequest(0)));
    while (busy.queueDepth() > 0)
        std::this_thread::sleep_for(100us);
    for (uint64_t id = 1; id <= 3; ++id)
        futures.push_back(busy.submit(stubRequest(id)));
    gate.grant(1);
    const auto busyDepth = reg.gauge("serve.queue_depth", "label.busy");
    // Bounded wait, and no ASSERT before release(): a failure must not
    // leave the worker parked on the gate for ~InferenceServer.
    const auto waitUntil = std::chrono::steady_clock::now() + 10s;
    while (busyDepth->value() != 3.0 &&
           std::chrono::steady_clock::now() < waitUntil)
        std::this_thread::sleep_for(100us);
    EXPECT_DOUBLE_EQ(busyDepth->value(), 3.0)
        << "busy server never published its backlog";
    EXPECT_DOUBLE_EQ(
        reg.snapshot().gauge("serve.queue_depth", "label.idle"), 0.0);
    gate.release();
    for (std::future<serve::InferenceResult> &f : futures)
        EXPECT_EQ(f.get().status, serve::RequestStatus::Ok);
    busy.stop();

    // A third server degrades under its SLO; the idle one must not.
    serve::ServeConfig sloConfig;
    sloConfig.batch.maxBatch = 4;
    sloConfig.sloP99Micros = 200;
    sloConfig.sloWindow = 8;
    sloConfig.enableFallback = true;
    serve::InferenceServer slo(
        std::make_shared<StubBackend>(nullptr, 1000us), sloConfig,
        std::make_shared<StubBackend>(), "label.slo");
    uint64_t id = 100;
    for (int wave = 0; wave < 8 && !slo.degraded(); ++wave) {
        std::vector<std::future<serve::InferenceResult>> wave8;
        for (int i = 0; i < 8; ++i)
            wave8.push_back(slo.submit(stubRequest(id++)));
        for (std::future<serve::InferenceResult> &f : wave8)
            f.get();
    }
    ASSERT_TRUE(slo.degraded());
    slo.stop();
    idle.stop();

    const telemetry::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(busy.counters().completed, 4u);
    EXPECT_EQ(busy.latency().count(), 4u);
    EXPECT_EQ(snap.histogram("serve.latency", "label.busy").count, 4u);
    EXPECT_GE(snap.counter("serve.slo.degrade_enter", "label.slo"), 1u);
    EXPECT_DOUBLE_EQ(snap.gauge("serve.queue_depth", "label.idle"), 0.0);
    EXPECT_DOUBLE_EQ(snap.gauge("serve.degraded", "label.idle"), 0.0);
    EXPECT_EQ(snap.counter("serve.slo.degrade_enter", "label.idle"), 0u);
    EXPECT_EQ(snap.histogram("serve.latency", "label.idle").count, 0u);
    EXPECT_EQ(idle.latency().count(), 0u);
    for (serve::Stage stage : {serve::Stage::Queue, serve::Stage::Batch,
                               serve::Stage::Compute})
        EXPECT_EQ(idle.stageLatency(stage).count(), 0u);
    const serve::ServeCounters c = idle.counters();
    EXPECT_EQ(c.enqueued + c.completed + c.rejected + c.expired +
                  c.batches + c.fallbacks,
              0u);

    std::ostringstream prom;
    telemetry::writePrometheus(snap, prom);
    const std::string text = prom.str();
    EXPECT_NE(text.find("serve_completed{model=\"label.busy\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_completed{model=\"label.idle\"} 0\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_latency_count{model=\"label.idle\"} 0\n"),
              std::string::npos);
    EXPECT_EQ(occurrences(text, "# TYPE serve_completed counter\n"), 1u);
    EXPECT_EQ(occurrences(text, "# TYPE serve_queue_depth gauge\n"), 1u);
    EXPECT_EQ(occurrences(text, "# TYPE serve_latency summary\n"), 1u);

    // Resetting one server's series leaves every other model's alone.
    busy.resetStageMetrics();
    EXPECT_EQ(busy.counters().completed, 0u);
    EXPECT_EQ(busy.latency().count(), 0u);
    EXPECT_GE(slo.counters().completed, 8u);
}

// -------------------------------------------------------- determinism

/** Random-pixel requests for a net with @p inputs pixels. */
std::vector<serve::InferenceRequest>
randomTrace(std::size_t count, std::size_t inputs, uint64_t seed)
{
    Rng rng(seed);
    std::vector<serve::InferenceRequest> trace(count);
    for (std::size_t i = 0; i < count; ++i) {
        trace[i].id = i;
        trace[i].streamSeed = deriveStreamSeed(seed, i);
        trace[i].pixels.resize(inputs);
        for (uint8_t &p : trace[i].pixels)
            p = static_cast<uint8_t>(rng.uniformInt(256));
    }
    return trace;
}

std::vector<int>
serveTrace(const std::shared_ptr<serve::InferenceBackend> &backend,
           const std::vector<serve::InferenceRequest> &trace,
           std::size_t maxBatch)
{
    serve::ServeConfig sc;
    sc.queueCapacity = trace.size();
    sc.batch.maxBatch = maxBatch;
    sc.batch.maxWaitMicros = 200;
    serve::InferenceServer server(backend, sc);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (const serve::InferenceRequest &r : trace)
        futures.push_back(server.submit(r));
    std::vector<int> classes;
    for (std::future<serve::InferenceResult> &f : futures) {
        const serve::InferenceResult r = f.get();
        EXPECT_EQ(r.status, serve::RequestStatus::Ok);
        classes.push_back(r.classIndex);
    }
    server.stop();
    return classes;
}

/**
 * The core serving determinism contract: an odd-shaped MLP (column
 * and row-block tails, batch sizes that leave sub-strip remainders)
 * classifies a fixed trace identically through the scalar session
 * path, the batch kernel, and the full server at 1 and 4 workers.
 */
TEST(ServeDeterminism, BitIdenticalAcrossWorkersAndBatching)
{
    mlp::MlpConfig config;
    config.layerSizes = {37, 13, 7};
    Rng rng(11);
    mlp::Mlp net(config, rng); // untrained weights are fine here.
    const std::shared_ptr<serve::InferenceBackend> backend =
        serve::makeMlpBackend(std::move(net));

    const std::vector<serve::InferenceRequest> trace =
        randomTrace(203, backend->inputSize(), 42);

    // Scalar reference: one session, one sample at a time.
    std::vector<int> reference;
    {
        std::unique_ptr<serve::BackendSession> session =
            backend->newSession();
        for (const serve::InferenceRequest &r : trace)
            reference.push_back(session->classify(
                r.pixels.data(), r.pixels.size(), r.streamSeed));
    }

    // Batch kernel, including a sub-strip tail (203 = 12*16 + 11).
    {
        std::unique_ptr<serve::BackendSession> session =
            backend->newSession();
        std::vector<const uint8_t *> pixels;
        std::vector<uint64_t> seeds;
        for (const serve::InferenceRequest &r : trace) {
            pixels.push_back(r.pixels.data());
            seeds.push_back(r.streamSeed);
        }
        std::vector<int> batched(trace.size(), -1);
        session->classifyBatch(pixels.data(), seeds.data(),
                               trace.size(), backend->inputSize(),
                               batched.data());
        EXPECT_EQ(batched, reference);
    }

    // Full server, every worker count and an awkward batch size.
    for (const std::size_t workers : {1u, 4u}) {
        ThreadCountGuard guard(workers);
        EXPECT_EQ(serveTrace(backend, trace, 24), reference)
            << "diverged at " << workers << " workers";
        EXPECT_EQ(serveTrace(backend, trace, 1), reference)
            << "diverged unbatched at " << workers << " workers";
    }
}

// ----------------------------------------------------------- registry

TEST(ModelRegistry, MlpRoundTripRegistersFloatAndQuantized)
{
    mlp::MlpConfig config;
    config.layerSizes = {16, 8, 4};
    Rng rng(5);
    mlp::Mlp net(config, rng);

    const std::string path =
        testing::TempDir() + "serve_registry_mlp.neuro";
    {
        Archive archive;
        net.serialize(archive);
        ASSERT_TRUE(archive.save(path));
    }

    serve::ModelRegistry registry;
    std::string error;
    const std::vector<std::string> names =
        registry.loadFile("digits", path, &error);
    ASSERT_EQ(names.size(), 2u) << error;
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"digits", "digits.q8"}));

    const std::shared_ptr<serve::InferenceBackend> f =
        registry.find("digits");
    const std::shared_ptr<serve::InferenceBackend> q =
        registry.find("digits.q8");
    ASSERT_NE(f, nullptr);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(f->kind(), serve::BackendKind::Mlp);
    EXPECT_EQ(q->kind(), serve::BackendKind::QuantizedMlp);
    EXPECT_EQ(f->inputSize(), 16u);
    EXPECT_EQ(q->inputSize(), 16u);
    EXPECT_EQ(f->numClasses(), 4);

    // The loaded backend actually serves.
    std::vector<uint8_t> pixels(16, 100);
    std::unique_ptr<serve::BackendSession> session = f->newSession();
    const int cls = session->classify(pixels.data(), pixels.size(), 0);
    EXPECT_GE(cls, 0);
    EXPECT_LT(cls, 4);

    EXPECT_TRUE(registry.remove("digits.q8"));
    EXPECT_FALSE(registry.remove("digits.q8"));
    EXPECT_EQ(registry.find("digits.q8"), nullptr);
    std::remove(path.c_str());
}

TEST(ModelRegistry, LoadErrorsAreDescriptiveNotFatal)
{
    serve::ModelRegistry registry;
    std::string error;

    EXPECT_TRUE(
        registry.loadFile("nope", "/does/not/exist.neuro", &error)
            .empty());
    EXPECT_FALSE(error.empty());

    // A file that is not an archive at all: the serializer's magic
    // check must surface as an error string.
    const std::string garbagePath =
        testing::TempDir() + "serve_registry_garbage.neuro";
    {
        std::ofstream out(garbagePath, std::ios::binary);
        out << "this is not a checkpoint";
    }
    error.clear();
    EXPECT_TRUE(
        registry.loadFile("garbage", garbagePath, &error).empty());
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(registry.names().empty());
    std::remove(garbagePath.c_str());

    // An archive with no model records: recognized format, no model.
    const std::string emptyPath =
        testing::TempDir() + "serve_registry_empty.neuro";
    {
        Archive archive;
        std::vector<float> stray{1.0f, 2.0f};
        archive.putFloats("unrelated.values", stray);
        ASSERT_TRUE(archive.save(emptyPath));
    }
    error.clear();
    EXPECT_TRUE(
        registry.loadFile("empty", emptyPath, &error).empty());
    EXPECT_NE(error.find("no recognized model"), std::string::npos);
    std::remove(emptyPath.c_str());
}

} // namespace
} // namespace neuro
