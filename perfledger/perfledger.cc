/**
 * @file
 * The perf ledger: one program that measures the serving runtime end to
 * end and layer by layer (see README.md in this directory).
 *
 * A run has two halves, and every workload runs both:
 *
 *  - wire: trained MLPs served over a loopback NetServer. A pipelined
 *    connection keeps a fixed window of requests in flight (throughput,
 *    `rps`) and a synchronous caller keeps one request outstanding
 *    (latency, `p50_ms` / `p90_ms`). The workload picks which models
 *    the two clients drive and whether they run one after the other or
 *    at the same time;
 *  - offline: the paper's train/label/eval pipeline with no serve or
 *    net layer — 784-100-10 MLP training per sample and at batch 32,
 *    784-300 SNN STDP training on a cold grid cache, and SNN label +
 *    evaluate on a warm cache.
 *
 * Every timed phase discards its first repetition (warm-up) and reports
 * the median of the rest. Every wire response is checked against the
 * in-process prediction for its sample, and every offline repetition
 * must reproduce the warm-up's result digest; a 1-thread replay and the
 * recorded digest for the seed (digests.txt) gate the offline results.
 *
 * Usage (run.py builds and invokes this):
 *   perfledger --workload NAME --seed N --seconds S --trace 0|1
 *              [--trace-out PATH] [--digests PATH] [--git-sha SHA]
 *              [--src-sha SHA] [--digest-only]
 * The last line of standard output is the JSON result; the process
 * exits 1 when any correctness gate fails.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "neuro/common/logging.h"
#include "neuro/common/parallel.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/datasets/synth_digits.h"
#include "neuro/kernels/kernels.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"
#include "neuro/net/client.h"
#include "neuro/net/frontend.h"
#include "neuro/net/protocol.h"
#include "neuro/net/server.h"
#include "neuro/serve/backend.h"
#include "neuro/serve/registry.h"
#include "neuro/serve/server.h"
#include "neuro/snn/network.h"
#include "neuro/snn/trainer.h"
#include "neuro/telemetry/histogram.h"
#include "neuro/telemetry/metrics.h"

namespace {

using namespace neuro;
using Clock = std::chrono::steady_clock;

/** Origin of span and request timestamps. */
const Clock::time_point kProcessStart = Clock::now();

// ---------------------------------------------------------------------
// Fixed inputs of the benchmark. Changing any of them changes what is
// measured (and the recorded digests): re-baseline after doing so.
// ---------------------------------------------------------------------

/** Pool width (NEURO_THREADS): 2 measured steadier than 4 on 4 vCPUs. */
constexpr std::size_t kThreads = 2;
/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetupReps = 3;

constexpr std::size_t kTrainImages = 2048; ///< offline + model training.
constexpr std::size_t kTestImages = 512;   ///< request pool, SNN eval.
constexpr std::size_t kHeavyHidden = 2048;
constexpr std::size_t kPaperHidden = 100;
constexpr std::size_t kHeavyTrainImages = 256; ///< setup, batch 32.
constexpr std::size_t kPaperTrainImages = 512; ///< setup, per sample.

/** Serve config: no fill wait (a timed wait would add timer jitter to
 *  every synchronous request), queue deeper than any window. */
constexpr std::size_t kQueueCapacity = 256;
constexpr std::size_t kMaxBatch = 4;
constexpr int64_t kMaxWaitMicros = 0;
/** Requests in flight on the pipelined connection. */
constexpr std::size_t kWindow = 16;
/** Requests answered this soon after a wire slice starts are left out
 *  of its sample (connection set-up, window fill). */
constexpr int64_t kRampNs = 50'000'000;
/** Synchronous requests the traced run writes spans for. */
constexpr std::size_t kSpanRequests = 20000;
/** Fixed trace replayed over the wire and in process. */
constexpr std::size_t kIdentityRequests = 64;

/** One offline rep trains on this many images for this many epochs. */
constexpr std::size_t kSgdImages = 2048;
constexpr std::size_t kSgdEpochs = 2;
constexpr std::size_t kB32Images = 2048;
constexpr std::size_t kB32Epochs = 16;
constexpr std::size_t kSnnTrainImages = 768;
constexpr std::size_t kSnnLabelImages = 512;
constexpr std::size_t kSnnEvalImages = 512;
/** A run is a sequence of cycles, each one wire slice followed by one
 * rep of every offline phase, so a slow spell of the host lands on all
 * metrics alike instead of on whichever phase it overlaps. The first
 * cycle is the warm-up; cycles repeat until --seconds have passed, at
 * least kMinCycles measured ones. */
constexpr std::size_t kMinCycles = 3;
constexpr std::size_t kMaxCycles = 200;
/** Wire time per cycle: the pipelined and the synchronous client get
 *  half each, or all of it together on the concurrent workload. */
constexpr double kWireCycleSeconds = 1.5;

const char *const kHeavyModel = "mlp2048";
const char *const kPaperModel = "paper";

// ---------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Steal ticks from the aggregate cpu line of /proc/stat (0 if
 *  unreadable). */
uint64_t
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0;
    for (uint64_t &x : v)
        in >> x;
    return v[7];
}

/** Linear-interpolated quantile of @p v (copied and sorted). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** FNV-1a over raw bytes, chained through @p h. */
uint64_t
fnv(const void *data, std::size_t n, uint64_t h = 1469598103934665603ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
mlpDigest(const mlp::Mlp &net)
{
    uint64_t h = fnv(nullptr, 0);
    for (std::size_t l = 0; l < net.numLayers(); ++l) {
        const std::vector<float> &w = net.weights(l).data();
        h = fnv(w.data(), w.size() * sizeof(float), h);
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Registry counter value (0 if never registered). */
uint64_t
counterValue(const char *name)
{
    return telemetry::MetricRegistry::instance().counter(name)->value();
}

/** Histogram records so far: every registry histogram plus each
 *  served model's own latency histogram. */
uint64_t
histogramRecords(const net::ServeFrontend &frontend)
{
    uint64_t n = 0;
    for (const auto &h :
         telemetry::MetricRegistry::instance().snapshot().histograms)
        n += h.summary.count;
    for (const std::string &model : frontend.models())
        n += frontend.server(model)->latency().count();
    return n;
}

// ---------------------------------------------------------------------
// Result ledger: correctness accounting plus named metrics.
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
};

class Ledger
{
  public:
    /** Record @p n attempted operations of which @p bad failed. */
    void
    count(uint64_t n, uint64_t bad, const std::string &what)
    {
        attempted_ += n;
        failed_ += bad;
        if (bad > 0)
            std::fprintf(stderr, "perfledger: FAILED %llu/%llu %s\n",
                         static_cast<unsigned long long>(bad),
                         static_cast<unsigned long long>(n),
                         what.c_str());
    }
    void
    check(bool ok, const std::string &what)
    {
        count(1, ok ? 0 : 1, what);
    }
    void
    put(const std::string &name, const std::string &unit, double value,
        std::size_t samples)
    {
        metrics_.push_back({name, unit, value, samples});
    }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------
// Span recorder of the traced run. Spans are added from the main thread
// only and written out when the run ends.
// ---------------------------------------------------------------------

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}
    bool on() const { return on_; }

    /** @return the span's id (1-based; 0 means "no parent"). */
    std::size_t
    add(const char *name, int64_t startNs, int64_t endNs,
        std::size_t parent, uint64_t requestId)
    {
        if (!on_)
            return 0;
        spans_.push_back({name, startNs, endNs, parent, requestId});
        return spans_.size();
    }

    /** RAII span around a phase or probe. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, std::size_t parent = 0)
            : log_(log), name_(name), parent_(parent), start_(nowNs())
        {
        }
        ~Scope() { log_.add(name_, start_, nowNs(), parent_, 0); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        const char *name_;
        std::size_t parent_;
        int64_t start_;
    };

    /** Write every span as one JSON array (Chrome-trace "X" events). */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[320];
            std::snprintf(
                buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                "\"parent\":%zu,\"request\":%llu}}%s\n",
                s.name, static_cast<double>(s.startNs) / 1e3,
                static_cast<double>(s.endNs - s.startNs) / 1e3, i + 1,
                s.parent, static_cast<unsigned long long>(s.requestId),
                i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]\n";
        return static_cast<bool>(out);
    }

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        std::size_t parent;
        uint64_t requestId;
    };
    bool on_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Workloads: which model each wire client drives.
// ---------------------------------------------------------------------

struct Mix
{
    std::string name;
    const char *throughputModel; ///< pipelined connection's model.
    const char *callerModel;     ///< synchronous caller's model.
    bool concurrent;             ///< both clients at once.
};

std::optional<Mix>
mixFor(const std::string &workload)
{
    if (workload == "wire_mlp2048")
        return Mix{workload, kHeavyModel, kHeavyModel, false};
    if (workload == "wire_two_tenant")
        return Mix{workload, kHeavyModel, kPaperModel, true};
    return std::nullopt;
}

bool
usesModel(const Mix &mix, const char *model)
{
    return std::strcmp(mix.throughputModel, model) == 0 ||
        std::strcmp(mix.callerModel, model) == 0;
}

// ---------------------------------------------------------------------
// Set-up: data, trained models, serving stack.
// ---------------------------------------------------------------------

struct SetupParts
{
    double dataS = 0.0;
    double trainS = 0.0;
    double startS = 0.0;
};

struct Fixture
{
    datasets::Split data;
    datasets::Dataset sgdSet, b32Set, snnTrainSet, snnLabelSet, snnEvalSet;
    std::map<std::string, std::shared_ptr<serve::InferenceBackend>>
        backends;
    std::map<std::string, mlp::Mlp> nets; ///< copies for the probes.
    serve::ModelRegistry registry;
    serve::ServeConfig serveConfig;
    std::unique_ptr<net::ServeFrontend> frontend;
    std::unique_ptr<net::NetServer> server; ///< stopped before frontend.
};

serve::ServeConfig
benchServeConfig()
{
    serve::ServeConfig sc;
    sc.queueCapacity = kQueueCapacity;
    sc.batch.maxBatch = kMaxBatch;
    sc.batch.maxWaitMicros = kMaxWaitMicros;
    return sc;
}

std::unique_ptr<Fixture>
makeFixture(const Mix &mix, uint64_t seed, SetupParts *parts)
{
    auto fx = std::make_unique<Fixture>();
    Clock::time_point t0 = Clock::now();
    fx->data = datasets::mnistLike(kTrainImages, kTestImages, seed);
    fx->sgdSet = fx->data.train.slice(0, kSgdImages);
    fx->b32Set = fx->data.train.slice(0, kB32Images);
    fx->snnTrainSet = fx->data.train.slice(0, kSnnTrainImages);
    fx->snnLabelSet = fx->data.train.slice(0, kSnnLabelImages);
    fx->snnEvalSet = fx->data.test.slice(0, kSnnEvalImages);
    parts->dataS = secondsSince(t0);

    t0 = Clock::now();
    const std::size_t inputs = fx->data.train.inputSize();
    const auto classes =
        static_cast<std::size_t>(fx->data.train.numClasses());
    auto trainModel = [&](const char *name, std::size_t hidden,
                          std::size_t images, std::size_t batch) {
        mlp::MlpConfig mc;
        mc.layerSizes = {inputs, hidden, classes};
        Rng rng(deriveStreamSeed(seed, hidden));
        mlp::Mlp net(mc, rng);
        mlp::TrainConfig tc;
        tc.epochs = 1;
        tc.seed = seed;
        tc.batchSize = batch;
        mlp::train(net, fx->data.train.slice(0, images), tc);
        fx->nets.emplace(name, net);
        fx->backends[name] = serve::makeMlpBackend(std::move(net));
        fx->registry.add(name, fx->backends[name]);
    };
    if (usesModel(mix, kHeavyModel))
        trainModel(kHeavyModel, kHeavyHidden, kHeavyTrainImages, 32);
    if (usesModel(mix, kPaperModel))
        trainModel(kPaperModel, kPaperHidden, kPaperTrainImages, 1);
    parts->trainS = secondsSince(t0);

    t0 = Clock::now();
    fx->serveConfig = benchServeConfig();
    fx->frontend = std::make_unique<net::ServeFrontend>(fx->registry,
                                                        fx->serveConfig);
    fx->server = std::make_unique<net::NetServer>(*fx->frontend);
    std::string error;
    if (!fx->server->start(&error)) {
        std::fprintf(stderr, "perfledger: server start failed: %s\n",
                     error.c_str());
        return nullptr;
    }
    parts->startS = secondsSince(t0);
    return fx;
}

// ---------------------------------------------------------------------
// Wire clients.
// ---------------------------------------------------------------------

/** One answered request as the client saw it. */
struct WireRecord
{
    uint64_t id = 0;
    int64_t sendNs = 0;
    int64_t recvNs = 0;
    float queueUs = 0.0F;
    float batchUs = 0.0F;
    float computeUs = 0.0F;
    float totalUs = 0.0F;
    uint32_t batchSize = 0;
};

/** Requests for one model: one frame per pool image, plus the class
 *  the in-process backend predicts for it. */
struct ModelTraffic
{
    std::string model;
    std::vector<net::RequestFrame> frames;
    std::vector<int> expected;
    uint64_t traceSeed = 0;
    uint64_t nextId = 0; ///< ids keep counting across slices.
};

ModelTraffic
makeTraffic(const Fixture &fx, const std::string &model, uint64_t seed)
{
    ModelTraffic t;
    t.model = model;
    t.traceSeed = deriveStreamSeed(seed, 0xC0FFEE);
    const datasets::Dataset &pool = fx.data.test;
    const std::shared_ptr<serve::InferenceBackend> &backend =
        fx.backends.at(model);
    std::unique_ptr<serve::BackendSession> session = backend->newSession();
    for (std::size_t i = 0; i < pool.size(); ++i) {
        net::RequestFrame f;
        f.model = model;
        f.pixels.assign(pool[i].pixels.begin(), pool[i].pixels.end());
        t.frames.push_back(std::move(f));
        t.expected.push_back(session->classify(
            pool[i].pixels.data(), pool[i].pixels.size(),
            deriveStreamSeed(t.traceSeed, i)));
    }
    return t;
}

/** What one client saw over all its slices. */
struct WireLog
{
    uint64_t sent = 0;
    uint64_t ok = 0;     ///< Ok and the expected class.
    uint64_t failed = 0; ///< any other outcome, incl. transport loss.
    /** The Ok requests of the latest slice only. Each slice clears and
     *  reuses the buffer, so memory does not grow with the number of
     *  requests a run serves. */
    std::vector<WireRecord> records;
};

/**
 * One slice of closed-loop traffic on a fresh connection: @p window
 * requests in flight, each response releasing the next send until
 * @p endNs, then the outstanding ones drain. window == 1 is the
 * synchronous caller. Appends to @p log.
 */
void
runClient(uint16_t port, ModelTraffic &traffic, std::size_t window,
          int64_t endNs, WireLog &log)
{
    net::NetClient client;
    if (!client.connect("127.0.0.1", port, nullptr)) {
        ++log.failed;
        ++log.sent;
        return;
    }
    log.records.clear();
    const uint64_t firstId = traffic.nextId;
    std::vector<int64_t> sendNs;
    const std::size_t pool = traffic.frames.size();
    auto sendOne = [&]() {
        const uint64_t id = traffic.nextId++;
        net::RequestFrame &frame = traffic.frames[id % pool];
        frame.id = id;
        frame.streamSeed = deriveStreamSeed(traffic.traceSeed, id % pool);
        sendNs.push_back(nowNs());
        return client.sendRequest(frame, nullptr);
    };
    bool open = true;
    for (std::size_t i = 0; i < window && open; ++i)
        open = sendOne();
    uint64_t answered = 0;
    net::ResponseFrame r;
    while (open && answered < sendNs.size()) {
        if (!client.readResponse(&r, nullptr))
            break;
        const int64_t t = nowNs();
        ++answered;
        if (r.id < firstId || r.id >= traffic.nextId) {
            ++log.failed;
            continue;
        }
        const bool good = r.status == net::FrameStatus::Ok &&
            r.classIndex == traffic.expected[r.id % pool];
        if (good) {
            ++log.ok;
            log.records.push_back({r.id, sendNs[r.id - firstId], t,
                                   r.queueMicros, r.batchMicros,
                                   r.computeMicros, r.totalMicros,
                                   r.batchSize});
        } else {
            ++log.failed;
        }
        if (t < endNs)
            open = sendOne();
    }
    log.sent += sendNs.size();
    log.failed += sendNs.size() - answered; // lost on the transport.
}

/** Sums over requests of the round trip and of the server's stage
 *  fields, in microseconds; the traced report's mean request. */
struct StageSums
{
    double rttUs = 0, queueUs = 0, batchUs = 0, computeUs = 0, totalUs = 0;
};

/** Per-slice samples of the wire metrics. */
struct WireSamples
{
    std::vector<double> rps;   ///< completions per second.
    std::vector<double> p50Ms; ///< round-trip median.
    std::vector<double> p90Ms; ///< round-trip p90.
    /** Per-slice medians of the response's stage fields (us). */
    std::vector<double> queueP50Us, batchP50Us, computeP50Us;
    StageSums sums;            ///< over the requests the samples cover.
    std::size_t requests = 0;  ///< requests the samples cover.

    /** Add the slice [startNs, endNs) from @p records; the first
     *  kRampNs (connection set-up, window fill) are left out. */
    void
    add(const std::vector<WireRecord> &records, int64_t startNs,
        int64_t endNs)
    {
        std::vector<double> rtt, queue, batch, compute;
        StageSums slice;
        int64_t firstNs = endNs, lastNs = startNs;
        for (const WireRecord &rec : records) {
            if (rec.recvNs < startNs + kRampNs || rec.recvNs >= endNs)
                continue;
            rtt.push_back(static_cast<double>(rec.recvNs - rec.sendNs) / 1e6);
            queue.push_back(rec.queueUs);
            batch.push_back(rec.batchUs);
            compute.push_back(rec.computeUs);
            slice.rttUs += rtt.back() * 1e3;
            slice.queueUs += rec.queueUs;
            slice.batchUs += rec.batchUs;
            slice.computeUs += rec.computeUs;
            slice.totalUs += rec.totalUs;
            firstNs = std::min(firstNs, rec.recvNs);
            lastNs = std::max(lastNs, rec.recvNs);
        }
        if (rtt.size() < 2 || lastNs <= firstNs)
            return;
        // Completions per second between the first and the last counted
        // completion (not per slice length, which would quantize the
        // rate to steps of one request per slice).
        rps.push_back(static_cast<double>(rtt.size() - 1) /
                      (static_cast<double>(lastNs - firstNs) / 1e9));
        p50Ms.push_back(quantile(rtt, 0.5));
        p90Ms.push_back(quantile(rtt, 0.9));
        queueP50Us.push_back(median(queue));
        batchP50Us.push_back(median(batch));
        computeP50Us.push_back(median(compute));
        sums.rttUs += slice.rttUs;
        sums.queueUs += slice.queueUs;
        sums.batchUs += slice.batchUs;
        sums.computeUs += slice.computeUs;
        sums.totalUs += slice.totalUs;
        requests += rtt.size();
    }
};

/** The wire half of a run, accumulated over its slices. */
struct WireResult
{
    WireLog throughput;
    WireLog caller;
    WireSamples throughputSamples;
    WireSamples callerSamples;
    serve::ServeCounters throughputCounters; ///< kept slices only.
    uint64_t gemvCalls = 0;
    uint64_t histogramRecords = 0;
    uint64_t netBytes = 0;
    uint64_t netFrames = 0;
    uint64_t requests = 0; ///< sent in kept slices.
    std::size_t spanned = 0; ///< caller requests written as spans.
};

/**
 * One wire slice: the pipelined connection and the synchronous caller
 * for @p sliceS each, one after the other, or together for twice that
 * when the workload is concurrent. A warm-up slice (@p keep false) is
 * checked for correctness but adds no samples.
 */
void
runWireSlice(const Mix &mix, Fixture &fx, ModelTraffic &throughputTraffic,
             ModelTraffic &callerTraffic, double sliceS, bool keep,
             WireResult &res, SpanLog &spans)
{
    const uint16_t port = fx.server->port();
    const auto sliceNs = static_cast<int64_t>(sliceS * 1e9);
    serve::InferenceServer *tServer =
        fx.frontend->server(mix.throughputModel);
    const serve::ServeCounters c0 = tServer->counters();
    const uint64_t gemv0 = counterValue("kernels.gemv.calls");
    const uint64_t hist0 = histogramRecords(*fx.frontend);
    const uint64_t bytes0 =
        counterValue("net.bytes_rx") + counterValue("net.bytes_tx");
    const uint64_t frames0 = counterValue("net.frames_rx");
    const uint64_t sent0 = res.throughput.sent + res.caller.sent;

    if (mix.concurrent) {
        SpanLog::Scope span(spans, "wire.concurrent");
        const int64_t start = nowNs();
        const int64_t end = start + 2 * sliceNs;
        std::thread pipelined([&] {
            runClient(port, throughputTraffic, kWindow, end, res.throughput);
        });
        runClient(port, callerTraffic, 1, end, res.caller);
        pipelined.join();
        if (keep) {
            res.throughputSamples.add(res.throughput.records, start, end);
            res.callerSamples.add(res.caller.records, start, end);
        }
    } else {
        {
            SpanLog::Scope span(spans, "wire.pipelined");
            const int64_t start = nowNs();
            const int64_t end = start + sliceNs;
            runClient(port, throughputTraffic, kWindow, end, res.throughput);
            if (keep)
                res.throughputSamples.add(res.throughput.records, start,
                                          end);
        }
        SpanLog::Scope span(spans, "wire.sync");
        const int64_t start = nowNs();
        const int64_t end = start + sliceNs;
        runClient(port, callerTraffic, 1, end, res.caller);
        if (keep)
            res.callerSamples.add(res.caller.records, start, end);
    }
    if (!keep)
        return;
    const serve::ServeCounters c1 = tServer->counters();
    res.throughputCounters.completed += c1.completed - c0.completed;
    res.throughputCounters.batches += c1.batches - c0.batches;
    res.gemvCalls += counterValue("kernels.gemv.calls") - gemv0;
    res.histogramRecords += histogramRecords(*fx.frontend) - hist0;
    res.netBytes += counterValue("net.bytes_rx") +
        counterValue("net.bytes_tx") - bytes0;
    res.netFrames += counterValue("net.frames_rx") - frames0;
    res.requests += res.throughput.sent + res.caller.sent - sent0;

    // The caller's requests as spans: the round trip, and as its
    // children the server's queue/batch/compute stages followed by the
    // rest of the round trip (the net layer's own time). The children
    // tile the parent exactly. They are built after the slice from what
    // the client recorded anyway, so tracing adds no work inside a timed
    // round trip. The first kSpanRequests requests are kept, which
    // bounds the trace file; the report's per-layer means use every
    // request.
    if (spans.on()) {
        for (const WireRecord &r : res.caller.records) {
            if (res.spanned == kSpanRequests)
                break;
            ++res.spanned;
            const std::size_t parent =
                spans.add("client.rtt", r.sendNs, r.recvNs, 0, r.id);
            int64_t t = r.sendNs;
            const auto q = static_cast<int64_t>(r.queueUs * 1e3F);
            const auto b = static_cast<int64_t>(r.batchUs * 1e3F);
            const auto c = static_cast<int64_t>(r.computeUs * 1e3F);
            spans.add("serve.queue", t, t + q, parent, r.id);
            t += q;
            spans.add("serve.batch", t, t + b, parent, r.id);
            t += b;
            spans.add("serve.compute", t, t + c, parent, r.id);
            t += c;
            spans.add("net.self", t, r.recvNs, parent, r.id);
        }
    }
}

/**
 * Correctness gate: a fixed trace through the wire must predict the
 * same classes as an in-process InferenceServer on the same backend.
 */
void
checkWireIdentity(Fixture &fx, const std::string &model, uint64_t seed,
                  Ledger &ledger)
{
    const datasets::Dataset &pool = fx.data.test;
    const uint64_t traceSeed = deriveStreamSeed(seed, 0x1D);
    std::vector<int32_t> wire(kIdentityRequests, -2);
    net::NetClient client;
    if (!client.connect("127.0.0.1", fx.server->port(), nullptr)) {
        ledger.count(kIdentityRequests, kIdentityRequests,
                     "wire identity: connect");
        return;
    }
    for (uint64_t id = 0; id < kIdentityRequests; ++id) {
        net::RequestFrame frame;
        frame.id = id;
        frame.streamSeed = deriveStreamSeed(traceSeed, id);
        frame.model = model;
        frame.pixels.assign(pool[id].pixels.begin(),
                            pool[id].pixels.end());
        client.sendRequest(frame, nullptr);
    }
    net::ResponseFrame r;
    for (uint64_t n = 0; n < kIdentityRequests; ++n) {
        if (!client.readResponse(&r, nullptr))
            break;
        if (r.id < kIdentityRequests && r.status == net::FrameStatus::Ok)
            wire[r.id] = r.classIndex;
    }
    serve::InferenceServer local(fx.backends.at(model),
                                 benchServeConfig());
    uint64_t bad = 0;
    for (uint64_t id = 0; id < kIdentityRequests; ++id) {
        serve::InferenceRequest request;
        request.id = id;
        request.streamSeed = deriveStreamSeed(traceSeed, id);
        request.pixels = pool[id].pixels;
        const serve::InferenceResult res =
            local.submit(std::move(request)).get();
        if (res.status != serve::RequestStatus::Ok ||
            res.classIndex != wire[id])
            ++bad;
    }
    ledger.count(kIdentityRequests, bad, "wire identity vs in-process: " +
                                             model);
}

// ---------------------------------------------------------------------
// Offline pipeline.
// ---------------------------------------------------------------------

/** Timed repetitions of one offline phase. The first is the warm-up:
 *  its digest is the reference, its time is dropped. */
struct Reps
{
    std::vector<double> seconds; ///< measured reps.
    uint64_t digest = 0;         ///< the warm-up rep's digest.
    uint64_t mismatches = 0;     ///< measured reps with another digest.
    bool warm = false;           ///< the warm-up rep has run.

    void
    run(const std::function<uint64_t()> &rep)
    {
        const Clock::time_point t0 = Clock::now();
        const uint64_t d = rep();
        const double dt = secondsSince(t0);
        if (!warm) {
            digest = d;
            warm = true;
            return;
        }
        seconds.push_back(dt);
        if (d != digest)
            ++mismatches;
    }
    std::size_t runs() const { return seconds.size() + (warm ? 1 : 0); }
};

/** The offline pipeline's repetition bodies, each returning a digest
 *  of its result. */
class Offline
{
  public:
    Offline(const Fixture &fx, uint64_t seed) : fx_(fx), seed_(seed)
    {
        mlpConfig_.layerSizes = {fx.data.train.inputSize(), kPaperHidden,
                                 static_cast<std::size_t>(
                                     fx.data.train.numClasses())};
    }

    uint64_t mlpSgd() { return trainMlp(fx_.sgdSet, 1, kSgdEpochs); }
    uint64_t mlpB32() { return trainMlp(fx_.b32Set, 32, kB32Epochs); }

    /** STDP training of a fresh network on a cold grid cache. */
    uint64_t
    snnTrain()
    {
        Rng rng(deriveStreamSeed(seed_, 300));
        auto net = std::make_unique<snn::SnnNetwork>(snnConfig_, rng);
        snn::SnnStdpTrainer trainer(snnConfig_);
        snn::SnnTrainConfig tc;
        tc.seed = seed_;
        trainer.train(*net, fx_.snnTrainSet, tc);
        const std::vector<float> &w = net->weights().data();
        const uint64_t d = fnv(w.data(), w.size() * sizeof(float));
        if (!trained_)
            trained_ = std::move(net);
        return d;
    }

    /** Label + evaluate the first trained network; the grid cache of
     *  inferTrainer_ stays warm across reps. */
    uint64_t
    snnInfer()
    {
        const std::vector<int> labels = inferTrainer_.labelNeurons(
            *trained_, fx_.snnLabelSet, snn::EvalMode::Wt,
            deriveStreamSeed(seed_, 1));
        const snn::SnnEvalResult eval = inferTrainer_.evaluate(
            *trained_, labels, fx_.snnEvalSet, snn::EvalMode::Wt,
            deriveStreamSeed(seed_, 2));
        uint64_t d = fnv(labels.data(), labels.size() * sizeof(int));
        d = fnv(&eval.accuracy, sizeof(eval.accuracy), d);
        return fnv(&eval.silent, sizeof(eval.silent), d);
    }

    const snn::SnnStdpTrainer &inferTrainer() const
    {
        return inferTrainer_;
    }

  private:
    uint64_t
    trainMlp(const datasets::Dataset &set, std::size_t batch,
             std::size_t epochs)
    {
        Rng rng(deriveStreamSeed(seed_, 100));
        mlp::Mlp net(mlpConfig_, rng);
        mlp::TrainConfig tc;
        tc.epochs = epochs;
        tc.seed = seed_;
        tc.batchSize = batch;
        mlp::train(net, set, tc);
        return mlpDigest(net);
    }

    const Fixture &fx_;
    uint64_t seed_;
    mlp::MlpConfig mlpConfig_;
    snn::SnnConfig snnConfig_;
    snn::SnnStdpTrainer inferTrainer_{snn::SnnConfig{}};
    std::unique_ptr<snn::SnnNetwork> trained_;
};

struct OfflineDigests
{
    uint64_t sgd = 0, b32 = 0, snnTrain = 0, snnInfer = 0;
};

/** @return the recorded digests for @p seed from @p path, if any. */
std::optional<OfflineDigests>
recordedDigests(const std::string &path, uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        unsigned long long s = 0;
        std::string a, b, c, d;
        if (!(ss >> s >> a >> b >> c >> d) || s != seed)
            continue;
        OfflineDigests out;
        out.sgd = std::stoull(a, nullptr, 16);
        out.b32 = std::stoull(b, nullptr, 16);
        out.snnTrain = std::stoull(c, nullptr, 16);
        out.snnInfer = std::stoull(d, nullptr, 16);
        return out;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Per-layer probes of the traced run: direct calls into each layer's
// public API, timed from outside.
// ---------------------------------------------------------------------

/**
 * Time per call of each of @p fns in nanoseconds, round by round. The
 * functions are probed in one interleaved loop, so neighbours in a
 * round see the same cache and clock state: each gets a batch of calls
 * lasting about @p batchS, and every round times one batch of each.
 * One warm-up round is dropped.
 * @return per function, its time per call in each of @p rounds rounds.
 */
std::vector<std::vector<double>>
probeRounds(const std::vector<std::function<void()>> &fns, int rounds,
            double batchS)
{
    std::vector<std::size_t> calls(fns.size(), 1);
    for (std::size_t f = 0; f < fns.size(); ++f) {
        for (;;) {
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < calls[f]; ++i)
                fns[f]();
            if (secondsSince(t0) > batchS || calls[f] > (1U << 24))
                break;
            calls[f] *= 2;
        }
    }
    std::vector<std::vector<double>> perCall(fns.size());
    for (int round = 0; round <= rounds; ++round) {
        for (std::size_t f = 0; f < fns.size(); ++f) {
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < calls[f]; ++i)
                fns[f]();
            if (round > 0)
                perCall[f].push_back(secondsSince(t0) * 1e9 /
                                     static_cast<double>(calls[f]));
        }
    }
    return perCall;
}

/** Median time per call of @p fn in nanoseconds over 9 rounds of
 *  about 2 ms each. */
double
probeNs(const std::function<void()> &fn)
{
    return median(probeRounds({fn}, 9, 2e-3)[0]);
}

/** Keeps a value observable so a probed call is not optimized away. */
volatile float g_sink = 0.0F;

/** Round trip of @p n synchronous in-process submits, median in us. */
double
medianSubmitUs(const std::function<void(serve::InferenceRequest)> &submit,
               const datasets::Dataset &pool, std::size_t n)
{
    std::vector<double> us;
    for (std::size_t i = 0; i < n; ++i) {
        serve::InferenceRequest req;
        req.id = i;
        req.pixels = pool[i % pool.size()].pixels;
        const Clock::time_point t0 = Clock::now();
        submit(std::move(req));
        if (i >= n / 10)
            us.push_back(secondsSince(t0) * 1e6);
    }
    return median(us);
}

/**
 * One sample through a two-layer MLP, split by layer: its two gemvBias
 * calls (kernels) and the rest of Mlp::predict (mlp). The three calls
 * are probed in one interleaved loop on the same weights, and the mlp
 * self time is the median over rounds of the difference within a
 * round, so drift of the host between probes cancels.
 */
struct ModelChain
{
    double layer0Ns = 0, layer1Ns = 0; ///< gemvBias per layer.
    double predictUs = 0, kernelsUs = 0, mlpSelfUs = 0;
};

ModelChain
probeChain(const mlp::Mlp &net, const float *x)
{
    const Matrix &w0 = net.weights(0);
    const Matrix &w1 = net.weights(1);
    std::vector<float> hidden(w0.rows()), out(w1.rows());
    const std::vector<std::vector<double>> t = probeRounds(
        {[&] {
             kernels::gemvBias(w0.data().data(), w0.rows(), w0.cols(), x,
                               hidden.data());
             g_sink = hidden[0];
         },
         [&] {
             kernels::gemvBias(w1.data().data(), w1.rows(), w1.cols(),
                               hidden.data(), out.data());
             g_sink = out[0];
         },
         [&] { g_sink = static_cast<float>(net.predict(x)); }},
        21, 5e-3);
    std::vector<double> kernelsNs, mlpSelfNs;
    for (std::size_t r = 0; r < t[0].size(); ++r) {
        kernelsNs.push_back(t[0][r] + t[1][r]);
        mlpSelfNs.push_back(t[2][r] - kernelsNs.back());
    }
    ModelChain c;
    c.layer0Ns = median(t[0]);
    c.layer1Ns = median(t[1]);
    c.predictUs = median(t[2]) / 1e3;
    c.kernelsUs = median(kernelsNs) / 1e3;
    c.mlpSelfUs = median(mlpSelfNs) / 1e3;
    return c;
}

/** Everything the traced run reports besides the end-to-end phases. */
struct TraceInputs
{
    const Mix &mix;
    Fixture &fx;
    const WireResult &wire;
    const Reps &sgd;
    const Reps &b32;
    const Reps &snnTrain;
    const Reps &snnInfer;
    uint64_t sgdCallsGemv, sgdCallsGemvT, sgdCallsOuter;
    uint64_t snnCallsGemvT, snnCallsPopcount;
    double snnEventsPerImage;
    double snnHitRatio;
    std::vector<double> setupData, setupTrain, setupStart;
};

void
reportLayers(const TraceInputs &in, Ledger &ledger, SpanLog &spans)
{
    Fixture &fx = in.fx;
    const datasets::Dataset &pool = fx.data.test;
    std::vector<float> x(pool.inputSize());
    pool.normalized(0, x.data());
    std::vector<float> y(kHeavyHidden + 16, 0.0F);
    auto put = [&](const char *name, const char *unit, double v,
                   std::size_t samples) {
        ledger.put(name, unit, v, samples);
    };

    // kernels --------------------------------------------------------
    SpanLog::Scope probeSpan(spans, "probes");
    // Probes use the run's trained models; a workload that serves no
    // model of a shape gets a freshly initialized one of that shape.
    std::optional<mlp::Mlp> heavyLocal, paperLocal;
    auto model = [&](const char *name, std::size_t hidden,
                     std::optional<mlp::Mlp> &local) -> const mlp::Mlp & {
        if (fx.nets.count(name))
            return fx.nets.at(name);
        mlp::MlpConfig mc;
        mc.layerSizes = {pool.inputSize(), hidden, 10};
        Rng rng(hidden);
        return local.emplace(mc, rng);
    };
    const mlp::Mlp *h = &model(kHeavyModel, kHeavyHidden, heavyLocal);
    const mlp::Mlp *p = &model(kPaperModel, kPaperHidden, paperLocal);
    const Matrix &w2048 = h->weights(0);
    const Matrix &w100 = p->weights(0);
    const Matrix &w10 = p->weights(1);

    const ModelChain heavy = probeChain(*h, x.data());
    const ModelChain paper = probeChain(*p, x.data());
    const ModelChain &caller =
        std::strcmp(in.mix.callerModel, kHeavyModel) == 0 ? heavy : paper;
    kernels::setSimdMode(kernels::SimdMode::Off);
    const double g2048Scalar = probeNs([&] {
        kernels::gemvBias(w2048.data().data(), w2048.rows(), w2048.cols(),
                          x.data(), y.data());
        g_sink = y[0];
    });
    kernels::setSimdMode(kernels::SimdMode::Auto);
    put("kernels.gemvBias.2048x785.ns", "ns", heavy.layer0Ns, 21);
    put("kernels.gemvBias.2048x785.vs_scalar", "ratio",
        g2048Scalar / heavy.layer0Ns, 9);
    put("kernels.gemvBias.100x785.ns", "ns", paper.layer0Ns, 21);

    constexpr std::size_t kStrip = kernels::kStripWidth;
    std::vector<float> strip(pool.inputSize() * kStrip);
    for (std::size_t b = 0; b < kStrip; ++b) {
        pool.normalized(b, x.data());
        for (std::size_t k = 0; k < pool.inputSize(); ++k)
            strip[k * kStrip + b] = x[k];
    }
    std::vector<float> stripOut(kHeavyHidden * kStrip);
    put("kernels.gemvBiasStrip.2048x785.ns_per_sample", "ns",
        probeNs([&] {
            kernels::gemvBiasStrip(w2048.data().data(), w2048.rows(),
                                   w2048.cols(), strip.data(),
                                   stripOut.data());
            g_sink = stripOut[0];
        }) / static_cast<double>(kStrip),
        9);

    Matrix scratch = w100;
    std::vector<float> delta(kPaperHidden, 1e-7F);
    std::vector<const float *> deltas(32, delta.data());
    std::vector<const float *> acts(32, x.data());
    put("kernels.addOuterBiasBatch.100x785.ns_per_sample", "ns",
        probeNs([&] {
            kernels::addOuterBiasBatch(scratch.data().data(), scratch.rows(),
                                       scratch.cols(), 1e-3F, deltas.data(),
                                       acts.data(), 32);
        }) / 32.0,
        9);
    const double outer100 = probeNs([&] {
        kernels::addOuterBias(scratch.data().data(), scratch.rows(),
                              scratch.cols(), 1e-3F, delta.data(),
                              x.data());
    });
    Matrix scratch10 = w10;
    const double outer10 = probeNs([&] {
        kernels::addOuterBias(scratch10.data().data(), scratch10.rows(),
                              scratch10.cols(), 1e-3F, delta.data(),
                              x.data());
    });
    put("kernels.addOuterBias.100x785.ns", "ns", outer100, 9);
    const double gemvT10 = probeNs([&] {
        kernels::gemvT(w10.data().data(), w10.rows(), w10.cols(),
                       delta.data(), y.data());
        g_sink = y[0];
    });
    put("kernels.gemvT.10x101.ns", "ns", gemvT10, 9);
    std::vector<double> acc(300, 0.0);
    put("kernels.addRowF64.300.ns", "ns", probeNs([&] {
            kernels::addRowF64(acc.data(), w2048.data().data(), 300);
        }),
        9);
    std::vector<uint64_t> words(8);
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = deriveStreamSeed(i, 7);
    put("kernels.popcountWords.ns", "ns", probeNs([&] {
            g_sink = static_cast<float>(
                kernels::popcountWords(words.data(), words.size()));
        }),
        9);

    const WireResult &u = in.wire;
    const auto wireRequests = static_cast<double>(u.requests);
    put("kernels.gemv_calls_per_request", "count",
        static_cast<double>(u.gemvCalls) / std::max(1.0, wireRequests),
        static_cast<std::size_t>(wireRequests));
    const double sgdSamples = static_cast<double>(
        kSgdImages * kSgdEpochs * in.sgd.runs());
    put("kernels.calls_per_sgd_sample", "count",
        static_cast<double>(in.sgdCallsGemv + in.sgdCallsGemvT +
                            in.sgdCallsOuter) /
            sgdSamples,
        static_cast<std::size_t>(sgdSamples));
    const double snnImages = static_cast<double>(
        kSnnTrainImages * in.snnTrain.runs());
    put("kernels.addRowF64_calls_per_image", "count",
        static_cast<double>(in.snnCallsGemvT) / snnImages,
        static_cast<std::size_t>(snnImages));
    put("kernels.popcount_calls_per_image", "count",
        static_cast<double>(in.snnCallsPopcount) / snnImages,
        static_cast<std::size_t>(snnImages));

    // mlp --------------------------------------------------------------
    put("mlp.predict.2048.us", "us", heavy.predictUs, 21);
    put("mlp.predict.100.us", "us", paper.predictUs, 21);
    std::vector<float> cur, next;
    put("mlp.forwardStrip.2048.us_per_sample", "us",
        probeNs([&] {
            h->forwardStrip(strip.data(), cur, next);
            g_sink = cur[0];
        }) / 1e3 / static_cast<double>(kStrip),
        9);
    // Per-sample SGD does, per sample, one gemvBias per layer, one
    // gemvT through the output layer and one addOuterBias per layer;
    // the registry counters confirm the count (kernels.calls_per_
    // sgd_sample == 5). The rest of the sample's time is the mlp
    // layer's own work.
    const double sgdUsPerSample =
        median(in.sgd.seconds) * 1e6 /
        static_cast<double>(kSgdImages * kSgdEpochs);
    const double kernelUsPerSample =
        (paper.layer0Ns + paper.layer1Ns + gemvT10 + outer100 + outer10) /
        1e3;
    put("mlp.train.self_us_per_sample", "us",
        sgdUsPerSample - kernelUsPerSample, in.sgd.seconds.size());

    // snn --------------------------------------------------------------
    put("snn.train.us_per_image", "us",
        median(in.snnTrain.seconds) * 1e6 /
            static_cast<double>(kSnnTrainImages),
        in.snnTrain.seconds.size());
    put("snn.infer.us_per_image", "us",
        median(in.snnInfer.seconds) * 1e6 /
            static_cast<double>(kSnnLabelImages + kSnnEvalImages),
        in.snnInfer.seconds.size());
    put("snn.grid_cache.hit_ratio", "ratio", in.snnHitRatio,
        in.snnInfer.seconds.size());
    put("snn.events_per_image", "count", in.snnEventsPerImage,
        kSnnTrainImages);

    // serve ------------------------------------------------------------
    // The caller's requests; p50 is the median over slices of each
    // slice's median.
    const WireSamples &cs = u.callerSamples;
    const std::size_t nReq = cs.requests;
    const double n = std::max<double>(1.0, static_cast<double>(nReq));
    const double rttUs = cs.sums.rttUs / n, queueUs = cs.sums.queueUs / n,
                 batchUs = cs.sums.batchUs / n,
                 computeUs = cs.sums.computeUs / n,
                 totalUs = cs.sums.totalUs / n;
    put("serve.queue_us.p50", "us", median(cs.queueP50Us), nReq);
    put("serve.queue_us.mean", "us", queueUs, nReq);
    put("serve.batch_us.p50", "us", median(cs.batchP50Us), nReq);
    put("serve.batch_us.mean", "us", batchUs, nReq);
    put("serve.compute_us.p50", "us", median(cs.computeP50Us), nReq);
    put("serve.compute_us.mean", "us", computeUs, nReq);
    const serve::ServeCounters &tc = u.throughputCounters;
    put("serve.batch_size.mean", "count",
        tc.batches == 0 ? 0.0
                        : static_cast<double>(tc.completed) /
                static_cast<double>(tc.batches),
        tc.batches);
    put("serve.batches", "count", static_cast<double>(tc.batches),
        tc.batches);
    // The caller's batches are its own requests only (one outstanding),
    // so the probe runs classifyBatch at batch size 1.
    std::unique_ptr<serve::BackendSession> session =
        fx.backends.at(in.mix.callerModel)->newSession();
    const uint8_t *px = pool[0].pixels.data();
    const uint64_t seed0 = 1;
    int cls = 0;
    const double classifyUs = probeNs([&] {
        session->classifyBatch(&px, &seed0, 1, pool.inputSize(), &cls);
        g_sink = static_cast<float>(cls);
    }) / 1e3;
    put("serve.classifyBatch.us", "us", classifyUs, 9);

    // common/parallel --------------------------------------------------
    put("parallel.overhead_us", "us", computeUs - classifyUs, nReq);
    put("parallel.dispatch_us", "us", probeNs([&] {
            parallelForRange(0, kThreads, 1,
                             [](std::size_t, std::size_t) {});
        }) / 1e3,
        9);

    // net ----------------------------------------------------------------
    put("net.self_us", "us", rttUs - totalUs, nReq);
    double frontendUs = 0.0;
    {
        net::ServeFrontend frontend(fx.registry, fx.serveConfig,
                                    {in.mix.callerModel});
        serve::InferenceServer direct(fx.backends.at(in.mix.callerModel),
                                      fx.serveConfig);
        std::vector<double> deltas2;
        for (int rep = 0; rep < 5; ++rep) {
            const double viaFrontend = medianSubmitUs(
                [&](serve::InferenceRequest req) {
                    net::RequestFrame f;
                    f.id = req.id;
                    f.model = in.mix.callerModel;
                    f.pixels.assign(req.pixels.begin(), req.pixels.end());
                    // Shared so the promise outlives the callback even
                    // when this thread wakes before set_value returns.
                    auto done = std::make_shared<std::promise<void>>();
                    std::future<void> ready = done->get_future();
                    frontend.submit(std::move(f),
                                    [done](net::ResponseFrame &&) {
                                        done->set_value();
                                    });
                    ready.wait();
                },
                pool, 400);
            const double viaServer = medianSubmitUs(
                [&](serve::InferenceRequest req) {
                    direct.submit(std::move(req)).get();
                },
                pool, 400);
            deltas2.push_back(viaFrontend - viaServer);
        }
        frontendUs = median(deltas2);
    }
    put("net.frontend_us", "us", frontendUs, 5);
    put("net.bytes_per_request", "B",
        u.netFrames == 0 ? 0.0
                         : static_cast<double>(u.netBytes) /
                static_cast<double>(u.netFrames),
        u.netFrames);

    // telemetry --------------------------------------------------------
    telemetry::LatencyHistogram hist;
    double sample = 1.0;
    put("telemetry.histogram_record.ns", "ns", probeNs([&] {
            hist.record(sample);
            sample = sample > 5e4 ? 1.0 : sample * 1.37;
        }),
        9);
    put("telemetry.records_per_request", "count",
        static_cast<double>(u.histogramRecords) / std::max(1.0, wireRequests),
        static_cast<std::size_t>(wireRequests));

    // set-up -----------------------------------------------------------
    put("setup.data_s", "s", median(in.setupData), in.setupData.size());
    put("setup.train_s", "s", median(in.setupTrain), in.setupTrain.size());
    put("setup.start_s", "s", median(in.setupStart), in.setupStart.size());

    // The mean caller request, layer by layer. The wire parts come from
    // the response's stage fields, the in-process parts from the
    // interleaved chain probe. parallel is what the server's compute
    // stage spends beyond the model's predict (pool dispatch and the
    // session's pixel normalization), so the parts sum to the measured
    // mean round trip by construction; what can go wrong is a negative
    // part, which trace.self_min_us shows.
    const double selfNet = rttUs - totalUs;
    const double selfServe = totalUs - computeUs;
    const double selfKernels = caller.kernelsUs;
    const double selfMlp = caller.mlpSelfUs;
    const double selfParallel = computeUs - (selfMlp + selfKernels);
    const double sum =
        selfNet + selfServe + selfParallel + selfMlp + selfKernels;
    const double selfMin = std::min(
        {selfNet, selfServe, selfParallel, selfMlp, selfKernels});
    put("trace.self.net_us", "us", selfNet, nReq);
    put("trace.self.serve_us", "us", selfServe, nReq);
    put("trace.self.parallel_us", "us", selfParallel, nReq);
    put("trace.self.mlp_us", "us", selfMlp, 21);
    put("trace.self.kernels_us", "us", selfKernels, 21);
    put("trace.self_min_us", "us", selfMin, nReq);
    put("trace.rtt_mean_us", "us", rttUs, nReq);

    std::printf("mean %s request over the wire (%zu requests, traced):\n",
                in.mix.callerModel, nReq);
    std::printf("  %-10s %10s\n", "layer", "self us");
    std::printf("  %-10s %10.2f  round trip - server total\n", "net",
                selfNet);
    std::printf("  %-10s %10.2f  server total - compute\n", "serve",
                selfServe);
    std::printf("  %-10s %10.2f  compute - predict probe\n", "parallel",
                selfParallel);
    std::printf("  %-10s %10.2f  predict - its gemvBias calls\n", "mlp",
                selfMlp);
    std::printf("  %-10s %10.2f  gemvBias calls\n", "kernels",
                selfKernels);
    std::printf("  %-10s %10.2f  vs measured mean round trip %.2f us\n",
                "sum", sum, rttUs);
    if (selfMin < 0.0)
        std::printf("WARNING: a layer's self time is negative (%.2f us): "
                    "the probes disagree with the served requests\n",
                    selfMin);
    std::printf("tracing overhead: 0 by construction (spans are built "
                "after each wire slice from what the client records in "
                "every run)\n");
}

// ---------------------------------------------------------------------
// Fingerprint and noise probe.
// ---------------------------------------------------------------------

/** p99 of how late 200 1-ms sleeps wake, in microseconds. */
double
timerWakeP99Us()
{
    std::vector<double> late;
    for (int i = 0; i < 200; ++i) {
        const Clock::time_point due =
            Clock::now() + std::chrono::milliseconds(1);
        std::this_thread::sleep_until(due);
        late.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - due)
                .count());
    }
    return quantile(late, 0.99);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool digestOnly = false;
    std::string traceOut;
    std::string digests;
    std::string gitSha = "unknown";
    std::string srcSha = "unknown";
};

std::optional<Options>
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--digest-only") {
            o.digestOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return std::nullopt;
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed") {
                o.seed = std::stoull(v);
                haveSeed = true;
            } else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = v != "0";
            else if (a == "--trace-out")
                o.traceOut = v;
            else if (a == "--digests")
                o.digests = v;
            else if (a == "--git-sha")
                o.gitSha = v;
            else if (a == "--src-sha")
                o.srcSha = v;
            else
                return std::nullopt;
        } catch (const std::exception &) {
            return std::nullopt;
        }
    }
    if (!haveSeed || (!o.digestOnly && !(o.seconds > 0.0)))
        return std::nullopt;
    return o;
}

void
printResult(const Ledger &ledger)
{
    std::printf("%-48s %16s %-6s %8s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : ledger.metrics())
        std::printf("%-48s %16.6f %-6s %8zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    std::string json = "{\"correct\": ";
    json += ledger.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(ledger.attempted());
    json += ", \"failed\": " + std::to_string(ledger.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < ledger.metrics().size(); ++i) {
        const Metric &m = ledger.metrics()[i];
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : -1.0);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::optional<Options> parsed = parseOptions(argc, argv);
    const std::optional<Mix> mix =
        parsed ? mixFor(parsed->workload) : std::nullopt;
    if (!parsed || !mix) {
        std::fprintf(stderr,
                     "usage: perfledger --workload "
                     "wire_mlp2048|wire_two_tenant "
                     "--seed N --seconds S --trace 0|1 [--trace-out P] "
                     "[--digests P] [--git-sha S] [--src-sha S] "
                     "[--digest-only]\n");
        return 2;
    }
    const Options &opt = *parsed;
    setLogLevel(LogLevel::Quiet);
    setParallelThreadCount(kThreads);
    // Noise probe before anything is measured: how late the guest's
    // timers wake, and (over the run) how much time the host stole.
    const uint64_t steal0 = stealTicks();
    const double wakeP99 = opt.digestOnly ? 0.0 : timerWakeP99Us();
    Ledger ledger;
    SpanLog spans(opt.trace);

    // ---- set-up, several times; the last fixture is kept ------------
    std::unique_ptr<Fixture> fx;
    std::vector<double> setupS, setupData, setupTrain, setupStart;
    const std::size_t setupReps = opt.digestOnly ? 1 : kSetupReps;
    for (std::size_t r = 0; r < setupReps; ++r) {
        fx.reset();
        const Clock::time_point t0 = Clock::now();
        SetupParts parts;
        SpanLog::Scope span(spans, "setup");
        fx = makeFixture(*mix, opt.seed, &parts);
        if (!fx) {
            std::fprintf(stderr, "perfledger: set-up failed\n");
            return 1;
        }
        setupS.push_back(secondsSince(t0));
        setupData.push_back(parts.dataS);
        setupTrain.push_back(parts.trainS);
        setupStart.push_back(parts.startS);
    }

    Offline offline(*fx, opt.seed);
    if (opt.digestOnly) {
        fx->server->stop();
        const uint64_t sgd = offline.mlpSgd();
        const uint64_t b32 = offline.mlpB32();
        const uint64_t train = offline.snnTrain();
        const uint64_t infer = offline.snnInfer();
        std::printf("%llu %s %s %s %s\n",
                    static_cast<unsigned long long>(opt.seed),
                    hex(sgd).c_str(), hex(b32).c_str(), hex(train).c_str(),
                    hex(infer).c_str());
        return 0;
    }

    // ---- measured cycles: one wire slice, then one rep of each
    // offline phase ------------------------------------------------------
    ModelTraffic tTraffic = makeTraffic(*fx, mix->throughputModel, opt.seed);
    ModelTraffic cTraffic = makeTraffic(*fx, mix->callerModel, opt.seed);
    checkWireIdentity(*fx, mix->throughputModel, opt.seed, ledger);
    if (std::strcmp(mix->throughputModel, mix->callerModel) != 0)
        checkWireIdentity(*fx, mix->callerModel, opt.seed, ledger);

    const double sliceS = kWireCycleSeconds / 2;
    WireResult wire;
    Reps sgd, b32, snnTrain, snnInfer;
    uint64_t sgdGemv = 0, sgdGemvT = 0, sgdOuter = 0, snnGemvT = 0,
             snnPop = 0;
    double eventsPerImage = 0.0;
    snn::GridCacheStats cache0;
    // Kernel registry counters moved by @p body, added to @p into.
    auto counted = [](const char *name, uint64_t &into,
                      const std::function<void()> &body) {
        const uint64_t before = counterValue(name);
        body();
        into += counterValue(name) - before;
    };
    // Host steal ticks (/proc/stat) in each measured cycle: not gated,
    // it attributes a slow cycle to the host.
    std::vector<double> cycleSteal;
    const Clock::time_point loop0 = Clock::now();
    for (std::size_t cycle = 0; cycle <= kMaxCycles; ++cycle) {
        const bool keep = cycle > 0;
        const uint64_t cycleSteal0 = stealTicks();
        runWireSlice(*mix, *fx, tTraffic, cTraffic, sliceS, keep, wire,
                     spans);
        {
            SpanLog::Scope span(spans, "offline.mlp_sgd");
            counted("kernels.gemv.calls", sgdGemv, [&] {
                counted("kernels.gemvT.calls", sgdGemvT, [&] {
                    counted("kernels.outer.calls", sgdOuter, [&] {
                        sgd.run([&] { return offline.mlpSgd(); });
                    });
                });
            });
        }
        {
            SpanLog::Scope span(spans, "offline.mlp_b32");
            b32.run([&] { return offline.mlpB32(); });
        }
        {
            SpanLog::Scope span(spans, "offline.snn_train");
            // The traced run counts engine events on the warm-up rep
            // only, so the profiler's cost stays out of the timed reps.
            const bool countEvents = opt.trace && !snnTrain.warm;
            if (countEvents) {
                Profiler::instance().reset();
                Profiler::instance().setEnabled(true);
            }
            counted("kernels.gemvT.calls", snnGemvT, [&] {
                counted("kernels.popcount.calls", snnPop, [&] {
                    snnTrain.run([&] { return offline.snnTrain(); });
                });
            });
            if (countEvents) {
                Profiler::instance().setEnabled(false);
                eventsPerImage =
                    static_cast<double>(Profiler::instance().snapshot().counter(
                        "snn.engine.events")) /
                    static_cast<double>(kSnnTrainImages);
            }
        }
        {
            SpanLog::Scope span(spans, "offline.snn_infer");
            if (snnInfer.warm && cache0.hits + cache0.misses == 0)
                cache0 = offline.inferTrainer().gridCache().stats();
            snnInfer.run([&] { return offline.snnInfer(); });
        }
        if (keep)
            cycleSteal.push_back(
                static_cast<double>(stealTicks() - cycleSteal0));
        if (cycle >= kMinCycles && secondsSince(loop0) >= opt.seconds)
            break;
    }
    fx->server->stop();
    ledger.count(wire.throughput.sent, wire.throughput.failed,
                 "pipelined wire requests");
    ledger.count(wire.caller.sent, wire.caller.failed,
                 "synchronous wire requests");
    const snn::GridCacheStats cache1 =
        offline.inferTrainer().gridCache().stats();
    const double lookups = static_cast<double>(
        (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
    const double hitRatio = lookups > 0
        ? static_cast<double>(cache1.hits - cache0.hits) / lookups
        : 0.0;

    auto printSamples = [](const char *name, const std::vector<double> &v) {
        std::printf("%-10s samples:", name);
        for (double x : v)
            std::printf(" %.5g", x);
        std::printf("\n");
    };
    printSamples("rps", wire.throughputSamples.rps);
    printSamples("p50_ms", wire.callerSamples.p50Ms);
    printSamples("p90_ms", wire.callerSamples.p90Ms);
    printSamples("mlp_sgd_s", sgd.seconds);
    printSamples("mlp_b32_s", b32.seconds);
    printSamples("snn_trn_s", snnTrain.seconds);
    printSamples("snn_inf_s", snnInfer.seconds);
    printSamples("steal_tk", cycleSteal);

    // ---- offline correctness gates -------------------------------------
    const OfflineDigests got{sgd.digest, b32.digest, snnTrain.digest,
                             snnInfer.digest};
    ledger.count(sgd.runs(), sgd.mismatches,
                 "mlp_sgd reps reproduce the warm-up digest");
    ledger.count(b32.runs(), b32.mismatches,
                 "mlp_b32 reps reproduce the warm-up digest");
    ledger.count(snnTrain.runs(), snnTrain.mismatches,
                 "snn_train reps reproduce the warm-up digest");
    ledger.count(snnInfer.runs(), snnInfer.mismatches,
                 "snn_infer reps reproduce the warm-up digest");
    {
        SpanLog::Scope span(spans, "offline.replay_1_thread");
        setParallelThreadCount(1);
        ledger.check(offline.mlpSgd() == got.sgd, "mlp_sgd 1-thread replay");
        ledger.check(offline.mlpB32() == got.b32, "mlp_b32 1-thread replay");
        ledger.check(offline.snnTrain() == got.snnTrain,
                     "snn_train 1-thread replay");
        ledger.check(offline.snnInfer() == got.snnInfer,
                     "snn_infer 1-thread replay");
        setParallelThreadCount(kThreads);
    }
    const std::optional<OfflineDigests> recorded =
        opt.digests.empty() ? std::nullopt
                            : recordedDigests(opt.digests, opt.seed);
    if (recorded) {
        ledger.check(recorded->sgd == got.sgd, "mlp_sgd recorded digest");
        ledger.check(recorded->b32 == got.b32, "mlp_b32 recorded digest");
        ledger.check(recorded->snnTrain == got.snnTrain,
                     "snn_train recorded digest");
        ledger.check(recorded->snnInfer == got.snnInfer,
                     "snn_infer recorded digest");
    }

    // ---- fingerprint ---------------------------------------------------
    const double stealS = static_cast<double>(stealTicks() - steal0) /
        static_cast<double>(sysconf(_SC_CLK_TCK));
    std::printf(
        "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"git_sha\": \"%s\", \"src_sha\": \"%s\", \"compiler\": \"%s\", "
        "\"build\": \"%s\", \"isa\": \"%s\", \"nproc\": %ld, "
        "\"neuro_threads\": %zu, \"serve\": {\"queue_capacity\": %zu, "
        "\"max_batch\": %zu, \"max_wait_us\": %lld}, \"window\": %zu, "
        "\"timer_wake_p99_us\": %.1f, \"steal_s\": %.2f, "
        "\"digests\": {\"mlp_sgd\": \"%s\", \"mlp_b32\": \"%s\", "
        "\"snn_train\": \"%s\", \"snn_infer\": \"%s\", \"recorded\": %s}}}\n",
        mix->name.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.gitSha.c_str(), opt.srcSha.c_str(), PERFLEDGER_COMPILER,
        PERFLEDGER_BUILD_TYPE,
        kernels::isaName(kernels::activeIsa()), sysconf(_SC_NPROCESSORS_ONLN),
        parallelThreadCount(), kQueueCapacity, kMaxBatch,
        static_cast<long long>(kMaxWaitMicros), kWindow, wakeP99, stealS,
        hex(got.sgd).c_str(), hex(got.b32).c_str(),
        hex(got.snnTrain).c_str(), hex(got.snnInfer).c_str(),
        recorded ? "true" : "false");

    // ---- metrics -------------------------------------------------------
    const double attempted = static_cast<double>(ledger.attempted());
    if (!opt.trace) {
        ledger.put("setup_s", "s", median(setupS), setupS.size());
        ledger.put("peak_rss_mb", "MB", peakRssMb(), 1);
        ledger.put("ok_frac", "ratio",
                   (attempted - static_cast<double>(ledger.failed())) /
                       std::max(1.0, attempted),
                   ledger.attempted());
        ledger.put("rps", "1/s", median(wire.throughputSamples.rps),
                   wire.throughputSamples.requests);
        // Over the run's slices: the median of each slice's median and
        // the lower quartile of each slice's p90. Across 10 runs per
        // workload these spread 0.02-0.09 (p50) and 0.04-0.11 (p90); the
        // median of the slices' p90 spread up to 0.10. The lower
        // quartile keeps a regression that reaches most slices in view
        // while a slow spell of the host that hits a few stays out.
        const WireSamples &cs = wire.callerSamples;
        ledger.put("p50_ms", "ms", median(cs.p50Ms), cs.requests);
        ledger.put("p90_ms", "ms", quantile(cs.p90Ms, 0.25), cs.requests);
        auto rate = [&](const char *name, const Reps &r, std::size_t units) {
            ledger.put(name, "1/s",
                       static_cast<double>(units) / median(r.seconds),
                       r.seconds.size());
        };
        rate("mlp_train_per_s", sgd, kSgdImages * kSgdEpochs);
        rate("mlp_train_b32_per_s", b32, kB32Images * kB32Epochs);
        rate("snn_train_per_s", snnTrain, kSnnTrainImages);
        rate("snn_infer_per_s", snnInfer, kSnnLabelImages + kSnnEvalImages);
    } else {
        TraceInputs in{*mix,     *fx,      wire,      sgd,
                       b32,      snnTrain, snnInfer,  sgdGemv,
                       sgdGemvT, sgdOuter, snnGemvT,  snnPop,
                       eventsPerImage,     hitRatio,  setupData,
                       setupTrain,         setupStart};
        reportLayers(in, ledger, spans);
        if (!opt.traceOut.empty()) {
            if (spans.write(opt.traceOut))
                std::printf("spans: %zu written to %s\n", spans.size(),
                            opt.traceOut.c_str());
            else
                std::fprintf(stderr, "perfledger: cannot write %s\n",
                             opt.traceOut.c_str());
        }
    }
    printResult(ledger);
    return ledger.failed() == 0 ? 0 : 1;
}
