/**
 * @file
 * Typed metrics registry — the one metric store of the repo
 * (docs/observability.md). Every named live value a scraper or a
 * stats dump can read lives here:
 *
 * - Counter    — monotonic uint64 (requests completed, cache hits,
 *                obsCount() domain counters);
 * - Gauge      — last-write-wins double (queue depth, epoch error);
 * - Histogram  — the log-bucketed LatencyHistogram (stage latencies,
 *                `scope/<name>` profiler timings in µs, obsSample()).
 *
 * Metrics are created on first use and live for the process lifetime;
 * handles returned by counter()/gauge()/histogram() are shared_ptrs
 * that stay valid forever, so hot paths pay one relaxed atomic per
 * update and never re-lookup by name. Names are dotted
 * (`serve.stage.queue`) and a name belongs to one kind.
 *
 * A metric may carry a `model` label: each (name, model) pair is its
 * own series, so two InferenceServers serving different models never
 * share a counter, a gauge or a histogram (the Prometheus exporter
 * prints them as `name{model="..."}` under one `# TYPE` line). The
 * empty model is the unlabeled series used by process-wide metrics.
 * Components registering the *same* (name, model) pair share it.
 *
 * The process-wide registry (instance()) is what the Sampler snapshots
 * and the Prometheus/JSON/CSV/stats exporters serialize (export.h);
 * separate MetricRegistry objects can be constructed for tests.
 * resetValues() zeroes everything between measurement runs.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "neuro/common/mutex.h"
#include "neuro/telemetry/histogram.h"

namespace neuro {
namespace telemetry {

/** Monotonic event counter (thread-safe, relaxed). */
class Counter
{
  public:
    /** Add @p delta to the counter. */
    void
    inc(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** @return the current value. */
    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the counter (measurement-run bookkeeping, not rollover). */
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (thread-safe, relaxed). */
class Gauge
{
  public:
    /** Set the gauge to @p v. */
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** @return the most recently set value. */
    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Reset to zero. */
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A point-in-time copy of every registered metric, sorted by name and
 * then model within each kind — the deterministic input of every
 * exporter. Series of one name are contiguous.
 */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        std::string model; ///< empty = unlabeled.
        uint64_t value = 0;
    };
    struct GaugeValue
    {
        std::string name;
        std::string model;
        double value = 0.0;
    };
    struct HistogramValue
    {
        std::string name;
        std::string model;
        LatencyHistogram::Summary summary;
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /** @return the counter series' value (0 if absent). */
    uint64_t counter(const std::string &name,
                     const std::string &model = "") const;

    /** @return the gauge series' value (0 if absent). */
    double gauge(const std::string &name,
                 const std::string &model = "") const;

    /** @return the histogram series' summary (all zero if absent). */
    LatencyHistogram::Summary
    histogram(const std::string &name,
              const std::string &model = "") const;
};

/** @return `name` for the unlabeled series, `name{model=<model>}`
 *  otherwise — the series key of the JSON, CSV and stats exporters. */
std::string seriesKey(const std::string &name, const std::string &model);

/** Named counters, gauges and histograms behind one lookup. */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /**
     * @return the process-wide registry. Deliberately never destroyed
     * (leaked on exit) so exit hooks and late-running worker threads
     * can always read it, whatever the static-destruction order.
     */
    static MetricRegistry &instance();

    /** @return the counter series (@p name, @p model), created on
     *  first use. */
    std::shared_ptr<Counter> counter(const std::string &name,
                                     const std::string &model = "");

    /** @return the gauge series, created on first use. */
    std::shared_ptr<Gauge> gauge(const std::string &name,
                                 const std::string &model = "");

    /** @return the histogram series, created on first use. */
    std::shared_ptr<LatencyHistogram>
    histogram(const std::string &name, const std::string &model = "");

    /** @return a consistent, name-sorted copy of every metric. */
    MetricsSnapshot snapshot() const;

    /** Zero every metric's value; registrations and handles remain
     *  valid (between measurement runs, and in tests). */
    void resetValues();

    /** @return number of registered series (all kinds, all models). */
    std::size_t size() const;

  private:
    /** (name, model): sorts every series of a name together. */
    using Key = std::pair<std::string, std::string>;
    template <typename T>
    using SeriesMap = std::map<Key, std::shared_ptr<T>>;

    /** @return the series in @p map, created on first use after
     *  checking @p name is not registered as another kind. */
    template <typename T>
    std::shared_ptr<T> findOrCreate(SeriesMap<T> &map, const char *kind,
                                    const std::string &name,
                                    const std::string &model)
        NEURO_REQUIRES(mutex_);

    /** Panics if @p name is registered under a different kind. */
    void assertKindFree(const std::string &name, const char *kind) const
        NEURO_REQUIRES(mutex_);

    mutable Mutex mutex_;
    SeriesMap<Counter> counters_ NEURO_GUARDED_BY(mutex_);
    SeriesMap<Gauge> gauges_ NEURO_GUARDED_BY(mutex_);
    SeriesMap<LatencyHistogram> histograms_ NEURO_GUARDED_BY(mutex_);
};

} // namespace telemetry
} // namespace neuro
