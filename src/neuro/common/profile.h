/**
 * @file
 * Scoped profiler and observability entry points: one metric store
 * and one event sink behind one on/off discipline.
 *
 * - telemetry::MetricRegistry (telemetry/metrics.h) holds the data:
 *   NEURO_PROFILE_SCOPE times a region into the `scope/<name>`
 *   histogram (µs), obsCount()/obsSample()/obsGauge() record into a
 *   registry counter/histogram/gauge. The Profiler is only the switch
 *   gating them, plus reset()/snapshot() over the registry.
 * - Tracer (trace.h): a Chrome trace_event JSON sink receiving
 *   begin/end events for the same scopes and counter events for the
 *   same domain signals.
 *
 * Instrument a region with the RAII macro:
 *
 *     void train(...) {
 *         NEURO_PROFILE_SCOPE("snn/train");
 *         ...
 *     }
 *
 * The macro caches its histogram handle at the call site. When both
 * the profiler and the tracer are disabled (the default) a scope and
 * each obs*() call cost two relaxed atomic loads and record nothing.
 * Enable collection programmatically, with the config keys
 * `trace=<path>` / `stats_dump=1` / `metrics=<path>` via
 * initObservability(), or with the NEURO_TRACE / NEURO_STATS_DUMP /
 * NEURO_METRICS environment variables, which work in any binary
 * linking neuro_common with no code changes.
 *
 * All observability shutdown work runs through one prioritized atexit
 * sequence (addObservabilityExitHook): metrics flush (10), stats dump
 * (20), trace finalizer (30).
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "neuro/common/trace.h"
#include "neuro/telemetry/histogram.h"
#include "neuro/telemetry/metrics.h"

namespace neuro {

class Config;

/** Process-wide profiling switch over MetricRegistry::instance(). */
class Profiler
{
  public:
    /** @return the process-wide profiler. */
    static Profiler &instance();

    /** @return true if the profiler is collecting (cheap). */
    static bool
    enabled()
    {
        return instance().active_.load(std::memory_order_relaxed);
    }

    /** Turn collection on or off. */
    void setEnabled(bool on);

    /** @return a snapshot of the process-wide metric registry. */
    telemetry::MetricsSnapshot snapshot() const;

    /** Zero every registry value, profiler-fed or not (registrations
     *  and cached handles stay valid; collection state kept). */
    void reset();

  private:
    Profiler() = default;
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    std::atomic<bool> active_{false};
};

/**
 * One NEURO_PROFILE_SCOPE call site: the scope's name and its
 * `scope/<name>` registry histogram, looked up on the first profiled
 * pass and cached. Constant-initialized, so an unprofiled site costs
 * no guard check.
 */
class ScopeSite
{
  public:
    explicit constexpr ScopeSite(const char *name) : name_(name) {}

    /** @return the scope name (no `scope/` prefix). */
    const char *name() const { return name_; }

    /** @return the site's `scope/<name>` histogram (µs). */
    telemetry::LatencyHistogram &histogram();

  private:
    const char *name_;
    /** Registry-owned; the registry never drops a metric. */
    std::atomic<telemetry::LatencyHistogram *> histogram_{nullptr};
};

/**
 * RAII scope timer: records the scope's wall time into its site's
 * `scope/<name>` histogram (µs) and brackets the region with
 * begin/end trace events. Inert when both sinks are off.
 */
class ProfileScope
{
  public:
    explicit ProfileScope(ScopeSite &site)
    {
        const bool profile = Profiler::enabled();
        const bool trace = Tracer::enabled();
        if (!profile && !trace)
            return;
        site_ = &site;
        profiled_ = profile;
        traced_ = trace;
        if (traced_)
            Tracer::instance().begin(site.name());
        start_ = std::chrono::steady_clock::now();
    }

    ~ProfileScope()
    {
        if (!site_)
            return;
        if (profiled_) {
            const auto dt = std::chrono::steady_clock::now() - start_;
            site_->histogram().record(
                std::chrono::duration<double, std::micro>(dt).count());
        }
        if (traced_)
            Tracer::instance().end(site_->name());
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    ScopeSite *site_ = nullptr;
    bool profiled_ = false;
    bool traced_ = false;
    std::chrono::steady_clock::time_point start_;
};

#define NEURO_PROFILE_CONCAT2(a, b) a##b
#define NEURO_PROFILE_CONCAT(a, b) NEURO_PROFILE_CONCAT2(a, b)

/** Time the enclosing scope under the given hierarchical name (a
 *  string literal: the call site caches it with its histogram). */
#define NEURO_PROFILE_SCOPE(name)                                       \
    static constinit ::neuro::ScopeSite NEURO_PROFILE_CONCAT(           \
        neuroScopeSite_, __LINE__)(name);                               \
    ::neuro::ProfileScope NEURO_PROFILE_CONCAT(neuroProfileScope_,      \
                                               __LINE__)(               \
        NEURO_PROFILE_CONCAT(neuroScopeSite_, __LINE__))

/** @return true if either observability sink is collecting. */
inline bool
obsEnabled()
{
    return Profiler::enabled() || Tracer::enabled();
}

/**
 * Record a domain counter: bumps the registry counter @p name and,
 * when tracing, plots the new cumulative value as a Chrome counter
 * series. No-op (two relaxed loads) when observability is off.
 */
void obsCount(const char *name, uint64_t delta = 1);

/** Record a whole-unit sample (count, cycles, depth) into the registry
 *  histogram @p name; when tracing, also plot it as a counter series. */
void obsSample(const char *name, double v);

/** Set the registry gauge @p name — for fractional values such as an
 *  epoch's mean error; when tracing, also plot it. */
void obsGauge(const char *name, double v);

/**
 * Wire observability up from a parsed Config: `trace=<path>` starts
 * the Chrome-trace sink, `stats_dump=1` (or any truthy value) enables
 * the profiler and writes the metric registry to stderr at process
 * exit (telemetry::writeStats); a trace also enables the profiler so
 * scope timings and the trace agree. `metrics=<path>` starts the
 * global telemetry sampler (telemetry/telemetry.h) with period
 * `metrics_period_ms`. The CLI
 * exposes these as --trace=<path> / --stats-dump / --metrics=<path>,
 * and parseEnv() maps NEURO_TRACE / NEURO_STATS_DUMP / NEURO_METRICS
 * onto the same keys.
 */
void initObservability(const Config &cfg);

/**
 * Register @p hook to run once when the process exits, ordered by
 * ascending @p priority (ties run in registration order). The
 * built-in sequence is: telemetry flush (priority 10), stats dump
 * (20), trace finalizer (30) — a single std::atexit handler drives
 * all of them, so the relative order is fixed no matter which sink
 * was enabled first.
 */
void addObservabilityExitHook(int priority,
                              std::function<void()> hook);

} // namespace neuro

